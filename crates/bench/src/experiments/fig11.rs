//! Appendix C (Figure 11): the parameter-space exploration table —
//! node counts and average degrees across the PLRG / Transit-Stub /
//! Tiers / Waxman parameter grid.
//!
//! §4.4's conclusion rests on this sweep: "for most parameter values the
//! results are in agreement with what we have presented here", with the
//! extreme regimes (exercised in `ablation-extremes`) as the exceptions.

use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::TableData;
use topogen_core::zoo::Scale;
use topogen_core::RunCtx;
use topogen_generators::plrg::{plrg, PlrgParams};
use topogen_generators::tiers::{tiers, TiersParams};
use topogen_generators::transit_stub::{transit_stub, TransitStubParams};
use topogen_generators::waxman::{waxman, WaxmanParams};
use topogen_graph::components::largest_component;

/// Run the sweep. At `Scale::Small`/quick the node counts are divided by
/// 4 to keep the Waxman O(n²) generation and the metric-free table fast.
pub fn run(ctx: &ExpCtx, _run: &RunCtx) -> TableData {
    let div = if ctx.quick || ctx.scale == Scale::Small {
        4
    } else {
        1
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xF11);

    // --- PLRG: the appendix's α grid (paper avg degrees 2.79–4.61). ---
    for alpha in [2.550144, 2.358213, 2.246677, 2.253182] {
        let p = PlrgParams {
            n: 10_000 / div,
            alpha,
            max_degree: None,
        };
        let g = largest_component(&plrg(&p, &mut rng)).0;
        rows.push(vec![
            "PLRG".into(),
            format!("alpha={alpha:.6}"),
            g.node_count().to_string(),
            format!("{:.2}", g.average_degree()),
        ]);
    }

    // --- Transit-Stub: default plus the extra-edge ladder
    // (3 eTS eSS 6 0.55 6 0.32 9 0.248, paper avg degrees 2.78–3.99). ---
    let ladder = [
        (0usize, 0usize),
        (5, 10),
        (10, 20),
        (20, 40),
        (40, 80),
        (50, 100),
        (75, 200),
        (100, 400),
        (200, 800),
    ];
    for (ets, ess) in ladder {
        let p = TransitStubParams {
            extra_transit_stub_edges: ets,
            extra_stub_stub_edges: ess,
            ..TransitStubParams::paper_default()
        };
        let g = transit_stub(&p, &mut rng).graph;
        rows.push(vec![
            "TS".into(),
            format!("3 {ets} {ess} 6 0.55 6 0.32 9 0.248"),
            g.node_count().to_string(),
            format!("{:.2}", g.average_degree()),
        ]);
    }

    // --- Tiers: a recoverable slice of the appendix grid. ---
    let tiers_grid = [
        (20usize, 4usize, 200usize, 10usize, 4usize),
        (50, 10, 500, 40, 5),
        (100, 10, 1000, 50, 4),
    ];
    for (mans, lans, wan, man, lan) in tiers_grid {
        let p = TiersParams {
            mans_per_wan: (mans / div).max(1),
            lans_per_man: lans,
            wan_nodes: (wan / div).max(10),
            man_nodes: man,
            lan_nodes: lan,
            ..TiersParams::paper_default()
        };
        let g = tiers(&p, &mut rng);
        rows.push(vec![
            "Tiers".into(),
            format!(
                "1 {} {} {} {} {}",
                p.mans_per_wan, p.lans_per_man, p.wan_nodes, p.man_nodes, p.lan_nodes
            ),
            g.node_count().to_string(),
            format!("{:.2}", g.average_degree()),
        ]);
    }

    // --- Waxman: the appendix's (n, α, β) grid. ---
    let waxman_grid = [
        (1000usize, 0.050, 0.20),
        (5000, 0.005, 0.05),
        (5000, 0.005, 0.10),
        (5000, 0.005, 0.30),
        (5000, 0.005, 0.50),
        (5000, 0.010, 0.05),
        (5000, 0.010, 0.10),
        (5000, 0.010, 0.30),
    ];
    for (n, alpha, beta) in waxman_grid {
        let n = n / div;
        // Scale α to keep the expected degree of the scaled instance
        // comparable (degree ∝ α·n).
        let alpha = (alpha * div as f64).min(1.0);
        let g = largest_component(&waxman(&WaxmanParams { n, alpha, beta }, &mut rng)).0;
        rows.push(vec![
            "Waxman".into(),
            format!("n={n} alpha={alpha:.3} beta={beta:.2}"),
            g.node_count().to_string(),
            format!("{:.2}", g.average_degree()),
        ]);
    }

    TableData {
        id: "fig11-parameter-exploration".into(),
        header: vec![
            "Generator".into(),
            "Parameters".into(),
            "Nodes (LCC)".into(),
            "AvgDeg".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_families() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        let count = |fam: &str| t.rows.iter().filter(|r| r[0] == fam).count();
        assert_eq!(count("PLRG"), 4);
        assert_eq!(count("TS"), 9);
        assert!(count("Tiers") >= 2);
        assert_eq!(count("Waxman"), 8);
    }

    #[test]
    fn ts_extra_edges_raise_degree() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        let ts: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "TS")
            .map(|r| r[3].parse().unwrap())
            .collect();
        // The paper's ladder: avg degree grows monotonically with the
        // extra-edge budget (2.78 → 3.99).
        assert!(*ts.last().unwrap() > ts.first().unwrap() + 0.5);
    }

    #[test]
    fn waxman_beta_raises_degree() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        let w: Vec<(String, f64)> = t
            .rows
            .iter()
            .filter(|r| r[0] == "Waxman")
            .map(|r| (r[1].clone(), r[3].parse().unwrap()))
            .collect();
        let b05 = w
            .iter()
            .find(|(p, _)| p.contains("alpha=0.020 beta=0.05"))
            .unwrap()
            .1;
        let b30 = w
            .iter()
            .find(|(p, _)| p.contains("alpha=0.020 beta=0.30"))
            .unwrap()
            .1;
        assert!(b30 > b05, "beta=0.30 ({b30}) must beat beta=0.05 ({b05})");
    }
}
