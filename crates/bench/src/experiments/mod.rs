//! One module per reproduced table/figure.

pub mod ablations;
pub mod bgp;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig15;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod robustness;
pub mod signatures;
pub mod tab1;

use crate::ExpCtx;
use topogen_core::report::Series;
use topogen_core::zoo::{build_in, BuiltTopology, TopologySpec};
use topogen_core::RunCtx;
use topogen_graph::NodeId;
use topogen_metrics::balls::PlainBalls;
use topogen_metrics::engine::{BallMetric, BallPlan};
use topogen_par::{cancel, panic_message};

/// Build the Figure 1 zoo (shared by most experiments). Building is
/// seconds-scale at `Scale::Small`; `run.store` caches it across runs.
pub fn build_zoo(ctx: &ExpCtx, run: &RunCtx) -> Vec<BuiltTopology> {
    TopologySpec::figure1_zoo(ctx.scale)
        .iter()
        .map(|s| build_in(run, s, ctx.scale, ctx.seed))
        .collect()
}

/// Run one component of an experiment (one topology's build or suite)
/// with panic isolation: a panic becomes `Err(redacted message)` so the
/// rest of the table/figure still renders. Deadline cancellations are
/// *not* absorbed — they unwind the whole unit so timeouts stay prompt.
pub fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if cancel::is_cancelled_payload(payload.as_ref()) {
                std::panic::resume_unwind(payload);
            }
            Err(panic_message(payload.as_ref()))
        }
    }
}

/// The Figure 1 zoo with per-topology fault isolation: topologies that
/// fail to build are reported as `(name, reason)` instead of aborting
/// the whole experiment (the degraded entries render as footnotes).
pub struct ZooBuild {
    /// The topologies that built successfully, in zoo order.
    pub built: Vec<BuiltTopology>,
    /// `(topology name, redacted reason)` for each failed build.
    pub failures: Vec<(String, String)>,
}

/// The common shape of the zoo figures (fig6–fig10): one series per
/// topology, with per-topology panic isolation at both the build and
/// the measure stage. `f` returns `None` to skip a topology (the
/// existing RL-at-quick-settings escape hatches); panics inside `f`
/// become footnoted failures instead of aborting the figure.
pub fn zoo_figure_degraded(
    ctx: &ExpCtx,
    run: &RunCtx,
    id: impl Into<String>,
    x_label: &str,
    y_label: &str,
    mut f: impl FnMut(&BuiltTopology) -> Option<topogen_core::report::Series>,
) -> topogen_core::report::FigureData {
    let zoo = build_zoo_degraded(ctx, run);
    let mut fig = topogen_core::report::FigureData::new(id, x_label, y_label, Vec::new());
    for (name, reason) in zoo.failures {
        fig.note_failure(name, reason);
    }
    for t in &zoo.built {
        match catching(|| f(t)) {
            Ok(Some(s)) => fig.series.push(s),
            Ok(None) => {}
            Err(reason) => fig.note_failure(t.name.clone(), reason),
        }
    }
    fig
}

/// `t`'s ball-growing curve of `metric` around `centers` as a figure
/// series (x = average ball size, y = average value), on the run's
/// kernel policy. `metric` must decline every ball above `max_ball`
/// nodes: the bitset kernel then skips building them.
pub fn ball_metric_series(
    run: &RunCtx,
    t: &BuiltTopology,
    centers: Vec<NodeId>,
    max_h: u32,
    max_ball: usize,
    metric: &dyn BallMetric,
) -> Series {
    let src = PlainBalls { graph: &t.graph };
    // The figure consumers draw no randomness: the plan seed is unused.
    let out = BallPlan::new(&src, max_h, 0)
        .ball_centers(centers)
        .metric(metric)
        .ball_size_cap(Some(max_ball))
        .kernel(run.kernel)
        .context(run.engine())
        .run();
    let curve = &out.curves[0];
    let x: Vec<f64> = curve.iter().map(|p| p.avg_size).collect();
    let y: Vec<f64> = curve.iter().map(|p| p.value).collect();
    Series::new(&t.name, &x, &y)
}

/// [`build_zoo`] with per-topology panic isolation.
pub fn build_zoo_degraded(ctx: &ExpCtx, run: &RunCtx) -> ZooBuild {
    let mut built = Vec::new();
    let mut failures = Vec::new();
    for s in &TopologySpec::figure1_zoo(ctx.scale) {
        match catching(|| build_in(run, s, ctx.scale, ctx.seed)) {
            Ok(t) => built.push(t),
            Err(reason) => failures.push((s.name(), reason)),
        }
    }
    ZooBuild { built, failures }
}

/// The canonical / measured / generated grouping the paper's figures use.
pub fn group_of(name: &str) -> &'static str {
    match name {
        "Tree" | "Mesh" | "Random" | "Complete" | "Linear" => "canonical",
        "AS" | "RL" => "measured",
        "B-A" | "Brite" | "BT" | "Inet" | "AB" => "degree-based",
        _ => "generated",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups() {
        assert_eq!(group_of("Tree"), "canonical");
        assert_eq!(group_of("AS"), "measured");
        assert_eq!(group_of("PLRG"), "generated");
        assert_eq!(group_of("BT"), "degree-based");
    }
}
