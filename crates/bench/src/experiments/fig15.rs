//! Appendix E, Figure 15: the policy-induced ball-growing example —
//! eight annotated ASes around center A, with ball membership at each
//! radius, plus a router-overlay demonstration of the RL policy path
//! construction.

use crate::ExpCtx;
use topogen_core::report::TableData;
use topogen_core::RunCtx;
use topogen_graph::Graph;
use topogen_policy::balls::policy_ball;
use topogen_policy::overlay::RouterOverlay;
use topogen_policy::rel::{annotations_from_pairs, AsAnnotations};

/// The Figure 15 example graph (A..H = 0..7) with the provider–customer
/// orientation that reproduces the paper's stated memberships.
pub fn figure15_graph() -> (Graph, AsAnnotations) {
    let g = Graph::from_edges(
        8,
        vec![
            (0, 1), // A-B
            (0, 2), // A-C
            (0, 7), // A-H
            (1, 4), // B-E (E provider of B)
            (2, 3), // C-D
            (3, 4), // D-E
            (4, 6), // E-G
            (4, 5), // E-F
        ],
    );
    let ann = annotations_from_pairs(
        &g,
        &[
            (0, 1),
            (0, 2),
            (0, 7),
            (4, 1),
            (2, 3),
            (3, 4),
            (4, 6),
            (4, 5),
        ],
        &[],
        &[],
    );
    (g, ann)
}

/// Ball memberships around A for radii 0..=4, as a table (names A..H).
pub fn run(_ctx: &ExpCtx, _run: &RunCtx) -> TableData {
    let (g, ann) = figure15_graph();
    let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
    let mut rows = Vec::new();
    for h in 0..=4u32 {
        let (ball, map) = policy_ball(&g, &ann, 0, h);
        let mut members: Vec<&str> = map.originals().iter().map(|&v| names[v as usize]).collect();
        members.sort_unstable();
        rows.push(vec![
            h.to_string(),
            members.join(" "),
            ball.edge_count().to_string(),
        ]);
    }
    TableData {
        id: "fig15-policy-ball".into(),
        header: vec!["radius h".into(), "ball members".into(), "links".into()],
        rows,
        failures: Vec::new(),
    }
}

/// The RL half of Appendix E: expand the Figure 15 ASes into a toy
/// router overlay (one router per AS, chained through the AS structure)
/// and report router-level policy distances from A's router.
pub fn run_overlay(_ctx: &ExpCtx, _run: &RunCtx) -> TableData {
    let (asg, ann) = figure15_graph();
    // One border router per AS; router adjacency mirrors AS adjacency.
    let routers = Graph::from_edges(
        8,
        asg.edges().iter().map(|e| (e.a, e.b)).collect::<Vec<_>>(),
    );
    let router_as: Vec<u32> = (0..8).collect();
    let ov = RouterOverlay::new(&routers, &router_as, &asg, &ann);
    let d = ov.policy_router_distances(0);
    let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
    let rows = (0..8usize)
        .map(|v| {
            vec![
                names[v].to_string(),
                if d[v] == u32::MAX {
                    "unreachable".into()
                } else {
                    d[v].to_string()
                },
            ]
        })
        .collect();
    TableData {
        id: "fig15-router-overlay".into(),
        header: vec!["router (AS)".into(), "policy distance from A".into()],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ball_memberships() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        // h=3: A B C D E H (F and G enter at 4).
        assert_eq!(t.rows[3][1], "A B C D E H");
        assert_eq!(t.rows[4][1], "A B C D E F G H");
        // h=3 includes 5 links, h=4 adds (E,F) and (E,G).
        assert_eq!(t.rows[3][2], "5");
        assert_eq!(t.rows[4][2], "7");
    }

    #[test]
    fn overlay_distances_match_as_policy() {
        let t = run_overlay(&ExpCtx::default(), &RunCtx::new());
        let get = |n: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == n)
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(get("B"), "1");
        assert_eq!(get("E"), "3"); // via C, D — the valley via B is blocked
        assert_eq!(get("F"), "4");
    }
}
