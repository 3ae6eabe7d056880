//! The paper's "additional metrics ... of our own devising" (footnote
//! 22): the average path length between any two nodes in a ball of size
//! n, and the expected max-flow between the center of a ball and nodes
//! on its surface. The paper reports both were consistent with — but not
//! more discriminating than — the three basic metrics; we include them
//! for completeness and as cross-checks.

use crate::engine::{BallMetric, MeasureCtx};
use topogen_graph::bfs::distances;
use topogen_graph::flow::max_flow_unit;
use topogen_graph::{Graph, NodeId, UNREACHED};

/// Expected center→surface max flow as an engine consumer: for each
/// ball, the mean unit max flow from the ball's center to sampled nodes
/// at the maximum distance from it (the ball's "surface"). The per-ball
/// average path length is [`crate::engine::PathLengthMetric`].
pub struct SurfaceFlowMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
    /// Surface nodes sampled per ball (evenly strided).
    pub surface_samples: usize,
}

impl BallMetric for SurfaceFlowMetric {
    fn name(&self) -> &'static str {
        "surface_flow"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        ball_surface_flow(ball, self.max_ball_nodes, self.surface_samples)
    }
}

/// Mean unit max-flow from ball node 0 — the center on both engine
/// kernels (`engine::tests::ball_center_is_node_zero_on_both_kernels`)
/// — to up to `samples` surface nodes.
fn ball_surface_flow(g: &Graph, max_ball_nodes: usize, samples: usize) -> Option<f64> {
    let n = g.node_count();
    if n < 2 || n > max_ball_nodes {
        return None;
    }
    let d = distances(g, 0);
    let maxd = d.iter().filter(|&&x| x != UNREACHED).max().copied()?;
    if maxd == 0 {
        return None;
    }
    let surface: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| d[v as usize] == maxd)
        .collect();
    let step = (surface.len() / samples.max(1)).max(1);
    let picked: Vec<NodeId> = surface.iter().step_by(step).copied().collect();
    if picked.is_empty() {
        return None;
    }
    let total: u64 = picked.iter().map(|&t| max_flow_unit(g, 0, t)).sum();
    Some(total as f64 / picked.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{plain_curve, PathLengthMetric};
    use topogen_generators::canonical::{kary_tree, mesh, ring};

    fn flow(max_ball_nodes: usize, surface_samples: usize) -> SurfaceFlowMetric {
        SurfaceFlowMetric {
            max_ball_nodes,
            surface_samples,
        }
    }

    #[test]
    fn path_length_curve_on_ring() {
        let g = ring(12);
        let c = plain_curve(
            &g,
            &[0, 6],
            6,
            &PathLengthMetric {
                max_ball_nodes: 1000,
            },
        );
        // Radius-1 balls are 3-node paths: APL = (1+1+2+2+1+1)/6 = 4/3.
        assert!((c[1].value - 4.0 / 3.0).abs() < 1e-9);
        // Radius 6 closes the cycle: APL of C12 = 36/11 (per node the
        // distances 1,1,2,2,…,5,5,6 sum to 36 over 11 pairs). Note the
        // value *drops* from the radius-5 path's — ball APL need not be
        // monotone.
        assert!(
            (c[6].value - 36.0 / 11.0).abs() < 1e-9,
            "C12 APL {}",
            c[6].value
        );
    }

    #[test]
    fn tree_surface_flow_is_one() {
        let g = kary_tree(3, 4);
        let c = plain_curve(&g, &[0], 4, &flow(1000, 6));
        for p in c.iter().filter(|p| p.value.is_finite()) {
            assert!((p.value - 1.0).abs() < 1e-9, "tree flow {}", p.value);
        }
    }

    #[test]
    fn mesh_surface_flow_exceeds_tree() {
        let g = mesh(9, 9);
        let c = plain_curve(&g, &[40], 4, &flow(1000, 6));
        // Some surface nodes sit in degree-2 pockets of the ball, so the
        // average lands between 1 and 2 — still clearly above the
        // tree's 1.0.
        let last = c.iter().rev().find(|p| p.value.is_finite()).unwrap();
        assert!(last.value > 1.2, "mesh flow {}", last.value);
    }

    #[test]
    fn degenerate_balls_skipped() {
        let g = kary_tree(2, 2);
        let c = plain_curve(&g, &[0], 0, &flow(1000, 4));
        assert!(c[0].value.is_nan());
    }
}
