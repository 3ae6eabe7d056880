//! Appendix B, Figure 8: (a–c) vertex cover vs ball size and (d–f)
//! biconnected components vs ball size.

use crate::experiments::{ball_metric_series, zoo_figure_degraded};
use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::FigureData;
use topogen_core::RunCtx;
use topogen_metrics::balls::sample_centers;
use topogen_metrics::engine::{BallMetric, BiconMetric, CoverMetric};

/// Ball-size cap of the Figure 8 balls.
fn max_ball(ctx: &ExpCtx) -> usize {
    if ctx.quick {
        1_200
    } else {
        4_000
    }
}

fn run_ball_metric(
    ctx: &ExpCtx,
    run: &RunCtx,
    id: &str,
    y_label: &str,
    metric: &dyn BallMetric,
) -> FigureData {
    let centers_n = if ctx.quick { 8 } else { 24 };
    let max_h = if ctx.quick { 40 } else { 64 };
    zoo_figure_degraded(ctx, run, id, "ball size", y_label, |t| {
        // The RL graph at quick settings is large; its balls are capped
        // like everything else's, so it stays included.
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xF18);
        let centers = sample_centers(t.graph.node_count(), centers_n, &mut rng);
        Some(ball_metric_series(
            run,
            t,
            centers,
            max_h,
            max_ball(ctx),
            metric,
        ))
    })
}

/// Figure 8(a–c): vertex cover growth.
pub fn run_cover(ctx: &ExpCtx, run: &RunCtx) -> FigureData {
    let cover = CoverMetric {
        max_ball_nodes: max_ball(ctx),
    };
    run_ball_metric(ctx, run, "fig8-vertex-cover", "vertex cover", &cover)
}

/// Figure 8(d–f): biconnected-component growth.
pub fn run_bicon(ctx: &ExpCtx, run: &RunCtx) -> FigureData {
    let bicon = BiconMetric {
        max_ball_nodes: max_ball(ctx),
    };
    run_ball_metric(
        ctx,
        run,
        "fig8-biconnectivity",
        "number of biconnected components",
        &bicon,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_grows_with_ball() {
        let ctx = ExpCtx {
            quick: true,
            ..Default::default()
        };
        let f = run_cover(&ctx, &RunCtx::new());
        // Vertex cover grows monotonically with ball size for every zoo
        // member (within finite-sample noise: allow tiny dips).
        for s in &f.series {
            let first = s.y.iter().find(|v| **v > 0.0).copied().unwrap_or(0.0);
            let last = *s.y.last().unwrap();
            assert!(last >= first, "{}: cover shrank {first} → {last}", s.label);
        }
    }

    #[test]
    fn tree_bicon_tracks_edges() {
        let f = run_bicon(&ExpCtx::default(), &RunCtx::new());
        let tree = f.series.iter().find(|s| s.label == "Tree").unwrap();
        // For trees, #biconnected components = #edges = ball size − 1.
        for (x, y) in tree.x.iter().zip(&tree.y) {
            if *x >= 2.0 {
                assert!((y - (x - 1.0)).abs() < 1.5, "ball {x}: {y} components");
            }
        }
    }
}
