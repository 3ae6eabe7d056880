//! `expansion-xl`: streamed builds of the million-node Mesh, PLRG,
//! Random and Tree under an 8 MiB edge-buffer budget, then an
//! expansion-only `BallPlan` over seeded sources with
//! `KernelPolicy::Auto` — the generators, `graph::stream` and
//! `graph::bfs_bitset` do nearly all the work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_bench::ExpCtx;
use topogen_core::ctx::RunCtx;
use topogen_core::zoo::{build_in, BuiltTopology, Scale, TopologySpec};
use topogen_metrics::balls::{sample_centers, PlainBalls};
use topogen_metrics::engine::{BallPlan, KernelPolicy};
use topogen_par::{InstrumentReport, TraceSink};

use crate::meter::{fingerprint, Clock, Fingerprints, Layers, Tally};
use crate::{replay, spans, Args, Pass, Size, Summary};

/// Edge-buffer budget of the streamed builds, bytes.
pub const MEM_BUDGET: u64 = 8 << 20;
/// Warm replays per pass; each decodes four million-node graphs.
const WARM_OPS: usize = 3;

/// The topologies, their scale and the edge-buffer budget.
pub fn specs(size: Size) -> (Vec<TopologySpec>, Scale, u64) {
    match size {
        Size::Full => {
            let specs = TopologySpec::figure1_zoo(Scale::Xl)
                .into_iter()
                .filter(|s| ["Mesh", "PLRG", "Random", "Tree"].contains(&s.name().as_str()))
                .collect();
            (specs, Scale::Xl, MEM_BUDGET)
        }
        Size::Tiny => (
            vec![
                TopologySpec::Mesh { side: 40 },
                TopologySpec::Plrg(topogen_generators::plrg::PlrgParams {
                    n: 3000,
                    alpha: 2.246,
                    max_degree: None,
                }),
                TopologySpec::Random { n: 3000, p: 0.0015 },
                TopologySpec::Tree { k: 3, depth: 6 },
            ],
            Scale::Small,
            64 << 10,
        ),
    }
}

pub fn run(args: &Args, tally: &mut Tally, layers: &mut Layers) -> Summary {
    let mut summary = Summary::default();
    let (_, _, budget) = specs(args.size);
    let ctx = RunCtx::new()
        .with_kernel(KernelPolicy::Auto)
        .with_mem_budget(Some(budget));
    if !args.trace {
        crate::run_passes(args.seconds, 1, |p| {
            summary.absorb(one_pass(
                args,
                p,
                &ctx,
                tally,
                layers,
                &mut InstrumentReport::default(),
            ));
        });
        return summary;
    }
    let untraced = one_pass(
        args,
        0,
        &ctx,
        tally,
        &mut Layers::default(),
        &mut InstrumentReport::default(),
    );
    let sink = Arc::new(TraceSink::new());
    let mut report = InstrumentReport::default();
    let traced = one_pass(
        args,
        0,
        &ctx.clone().with_trace(sink.clone()),
        tally,
        layers,
        &mut report,
    );
    layers.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    summary.absorb(untraced);

    let s = spans::analyze(&sink);
    layers.set("zoo.build_s", s.total("bench-build"));
    layers.set("expansion.plan_s", s.total("bench-plan"));
    layers.set("engine.distances_s", s.total("distances"));
    layers.set("engine.bfs_runs", report.bfs_runs as f64);
    layers.set("bfs_bitset.words_scanned", report.words_scanned as f64);
    layers.set("bfs_bitset.frontier_passes", report.frontier_passes as f64);
    layers.set(
        "bfs_bitset.bytes_computed",
        report.words_scanned as f64 * 8.0,
    );
    replay::store_layers(&s, layers);
    summary
}

fn one_pass(
    args: &Args,
    p: usize,
    ctx: &RunCtx,
    tally: &mut Tally,
    layers: &mut Layers,
    report: &mut InstrumentReport,
) -> Pass {
    let seed = args.seed;
    let (specs, scale, _) = specs(args.size);
    // Expansion sources and radius per topology: the xl tier's suite
    // budget (`repro --scale xl`).
    let budget = ExpCtx {
        scale: Scale::Xl,
        ..ExpCtx::default()
    }
    .suite_params();
    let (sources, max_radius) = (budget.expansion_sources, budget.max_radius);
    let mut fps = Fingerprints::load(&args.fingerprint_file());
    let mut clock = Clock::default();
    let mut pass = Pass::default();
    let mut built: Vec<(BuiltTopology, Scale, u64)> = Vec::new();
    topogen_par::take_spill_runs();
    for spec in specs {
        let name = spec.name();
        let (out, ms) = clock.measure(|| {
            catch_unwind(AssertUnwindSafe(|| {
                ctx.scope(|| {
                    let t = {
                        let _s = topogen_par::trace::span("bench-build");
                        build_in(ctx, &spec, scale, seed)
                    };
                    let mut rng = StdRng::seed_from_u64(seed);
                    let sources = sample_centers(t.graph.node_count(), sources, &mut rng);
                    let src = PlainBalls { graph: &t.graph };
                    let _s = topogen_par::trace::span("bench-plan");
                    let plan = BallPlan::new(&src, max_radius, seed)
                        .expansion_centers(sources)
                        .kernel(ctx.kernel)
                        .context(ctx.engine())
                        .run();
                    (plan.expansion, plan.report, t)
                })
            }))
        });
        pass.cold_ms.push(ms);
        let Ok((curve, plan_report, t)) = out else {
            tally.check(false, || format!("{name} panicked"));
            continue;
        };
        let shape_ok = curve.len() == max_radius as usize + 1
            && curve.iter().all(|e| (0.0..=1.0).contains(e))
            && curve.windows(2).all(|w| w[0] <= w[1]);
        let fp_ok = fps.check(&name, fingerprint(curve.iter().copied()));
        tally.check(shape_ok && fp_ok, || {
            format!("{name}: E(h) monotone in [0,1]: {shape_ok}, matches fingerprint: {fp_ok}")
        });
        report.merge(&plan_report);
        built.push((t, scale, seed));
    }
    layers.add("stream.spill_runs", topogen_par::take_spill_runs() as f64);
    pass.wall_s = clock.wall_s;
    pass.cpu_s = clock.cpu_s;
    if args.record && p == 0 {
        fps.record(&args.fingerprint_file());
    }
    let dir = args.workdir.join(format!("xl-store-{p}"));
    let (warm, warm_wall) = replay::warm_builds(ctx, &dir, &built, WARM_OPS, tally, layers);
    pass.warm_ms = warm;
    pass.warm_wall_s = warm_wall;
    pass
}
