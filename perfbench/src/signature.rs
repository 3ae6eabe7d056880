//! `signature`: the §4.4 signature table as `repro tab-signature` runs
//! it — `zoo::build_in` then the plain, policy and router-policy suites
//! over the Figure-1 zoo at small scale plus Complete, Linear and
//! N-Level, quick budgets, no store.
//!
//! The traced run adds the distortion/resilience sub-step probe: the
//! same balls the suites measured are replayed from outside through
//! `betweenness_center`, BFS trees with `distortion_of_tree`,
//! `bartal_tree` and `min_balanced_cut`, so each sub-step's time can be
//! set against the engine's own `measure` spans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_bench::experiments::signatures::paper_signature;
use topogen_core::classify::{
    classify_distortion, classify_expansion, classify_resilience, ClassifyThresholds, Signature,
};
use topogen_core::ctx::RunCtx;
use topogen_core::report::TimingReport;
use topogen_core::suite::{
    run_suite_in, run_suite_policy_in, run_suite_rl_policy_in, SuiteParams, SuiteResult,
};
use topogen_core::zoo::{build_in, BuiltTopology, Scale, TopologySpec};
use topogen_graph::apsp::betweenness_center;
use topogen_graph::subgraph::ball;
use topogen_graph::tree::{distortion_of_tree, RootedTree};
use topogen_graph::{Graph, NodeId};
use topogen_metrics::balls::{sample_centers, BallSource, OverlayBalls, PlainBalls, PolicyBalls};
use topogen_metrics::distortion::bartal_tree;
use topogen_metrics::engine::KernelPolicy;
use topogen_metrics::partition::min_balanced_cut;
use topogen_metrics::CurvePoint;
use topogen_par::faults::splitmix64;
use topogen_par::TraceSink;

use crate::meter::{fingerprint, Clock, Fingerprints, Layers, Tally};
use crate::{replay, spans, Args, Pass, Size, Summary, PAPER_SEED};

/// Warm replays of the whole zoo per pass. A table takes about 25 s on
/// two cores, so a run is usually one pass; 1000 samples leave ten past
/// its 99th percentile.
const WARM_OPS: usize = 1000;

fn specs(size: Size) -> Vec<TopologySpec> {
    match size {
        Size::Full => {
            let mut specs = TopologySpec::figure1_zoo(Scale::Small);
            specs.push(TopologySpec::Complete { n: 150 });
            specs.push(TopologySpec::Linear { n: 600 });
            specs.push(TopologySpec::NLevel(
                topogen_generators::nlevel::NLevelParams::three_level_1000(),
            ));
            specs
        }
        Size::Tiny => vec![
            TopologySpec::Tree { k: 3, depth: 4 },
            TopologySpec::Mesh { side: 8 },
            TopologySpec::Random { n: 120, p: 0.04 },
            TopologySpec::Complete { n: 20 },
            TopologySpec::Linear { n: 40 },
        ],
    }
}

/// The suite budgets `repro tab-signature` uses at this seed.
fn params(size: Size, seed: u64) -> SuiteParams {
    let mut p = SuiteParams::quick();
    if size == Size::Tiny {
        p.centers = 4;
        p.expansion_sources = 10;
        p.max_radius = 8;
        p.max_ball_nodes = 200;
        p.restarts = 1;
    }
    p.seed = seed ^ 0x5EED;
    p
}

pub fn run(args: &Args, tally: &mut Tally, layers: &mut Layers) -> Summary {
    let mut summary = Summary::default();
    let ctx = RunCtx::new().with_kernel(KernelPolicy::Auto);
    if !args.trace {
        crate::run_passes(args.seconds, 1, |p| {
            let (pass, _) = one_pass(args, p, &ctx, tally, layers, &mut TimingReport::default());
            summary.absorb(pass);
        });
        return summary;
    }
    let (untraced, _) = one_pass(
        args,
        0,
        &ctx,
        tally,
        &mut Layers::default(),
        &mut TimingReport::default(),
    );
    let sink = Arc::new(TraceSink::new());
    let traced_ctx = ctx.clone().with_trace(sink.clone());
    let mut timing = TimingReport::default();
    let (traced, built) = one_pass(args, 0, &traced_ctx, tally, layers, &mut timing);
    layers.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    summary.absorb(untraced);

    let s = spans::analyze(&sink);
    layers.set("zoo.build_s", s.total("bench-build"));
    layers.set("suite.run_s", s.total("bench-suite"));
    layers.set("suite.self_s", s.self_time("bench-suite"));
    layers.set("engine.balls_s", s.total("balls"));
    layers.set("engine.distances_s", s.total("distances"));
    layers.set("engine.bfs_runs", timing.bfs_runs as f64);
    layers.set("engine.balls_built", timing.balls_built as f64);
    layers.set("engine.ball_cache_hits", timing.ball_cache_hits as f64);
    layers.set("distortion.measure_s", s.total("measure:distortion"));
    layers.set("partition.measure_s", s.total("measure:resilience"));
    layers.set("partition.restarts", timing.partitioner_restarts as f64);
    layers.set("bfs_bitset.words_scanned", timing.words_scanned as f64);
    layers.set("bfs_bitset.frontier_passes", timing.frontier_passes as f64);
    layers.set(
        "bfs_bitset.bytes_computed",
        timing.words_scanned as f64 * 8.0,
    );
    replay::store_layers(&s, layers);

    let p = params(args.size, args.seed);
    let topologies: Vec<&BuiltTopology> = built.iter().map(|(t, _, _)| t).collect();
    let probe = probe(&topologies, &p);
    layers.set("distortion.center_s", probe.center_s);
    layers.set("distortion.tree_eval_s", probe.tree_eval_s);
    layers.set("distortion.bartal_s", probe.bartal_s);
    layers.set("distortion.balls", probe.distortion_balls as f64);
    layers.set("partition.cut_s", probe.cut_s);
    layers.share(
        "distortion.center_share",
        "distortion.center_s",
        "distortion.measure_s",
    );
    layers.share(
        "distortion.tree_eval_share",
        "distortion.tree_eval_s",
        "distortion.measure_s",
    );
    layers.share(
        "distortion.bartal_share",
        "distortion.bartal_s",
        "distortion.measure_s",
    );
    layers.share(
        "partition.cut_share",
        "partition.cut_s",
        "partition.measure_s",
    );
    eprintln!(
        "signature probe: center {:.2}s, trees {:.3}s, bartal {:.3}s over {} balls; \
         distortion measure {:.2}s; cut {:.2}s of resilience measure {:.2}s",
        probe.center_s,
        probe.tree_eval_s,
        probe.bartal_s,
        probe.distortion_balls,
        layers.get("distortion.measure_s"),
        probe.cut_s,
        layers.get("partition.measure_s"),
    );
    summary
}

/// A suite entry point of `topogen-core`.
type SuiteFn = fn(&RunCtx, &BuiltTopology, &SuiteParams) -> SuiteResult;

/// Run one suite under `ctx` inside a `bench-suite` span.
fn suite(ctx: &RunCtx, f: impl FnOnce() -> SuiteResult) -> std::thread::Result<SuiteResult> {
    catch_unwind(AssertUnwindSafe(|| {
        ctx.scope(|| {
            let _s = topogen_par::trace::span("bench-suite");
            f()
        })
    }))
}

fn one_pass(
    args: &Args,
    p: usize,
    ctx: &RunCtx,
    tally: &mut Tally,
    layers: &mut Layers,
    timing: &mut TimingReport,
) -> (Pass, Vec<(BuiltTopology, Scale, u64)>) {
    let seed = args.seed;
    let params = params(args.size, seed);
    let mut fps = Fingerprints::load(&args.fingerprint_file());
    let mut clock = Clock::default();
    let mut pass = Pass::default();
    let mut built = Vec::new();
    for spec in specs(args.size) {
        let name = spec.name();
        let (out, ms) = clock.measure(|| {
            catch_unwind(AssertUnwindSafe(|| {
                ctx.scope(|| {
                    let _s = topogen_par::trace::span("bench-build");
                    build_in(ctx, &spec, Scale::Small, seed)
                })
            }))
            .and_then(|t| suite(ctx, || run_suite_in(ctx, &t, &params)).map(|r| (t, r)))
        });
        pass.cold_ms.push(ms);
        let Ok((t, r)) = out else {
            tally.check(false, || format!("{name} panicked"));
            continue;
        };
        check_row(args, &name, &r, &mut fps, tally);
        timing.merge(&r.timings);
        let policy_rows: [(bool, SuiteFn); 2] = [
            (t.annotations.is_some(), run_suite_policy_in),
            (t.as_overlay.is_some(), run_suite_rl_policy_in),
        ];
        for (applies, run_policy) in policy_rows {
            if !applies {
                continue;
            }
            let row = format!("{name}(Policy)");
            let (out, ms) = clock.measure(|| suite(ctx, || run_policy(ctx, &t, &params)));
            pass.cold_ms.push(ms);
            match out {
                Ok(r) => {
                    check_row(args, &row, &r, &mut fps, tally);
                    timing.merge(&r.timings);
                }
                Err(_) => tally.check(false, || format!("{row} panicked")),
            }
        }
        built.push((t, Scale::Small, seed));
    }
    pass.wall_s = clock.wall_s;
    pass.cpu_s = clock.cpu_s;
    if args.record && p == 0 {
        fps.record(&args.fingerprint_file());
    }
    let dir = args.workdir.join(format!("signature-store-{p}"));
    let (warm, warm_wall) = replay::warm_builds(ctx, &dir, &built, WARM_OPS, tally, layers);
    pass.warm_ms = warm;
    pass.warm_wall_s = warm_wall;
    (pass, built)
}

/// One table row. At every seed the curves must be well formed and the
/// signature must be the one the default thresholds give those curves.
/// At [`PAPER_SEED`] the row must also read the paper's signature (at
/// full size; N-Level has no paper row) and, where committed, the exact
/// curves; at other seeds a paper disagreement is a finding.
fn check_row(args: &Args, row: &str, r: &SuiteResult, fps: &mut Fingerprints, tally: &mut Tally) {
    let sig = r.signature.to_string();
    let th = ClassifyThresholds::default();
    let reclassified = Signature {
        expansion: classify_expansion(&r.expansion, &th),
        resilience: classify_resilience(&r.resilience, &th),
        distortion: classify_distortion(&r.distortion, &th),
    };
    let well_formed = curves_well_formed(r);
    let paper = paper_signature(row).filter(|_| args.size == Size::Full);
    let mismatch = paper.filter(|p| *p != sig);
    if let (Some(p), false) = (mismatch, args.seed == PAPER_SEED) {
        tally.finding(format!("{row}: signature {sig}, paper {p}"));
    }
    let curves = r.expansion.iter().copied().chain(
        r.resilience
            .iter()
            .chain(&r.distortion)
            .flat_map(|c| [c.radius as f64, c.avg_size, c.value]),
    );
    let fp_ok = fps.check(row, fingerprint(curves));
    let ok = well_formed
        && reclassified == r.signature
        && fp_ok
        && (mismatch.is_none() || args.seed != PAPER_SEED);
    tally.check(ok, || {
        format!(
            "{row}: signature {sig} (from its curves {reclassified}, paper {paper:?}), \
             curves well formed: {well_formed}, curves match: {fp_ok}"
        )
    });
}

/// What holds at any seed: E(h) is a fraction that never falls as h
/// grows; a radius with a measured ball has balls of at least one node,
/// a cut size of at least 0 and a distortion of at least 1 (every edge
/// spans at least one tree hop), and a radius without one reads NaN.
fn curves_well_formed(r: &SuiteResult) -> bool {
    let e = &r.expansion;
    let expansion_ok =
        e.iter().all(|v| (0.0..=1.0).contains(v)) && e.windows(2).all(|w| w[0] <= w[1]);
    let points_ok = |curve: &[CurvePoint], least: f64| {
        curve.iter().enumerate().all(|(h, p)| {
            p.radius as usize == h
                && (p.value.is_nan()
                    || (p.value.is_finite() && p.value >= least && p.avg_size >= 1.0))
        })
    };
    expansion_ok && points_ok(&r.resilience, 0.0) && points_ok(&r.distortion, 1.0)
}

/// Sub-step times of the replayed distortion and resilience work,
/// summed over balls (and so over threads, like the engine's spans).
#[derive(Default)]
struct Probe {
    center_s: f64,
    tree_eval_s: f64,
    bartal_s: f64,
    cut_s: f64,
    distortion_balls: u64,
}

impl Probe {
    fn merge(&mut self, o: &Probe) {
        self.center_s += o.center_s;
        self.tree_eval_s += o.tree_eval_s;
        self.bartal_s += o.bartal_s;
        self.cut_s += o.cut_s;
        self.distortion_balls += o.distortion_balls;
    }
}

/// Replay every ball the suites measured, row by row.
fn probe(topologies: &[&BuiltTopology], params: &SuiteParams) -> Probe {
    let mut total = Probe::default();
    for t in topologies {
        total.merge(&replay_balls(&PlainBalls { graph: &t.graph }, params));
        if let Some(ann) = &t.annotations {
            let src = PolicyBalls {
                graph: &t.graph,
                annotations: ann,
            };
            total.merge(&replay_balls(&src, params));
        }
        if let (Some(router_as), Some(ov)) = (&t.router_as, &t.as_overlay) {
            let overlay = topogen_policy::overlay::RouterOverlay::new(
                &t.graph,
                router_as,
                &ov.as_graph,
                &ov.annotations,
            );
            total.merge(&replay_balls(&OverlayBalls { overlay }, params));
        }
    }
    total
}

/// The suite's centers for `src` (same draws, same order), each center's
/// balls up to the suite's size cap, and the four sub-steps on each.
fn replay_balls<S: BallSource>(src: &S, params: &SuiteParams) -> Probe {
    let n = src.node_count();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let _expansion_sources = sample_centers(n, params.expansion_sources, &mut rng);
    let centers = sample_centers(n, params.centers, &mut rng);
    let per_center = topogen_par::par_map(&centers, |&c| {
        let balls: Vec<Graph> = match src.plain_graph() {
            Some(g) => (0..=params.max_radius)
                .map(|h| ball(g, c, h).0)
                .take_while(|b| b.node_count() <= params.max_ball_nodes)
                .collect(),
            None => src
                .balls_up_to(c, params.max_radius)
                .into_iter()
                .map(|(b, _)| b)
                .filter(|b| b.node_count() <= params.max_ball_nodes)
                .collect(),
        };
        let mut probe = Probe::default();
        for (h, b) in balls.iter().enumerate() {
            sub_steps(
                b,
                splitmix64(params.seed ^ (u64::from(c) << 8) ^ h as u64),
                params,
                &mut probe,
            );
        }
        probe
    });
    let mut total = Probe::default();
    for p in &per_center {
        total.merge(p);
    }
    total
}

fn sub_steps(b: &Graph, seed: u64, params: &SuiteParams, probe: &mut Probe) {
    if b.edge_count() > 0 {
        let t0 = Instant::now();
        let center = betweenness_center(b);
        probe.center_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let hub = (0..b.node_count() as NodeId).max_by_key(|&v| b.degree(v));
        for root in center.into_iter().chain(hub) {
            std::hint::black_box(distortion_of_tree(b, &RootedTree::bfs_tree(b, root)));
        }
        probe.tree_eval_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..2 {
            std::hint::black_box(distortion_of_tree(b, &bartal_tree(b, &mut rng)));
        }
        probe.bartal_s += t0.elapsed().as_secs_f64();
        probe.distortion_balls += 1;
    }
    if b.node_count() >= 2 {
        let t0 = Instant::now();
        std::hint::black_box(min_balanced_cut(b, params.restarts, seed));
        probe.cut_s += t0.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(radius: u32, avg_size: f64, value: f64) -> CurvePoint {
        CurvePoint {
            radius,
            avg_size,
            value,
        }
    }

    fn result(expansion: Vec<f64>, distortion: f64) -> SuiteResult {
        let curve = |v| vec![point(0, 0.0, f64::NAN), point(1, 4.0, v)];
        let resilience = curve(2.0);
        let distortion = curve(distortion);
        let th = ClassifyThresholds::default();
        SuiteResult {
            signature: Signature {
                expansion: classify_expansion(&expansion, &th),
                resilience: classify_resilience(&resilience, &th),
                distortion: classify_distortion(&distortion, &th),
            },
            expansion,
            resilience,
            distortion,
            timings: TimingReport::default(),
            cis: None,
        }
    }

    #[test]
    fn well_formed_curves_pass() {
        assert!(curves_well_formed(&result(vec![0.01, 0.2, 1.0], 1.5)));
    }

    #[test]
    fn falling_expansion_or_sub_unit_distortion_fails() {
        assert!(!curves_well_formed(&result(vec![0.01, 0.3, 0.2], 1.5)));
        assert!(!curves_well_formed(&result(vec![0.01, 0.2, 1.0], 0.5)));
    }
}
