//! `hierarchy`: the §5.1 strict/moderate/loose table as `repro
//! tab-hierarchy` runs it at its quick budget — `zoo::build_in` then
//! `hierarchy_report_timed_in` over the link-value zoo, plus AS(Policy).
//! The thorough zoo is left out: it needs more than 16 GiB.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use topogen_bench::experiments::fig3::linkvalue_zoo;
use topogen_bench::experiments::signatures::paper_hierarchy;
use topogen_bench::ExpCtx;
use topogen_core::ctx::RunCtx;
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions, HierarchyReport};
use topogen_core::report::TimingReport;
use topogen_core::zoo::{build_in, BuiltTopology, Scale, TopologySpec};
use topogen_hierarchy::classify_hierarchy;
use topogen_metrics::engine::KernelPolicy;
use topogen_par::TraceSink;

use crate::meter::{Clock, Layers, Tally};
use crate::{replay, spans, Args, Pass, Size, Summary, PAPER_SEED};

/// Warm replays of the whole zoo per pass: enough for ten samples past
/// the pass's 99th percentile.
const WARM_OPS: usize = 1000;

fn specs(size: Size, seed: u64) -> Vec<TopologySpec> {
    match size {
        Size::Full => linkvalue_zoo(&ExpCtx {
            scale: Scale::Small,
            seed,
            quick: true,
        }),
        Size::Tiny => vec![
            TopologySpec::Tree { k: 3, depth: 3 },
            TopologySpec::Mesh { side: 6 },
        ],
    }
}

pub fn run(args: &Args, tally: &mut Tally, layers: &mut Layers) -> Summary {
    let mut summary = Summary::default();
    let ctx = RunCtx::new().with_kernel(KernelPolicy::Auto);
    if !args.trace {
        crate::run_passes(args.seconds, 1, |p| {
            summary.absorb(one_pass(
                args,
                p,
                &ctx,
                tally,
                layers,
                &mut TimingReport::default(),
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
        &mut TimingReport::default(),
    );
    let sink = Arc::new(TraceSink::new());
    let mut timing = TimingReport::default();
    let traced = one_pass(
        args,
        0,
        &ctx.clone().with_trace(sink.clone()),
        tally,
        layers,
        &mut timing,
    );
    layers.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    summary.absorb(untraced);

    let s = spans::analyze(&sink);
    layers.set("zoo.build_s", s.total("bench-build"));
    layers.set("hierarchy.report_s", s.total("bench-hierarchy"));
    layers.set("hierarchy.traversal_s", s.total("hier-traversal"));
    layers.set("hierarchy.merge_s", s.total("hier-merge"));
    layers.set("hierarchy.cover_s", s.total("hier-cover"));
    layers.set("hierarchy.dag_states", timing.dag_states as f64);
    layers.set(
        "hierarchy.pairs_accumulated",
        timing.pairs_accumulated as f64,
    );
    layers.set("hierarchy.arena_bytes", timing.arena_bytes as f64);
    layers.set("hierarchy.scratch_bytes", timing.scratch_bytes as f64);
    replay::store_layers(&s, layers);
    summary
}

fn one_pass(
    args: &Args,
    p: usize,
    ctx: &RunCtx,
    tally: &mut Tally,
    layers: &mut Layers,
    timing: &mut TimingReport,
) -> Pass {
    let seed = args.seed;
    let mut clock = Clock::default();
    let mut pass = Pass::default();
    let mut built: Vec<(BuiltTopology, Scale, u64)> = Vec::new();
    for spec in specs(args.size, seed) {
        let name = spec.name();
        let (out, ms) = clock.measure(|| {
            catch_unwind(AssertUnwindSafe(|| {
                ctx.scope(|| {
                    let t = {
                        let _s = topogen_par::trace::span("bench-build");
                        build_in(ctx, &spec, Scale::Small, seed)
                    };
                    let _s = topogen_par::trace::span("bench-hierarchy");
                    let r = hierarchy_report_timed_in(ctx, &t, &HierOptions::default());
                    (t, r)
                })
            }))
        });
        pass.cold_ms.push(ms);
        let Ok((t, (report, rt))) = out else {
            tally.check(false, || format!("{name} panicked"));
            continue;
        };
        check_class(args, &name, &report, tally);
        timing.merge(&rt);
        if t.annotations.is_some() {
            let row = format!("{name}(Policy)");
            let opts = HierOptions {
                policy: true,
                core_threshold: 3000,
            };
            let (out, ms) = clock.measure(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    ctx.scope(|| {
                        let _s = topogen_par::trace::span("bench-hierarchy");
                        hierarchy_report_timed_in(ctx, &t, &opts)
                    })
                }))
            });
            pass.cold_ms.push(ms);
            match out {
                Ok((report, rt)) => {
                    check_class(args, &row, &report, tally);
                    timing.merge(&rt);
                }
                Err(_) => tally.check(false, || format!("{row} panicked")),
            }
        }
        built.push((t, Scale::Small, seed));
    }
    pass.wall_s = clock.wall_s;
    pass.cpu_s = clock.cpu_s;
    let dir = args.workdir.join(format!("hierarchy-store-{p}"));
    let (warm, warm_wall) = replay::warm_builds(ctx, &dir, &built, WARM_OPS, tally, layers);
    pass.warm_ms = warm;
    pass.warm_wall_s = warm_wall;
    pass
}

/// One table row. At every seed the link values must be normalized
/// cover sizes in [0, 1], sorted high to low, and the class must be the
/// one the default thresholds give them. At [`PAPER_SEED`] the class
/// must also match the paper's (§5.1); at other seeds a disagreement is
/// a finding. The tiny graphs have no paper row.
fn check_class(args: &Args, row: &str, report: &HierarchyReport, tally: &mut Tally) {
    let v = &report.values;
    let class = &report.class;
    let values_ok = v.iter().all(|x| (0.0..=1.0).contains(x))
        && v.windows(2).all(|w| w[0] >= w[1])
        && report.max == v.first().copied().unwrap_or(0.0);
    let reclassified = classify_hierarchy(v).to_string();
    let paper = paper_hierarchy(row).filter(|_| args.size == Size::Full);
    let mismatch = paper.filter(|p| p != class);
    if let (Some(p), false) = (mismatch, args.seed == PAPER_SEED) {
        tally.finding(format!("{row}: class {class}, paper {p}"));
    }
    let ok = values_ok && reclassified == *class && (mismatch.is_none() || args.seed != PAPER_SEED);
    tally.check(ok, || {
        format!(
            "{row}: class {class} (from its values {reclassified}, paper {paper:?}), \
             values well formed: {values_ok}"
        )
    });
}
