//! The explicit run context of the comparison framework.
//!
//! A build/measure run depends on five pieces of state: the artifact
//! store, a cooperative deadline, a span sink, the BFS kernel policy
//! and the topology-build memory budget. [`RunCtx`] carries all five,
//! and every pipeline entry point takes it as its first argument
//! ([`zoo::build_in`](crate::zoo::build_in),
//! [`suite::run_suite_in`](crate::suite::run_suite_in),
//! [`hier::hierarchy_report_timed_in`](crate::hier::hierarchy_report_timed_in)).
//! Nothing is read from process state: `repro` builds one context from
//! its flags, each `topogen-serve` request builds its own, and any
//! number of contexts can run side by side in one process.
//!
//! The engines below `core` take only the deadline and span sink, as
//! the [`EngineCtx`] slice returned by [`RunCtx::engine`].

use std::sync::Arc;

use topogen_metrics::engine::KernelPolicy;
use topogen_par::cancel::Deadline;
use topogen_par::{EngineCtx, Instrument, TraceSink};
use topogen_store::Store;

/// Everything one build/measure run depends on. All handles optional;
/// `RunCtx::default()` is a fully isolated run — no caching, no
/// deadline, no tracing, private counters, [`KernelPolicy::Auto`] and
/// in-memory builds.
#[derive(Clone, Debug, Default)]
pub struct RunCtx {
    /// Content-addressed artifact store consulted (and fed) by topology
    /// builds, metric-curve runs, and link-value analyses. `None`
    /// disables caching for the run.
    pub store: Option<Arc<Store>>,
    /// Cooperative deadline observed at engine checkpoints.
    pub deadline: Option<Deadline>,
    /// Span sink receiving the run's trace events. `None` means tracing
    /// off for this run.
    pub trace: Option<Arc<TraceSink>>,
    /// Counter sink engines report into; a private one is created per
    /// call when unset.
    pub instrument: Option<Arc<Instrument>>,
    /// BFS kernel policy for metric plans run under this context
    /// (scalar per-center BFS vs batched bitset kernels; `Auto` decides
    /// per plan, the default). `repro --kernel` sets it.
    pub kernel: KernelPolicy,
    /// Edge-buffer memory budget (bytes) for topology builds. `Some`
    /// routes the streaming-capable generators through
    /// [`topogen_graph::stream::StreamingBuilder`] (bounded buffer,
    /// spill-to-disk runs, k-way merge); `None` builds in memory as
    /// always (the default). `repro --mem-budget` sets it. The built
    /// graph is identical either way.
    pub mem_budget: Option<u64>,
}

impl RunCtx {
    /// A fully isolated context: no store, no deadline, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an artifact store.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attach a trace sink.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Override the BFS kernel policy for this run.
    pub fn with_kernel(mut self, policy: KernelPolicy) -> Self {
        self.kernel = policy;
        self
    }

    /// Override the build memory budget for this run (`None` disables
    /// streaming builds).
    pub fn with_mem_budget(mut self, budget: Option<u64>) -> Self {
        self.mem_budget = budget;
        self
    }

    /// The engine-level slice of this context (deadline + trace) — what
    /// gets scoped around engine work so `checkpoint()` and `span()`
    /// deep inside the parallel loops observe this run's state.
    pub fn engine(&self) -> EngineCtx {
        EngineCtx {
            deadline: self.deadline.clone(),
            trace: self.trace.clone(),
        }
    }

    /// Run `f` under this context's engine state (see
    /// [`EngineCtx::scope`]). The store, kernel and budget are not
    /// scoped: only the entry points that take the context read them.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        self.engine().scope(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_isolated() {
        let ctx = RunCtx::new();
        assert!(ctx.store.is_none());
        assert!(ctx.deadline.is_none());
        assert!(ctx.trace.is_none());
        assert!(ctx.instrument.is_none());
    }

    #[test]
    fn scope_installs_engine_state() {
        let sink = Arc::new(TraceSink::new());
        let ctx = RunCtx::new().with_trace(sink.clone());
        ctx.scope(|| drop(topogen_par::trace::span("scoped")));
        assert_eq!(sink.snapshot().len(), 2);
    }
}
