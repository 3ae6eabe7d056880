//! Re-entrant engine contexts.
//!
//! [`EngineCtx`] is the slice of a run's state the engines observe
//! without taking it as a parameter: an optional cooperative deadline
//! and an optional span sink. [`EngineCtx::scope`] installs both
//! thread-locally for the duration of a closure, and
//! [`par_map`](crate::par_map) re-installs them inside each worker, so
//! `checkpoint()` and `span()` deep inside the parallel loops see the
//! run that called them. Nothing here is process-global: any number of
//! contexts can be live at once on different threads, which is what
//! lets a serving daemon give each request its own deadline and
//! progress stream. The full run context (store, kernel, memory budget)
//! is `topogen_core::RunCtx`, whose `engine()` yields this slice.

use crate::cancel::{self, Deadline};
use crate::trace::{self, TraceSink};
use std::sync::Arc;

/// The ambient state one engine run executes under: an optional
/// cooperative deadline and an optional span sink. `Clone` is cheap
/// (an `Arc` and a token); a daemon clones one per request.
#[derive(Clone, Debug, Default)]
pub struct EngineCtx {
    /// Cooperative cancellation + wall-clock expiry observed by
    /// [`cancel::checkpoint`] inside the scope.
    pub deadline: Option<Deadline>,
    /// Span sink receiving every [`trace::span`] opened inside the
    /// scope. `None` means tracing is off for the scope.
    pub trace: Option<Arc<TraceSink>>,
}

impl EngineCtx {
    /// Run `f` with this context installed thread-locally: `checkpoint`
    /// observes `deadline`, `span` lands in `trace`, and `par_map`
    /// carries both into its workers. Nested scopes shadow and restore
    /// on exit (including unwinds), so scoping is re-entrant.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let body = || match &self.deadline {
            Some(d) => cancel::with_deadline(d.clone(), f),
            None => f(),
        };
        trace::with_sink(self.trace.clone(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::Cancelled;
    use crate::trace::TraceEvent;

    #[test]
    fn scope_installs_deadline_and_sink() {
        let sink = Arc::new(TraceSink::new());
        let d = Deadline::cancel_only();
        let token = d.token();
        let ctx = EngineCtx {
            deadline: Some(d),
            trace: Some(sink.clone()),
        };
        ctx.scope(|| {
            drop(trace::span("inside"));
            cancel::checkpoint(); // not yet cancelled: no unwind
        });
        assert_eq!(sink.snapshot().len(), 2);
        token.cancel();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.scope(cancel::checkpoint)
        }))
        .expect_err("cancelled context must unwind");
        assert!(err.downcast_ref::<Cancelled>().is_some());
        // Outside the scope neither the deadline nor the sink remain.
        cancel::checkpoint();
        assert_eq!(sink.snapshot().len(), 2, "span outside scope not recorded");
    }

    #[test]
    fn two_contexts_on_two_threads_stay_disjoint() {
        let mk = || Arc::new(TraceSink::new());
        let (a, b) = (mk(), mk());
        std::thread::scope(|s| {
            let ta = s.spawn(|| {
                EngineCtx {
                    deadline: None,
                    trace: Some(a.clone()),
                }
                .scope(|| {
                    let items: Vec<u64> = (0..64).collect();
                    crate::par_map_threads(&items, Some(4), |&x| {
                        drop(trace::span("work-a"));
                        x
                    });
                })
            });
            let tb = s.spawn(|| {
                EngineCtx {
                    deadline: None,
                    trace: Some(b.clone()),
                }
                .scope(|| {
                    let items: Vec<u64> = (0..64).collect();
                    crate::par_map_threads(&items, Some(4), |&x| {
                        drop(trace::span("work-b"));
                        x
                    });
                })
            });
            ta.join().unwrap();
            tb.join().unwrap();
        });
        let names = |sink: &TraceSink| {
            sink.snapshot()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Enter { name, .. } => Some(*name),
                    _ => None,
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(names(&a), std::collections::BTreeSet::from(["work-a"]));
        assert_eq!(names(&b), std::collections::BTreeSet::from(["work-b"]));
        assert_eq!(
            a.snapshot().len(),
            128,
            "64 enters + 64 exits, none leaked to the other context"
        );
    }
}
