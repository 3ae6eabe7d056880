//! Span analysis for traced runs.
//!
//! The benchmark opens its own `bench-*` spans around each public call
//! it makes, in the same [`TraceSink`] the program's engines already
//! emit into (`ball-plan`, `balls`, `distances`, `center`, `measure`,
//! `hier-*`, `store-get`/`store-put`). This module folds a sink's events
//! into per-name totals and self times: a span's self time is its
//! duration minus the part of its interval that its child spans cover.

use std::collections::{BTreeMap, HashMap};

use topogen_par::{TraceEvent, TraceSink};

/// Totals per span name. `measure` spans are keyed `measure:<metric>`.
#[derive(Default)]
pub struct SpanStats {
    /// Summed duration, seconds (spans on concurrent threads add up).
    pub total: BTreeMap<String, f64>,
    /// Summed self time, seconds.
    pub self_s: BTreeMap<String, f64>,
    /// Spans closed.
    pub count: BTreeMap<String, u64>,
}

impl SpanStats {
    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}

struct Span {
    key: String,
    parent: u64,
    start: u64,
    end: Option<u64>,
}

/// Fold every closed span in `sink`.
pub fn analyze(sink: &TraceSink) -> SpanStats {
    let mut spans: HashMap<u64, Span> = HashMap::new();
    for ev in sink.snapshot() {
        match ev {
            TraceEvent::Enter {
                id,
                parent,
                name,
                label,
                t_ns,
                ..
            } => {
                let key = match (name, label) {
                    ("measure", Some(l)) => format!("measure:{l}"),
                    _ => name.to_string(),
                };
                spans.insert(
                    id,
                    Span {
                        key,
                        parent,
                        start: t_ns,
                        end: None,
                    },
                );
            }
            TraceEvent::Exit { id, t_ns, .. } => {
                if let Some(s) = spans.get_mut(&id) {
                    s.end = Some(t_ns);
                }
            }
        }
    }
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.values() {
        if let Some(end) = s.end {
            children.entry(s.parent).or_default().push((s.start, end));
        }
    }
    let mut stats = SpanStats::default();
    for (id, s) in &spans {
        let Some(end) = s.end else { continue };
        let dur = end.saturating_sub(s.start);
        let covered = children
            .get(id)
            .map_or(0, |kids| covered_ns(kids, s.start, end));
        *stats.total.entry(s.key.clone()).or_default() += dur as f64 / 1e9;
        *stats.self_s.entry(s.key.clone()).or_default() += dur.saturating_sub(covered) as f64 / 1e9;
        *stats.count.entry(s.key.clone()).or_default() += 1;
    }
    stats
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(&[], 0, 25), 0);
    }
}
