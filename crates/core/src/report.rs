//! Rendering and serialization of experiment outputs.
//!
//! Every figure/table reproduction emits one of these records; the
//! `repro` binary prints the text rendering and can dump the JSON for
//! archival (EXPERIMENTS.md quotes these outputs).

use serde::{Content, DeError, Deserialize, Serialize};

/// The cell text rendered for a metric that could not be computed
/// because its topology failed to build or measure.
pub const FAILED_CELL: &str = "n/a (failed)";

/// One recorded failure inside an otherwise-successful table or figure:
/// the component (topology / series label) that failed and the redacted
/// reason. Rendered as a footnote; archived in the JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// The failed component (topology name or series label).
    pub label: String,
    /// Redacted single-line failure reason.
    pub reason: String,
}

/// A named data series (one curve of a figure).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (the paper's legend entry, e.g. "PLRG").
    pub label: String,
    /// X values.
    pub x: Vec<f64>,
    /// Y values (NaN-free: unavailable points are omitted).
    pub y: Vec<f64>,
}

impl Series {
    /// Build from parallel slices, dropping non-finite points.
    pub fn new(label: impl Into<String>, x: &[f64], y: &[f64]) -> Series {
        assert_eq!(x.len(), y.len());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&a, &b) in x.iter().zip(y) {
            if a.is_finite() && b.is_finite() {
                xs.push(a);
                ys.push(b);
            }
        }
        Series {
            label: label.into(),
            x: xs,
            y: ys,
        }
    }
}

/// A reproduced figure: several series plus axis labels.
///
/// `failures` lists series that could not be computed (graceful
/// degradation); serialization omits the field entirely when empty so
/// fault-free archives stay byte-identical with historical ones — which
/// is why `Serialize`/`Deserialize` are hand-written here.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Experiment id, e.g. "fig2-expansion-canonical".
    pub id: String,
    /// Axis labels.
    pub x_label: String,
    /// Axis labels.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Components that failed instead of producing a series.
    pub failures: Vec<Degradation>,
}

impl FigureData {
    /// A figure with no failures recorded.
    pub fn new(
        id: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<Series>,
    ) -> FigureData {
        FigureData {
            id: id.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
            failures: Vec::new(),
        }
    }

    /// Record a failed component (its series is simply absent).
    pub fn note_failure(&mut self, label: impl Into<String>, reason: impl Into<String>) {
        self.failures.push(Degradation {
            label: label.into(),
            reason: reason.into(),
        });
    }
}

impl Serialize for FigureData {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("id".to_string(), self.id.to_content()),
            ("x_label".to_string(), self.x_label.to_content()),
            ("y_label".to_string(), self.y_label.to_content()),
            ("series".to_string(), self.series.to_content()),
        ];
        if !self.failures.is_empty() {
            fields.push(("failures".to_string(), self.failures.to_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for FigureData {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(FigureData {
            id: String::from_content(field("id")?)?,
            x_label: String::from_content(field("x_label")?)?,
            y_label: String::from_content(field("y_label")?)?,
            series: Vec::from_content(field("series")?)?,
            failures: match c.get("failures") {
                Some(f) => Vec::from_content(f)?,
                None => Vec::new(),
            },
        })
    }
}

/// One engine phase's accumulated time (serializable mirror of
/// [`topogen_par::PhaseTiming`]). Phases timed inside worker threads sum
/// across those threads, so they are CPU-style totals that can exceed
/// the elapsed time; only `"total"` is wall-clock.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimingPhase {
    /// Phase name (`"balls"`, `"distances"`, a metric's name, `"total"`).
    pub name: String,
    /// Accumulated time in seconds: summed across worker threads for
    /// the per-phase entries, wall-clock for `"total"`.
    pub seconds: f64,
}

/// One span name's aggregated trace rollup: how many spans closed under
/// that name and their summed wall time. Serializable mirror of
/// [`topogen_par::SpanRollup`], folded into [`TimingReport`] when the
/// `repro` binary runs with `--trace`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRollup {
    /// Span name (`"unit"`, `"ball-plan"`, `"store-put"`, ...).
    pub name: String,
    /// Number of spans closed under this name.
    pub count: u64,
    /// Summed wall time in seconds (across all threads).
    pub seconds: f64,
}

/// Per-run instrumentation from the parallel engines: traversal and
/// ball-construction counts from the shared-ball metrics engine, the
/// hierarchy stage's DAG/pair/arena volumes, and per-phase times
/// (summed over worker threads; only `total` is wall-clock).
/// Serializable mirror of [`topogen_par::InstrumentReport`]; the
/// `repro` binary prints it with `--timings` and archives it as
/// `BENCH_*.json`.
///
/// `spans` holds trace rollups and is only populated under `--trace`;
/// serialization omits it when empty so untraced `BENCH_*.json` files
/// stay byte-identical with historical ones (hence the manual impls).
#[derive(Clone, Debug, Default)]
pub struct TimingReport {
    /// Distance-field computations performed (one traversal each).
    pub bfs_runs: u64,
    /// Ball subgraphs constructed.
    pub balls_built: u64,
    /// Reuses of shared per-center work by additional consumers.
    pub ball_cache_hits: u64,
    /// Partitioner restarts performed by resilience consumers.
    pub partitioner_restarts: u64,
    /// Path-DAG states visited by the link-value traversal stage (§5).
    pub dag_states: u64,
    /// (source, target) pairs accumulated into traversal sets.
    pub pairs_accumulated: u64,
    /// Bytes held by traversal-set arenas.
    pub arena_bytes: u64,
    /// u64 bitset words read or written by the batched BFS kernels
    /// (zero on the scalar path).
    pub words_scanned: u64,
    /// Frontier-expansion passes performed by the batched BFS kernels
    /// (zero on the scalar path).
    pub frontier_passes: u64,
    /// Peak per-source scratch bytes of the hierarchy traversal stage
    /// (a max across sources; zero when no traversal ran).
    pub scratch_bytes: u64,
    /// Sorted runs spilled to disk by memory-budgeted streaming builds
    /// (zero without `--mem-budget`).
    pub spill_runs: u64,
    /// Adjacency entries scanned by the distortion centers' Brandes
    /// runs (memoised centers scan none; zero without distortion).
    pub brandes_edge_visits: u64,
    /// Artifact-store lookups served from disk (`repro --cache`).
    pub store_hits: u64,
    /// Artifact-store lookups that fell through to computation.
    pub store_misses: u64,
    /// Bytes of verified store entries read.
    pub store_bytes_read: u64,
    /// Bytes of new store entries written.
    pub store_bytes_written: u64,
    /// Per-phase accumulated times, summed over worker threads (see
    /// [`TimingPhase`]); only the `"total"` entry is wall-clock.
    pub phases: Vec<TimingPhase>,
    /// Trace span rollups (populated only under `--trace`).
    pub spans: Vec<SpanRollup>,
}

impl Serialize for TimingReport {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("bfs_runs".to_string(), self.bfs_runs.to_content()),
            ("balls_built".to_string(), self.balls_built.to_content()),
            (
                "ball_cache_hits".to_string(),
                self.ball_cache_hits.to_content(),
            ),
            (
                "partitioner_restarts".to_string(),
                self.partitioner_restarts.to_content(),
            ),
            ("dag_states".to_string(), self.dag_states.to_content()),
            (
                "pairs_accumulated".to_string(),
                self.pairs_accumulated.to_content(),
            ),
            ("arena_bytes".to_string(), self.arena_bytes.to_content()),
        ];
        // Bitset-kernel counters appeared after the first BENCH archives
        // were committed; emit them only when nonzero so scalar-path
        // output (and the archived baselines) stays byte-identical.
        if self.words_scanned > 0 {
            fields.push(("words_scanned".to_string(), self.words_scanned.to_content()));
        }
        if self.frontier_passes > 0 {
            fields.push((
                "frontier_passes".to_string(),
                self.frontier_passes.to_content(),
            ));
        }
        // Same pattern for the memory-accounting counters (compressed
        // hierarchy scratch, streaming-build spills): emit-when-nonzero
        // keeps every pre-existing archive byte-identical.
        if self.scratch_bytes > 0 {
            fields.push(("scratch_bytes".to_string(), self.scratch_bytes.to_content()));
        }
        if self.spill_runs > 0 {
            fields.push(("spill_runs".to_string(), self.spill_runs.to_content()));
        }
        if self.brandes_edge_visits > 0 {
            fields.push((
                "brandes_edge_visits".to_string(),
                self.brandes_edge_visits.to_content(),
            ));
        }
        fields.extend([
            ("store_hits".to_string(), self.store_hits.to_content()),
            ("store_misses".to_string(), self.store_misses.to_content()),
            (
                "store_bytes_read".to_string(),
                self.store_bytes_read.to_content(),
            ),
            (
                "store_bytes_written".to_string(),
                self.store_bytes_written.to_content(),
            ),
            ("phases".to_string(), self.phases.to_content()),
        ]);
        if !self.spans.is_empty() {
            fields.push(("spans".to_string(), self.spans.to_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for TimingReport {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(TimingReport {
            bfs_runs: u64::from_content(field("bfs_runs")?)?,
            balls_built: u64::from_content(field("balls_built")?)?,
            ball_cache_hits: u64::from_content(field("ball_cache_hits")?)?,
            partitioner_restarts: u64::from_content(field("partitioner_restarts")?)?,
            dag_states: u64::from_content(field("dag_states")?)?,
            pairs_accumulated: u64::from_content(field("pairs_accumulated")?)?,
            arena_bytes: u64::from_content(field("arena_bytes")?)?,
            // Absent in archives predating the bitset kernels (and in
            // all scalar-path output): default to zero.
            words_scanned: match c.get("words_scanned") {
                Some(v) => u64::from_content(v)?,
                None => 0,
            },
            frontier_passes: match c.get("frontier_passes") {
                Some(v) => u64::from_content(v)?,
                None => 0,
            },
            scratch_bytes: match c.get("scratch_bytes") {
                Some(v) => u64::from_content(v)?,
                None => 0,
            },
            spill_runs: match c.get("spill_runs") {
                Some(v) => u64::from_content(v)?,
                None => 0,
            },
            brandes_edge_visits: match c.get("brandes_edge_visits") {
                Some(v) => u64::from_content(v)?,
                None => 0,
            },
            store_hits: u64::from_content(field("store_hits")?)?,
            store_misses: u64::from_content(field("store_misses")?)?,
            store_bytes_read: u64::from_content(field("store_bytes_read")?)?,
            store_bytes_written: u64::from_content(field("store_bytes_written")?)?,
            phases: Vec::from_content(field("phases")?)?,
            spans: match c.get("spans") {
                Some(s) => Vec::from_content(s)?,
                None => Vec::new(),
            },
        })
    }
}

impl From<&topogen_par::InstrumentReport> for TimingReport {
    fn from(r: &topogen_par::InstrumentReport) -> Self {
        TimingReport {
            bfs_runs: r.bfs_runs,
            balls_built: r.balls_built,
            ball_cache_hits: r.ball_cache_hits,
            partitioner_restarts: r.partitioner_restarts,
            dag_states: r.dag_states,
            pairs_accumulated: r.pairs_accumulated,
            arena_bytes: r.arena_bytes,
            words_scanned: r.words_scanned,
            frontier_passes: r.frontier_passes,
            scratch_bytes: r.scratch_bytes,
            spill_runs: r.spill_runs,
            brandes_edge_visits: r.brandes_edge_visits,
            store_hits: r.store_hits,
            store_misses: r.store_misses,
            store_bytes_read: r.store_bytes_read,
            store_bytes_written: r.store_bytes_written,
            phases: r
                .phases
                .iter()
                .map(|p| TimingPhase {
                    name: p.name.clone(),
                    seconds: p.seconds,
                })
                .collect(),
            spans: Vec::new(),
        }
    }
}

impl TimingReport {
    /// Fold trace rollups (from [`topogen_par::TraceSink::rollup_since`])
    /// into this report, converting nanoseconds to seconds.
    pub fn add_span_rollups(&mut self, rollups: &[topogen_par::SpanRollup]) {
        for r in rollups {
            let seconds = r.nanos as f64 / 1e9;
            if let Some(mine) = self.spans.iter_mut().find(|q| q.name == r.name) {
                mine.count += r.count;
                mine.seconds += seconds;
            } else {
                self.spans.push(SpanRollup {
                    name: r.name.to_string(),
                    count: r.count,
                    seconds,
                });
            }
        }
    }
}

impl TimingReport {
    /// Merge another report into this one (summing counters and phases),
    /// for aggregating per-topology runs into an experiment-level report.
    pub fn merge(&mut self, other: &TimingReport) {
        self.bfs_runs += other.bfs_runs;
        self.balls_built += other.balls_built;
        self.ball_cache_hits += other.ball_cache_hits;
        self.partitioner_restarts += other.partitioner_restarts;
        self.dag_states += other.dag_states;
        self.pairs_accumulated += other.pairs_accumulated;
        self.arena_bytes += other.arena_bytes;
        self.words_scanned += other.words_scanned;
        self.frontier_passes += other.frontier_passes;
        self.scratch_bytes = self.scratch_bytes.max(other.scratch_bytes);
        self.spill_runs += other.spill_runs;
        self.brandes_edge_visits += other.brandes_edge_visits;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_bytes_read += other.store_bytes_read;
        self.store_bytes_written += other.store_bytes_written;
        for p in &other.phases {
            if let Some(mine) = self.phases.iter_mut().find(|q| q.name == p.name) {
                mine.seconds += p.seconds;
            } else {
                self.phases.push(p.clone());
            }
        }
        for s in &other.spans {
            if let Some(mine) = self.spans.iter_mut().find(|q| q.name == s.name) {
                mine.count += s.count;
                mine.seconds += s.seconds;
            } else {
                self.spans.push(s.clone());
            }
        }
    }

    /// Render as aligned text lines (what `repro --timings` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "traversals {}  balls {}  cache-hits {}  partitioner-restarts {}\n",
            self.bfs_runs, self.balls_built, self.ball_cache_hits, self.partitioner_restarts
        ));
        if self.dag_states + self.pairs_accumulated + self.arena_bytes > 0 {
            out.push_str(&format!(
                "dag-states {}  pairs {}  arena-bytes {}\n",
                self.dag_states, self.pairs_accumulated, self.arena_bytes
            ));
        }
        if self.words_scanned + self.frontier_passes > 0 {
            out.push_str(&format!(
                "bitset words-scanned {}  frontier-passes {}\n",
                self.words_scanned, self.frontier_passes
            ));
        }
        if self.scratch_bytes + self.spill_runs > 0 {
            out.push_str(&format!(
                "memory scratch-peak {}B  spill-runs {}\n",
                self.scratch_bytes, self.spill_runs
            ));
        }
        if self.brandes_edge_visits > 0 {
            out.push_str(&format!(
                "brandes edge-visits {}\n",
                self.brandes_edge_visits
            ));
        }
        if self.store_hits + self.store_misses > 0 {
            out.push_str(&format!(
                "store-cache hits {}  misses {}  read {}B  written {}B\n",
                self.store_hits, self.store_misses, self.store_bytes_read, self.store_bytes_written
            ));
        }
        for p in &self.phases {
            out.push_str(&format!("  {:<14} {:>9.3}s\n", p.name, p.seconds));
        }
        if !self.spans.is_empty() {
            out.push_str("trace spans:\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<14} {:>7}x {:>9.3}s\n",
                    s.name, s.count, s.seconds
                ));
            }
        }
        out
    }
}

/// A reproduced table: header plus rows of cells.
///
/// `failures` records rows degraded to [`FAILED_CELL`] with the reason;
/// like [`FigureData`], serialization omits the field when empty so
/// fault-free archives stay byte-identical (hence the manual impls).
#[derive(Clone, Debug)]
pub struct TableData {
    /// Experiment id, e.g. "tab-signature".
    pub id: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
    /// Components whose cells are degraded, with reasons (footnoted).
    pub failures: Vec<Degradation>,
}

impl Serialize for TableData {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("id".to_string(), self.id.to_content()),
            ("header".to_string(), self.header.to_content()),
            ("rows".to_string(), self.rows.to_content()),
        ];
        if !self.failures.is_empty() {
            fields.push(("failures".to_string(), self.failures.to_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for TableData {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(TableData {
            id: String::from_content(field("id")?)?,
            header: Vec::from_content(field("header")?)?,
            rows: Vec::from_content(field("rows")?)?,
            failures: match c.get("failures") {
                Some(f) => Vec::from_content(f)?,
                None => Vec::new(),
            },
        })
    }
}

impl TableData {
    /// A table with no failures recorded.
    pub fn new(id: impl Into<String>, header: Vec<String>, rows: Vec<Vec<String>>) -> TableData {
        TableData {
            id: id.into(),
            header,
            rows,
            failures: Vec::new(),
        }
    }

    /// Append a degraded row for a failed component: its label followed
    /// by [`FAILED_CELL`] in every remaining column, with the reason
    /// recorded for the footnote.
    pub fn push_failed_row(&mut self, label: impl Into<String>, reason: impl Into<String>) {
        let label = label.into();
        let cols = self.header.len().max(2);
        let mut row = vec![label.clone()];
        row.resize(cols, FAILED_CELL.to_string());
        self.rows.push(row);
        self.failures.push(Degradation {
            label,
            reason: reason.into(),
        });
    }

    /// Render as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                line.push_str(&format!("{:w$}  ", c, w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for d in &self.failures {
            out.push_str(&format!("* {}: {FAILED_CELL} — {}\n", d.label, d.reason));
        }
        out
    }
}

/// Render a figure as aligned text columns (one block per series) —
/// gnuplot-ready and diffable.
pub fn render_figure(fig: &FigureData) -> String {
    let mut out = format!("# {}\n# x: {}   y: {}\n", fig.id, fig.x_label, fig.y_label);
    for s in &fig.series {
        out.push_str(&format!("\n# series: {}\n", s.label));
        for (x, y) in s.x.iter().zip(&s.y) {
            out.push_str(&format!("{x:.6e} {y:.6e}\n"));
        }
    }
    for d in &fig.failures {
        out.push_str(&format!(
            "\n# series: {} — {FAILED_CELL}: {}\n",
            d.label, d.reason
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_drops_nan() {
        let s = Series::new("t", &[1.0, 2.0, 3.0], &[1.0, f64::NAN, 3.0]);
        assert_eq!(s.x, vec![1.0, 3.0]);
        assert_eq!(s.y, vec![1.0, 3.0]);
    }

    #[test]
    fn table_renders_aligned() {
        let t = TableData::new(
            "t",
            vec!["Topology".into(), "Sig".into()],
            vec![
                vec!["Mesh".into(), "LHH".into()],
                vec!["PLRG".into(), "HHL".into()],
            ],
        );
        let r = t.render();
        assert!(r.contains("Topology"));
        assert!(r.lines().count() >= 4);
        // Columns aligned: both data lines have "LHH"/"HHL" at the same
        // offset.
        let lines: Vec<&str> = r.lines().collect();
        let off1 = lines[2].find("LHH").unwrap();
        let off2 = lines[3].find("HHL").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn figure_text_roundtrip() {
        let f = FigureData::new(
            "fig",
            "h",
            "E",
            vec![Series::new("a", &[0.0, 1.0], &[0.5, 1.0])],
        );
        let txt = render_figure(&f);
        assert!(txt.contains("series: a"));
        assert!(txt.contains("5.000000e-1") || txt.contains("5e-1"));
        // JSON serializable.
        let j = serde_json::to_string(&f).unwrap();
        let back: FigureData = serde_json::from_str(&j).unwrap();
        assert_eq!(back.series[0].y, f.series[0].y);
    }

    #[test]
    #[should_panic]
    fn series_length_mismatch_panics() {
        let _ = Series::new("x", &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn failures_field_omitted_when_empty() {
        // The degradation field must not change fault-free archives.
        let t = TableData::new("t", vec!["A".into()], vec![vec!["x".into()]]);
        assert!(!serde_json::to_string(&t).unwrap().contains("failures"));
        let f = FigureData::new("f", "x", "y", Vec::new());
        assert!(!serde_json::to_string(&f).unwrap().contains("failures"));
    }

    #[test]
    fn degraded_table_round_trips_and_footnotes() {
        let mut t = TableData::new(
            "t",
            vec!["Topology".into(), "Nodes".into()],
            vec![vec!["Mesh".into(), "900".into()]],
        );
        t.push_failed_row("Tiers", "injected fault at build (Tiers)");
        assert_eq!(t.rows.len(), 2);
        assert_eq!(
            t.rows[1],
            vec!["Tiers".to_string(), FAILED_CELL.to_string()]
        );
        let rendered = t.render();
        assert!(rendered.contains(FAILED_CELL));
        assert!(rendered.contains("* Tiers"));
        assert!(rendered.contains("injected fault"));
        let j = serde_json::to_string(&t).unwrap();
        assert!(j.contains("failures"));
        let back: TableData = serde_json::from_str(&j).unwrap();
        assert_eq!(back.failures, t.failures);
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn timing_report_omits_spans_when_empty() {
        // Untraced BENCH_*.json files must stay byte-identical with
        // archives written before the trace layer existed.
        let mut r = TimingReport {
            bfs_runs: 3,
            ..Default::default()
        };
        let j = serde_json::to_string(&r).unwrap();
        assert!(!j.contains("spans"));
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.bfs_runs, 3);
        assert!(back.spans.is_empty());

        r.spans.push(SpanRollup {
            name: "unit".into(),
            count: 4,
            seconds: 0.25,
        });
        let j = serde_json::to_string(&r).unwrap();
        assert!(j.contains("spans"));
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.spans, r.spans);
        assert!(r.render().contains("trace spans"));
    }

    #[test]
    fn timing_report_omits_bitset_counters_when_zero() {
        // Scalar-path reports (and archives predating the bitset
        // kernels) carry no words_scanned/frontier_passes keys.
        let r = TimingReport {
            bfs_runs: 2,
            ..Default::default()
        };
        let j = serde_json::to_string(&r).unwrap();
        assert!(!j.contains("words_scanned"));
        assert!(!j.contains("frontier_passes"));
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.words_scanned, 0);
        assert_eq!(back.frontier_passes, 0);
        assert!(!r.render().contains("bitset"));

        let b = TimingReport {
            words_scanned: 17,
            frontier_passes: 5,
            ..Default::default()
        };
        let j = serde_json::to_string(&b).unwrap();
        assert!(j.contains("words_scanned"));
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.words_scanned, 17);
        assert_eq!(back.frontier_passes, 5);
        let mut merged = r.clone();
        merged.merge(&b);
        assert_eq!(merged.words_scanned, 17);
        assert_eq!(merged.frontier_passes, 5);
        assert!(b.render().contains("bitset words-scanned 17"));
    }

    #[test]
    fn timing_report_omits_memory_counters_when_zero() {
        // Runs without a mem budget (and archives predating the
        // compressed hierarchy scratch) carry neither key.
        let r = TimingReport {
            bfs_runs: 1,
            ..Default::default()
        };
        let j = serde_json::to_string(&r).unwrap();
        assert!(!j.contains("scratch_bytes"));
        assert!(!j.contains("spill_runs"));
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.scratch_bytes, 0);
        assert_eq!(back.spill_runs, 0);

        let b = TimingReport {
            scratch_bytes: 4096,
            spill_runs: 3,
            ..Default::default()
        };
        let j = serde_json::to_string(&b).unwrap();
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.scratch_bytes, 4096);
        assert_eq!(back.spill_runs, 3);
        // scratch is a high-water mark: merge takes the max, not the sum.
        let mut merged = b.clone();
        merged.merge(&TimingReport {
            scratch_bytes: 1024,
            spill_runs: 2,
            ..Default::default()
        });
        assert_eq!(merged.scratch_bytes, 4096);
        assert_eq!(merged.spill_runs, 5);
        assert!(b.render().contains("memory scratch-peak 4096B"));
    }

    #[test]
    fn timing_report_carries_brandes_visits_when_nonzero() {
        let r = TimingReport::default();
        let j = serde_json::to_string(&r).unwrap();
        assert!(!j.contains("brandes_edge_visits"));
        let b = TimingReport {
            brandes_edge_visits: 120,
            ..Default::default()
        };
        let j = serde_json::to_string(&b).unwrap();
        let back: TimingReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.brandes_edge_visits, 120);
        let mut merged = b.clone();
        merged.merge(&b);
        assert_eq!(merged.brandes_edge_visits, 240);
        assert!(b.render().contains("brandes edge-visits 120"));
    }

    #[test]
    fn timing_report_merges_spans_by_name() {
        let mut a = TimingReport::default();
        a.spans.push(SpanRollup {
            name: "balls".into(),
            count: 2,
            seconds: 1.0,
        });
        let mut b = TimingReport::default();
        b.spans.push(SpanRollup {
            name: "balls".into(),
            count: 3,
            seconds: 0.5,
        });
        b.spans.push(SpanRollup {
            name: "center".into(),
            count: 1,
            seconds: 0.1,
        });
        a.merge(&b);
        assert_eq!(a.spans.len(), 2);
        let balls = a.spans.iter().find(|s| s.name == "balls").unwrap();
        assert_eq!(balls.count, 5);
        assert!((balls.seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn span_rollups_fold_from_trace_units() {
        let mut r = TimingReport::default();
        r.add_span_rollups(&[topogen_par::SpanRollup {
            name: "store-put",
            count: 7,
            nanos: 2_500_000_000,
        }]);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].count, 7);
        assert!((r.spans[0].seconds - 2.5).abs() < 1e-12);
    }

    #[test]
    fn degraded_figure_round_trips_and_footnotes() {
        let mut f = FigureData::new("f", "x", "y", vec![Series::new("ok", &[1.0], &[2.0])]);
        f.note_failure("PLRG", "boom");
        let txt = render_figure(&f);
        assert!(txt.contains("PLRG") && txt.contains(FAILED_CELL) && txt.contains("boom"));
        let j = serde_json::to_string(&f).unwrap();
        let back: FigureData = serde_json::from_str(&j).unwrap();
        assert_eq!(back.failures, f.failures);
        assert_eq!(back.series.len(), 1);
    }
}
