//! Measurement plumbing shared by the workloads: process CPU and memory
//! from `/proc`, quantiles, the pass/failure tally, output fingerprints
//! and the per-layer metric table.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use topogen_store::fnv::Fnv1a;

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Clock ticks per second of the CPU times in `/proc`: the `AT_CLKTCK`
/// entry of the process's auxiliary vector.
fn clk_tck() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").expect("read /proc/self/auxv");
    let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
    auxv.chunks_exact(16)
        .find(|entry| word(&entry[..8]) == AT_CLKTCK)
        .map(|entry| word(&entry[8..]) as f64)
        .expect("AT_CLKTCK in the auxiliary vector")
}

/// User plus system CPU seconds of the whole process so far (every
/// thread, including ones that have exited).
pub fn cpu_seconds() -> f64 {
    static CLK_TCK: OnceLock<f64> = OnceLock::new();
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / *CLK_TCK.get_or_init(clk_tck)
}

/// Reset the peak resident set to the current one, so that
/// [`peak_rss_mib`] reads the peak since this call (`clear_refs` 5,
/// Linux 4.0 and later). Where the kernel refuses, the peak stays the
/// process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of the process since start or the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Linearly interpolated quantile `q` of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Brackets the timed portion of a pass: wall and process CPU, summed
/// over every `measure` call, so untimed bookkeeping in between (store
/// population, fingerprinting) stays out.
#[derive(Default)]
pub struct Clock {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Clock {
    /// Run `f` as timed work; returns its result and its wall latency
    /// in milliseconds.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed().as_secs_f64();
        self.cpu_s += cpu_seconds() - c0;
        self.wall_s += wall;
        (r, wall * 1e3)
    }
}

/// Operations attempted and failed, with a note per failure, and the
/// table rows that disagree with the paper at a seed where that is a
/// recorded finding rather than a failure (see `PAPER_SEED`).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub findings: BTreeSet<String>,
}

impl Tally {
    /// Count one operation; a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Record a paper disagreement that is not a failure; repeats of
    /// the same row and outcome over passes count once.
    pub fn finding(&mut self, note: String) {
        self.findings.insert(note);
    }
}

/// FNV-1a over the bit patterns of `values`: an exact fingerprint of a
/// curve.
pub fn fingerprint(values: impl IntoIterator<Item = f64>) -> String {
    let mut h = Fnv1a::new();
    for v in values {
        h.write_u64(v.to_bits());
    }
    format!("{:016x}", h.finish())
}

/// Fingerprints checked (or recorded) for one pass: `name hash` lines.
pub struct Fingerprints {
    expected: Option<BTreeMap<String, String>>,
    seen: Vec<(String, String)>,
}

impl Fingerprints {
    /// Fingerprints to check against `file`; nothing is checked when
    /// the file does not exist.
    pub fn load(file: &Path) -> Fingerprints {
        let expected = std::fs::read_to_string(file).ok().map(|text| {
            text.lines()
                .filter_map(|l| l.rsplit_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        });
        Fingerprints {
            expected,
            seen: Vec::new(),
        }
    }

    /// Whether `hash` matches the expected value for `name` (true when
    /// nothing is expected).
    pub fn check(&mut self, name: &str, hash: String) -> bool {
        let ok = match &self.expected {
            Some(map) => map.get(name) == Some(&hash),
            None => true,
        };
        self.seen.push((name.to_string(), hash));
        ok
    }

    /// Write what was seen to `file` (the `--record` mode).
    pub fn record(&self, file: &Path) {
        let text: String = self
            .seen
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        std::fs::write(file, text).expect("write fingerprint file");
    }
}

/// Every per-layer metric with its unit. A traced run reports all of
/// them on every workload; a layer the workload never enters reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("zoo.build_s", "s"),
    ("stream.spill_runs", "count"),
    ("suite.run_s", "s"),
    ("suite.self_s", "s"),
    ("engine.balls_s", "s"),
    ("engine.distances_s", "s"),
    ("engine.bfs_runs", "count"),
    ("engine.balls_built", "count"),
    ("engine.ball_cache_hits", "count"),
    ("distortion.measure_s", "s"),
    ("distortion.center_s", "s"),
    ("distortion.tree_eval_s", "s"),
    ("distortion.bartal_s", "s"),
    ("distortion.balls", "count"),
    ("distortion.center_share", "ratio"),
    ("distortion.tree_eval_share", "ratio"),
    ("distortion.bartal_share", "ratio"),
    ("partition.measure_s", "s"),
    ("partition.cut_s", "s"),
    ("partition.cut_share", "ratio"),
    ("partition.restarts", "count"),
    ("expansion.plan_s", "s"),
    ("bfs_bitset.words_scanned", "count"),
    ("bfs_bitset.frontier_passes", "count"),
    ("bfs_bitset.bytes_computed", "bytes"),
    ("hierarchy.report_s", "s"),
    ("hierarchy.traversal_s", "s"),
    ("hierarchy.merge_s", "s"),
    ("hierarchy.cover_s", "s"),
    ("hierarchy.dag_states", "count"),
    ("hierarchy.pairs_accumulated", "count"),
    ("hierarchy.arena_bytes", "bytes"),
    ("hierarchy.scratch_bytes", "bytes"),
    ("classify.paper_mismatches", "count"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("serve.handle_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("warm.p99_ms", "ms"),
    ("warm.rps", "1/s"),
    ("par.utilisation", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Per-layer values of a traced run, keyed by [`LAYER_METRICS`] name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.0.get(name).copied().unwrap_or(0.0);
        self.set(name, v + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `part / whole`, 0 when the whole is 0.
    pub fn share(&mut self, name: &'static str, part: &str, whole: &str) {
        let w = self.get(whole);
        self.set(name, if w > 0.0 { self.get(part) / w } else { 0.0 });
    }

    pub fn render(&self) -> String {
        let fields: Vec<(&str, f64, &str)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect();
        render_metrics(&fields)
    }
}

/// The `metrics` object of the result line.
pub fn render_metrics(fields: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
