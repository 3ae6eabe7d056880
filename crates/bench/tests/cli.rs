//! End-to-end tests of `repro`'s command-line plumbing: malformed flag
//! values are usage errors (exit 2, never a panic), the flags that
//! configure the run context — `--cache`, `--trace`, `--mem-budget`,
//! `--kernel` — take effect without changing the archived JSON, and the
//! file commands (`gen`, `load-measured`, `classify`) round-trip a
//! generated edge list.

use std::path::{Path, PathBuf};
use std::process::Output;
use topogen_bench::tracefmt;
use topogen_core::report::TimingReport;

/// Run `repro` with `args` in `dir`, isolated from any fault or check
/// harness armed in the caller's environment.
fn repro(dir: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .env_remove("TOPOGEN_FAULTS")
        .env_remove("TOPOGEN_CHECK")
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("topogen-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `(hits, misses)` of the `>>> store-cache:` summary line.
fn store_traffic(stderr: &str) -> (u64, u64) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with(">>> store-cache:"))
        .unwrap_or_else(|| panic!("no store-cache line in:\n{stderr}"));
    let count = |suffix: &str| -> u64 {
        line.split(", ")
            .find_map(|part| {
                part.trim_start_matches(">>> store-cache: ")
                    .strip_suffix(suffix)
            })
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no {suffix:?} count in {line:?}"))
    };
    (count(" hit(s)"), count(" miss(es)"))
}

#[test]
fn malformed_flag_values_exit_2_without_panicking() {
    let dir = scratch("usage");
    let cases: &[&[&str]] = &[
        &["tab1", "--seed", "abc"],
        &["tab1", "--seed"],
        &["tab1", "--retries", "x"],
        &["tab1", "--scale", "huge"],
        &["tab1", "--deadline", "-1"],
        &["tab1", "--deadline", "nan"],
        &["tab1", "--kernel", "nope"],
        &["tab1", "--mem-budget", "lots"],
        &["serve", "--workers", "x"],
        &["serve", "--deadline", "-1"],
        &["serve", "--drain-deadline", "-1"],
        &["serve", "--drain-deadline", "nan"],
    ];
    for args in cases {
        let out = repro(&dir, args);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} exit code; stderr:\n{err}"
        );
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
        assert!(
            err.contains("usage: repro"),
            "{args:?} prints usage:\n{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_flag_fills_the_store_and_serves_the_rerun() {
    let dir = scratch("cache");
    let cold = repro(&dir, &["tab1", "--cache=store"]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let (_, cold_misses) = store_traffic(&stderr(&cold));
    assert!(cold_misses > 0, "cold run computes and persists");

    let warm = repro(&dir, &["tab1", "--cache=store"]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    let (warm_hits, warm_misses) = store_traffic(&stderr(&warm));
    assert!(warm_hits > 0, "warm run is served from the store");
    assert_eq!(warm_misses, 0, "warm run recomputes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_flag_writes_well_formed_jsonl() {
    let dir = scratch("trace");
    let out = repro(&dir, &["tab1", "--trace=trace", "--cache=store"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("trace/tab1-seed42.jsonl")).unwrap();
    let events = tracefmt::parse_jsonl(&text).unwrap_or_else(|e| panic!("bad JSONL: {e}"));
    tracefmt::check_well_formed(&events).unwrap();
    let tid_of = |name: &str| {
        events
            .iter()
            .find(|e| e.ev == "enter" && e.name == name)
            .unwrap_or_else(|| panic!("no {name} span"))
            .tid
    };
    // The runner's spans (main thread) and the unit's store spans (unit
    // thread) land in the one sink of the run context.
    assert_eq!(tid_of("suite"), tid_of("attempt"));
    assert_ne!(tid_of("suite"), tid_of("store-get"));
    assert_eq!(tid_of("store-get"), tid_of("store-put"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mem_budget_flag_routes_builds_through_the_streaming_builder() {
    // The streaming builder spills its sorted runs under `out/` (and
    // merges them away); an in-memory build never touches it.
    let dir = scratch("budget");
    let plain = repro(&dir, &["tab1", "--timings"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    assert!(
        !dir.join("out").exists(),
        "in-memory builds leave no scratch"
    );
    let budgeted = repro(&dir, &["tab1", "--mem-budget", "1K", "--timings"]);
    assert!(budgeted.status.success(), "{}", stderr(&budgeted));
    assert!(dir.join("out").is_dir(), "budgeted builds streamed");
    // (table, timing report) halves of a `tab1 --timings` stdout.
    let split = |out: &Output| {
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let (table, timings) = text
            .split_once("== tab1 timings ==")
            .expect("timing report");
        (table.to_string(), timings.to_string())
    };
    let (plain_table, plain_timings) = split(&plain);
    let (budgeted_table, budgeted_timings) = split(&budgeted);
    assert_eq!(plain_table, budgeted_table, "same table either way");
    assert!(!plain_timings.contains("spill-runs"), "{plain_timings}");
    let spill_runs: u64 = budgeted_timings
        .split("spill-runs ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no spill-runs count in:\n{budgeted_timings}"));
    assert!(spill_runs > 0, "--timings reports the spilled runs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_load_measured_and_classify_round_trip_an_edge_list() {
    let dir = scratch("files");
    let generated = repro(&dir, &["gen", "PLRG"]);
    assert!(generated.status.success(), "{}", stderr(&generated));
    std::fs::write(dir.join("plrg.txt"), &generated.stdout).unwrap();

    let loaded = repro(&dir, &["load-measured", "plrg.txt"]);
    assert!(loaded.status.success(), "{}", stderr(&loaded));
    let text = String::from_utf8_lossy(&loaded.stdout);
    assert!(text.contains("power-law alpha"), "{text}");
    assert!(text.contains("clustering"), "{text}");

    // The cache serves the second classify's curves and link values.
    let one = repro(&dir, &["classify", "plrg.txt", "--cache=store"]);
    assert!(one.status.success(), "{}", stderr(&one));
    let text = String::from_utf8_lossy(&one.stdout);
    let row = text
        .lines()
        .find(|l| l.starts_with("plrg.txt"))
        .unwrap_or_else(|| panic!("no plrg.txt row in:\n{text}"));
    let signature = row.split_whitespace().nth(2).unwrap();
    assert!(
        signature.len() == 3 && signature.chars().all(|c| c == 'H' || c == 'L'),
        "signature {signature:?} in {row:?}"
    );
    assert!(!text.contains("MATCH"), "one file has no verdict:\n{text}");

    let two = repro(&dir, &["classify", "plrg.txt", "plrg.txt", "--cache=store"]);
    assert!(two.status.success(), "{}", stderr(&two));
    let text = String::from_utf8_lossy(&two.stdout);
    assert!(text.contains("MATCH"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_commands_reject_bad_topologies_and_missing_files() {
    let dir = scratch("file-errors");
    let cases: &[(&[&str], i32)] = &[
        (&["gen", "NoSuchTopology"], 2),
        (&["gen", r#"{"kind":"plrg","n":100}"#], 2),
        (&["gen", r#"{"kind":"#], 2),
        (&["gen"], 2),
        (&["classify"], 2),
        (&["classify", "missing.txt"], 3),
        (&["load-measured", "missing.txt"], 3),
    ];
    for (args, code) in cases {
        let out = repro(&dir, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(*code), "{args:?}; stderr:\n{err}");
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_is_byte_identical_with_and_without_context_flags() {
    let dir = scratch("json");
    let plain = repro(&dir, &["tab1", "--json", "plain"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let flagged = repro(
        &dir,
        &[
            "tab1",
            "--json",
            "flagged",
            "--cache=store",
            "--trace=trace",
            "--mem-budget",
            "1K",
            "--kernel",
            "scalar",
        ],
    );
    assert!(flagged.status.success(), "{}", stderr(&flagged));
    let read = |sub: &str| std::fs::read(dir.join(sub).join("tab1.json")).unwrap();
    assert_eq!(read("plain"), read("flagged"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--kernel` reaches the metric suite: the scalar kernel scans no
/// bitset words, the bitset kernel does, and the table is the same.
/// Two full `tab-signature` runs take minutes in a debug build, so this
/// runs in release (`cargo test --release -p topogen-bench --test cli
/// -- --ignored`, a CI step).
#[test]
#[ignore = "release-only: two full tab-signature runs"]
fn kernel_flag_changes_words_scanned_not_the_table() {
    let dir = scratch("kernel");
    let run = |kernel: &str| {
        let out = repro(
            &dir,
            &[
                "tab-signature",
                "--timings",
                "--kernel",
                kernel,
                "--json",
                kernel,
            ],
        );
        assert!(out.status.success(), "{}", stderr(&out));
        let bench =
            std::fs::read_to_string(dir.join(kernel).join("BENCH_tab-signature.json")).unwrap();
        let bench: TimingReport = serde_json::from_str(&bench).unwrap();
        let table = std::fs::read(dir.join(kernel).join("tab-signature.json")).unwrap();
        (bench.words_scanned, table)
    };
    let (scalar_words, scalar_table) = run("scalar");
    let (bitset_words, bitset_table) = run("bitset");
    assert_eq!(scalar_words, 0, "scalar kernel scans no bitset words");
    assert!(bitset_words > 0, "bitset kernel ran");
    assert_eq!(scalar_table, bitset_table, "kernels are bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}
