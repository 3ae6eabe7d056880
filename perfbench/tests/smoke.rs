//! Smoke tests of the benchmark itself: tiny-size runs of every workload
//! emit every metric `BENCHMARK.json` names, with its unit, and the
//! fingerprint gate trips when an expected fingerprint is wrong.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Content, Deserialize};

const BIN: &str = env!("CARGO_BIN_EXE_topogen-perfbench");
const WORKLOADS: [&str; 4] = ["signature", "hierarchy", "serve", "expansion-xl"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec: Content = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    let list = Vec::<Content>::from_content(spec.get(section).expect("section")).expect("list");
    list.iter()
        .map(|m| {
            let field = |k| String::from_content(m.get(k).expect(k)).expect(k);
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the binary and parse its last stdout line.
fn run(workload: &str, dir: &Path, extra: &[&str]) -> Content {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "0",
            "--size",
            "tiny",
        ])
        .arg("--workdir")
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn the benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

fn metrics(result: &Content) -> Vec<(String, String)> {
    let Some(Content::Map(fields)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = f64::from_content(m.get("value").expect("value")).expect("number");
            assert!(value.is_finite(), "{name} is not finite");
            (
                name.clone(),
                String::from_content(m.get("unit").expect("unit")).expect("unit"),
            )
        })
        .collect()
}

fn value(result: &Content, name: &str) -> f64 {
    let m = result.get("metrics").and_then(|m| m.get(name)).expect(name);
    f64::from_content(m.get("value").expect("value")).expect("number")
}

fn count(result: &Content, key: &str) -> u64 {
    u64::from_content(result.get(key).expect(key)).expect(key)
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    // `setup_s` is measured by run.py across processes; the binary
    // reports everything else.
    let end_to_end: Vec<_> = declared("end_to_end")
        .into_iter()
        .filter(|(name, _)| name != "setup_s")
        .collect();
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let dir = scratch(&format!("emit-{workload}"));
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, &dir, &["--trace", trace]);
            let mut got = metrics(&result);
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
            assert!(count(&result, "attempted") > 0, "{workload}");
            assert_eq!(count(&result, "failed"), 0, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn corrupted_fingerprint_trips_the_gate() {
    for workload in ["signature", "expansion-xl"] {
        let dir = scratch(&format!("gate-{workload}"));
        let expect = dir.join("expected");
        std::fs::create_dir_all(&expect).expect("create expect dir");
        let expect_arg = expect.to_str().expect("utf-8 path");
        let base = ["--trace", "0", "--expect-dir", expect_arg];
        run(workload, &dir, &[&base[..], &["--record"]].concat());
        let clean = run(workload, &dir, &base);
        assert_eq!(
            count(&clean, "failed"),
            0,
            "{workload}: recorded fingerprints match"
        );

        let file = expect.join(format!("{workload}-tiny-42.txt"));
        let text = std::fs::read_to_string(&file).expect("recorded fingerprints");
        let first = text.lines().next().expect("at least one fingerprint");
        let (name, hash) = first.rsplit_once(' ').expect("name hash");
        let flipped: String = hash
            .chars()
            .map(|c| if c == '0' { '1' } else { '0' })
            .collect();
        std::fs::write(&file, text.replacen(first, &format!("{name} {flipped}"), 1))
            .expect("corrupt the fingerprint");
        let tripped = run(workload, &dir, &base);
        assert!(
            count(&tripped, "failed") > 0,
            "{workload}: corrupted fingerprint not caught"
        );
        let rate = value(&tripped, "ok_rate");
        assert!(
            rate < 1.0,
            "{workload}: ok_rate {rate} after a failed check"
        );
    }
}

#[test]
fn run_py_adds_setup_time_and_checks_the_metric_list() {
    // Point run.py at this build's target directory so its cargo build
    // finds the binary already built when the tests run in release.
    let target = Path::new(BIN)
        .parent()
        .and_then(Path::parent)
        .expect("target dir");
    let out = Command::new("python3")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/run.py"))
        .args([
            "--workload",
            "hierarchy",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--size", "tiny"])
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("spawn run.py");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[lines.len() - 2].starts_with("stamp {"),
        "stamp line precedes the result"
    );
    let result: Content = serde_json::from_str(lines[lines.len() - 1]).expect("JSON result");
    let mut got = metrics(&result);
    let mut want = declared("end_to_end");
    got.sort();
    want.sort();
    assert_eq!(got, want);
}
