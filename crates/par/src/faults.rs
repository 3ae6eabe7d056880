//! Deterministic fault injection for robustness tests.
//!
//! `TOPOGEN_FAULTS=site[@scope]:kind:rate:seed[,entry...]` arms one or
//! more fault entries; instrumented sites call [`inject`] (compute
//! sites) or [`inject_io`] (I/O sites) and, when an armed entry
//! matches, the fault fires there. Sites currently wired:
//!
//! * `build`  — topology construction (`topogen_core::zoo::build_in`),
//!   labelled with the topology name;
//! * `metric` — the shared-ball metrics engine, at phase start;
//! * `hier`   — the hierarchy link-value traversal, at phase start;
//! * `sock-read` / `sock-write` — the daemon's server-side socket I/O;
//! * `store-read` / `store-write` — artifact-store entry I/O;
//! * `ledger-append` — both append-only ledgers (the store's
//!   `ledger.tsv`, labelled `store`, and the daemon's request JSONL,
//!   labelled `serve`).
//!
//! Kinds: `panic`, `delay` (100 ms) or `delayNNN` (NNN ms) fire at any
//! site; `err` (an injected `io::Error`) and `short` (a partial
//! read/write) fire only at the I/O sites — [`inject`] ignores them,
//! [`inject_io`] returns them for the caller to surface. `rate` in
//! `(0, 1]` is a per-call firing probability drawn from a SplitMix64
//! stream keyed by `seed` and a per-entry call counter, so a given spec
//! fires at the same call indices on every run. An optional `@scope`
//! restricts the entry to calls whose site label *or* current suite
//! unit (see [`set_current_unit`]) equals `scope` — how the CI smoke
//! pins one injected panic to exactly one `repro` unit.
//!
//! When nothing is armed, [`inject`] and [`inject_io`] are a single
//! relaxed atomic load — zero-cost for production runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One armed fault.
#[derive(Debug)]
struct FaultEntry {
    site: String,
    scope: Option<String>,
    kind: FaultKind,
    rate: f64,
    seed: u64,
    calls: AtomicU64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum FaultKind {
    Panic,
    Delay(u64),
    Err,
    Short,
}

/// An I/O fault returned by [`inject_io`] for the call site to surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Fail the operation with an injected `io::Error`.
    Err,
    /// Complete the operation partially (short read / torn write).
    Short,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static FAULTS: Mutex<Vec<FaultEntry>> = Mutex::new(Vec::new());
static CURRENT_UNIT: Mutex<Option<String>> = Mutex::new(None);
static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Serialize tests that arm global fault state (the harness is
/// process-wide and `cargo test` runs tests concurrently).
pub fn exclusive_for_tests() -> std::sync::MutexGuard<'static, ()> {
    TEST_GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arm the harness from the `TOPOGEN_FAULTS` environment variable.
/// Called once by binaries at startup; a malformed spec aborts with a
/// usage message rather than silently running fault-free.
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("TOPOGEN_FAULTS") {
        if let Err(e) = install_spec(&spec) {
            eprintln!("TOPOGEN_FAULTS: {e}");
            std::process::exit(2);
        }
    }
}

/// Arm the harness from a spec string (see module docs for the syntax).
/// Replaces any previously armed entries.
pub fn install_spec(spec: &str) -> Result<(), String> {
    let mut entries = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        entries.push(parse_entry(part.trim())?);
    }
    let armed = !entries.is_empty();
    *lock(&FAULTS) = entries;
    ENABLED.store(armed, Ordering::Release);
    Ok(())
}

/// True while any fault entry is armed. The CLI checks this before
/// installing an artifact-store handle, so results produced under an
/// active harness are never cached.
pub fn active() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Disarm every fault entry.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    lock(&FAULTS).clear();
}

/// Record the suite unit currently executing (e.g. `"fig9"`), used to
/// match `site@scope` entries. The runner sets this around each unit;
/// `None` clears it.
pub fn set_current_unit(unit: Option<&str>) {
    *lock(&CURRENT_UNIT) = unit.map(str::to_string);
}

fn parse_entry(s: &str) -> Result<FaultEntry, String> {
    let fields: Vec<&str> = s.split(':').collect();
    if fields.len() != 4 {
        return Err(format!("bad entry {s:?}: want site[@scope]:kind:rate:seed"));
    }
    let (site, scope) = match fields[0].split_once('@') {
        Some((site, scope)) => (site.to_string(), Some(scope.to_string())),
        None => (fields[0].to_string(), None),
    };
    let kind = match fields[1] {
        "panic" => FaultKind::Panic,
        "err" => FaultKind::Err,
        "short" => FaultKind::Short,
        "delay" => FaultKind::Delay(100),
        k if k.starts_with("delay") => FaultKind::Delay(
            k["delay".len()..]
                .parse()
                .map_err(|_| format!("bad delay in {s:?}"))?,
        ),
        other => return Err(format!("unknown fault kind {other:?} in {s:?}")),
    };
    let rate: f64 = fields[2]
        .parse()
        .map_err(|_| format!("bad rate in {s:?}"))?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("rate must be in (0, 1] in {s:?}"));
    }
    let seed: u64 = fields[3]
        .parse()
        .map_err(|_| format!("bad seed in {s:?}"))?;
    Ok(FaultEntry {
        site,
        scope,
        kind,
        rate,
        seed,
        calls: AtomicU64::new(0),
    })
}

/// One SplitMix64 step — the workspace's shared deterministic draw
/// (fault firing here, retry-backoff jitter in the store, reseeds in
/// the runner all key off the same primitive).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A compute fault site: fires any armed entry matching `site` whose
/// scope (if any) equals the call's `label` or the current suite unit.
/// Panics with a recognizable message for `panic` entries; sleeps for
/// `delay` entries; ignores the I/O-only kinds (`err`, `short`). A
/// relaxed atomic load when nothing is armed.
pub fn inject(site: &str, label: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    inject_slow(site, label);
}

/// An I/O fault site: `panic` / `delay` entries fire exactly as at
/// compute sites; `err` / `short` entries are returned for the caller
/// to surface as an injected `io::Error` or a partial transfer. A
/// relaxed atomic load when nothing is armed.
pub fn inject_io(site: &str, label: &str) -> Option<IoFault> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    inject_io_slow(site, label)
}

/// The `io::Error` an injected [`IoFault::Err`] should surface as —
/// recognizable (and classified as transient/retryable) by message.
pub fn io_error(site: &str, label: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site} ({label})"))
}

#[cold]
fn inject_slow(site: &str, label: &str) {
    match draw_fire(site, label) {
        Some((FaultKind::Panic, msg)) => panic!("{msg}"),
        Some((FaultKind::Delay(ms), _)) => std::thread::sleep(Duration::from_millis(ms)),
        // The I/O kinds have no meaning at a compute site; arming one
        // there is a no-op rather than an error so a single broad spec
        // can cover heterogeneous sites.
        Some((FaultKind::Err | FaultKind::Short, _)) | None => {}
    }
}

#[cold]
fn inject_io_slow(site: &str, label: &str) -> Option<IoFault> {
    match draw_fire(site, label) {
        Some((FaultKind::Panic, msg)) => panic!("{msg}"),
        Some((FaultKind::Delay(ms), _)) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Some((FaultKind::Err, _)) => Some(IoFault::Err),
        Some((FaultKind::Short, _)) => Some(IoFault::Short),
        None => None,
    }
}

/// The shared matching/draw loop: the first armed entry matching
/// `site`/`label` whose per-call draw clears its rate wins.
fn draw_fire(site: &str, label: &str) -> Option<(FaultKind, String)> {
    let mut fire: Option<(FaultKind, String)> = None;
    {
        let entries = lock(&FAULTS);
        let unit = lock(&CURRENT_UNIT).clone();
        for e in entries.iter() {
            if e.site != site {
                continue;
            }
            if let Some(scope) = &e.scope {
                let unit_matches = unit.as_deref() == Some(scope.as_str());
                if scope != label && !unit_matches {
                    continue;
                }
            }
            let call = e.calls.fetch_add(1, Ordering::Relaxed);
            let draw = splitmix64(e.seed ^ call.wrapping_mul(0xA24BAED4963EE407));
            if (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < e.rate {
                fire = Some((e.kind, format!("injected fault at {site} ({label})")));
                break;
            }
        }
        // Locks drop here: panicking while holding them would poison
        // the harness for every later site.
    }
    fire
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_and_after_clear() {
        let _g = exclusive_for_tests();
        clear();
        inject("build", "Mesh"); // must not fire
        install_spec("build:panic:1:1").unwrap();
        clear();
        inject("build", "Mesh");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "build:panic:1",
            "build:teleport:1:1",
            "build:panic:0:1",
            "build:panic:2:1",
            "build:panic:1:x",
            "build:delayxx:1:1",
        ] {
            assert!(parse_entry(bad).is_err(), "{bad:?} should not parse");
        }
        let e = parse_entry("store-read:err:0.1:4").unwrap();
        assert_eq!(e.kind, FaultKind::Err);
        let e = parse_entry("ledger-append@serve:short:1:2").unwrap();
        assert_eq!(e.kind, FaultKind::Short);
        assert_eq!(e.scope.as_deref(), Some("serve"));
        let e = parse_entry("metric@fig9:delay250:0.5:7").unwrap();
        assert_eq!(e.site, "metric");
        assert_eq!(e.scope.as_deref(), Some("fig9"));
        assert_eq!(e.kind, FaultKind::Delay(250));
        assert_eq!(e.rate, 0.5);
        assert_eq!(e.seed, 7);
    }

    #[test]
    fn rate_one_panic_fires_with_site_and_label_match() {
        let _g = exclusive_for_tests();
        install_spec("build@Tiers:panic:1:3").unwrap();
        inject("metric", "Tiers"); // wrong site
        inject("build", "Mesh"); // wrong label, no unit
        let err = std::panic::catch_unwind(|| inject("build", "Tiers"))
            .expect_err("scoped entry must fire");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault at build (Tiers)"), "{msg}");
        clear();
    }

    #[test]
    fn unit_scope_matches_current_unit() {
        let _g = exclusive_for_tests();
        install_spec("build@fig9:panic:1:3").unwrap();
        set_current_unit(Some("tab1"));
        inject("build", "Mesh"); // other unit: no fire
        set_current_unit(Some("fig9"));
        let r = std::panic::catch_unwind(|| inject("build", "Mesh"));
        set_current_unit(None);
        clear();
        r.expect_err("unit-scoped entry must fire");
    }

    #[test]
    fn io_kinds_fire_at_io_sites_and_are_ignored_by_inject() {
        let _g = exclusive_for_tests();
        install_spec("store-read:err:1:5,sock-write:short:1:5").unwrap();
        assert_eq!(inject_io("store-read", "get"), Some(IoFault::Err));
        assert_eq!(inject_io("sock-write", "daemon"), Some(IoFault::Short));
        assert_eq!(inject_io("store-write", "put"), None);
        // A compute-site call never surfaces (or panics on) an io kind.
        install_spec("build:err:1:5,build:short:1:5").unwrap();
        inject("build", "Mesh");
        clear();
    }

    #[test]
    fn inject_io_panic_kind_panics_like_inject() {
        let _g = exclusive_for_tests();
        install_spec("sock-read:panic:1:7").unwrap();
        let err = std::panic::catch_unwind(|| inject_io("sock-read", "daemon"))
            .expect_err("panic kind must fire at io sites too");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("injected fault at sock-read (daemon)"),
            "{msg}"
        );
        clear();
    }

    #[test]
    fn io_fault_rate_is_deterministic_per_call_index() {
        let _g = exclusive_for_tests();
        let pattern = |seed: u64| -> Vec<bool> {
            install_spec(&format!("store-read:err:0.5:{seed}")).unwrap();
            let p: Vec<bool> = (0..32)
                .map(|_| inject_io("store-read", "get").is_some())
                .collect();
            clear();
            p
        };
        let a = pattern(21);
        assert_eq!(a, pattern(21), "same seed, same firing pattern");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn fractional_rate_is_deterministic() {
        let _g = exclusive_for_tests();
        let pattern = |seed: u64| -> Vec<bool> {
            install_spec(&format!("build:panic:0.5:{seed}")).unwrap();
            let p: Vec<bool> = (0..32)
                .map(|_| std::panic::catch_unwind(|| inject("build", "x")).is_err())
                .collect();
            clear();
            p
        };
        let a = pattern(11);
        let b = pattern(11);
        assert_eq!(a, b, "same seed, same firing pattern");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        let c = pattern(12);
        assert_ne!(a, c, "different seed should shift the pattern");
    }
}
