//! `serve`: the `topogen-serve` daemon in process, with a fresh store,
//! two workers and two closed-loop clients. Each pass starts a fresh
//! daemon; its cold phase sends one seeded (topology, seed) key per
//! topology of the small zoo but Tiers and Mesh, each a miss (build,
//! suite, store puts), and its warm phase repeats those keys, each a
//! response-cache hit (store get plus HTTP).
//!
//! The daemon takes no trace sink, so its layers are read from its
//! request ledger and store counters, plus direct timed `Store::get` and
//! `Store::put` calls on the response keys the pass used.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Content, Deserialize};
use topogen_bench::serve::http::{http_get, http_post};
use topogen_bench::serve::measure::response_key;
use topogen_bench::serve::{serve, DaemonHandle, MeasureRequest, ServeConfig};
use topogen_core::zoo::{Scale, TopologySpec};
use topogen_par::faults::splitmix64;
use topogen_store::Store;

use crate::meter::{nproc, quantile, Clock, Layers, Tally};
use crate::{Args, Pass, Size, Summary};

/// Warm requests per pass: enough for ten samples past the pass's 99th
/// percentile.
const WARM_REQUESTS: usize = 1000;
/// Passes per run, at the least. Each pass draws its own build seeds,
/// and the cost of a quick suite is heavy-tailed in the seed: a few
/// PLRG builds in a hundred have fewer nodes than the suite's 900-node
/// ball cap, and such a request takes about 27 s instead of 1 s (see
/// README). With three passes or more, one such pass moves the run's
/// medians no more than a fast one.
const MIN_PASSES: usize = 3;
/// How long a pass may take to drain its daemon.
const DRAIN: Duration = Duration::from_secs(60);

/// The topologies of the cold keys, one key each: the small zoo without
/// Tiers and Mesh. Those two take 6 to 16 s a request (the others 0.3
/// to 3 s), so with them a run is one pass and its median rests on nine
/// latencies that depend on which phase of the Mesh request each
/// overlapped (see README); `signature` measures both.
fn topologies(size: Size) -> Vec<TopologySpec> {
    match size {
        Size::Full => TopologySpec::figure1_zoo(Scale::Small)
            .into_iter()
            .filter(|s| !["Tiers", "Mesh"].contains(&s.name().as_str()))
            .collect(),
        Size::Tiny => vec![
            TopologySpec::Tree { k: 3, depth: 3 },
            TopologySpec::Mesh { side: 5 },
        ],
    }
}

/// Client threads and daemon workers: two, never more than the cores.
fn width() -> usize {
    nproc().min(2)
}

struct Daemon {
    handle: DaemonHandle,
    store: Arc<Store>,
    ledger: std::path::PathBuf,
}

/// Open a fresh store, bind the daemon and wait for `/healthz`.
fn start(dir: &Path) -> Daemon {
    let store = Arc::new(Store::open(dir.join("store")).expect("open the serve store"));
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.workers = width();
    config.store = Some(store.clone());
    config.ledger_path = dir.join("ledger.jsonl");
    let ledger = config.ledger_path.clone();
    let handle = serve(config).expect("bind the daemon");
    let health = http_get(handle.addr(), "/healthz").expect("reach /healthz");
    assert_eq!(health.status, 200, "daemon is not healthy");
    Daemon {
        handle,
        store,
        ledger,
    }
}

/// What a run does before its first timed request; prints `ready` once
/// the daemon answers, then tears it down.
pub fn setup_probe(args: &Args) {
    let dir = args.workdir.join("serve-setup");
    let mut d = start(&dir);
    crate::ready();
    d.handle.drain(DRAIN);
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

pub fn run(args: &Args, tally: &mut Tally, layers: &mut Layers) -> Summary {
    let mut summary = Summary::default();
    if !args.trace {
        crate::run_passes(args.seconds, MIN_PASSES, |p| {
            summary.absorb(one_pass(args, p, tally, None))
        });
        return summary;
    }
    let untraced = one_pass(args, 0, tally, None);
    let traced = one_pass(args, 0, tally, Some(layers));
    layers.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    layers.set(
        "serve.overhead_ms",
        quantile(&traced.warm_ms, 0.5) - layers.get("serve.handle_ms"),
    );
    summary.absorb(untraced);
    summary
}

/// One request's outcome as the client saw it.
struct Reply {
    key: usize,
    status: u16,
    body: Vec<u8>,
    ms: f64,
}

/// [`width`] closed-loop clients send the requests `order` lists
/// (indices into `reqs`), each client its next one as soon as its last
/// is answered, until the list is exhausted.
fn drive(addr: std::net::SocketAddr, reqs: &[String], order: &[usize]) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(order.len()));
    std::thread::scope(|s| {
        for _ in 0..width() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&key) = order.get(i) else { break };
                let t0 = Instant::now();
                let reply = http_post(addr, "/measure", &reqs[key]);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let (status, body) = match reply {
                    Ok(r) => (r.status, r.body),
                    Err(_) => (0, Vec::new()),
                };
                replies
                    .lock()
                    .expect("a client thread panicked")
                    .push(Reply {
                        key,
                        status,
                        body,
                        ms,
                    });
            });
        }
    });
    replies.into_inner().expect("a client thread panicked")
}

fn one_pass(args: &Args, p: usize, tally: &mut Tally, layers: Option<&mut Layers>) -> Pass {
    let seed = args.seed;
    let dir = args.workdir.join(format!("serve-{p}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut d = start(&dir);
    let addr = d.handle.addr();
    // Pass 0 (the only pass of a traced run) keeps the run's seed; every
    // later pass draws distinct keys.
    let pass_seed = seed.wrapping_add(p as u64 * 0x9E37_79B9_7F4A_7C15);
    let reqs: Vec<MeasureRequest> = topologies(args.size)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            MeasureRequest::new(
                spec,
                splitmix64(pass_seed ^ i as u64) % 1_000_000,
                Scale::Small,
            )
        })
        .collect();
    let keys = reqs.len();
    let bodies: Vec<String> = reqs.iter().map(|r| r.to_json()).collect();
    let warm_order: Vec<usize> = (0..WARM_REQUESTS)
        .map(|j| (splitmix64(pass_seed ^ 0xA11 ^ j as u64) % keys as u64) as usize)
        .collect();

    let mut clock = Clock::default();
    let cold_order: Vec<usize> = (0..keys).collect();
    let (cold, _) = clock.measure(|| drive(addr, &bodies, &cold_order));
    let (warm, warm_phase_ms) = clock.measure(|| drive(addr, &bodies, &warm_order));

    let mut by_key: Vec<(usize, f64)> = cold.iter().map(|r| (r.key, r.ms)).collect();
    by_key.sort_by_key(|&(k, _)| k);
    let line: Vec<String> = by_key
        .iter()
        .map(|&(k, ms)| format!("{} {ms:.0}", reqs[k].spec.name()))
        .collect();
    eprintln!("serve pass {p}: cold ms by key: {}", line.join(", "));
    let mut cold_body: Vec<Option<&[u8]>> = vec![None; keys];
    let mut rejected = 0u64;
    for r in &cold {
        rejected += u64::from(r.status == 429 || r.status == 503);
        cold_body[r.key] = Some(&r.body);
        tally.check(r.status == 200, || {
            format!("cold request {} answered {}", r.key, r.status)
        });
    }
    for r in &warm {
        rejected += u64::from(r.status == 429 || r.status == 503);
        let same = cold_body[r.key] == Some(&r.body[..]);
        tally.check(r.status == 200 && same, || {
            format!(
                "warm request for key {} answered {} (same body: {same})",
                r.key, r.status
            )
        });
    }

    if let Some(layers) = layers {
        // The daemon's own store traffic, before the probe below adds
        // the benchmark's.
        let c = d.store.counters().snapshot();
        layers.set("store.hits", c.hits as f64);
        layers.set("store.misses", c.misses as f64);
        layers.set("store.bytes_read", c.bytes_read as f64);
        layers.set("store.bytes_written", c.bytes_written as f64);
        layers.set(
            "store.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        // Direct timed store calls on the keys this pass used.
        let mut get_ms = Vec::new();
        let mut put_ms = Vec::new();
        for req in &reqs {
            let key = response_key(req);
            let t0 = Instant::now();
            let bytes = d.store.get(&key);
            get_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(bytes) = bytes {
                let t0 = Instant::now();
                d.store.put(&key, &bytes);
                put_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        layers.set("store.get_ms", quantile(&get_ms, 0.5));
        layers.set("store.put_ms", quantile(&put_ms, 0.5));
        layers.set("serve.rejected", rejected as f64);
        d.handle.drain(DRAIN);
        let (hits, misses, hit_secs) = read_ledger(&d.ledger);
        layers.set("serve.handle_ms", quantile(&hit_secs, 0.5) * 1e3);
        layers.set(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    } else {
        d.handle.drain(DRAIN);
    }
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    Pass {
        wall_s: clock.wall_s,
        cpu_s: clock.cpu_s,
        cold_ms: cold.iter().map(|r| r.ms).collect(),
        warm_ms: warm.iter().map(|r| r.ms).collect(),
        warm_wall_s: warm_phase_ms / 1e3,
    }
}

/// Cache hits, misses and the hits' handling seconds from a ledger.
fn read_ledger(path: &Path) -> (u64, u64, Vec<f64>) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut hits = 0;
    let mut misses = 0;
    let mut hit_secs = Vec::new();
    for line in text.lines() {
        let Ok(c) = serde_json::from_str::<Content>(line) else {
            continue;
        };
        let cache = c.get("cache").and_then(|v| String::from_content(v).ok());
        let secs = c
            .get("duration_secs")
            .and_then(|v| f64::from_content(v).ok());
        match (cache.as_deref(), secs) {
            (Some("hit"), Some(s)) => {
                hits += 1;
                hit_secs.push(s);
            }
            (Some("miss"), _) => misses += 1,
            _ => {}
        }
    }
    (hits, misses, hit_secs)
}
