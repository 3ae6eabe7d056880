//! The warm phase of the batch workloads: the topologies a cold phase
//! built are written to a fresh artifact store, then requested again
//! through `zoo::build_in`, which answers them from the store — the
//! path a second `repro --cache` run takes.

use std::sync::Arc;
use std::time::Instant;

use topogen_core::cache::{encode_topology, graph_hash, topology_key};
use topogen_core::ctx::RunCtx;
use topogen_core::zoo::{build_in, BuiltTopology, Scale};
use topogen_store::Store;

use crate::meter::{Layers, Tally};
use crate::spans::SpanStats;

/// `count` warm operations against a store under `dir`; one operation
/// replays every topology in `built`, in order. Returns each
/// operation's latency in milliseconds and the phase's timed seconds.
/// Every replay must return the graph the cold phase built. One untimed
/// replay runs first, so the phase measures hits with the store's pages
/// cached, not the first read after a put.
pub fn warm_builds(
    ctx: &RunCtx,
    dir: &std::path::Path,
    built: &[(BuiltTopology, Scale, u64)],
    count: usize,
    tally: &mut Tally,
    layers: &mut Layers,
) -> (Vec<f64>, f64) {
    let store = Arc::new(Store::open(dir).expect("open the warm-phase store"));
    let mut hashes = Vec::with_capacity(built.len());
    for (t, scale, seed) in built {
        let bytes = encode_topology(t);
        let t0 = Instant::now();
        store.put(&topology_key(&t.spec, *scale, *seed), &bytes);
        layers.add(
            "store.put_ms",
            t0.elapsed().as_secs_f64() * 1e3 / built.len() as f64,
        );
        hashes.push(graph_hash(&t.graph));
    }
    let warm = ctx.clone().with_store(store.clone());
    let mut lat = Vec::with_capacity(count + 1);
    for i in 0..=count {
        let t0 = Instant::now();
        let got: Vec<BuiltTopology> = warm.scope(|| {
            let _s = topogen_par::trace::span("bench-warm-replay");
            built
                .iter()
                .map(|(t, scale, seed)| build_in(&warm, &t.spec, *scale, *seed))
                .collect()
        });
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        let same = got
            .iter()
            .zip(&hashes)
            .all(|(t, h)| graph_hash(&t.graph) == *h);
        tally.check(same, || {
            format!("warm replay {i} returned a different graph")
        });
    }
    lat.remove(0);
    // Replays run back to back on one thread; the checks between them
    // are not part of the phase.
    let wall = lat.iter().sum::<f64>() / 1e3;
    let c = store.counters().snapshot();
    layers.add("store.hits", c.hits as f64);
    layers.add("store.misses", c.misses as f64);
    layers.add("store.bytes_read", c.bytes_read as f64);
    layers.add("store.bytes_written", c.bytes_written as f64);
    drop(warm);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    (lat, wall)
}

/// Store-layer figures of a traced batch pass (its warm phase).
pub fn store_layers(s: &SpanStats, layers: &mut Layers) {
    let gets = s.count("store-get");
    if gets > 0 {
        layers.set("store.get_ms", s.total("store-get") * 1e3 / gets as f64);
    }
    let attempts = layers.get("store.hits") + layers.get("store.misses");
    if attempts > 0.0 {
        layers.set("store.hit_ratio", layers.get("store.hits") / attempts);
    }
}
