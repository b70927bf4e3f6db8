//! Property tests for the sharded-run merge APIs: merging per-worker
//! metrics registries must be order-free (any permutation of worker
//! registries folds to the same state), equivalent to having accumulated
//! everything in one registry, and event-stream merging must reproduce the
//! sequential record order exactly.

use std::sync::Arc;

use dtl_telemetry::{
    merge_event_streams, BufferSink, Event, EventKind, MetricsRegistry, Telemetry,
};
use proptest::prelude::*;

/// One worker's worth of metric activity, replayable into any registry.
#[derive(Debug, Clone)]
struct Shard {
    counter_adds: Vec<u64>,
    gauge_adds: Vec<i64>,
    histogram_samples: Vec<u64>,
}

fn shard_strategy() -> impl Strategy<Value = Shard> {
    (
        proptest::collection::vec(0u64..1_000, 0..8),
        proptest::collection::vec(-500i64..500, 0..8),
        proptest::collection::vec(0u64..1_000_000, 0..8),
    )
        .prop_map(|(counter_adds, gauge_adds, histogram_samples)| Shard {
            counter_adds,
            gauge_adds,
            histogram_samples,
        })
}

/// Replays a shard's activity into `reg` under shared metric names.
fn apply(reg: &MetricsRegistry, shard: &Shard) {
    let c = reg.counter("merge.count");
    for n in &shard.counter_adds {
        c.add(*n);
    }
    let g = reg.gauge("merge.level");
    for d in &shard.gauge_adds {
        g.add(*d);
    }
    let h = reg.histogram("merge.latency_ps");
    let mut h = h.lock().unwrap();
    for s in &shard.histogram_samples {
        h.observe(*s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging worker registries in any order equals accumulating every
    /// shard directly into one registry.
    #[test]
    fn registry_merge_is_order_free(
        shards in proptest::collection::vec(shard_strategy(), 1..6),
        rotate in 0usize..6,
    ) {
        // Ground truth: one registry that saw everything.
        let direct = MetricsRegistry::new();
        for s in &shards {
            apply(&direct, s);
        }

        // Per-worker registries merged in unit order...
        let workers: Vec<MetricsRegistry> = shards
            .iter()
            .map(|s| {
                let r = MetricsRegistry::new();
                apply(&r, s);
                r
            })
            .collect();
        let in_order = MetricsRegistry::new();
        for w in &workers {
            in_order.merge_from(w);
        }

        // ...and in a rotated (different) order.
        let rotated = MetricsRegistry::new();
        let k = rotate % workers.len();
        for w in workers.iter().skip(k).chain(workers.iter().take(k)) {
            rotated.merge_from(w);
        }

        prop_assert_eq!(in_order.render_text(), direct.render_text());
        prop_assert_eq!(rotated.render_text(), direct.render_text());
    }

    /// Concatenating per-unit streams in unit order reproduces the exact
    /// sequence a sequential run records, for any split of the work.
    #[test]
    fn event_stream_merge_reproduces_sequential_order(
        timestamps in proptest::collection::vec(0u64..1_000_000, 0..64),
        cuts in proptest::collection::vec(0usize..64, 0..6),
    ) {
        // Sequential ground truth: every event into one sink, in order.
        let seq = Arc::new(BufferSink::new());
        let t = Telemetry::new(seq.clone());
        for (i, at) in timestamps.iter().enumerate() {
            t.emit(*at, EventKind::VmAlloc { vm: i as u64, segments: 1 });
        }
        let sequential: Vec<Event> = seq.take();

        // Split the same sequence at arbitrary unit boundaries.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| c % (timestamps.len() + 1)).collect();
        bounds.push(0);
        bounds.push(timestamps.len());
        bounds.sort_unstable();
        let mut streams = Vec::new();
        for w in bounds.windows(2) {
            streams.push(sequential[w[0]..w[1]].to_vec());
        }

        let merged = merge_event_streams(streams);
        prop_assert_eq!(merged.len(), sequential.len());
        for (a, b) in merged.iter().zip(sequential.iter()) {
            prop_assert_eq!(a.at_ps, b.at_ps);
            prop_assert_eq!(format!("{:?}", a.kind), format!("{:?}", b.kind));
        }
    }
}

/// Histogram merge equals single-stream observation (quantiles included).
#[test]
fn histogram_merge_matches_direct_observation() {
    let a = MetricsRegistry::new();
    let b = MetricsRegistry::new();
    let direct = MetricsRegistry::new();
    for v in [0u64, 1, 3, 900, 70_000] {
        a.histogram("h").lock().unwrap().observe(v);
        direct.histogram("h").lock().unwrap().observe(v);
    }
    for v in [2u64, 5, 1_000_000] {
        b.histogram("h").lock().unwrap().observe(v);
        direct.histogram("h").lock().unwrap().observe(v);
    }
    let merged = MetricsRegistry::new();
    merged.merge_from(&a);
    merged.merge_from(&b);
    assert_eq!(merged.render_text(), direct.render_text());
    assert_eq!(merged.histogram("h").lock().unwrap().count(), 8);
    assert_eq!(
        merged.histogram("h").lock().unwrap().quantile(0.5),
        direct.histogram("h").lock().unwrap().quantile(0.5)
    );
}

/// A self-merge is a no-op rather than a deadlock or a double-count.
#[test]
fn self_merge_is_identity() {
    let reg = MetricsRegistry::new();
    reg.counter("c").add(7);
    reg.merge_from(&reg);
    assert_eq!(reg.counter("c").get(), 7);
}
