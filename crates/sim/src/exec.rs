//! # Deterministic parallel execution engine
//!
//! Shards independent work units — fuzz seeds, sweep points, the
//! baseline/treatment pair of a paired replay — across a scoped-thread
//! worker pool, with **ordered merging**: results come back in unit-index
//! order regardless of worker scheduling, so `--jobs N` output is
//! bit-identical to `--jobs 1`.
//!
//! The determinism rules every decomposition must obey:
//!
//! 1. **Units are independent.** A unit may not read anything another unit
//!    writes: no shared device, RNG, accumulator, or telemetry sink.
//! 2. **Seeds are derived, never shared.** A unit that needs randomness
//!    derives its stream as `derive_seed(base_seed, unit_index)` (or owns a
//!    preassigned seed, as the fuzz batches do) — a progressing shared RNG
//!    would make results depend on execution order.
//! 3. **Merging is by unit index.** Results land in a slot keyed by unit
//!    index and every reduction (sums, geometric means, table rows,
//!    telemetry streams, metrics registries) folds in index order.
//!
//! Under these rules the worker count only changes wall-clock time, never
//! a byte of output — pinned by `tests/parallel_determinism.rs`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dtl_telemetry::{merge_event_streams, BufferSink, MetricsRegistry, Telemetry};

/// Worker count to use when the user did not pass `--jobs`: the parallelism
/// the OS reports available, or 1 if it cannot say.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Derives unit `index`'s RNG seed from a batch base seed.
///
/// SplitMix64 finalizer over `base ^ golden·(index+1)`: consecutive indices
/// land in uncorrelated streams, and the mapping is a pure function of
/// `(base, index)` so a resharded batch reproduces the same per-unit
/// streams regardless of worker count.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `f` over every unit, on up to `jobs` workers, and returns the
/// results in unit-index order.
///
/// `f(index, unit)` must treat its unit as self-contained (see the module
/// rules); under that contract the returned vector is identical for every
/// `jobs` value. Workers pull units from a shared queue, so long and short
/// units balance automatically.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins.
pub fn run_units<U, T, F>(jobs: usize, units: Vec<U>, f: F) -> Vec<T>
where
    U: Send,
    T: Send,
    F: Fn(usize, U) -> T + Sync,
{
    let n = units.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 || n <= 1 {
        return units.into_iter().enumerate().map(|(i, u)| f(i, u)).collect();
    }
    let queue: Mutex<VecDeque<(usize, U)>> = Mutex::new(units.into_iter().enumerate().collect());
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let slots_ref = Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            handles.push(scope.spawn(|| {
                let mut done: Vec<(usize, T)> = Vec::new();
                loop {
                    let next = queue.lock().unwrap().pop_front();
                    match next {
                        Some((i, u)) => done.push((i, f(i, u))),
                        None => break,
                    }
                }
                let mut slots = slots_ref.lock().unwrap();
                for (i, t) in done {
                    slots[i] = Some(t);
                }
            }));
        }
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every unit produced a result")).collect()
}

/// Like [`run_units`], but each unit records into its **own** telemetry
/// sink and metrics registry, merged deterministically at join.
///
/// When `parent` is disabled the units run with disabled handles and this
/// is exactly [`run_units`]. When it is enabled, each unit gets a fresh
/// unbounded [`BufferSink`] (plus its own [`MetricsRegistry`] if the parent
/// carries one); after **all** units complete, the per-unit event streams
/// are concatenated in unit-index order into the parent sink and the
/// per-unit registries fold into the parent registry in the same order —
/// so the parent observes exactly what a sequential run would have
/// recorded, for any worker count. This buffered path is used even at
/// `jobs = 1`, keeping the single-worker and sharded event streams
/// structurally identical.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins.
pub fn run_units_traced<U, T, F>(jobs: usize, parent: &Telemetry, units: Vec<U>, f: F) -> Vec<T>
where
    U: Send,
    T: Send,
    F: Fn(usize, U, &Telemetry) -> T + Sync,
{
    if !parent.enabled() {
        let disabled = Telemetry::disabled();
        return run_units(jobs, units, |i, u| f(i, u, &disabled));
    }
    let n = units.len();
    let sinks: Vec<Arc<BufferSink>> = (0..n).map(|_| Arc::new(BufferSink::new())).collect();
    let registries: Vec<Option<Arc<MetricsRegistry>>> =
        (0..n).map(|_| parent.metrics().map(|_| Arc::new(MetricsRegistry::new()))).collect();
    let results = run_units(jobs, units, |i, u| {
        let mut child = Telemetry::new(sinks[i].clone() as Arc<dyn dtl_telemetry::TelemetrySink>);
        if let Some(reg) = &registries[i] {
            child = child.with_metrics(reg.clone());
        }
        f(i, u, &child)
    });
    for event in merge_event_streams(sinks.iter().map(|s| s.take())) {
        parent.sink().record(event);
    }
    if let Some(parent_reg) = parent.metrics() {
        for reg in registries.into_iter().flatten() {
            parent_reg.merge_from(&reg);
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtl_telemetry::EventKind;

    #[test]
    fn results_come_back_in_unit_order_for_any_job_count() {
        let units: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = units.iter().map(|u| u * u).collect();
        for jobs in [1usize, 2, 4, 16, 64] {
            let got = run_units(jobs, units.clone(), |i, u| {
                assert_eq!(i as u64, u);
                u * u
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_unit_batches_work() {
        let none: Vec<u32> = Vec::new();
        assert!(run_units(4, none, |_, u| u).is_empty());
        assert_eq!(run_units(4, vec![9u32], |i, u| (i, u)), vec![(0, 9)]);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        assert_eq!(a, b, "pure function of (base, index)");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "no collisions across unit indices");
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0), "base seed matters");
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_units(4, (0..8u32).collect(), |_, u| {
                assert!(u != 5, "planted failure");
                u
            })
        });
        assert!(result.is_err(), "a unit panic must fail the batch");
    }

    #[test]
    fn traced_runs_merge_events_and_metrics_in_unit_order() {
        use std::sync::Arc;
        let expected_events: Vec<(u64, u64)> =
            (0..6u64).flat_map(|u| (0..3u64).map(move |k| (u, u * 1000 + k))).collect();
        let mut outputs = Vec::new();
        for jobs in [1usize, 4] {
            let sink = Arc::new(BufferSink::new());
            let registry = Arc::new(MetricsRegistry::new());
            let parent = Telemetry::new(sink.clone() as Arc<dyn dtl_telemetry::TelemetrySink>)
                .with_metrics(registry.clone());
            let results = run_units_traced(jobs, &parent, (0..6u64).collect(), |_, u, t| {
                for k in 0..3u64 {
                    t.emit(u * 1000 + k, EventKind::VmAlloc { vm: u, segments: 1 });
                }
                if let Some(reg) = t.metrics() {
                    reg.counter("exec.test.units").inc();
                    reg.histogram("exec.test.unit_id").lock().unwrap().observe(u);
                }
                u
            });
            assert_eq!(results, (0..6u64).collect::<Vec<_>>());
            let events: Vec<(u64, u64)> = sink
                .take()
                .iter()
                .map(|e| match e.kind {
                    EventKind::VmAlloc { vm, .. } => (vm, e.at_ps),
                    _ => panic!("unexpected event"),
                })
                .collect();
            assert_eq!(events, expected_events, "jobs={jobs}: unit order, not worker order");
            assert_eq!(registry.counter("exec.test.units").get(), 6);
            outputs.push(registry.render_text());
        }
        assert_eq!(outputs[0], outputs[1], "metrics identical across job counts");
    }

    #[test]
    fn disabled_parent_stays_disabled() {
        let parent = Telemetry::disabled();
        let got = run_units_traced(4, &parent, vec![1u32, 2], |_, u, t| {
            assert!(!t.enabled());
            u
        });
        assert_eq!(got, vec![1, 2]);
    }
}
