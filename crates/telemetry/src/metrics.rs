//! A registry of named counters, gauges, and log-scaled histograms.
//!
//! Hot paths resolve their handles (`Arc<Counter>` etc.) once, when a
//! telemetry handle is installed, and afterwards touch only the atomic (a
//! registry histogram: its own uncontended mutex) — the registry's map lock
//! is never on a per-access path. Names are dotted lower-case paths, e.g.
//! `dtl.migrate.bytes_moved`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (used when mirroring an externally accumulated
    /// stats struct into the registry at export time).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Folds `other` into this counter (sums the totals). Used when merging
    /// per-worker registries after a sharded run.
    pub fn merge_from(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Folds `other` into this gauge by summation. Worker gauges track
    /// per-shard levels (e.g. live VM counts of disjoint unit replays), so
    /// the merged gauge is the sum of the shard levels.
    pub fn merge_from(&self, other: &Gauge) {
        self.add(other.get());
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (e.g. latencies in
/// picoseconds). Bucket 0 holds exact zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i)`. Quantiles report the inclusive upper bound of the
/// containing bucket, so they overestimate by at most 2×.
///
/// A plain value: the engine that records into it owns it and observes
/// through `&mut self`. The registry's shared histograms sit behind its
/// mutex ([`MetricsRegistry::histogram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], sum: 0, count: 0 }
    }
}

impl Histogram {
    /// `0` for zero, else one more than the index of the highest set bit.
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.sum = self.sum.wrapping_add(value);
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (wraps on overflow — fine for ps-scale latencies).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Folds `other` into this histogram bucket-by-bucket. The result is
    /// identical to having observed both sample streams into one histogram,
    /// in any interleaving — log₂ bucketing is order-free.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }

    /// The bucket upper bound below which at least `q` (0..=1) of samples
    /// fall, or 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// [`Histogram::quantile`] on the percent scale: `percentile(99.9)` is
    /// `quantile(0.999)`. The convenience accessor SLO reports use for
    /// p50/p95/p99/p99.9; out-of-range inputs clamp to `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Mutex<Histogram>>),
}

/// Named metrics, get-or-create by name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// The histogram named `name`, created on first use. It is shared, so
    /// it sits behind a mutex: a recorder holding the handle pays one
    /// uncontended lock per sample.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Mutex<Histogram>> {
        let mut map = self.inner.lock().unwrap();
        match map.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Folds every metric of `other` into this registry: counters and
    /// histograms sum, gauges sum shard levels. Metrics missing here are
    /// created. The merge is **deterministic and order-free**: merging any
    /// permutation of disjointly-accumulated worker registries yields the
    /// same final state, because every fold is a commutative sum and names
    /// are matched exactly.
    ///
    /// # Panics
    ///
    /// Panics if a name is registered here with a different metric kind
    /// than in `other` — the same schema bug [`MetricsRegistry::counter`]
    /// and friends reject.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        if std::ptr::eq(self, other) {
            return; // self-merge would deadlock on the inner lock
        }
        let theirs: Vec<(String, Metric)> =
            other.inner.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        for (name, metric) in theirs {
            match metric {
                Metric::Counter(c) => self.counter(&name).merge_from(&c),
                Metric::Gauge(g) => self.gauge(&name).merge_from(&g),
                Metric::Histogram(h) => {
                    let theirs = h.lock().expect("no recorder panicked mid-sample").clone();
                    self.histogram(&name)
                        .lock()
                        .expect("no recorder panicked mid-sample")
                        .merge_from(&theirs);
                }
            }
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every metric as one plaintext line, sorted by name:
    ///
    /// ```text
    /// dtl.device.segments_migrated counter 42
    /// dtl.link.util gauge -3
    /// dtl.translation.latency_ps histogram count=9 sum=1100 mean=122.2 p50=127 p99=255
    /// ```
    pub fn render_text(&self) -> String {
        let map = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name} counter {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name} gauge {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let h = h.lock().expect("no recorder panicked mid-sample");
                    out.push_str(&format!(
                        "{name} histogram count={} sum={} mean={:.1} p50={} p99={}\n",
                        h.count(),
                        h.sum(),
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.count").get(), 5, "same name, same counter");
        let g = reg.gauge("a.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 100, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_000_106);
        // p50 of {0,1,2,3,100,1M}: 3rd sample sits in bucket [2,4).
        assert_eq!(h.quantile(0.5), 3);
        assert!(h.quantile(1.0) >= 1_000_000);
    }

    #[test]
    fn render_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.histogram("m.hist").lock().unwrap().observe(8);
        let text = reg.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a.first counter 2"));
        assert!(lines[1].starts_with("m.hist histogram count=1"));
        assert!(lines[2].starts_with("z.last counter 1"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn percentile_matches_quantile_on_the_percent_scale() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.percentile(50.0), h.quantile(0.50));
        assert_eq!(h.percentile(95.0), h.quantile(0.95));
        assert_eq!(h.percentile(99.0), h.quantile(0.99));
        assert_eq!(h.percentile(99.9), h.quantile(0.999));
    }

    #[test]
    fn percentile_boundary_conditions() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty histogram reports 0");
        assert_eq!(h.percentile(100.0), 0, "empty histogram reports 0 at p100");

        // A single sample dominates every percentile with a positive target;
        // p0 is the degenerate "at least zero samples" bound (bucket 0).
        h.observe(7);
        for p in [0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 7, "p{p} of one sample in [4,8)");
        }
        assert_eq!(h.percentile(0.0), 0);

        // Out-of-range inputs clamp rather than panic or wrap.
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
    }

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        let mut h = Histogram::default();
        // 99 samples of 1 and one of 2^20: p99 stays in the low bucket and
        // p99.9 must climb into the outlier's bucket.
        for _ in 0..99 {
            h.observe(1);
        }
        h.observe(1 << 20);
        assert_eq!(h.percentile(99.0), 1);
        assert_eq!(h.percentile(99.9), (1 << 21) - 1, "outlier bucket upper bound");
        // Zero samples land in the dedicated zero bucket.
        let mut z = Histogram::default();
        z.observe(0);
        z.observe(0);
        assert_eq!(z.percentile(99.9), 0);
        // Saturating top bucket: u64::MAX reports u64::MAX.
        let mut top = Histogram::default();
        top.observe(u64::MAX);
        assert_eq!(top.percentile(100.0), u64::MAX);
    }

    #[test]
    fn a_sum_past_u64_max_wraps_instead_of_panicking() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!((h.count(), h.sum()), (2, u64::MAX - 1));
        let mut merged = h.clone();
        merged.merge_from(&h);
        assert_eq!((merged.count(), merged.sum()), (4, u64::MAX - 3));
    }

    /// The bucket a sample lands in, the slow way: the smallest `i` with
    /// `v < 2^i`.
    fn model_bucket(v: u64) -> usize {
        (0..HISTOGRAM_BUCKETS).find(|&i| i == 64 || v < 1u64 << i).unwrap()
    }

    /// The histogram's quantile read off the sorted samples: the bucket
    /// ceiling of the ⌈q·n⌉-th smallest sample.
    fn model_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = (q * sorted.len() as f64).ceil() as usize;
        if target == 0 {
            return 0;
        }
        ((1u128 << model_bucket(sorted[target - 1])) - 1) as u64
    }

    /// Samples over every magnitude: a random `u64` shifted right by 0–63
    /// bits, or zero.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            (any::<u64>(), 0u32..65).prop_map(|(v, s)| v.checked_shr(s).unwrap_or(0)),
            0..300,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Per-bucket counts, count, wrapping sum, mean and quantiles all
        /// equal what a plain vector of the samples says.
        #[test]
        fn lockstep_with_the_sample_vector(samples in samples()) {
            let mut h = Histogram::default();
            for &v in &samples {
                h.observe(v);
            }
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for &v in &samples {
                buckets[model_bucket(v)] += 1;
            }
            let sum = samples.iter().fold(0u64, |s, &v| s.wrapping_add(v));
            prop_assert_eq!(h.buckets, buckets);
            prop_assert_eq!(h.count(), samples.len() as u64);
            prop_assert_eq!(h.sum(), sum);
            let mean = if samples.is_empty() { 0.0 } else { sum as f64 / samples.len() as f64 };
            prop_assert_eq!(h.mean().to_bits(), mean.to_bits());
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                prop_assert_eq!(h.quantile(q), model_quantile(&sorted, q), "q {}", q);
            }
        }

        /// Merging the two halves of any split, in either order, equals
        /// observing the whole stream.
        #[test]
        fn merging_any_split_in_either_order_equals_the_whole_stream(
            samples in samples(),
            cut in 0usize..301,
        ) {
            let cut = cut.min(samples.len());
            let observe = |part: &[u64]| {
                let mut h = Histogram::default();
                for &v in part {
                    h.observe(v);
                }
                h
            };
            let whole = observe(&samples);
            let (head, tail) = (observe(&samples[..cut]), observe(&samples[cut..]));
            let mut forward = head.clone();
            forward.merge_from(&tail);
            let mut backward = tail;
            backward.merge_from(&head);
            prop_assert_eq!(&forward, &whole);
            prop_assert_eq!(&backward, &whole);
        }
    }
}
