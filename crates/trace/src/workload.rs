//! Synthetic CloudSuite-analog workload generators.
//!
//! The real paper traces CloudSuite with Pin; we cannot, so each generator
//! is a statistical twin calibrated to the paper's published per-workload
//! numbers:
//!
//! * **MAPKI** (memory accesses per kilo-instruction) from Table 4 drives
//!   the instruction-count spacing between accesses;
//! * the **stride profile** (Figure 9) drives the streaming component;
//! * the **hot-set parameters** (fraction of the working set that is hot
//!   and the probability an access lands there) drive the segment
//!   reuse-distance distribution (Figure 10).
//!
//! Generators emit *post-cache* streams directly, which is what the paper's
//! custom trace-driven simulator consumes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::stride::{StrideBucket, StrideProfile};

/// The ten CloudSuite benchmarks of the paper (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Spark-based batch analytics.
    DataAnalytics,
    /// Memcached-style key-value caching.
    DataCaching,
    /// Cassandra NoSQL serving.
    DataServing,
    /// Instagram-like Django server.
    DjangoWorkload,
    /// Facebook OSS performance suite (HHVM).
    FbOssPerformance,
    /// GraphX graph analytics.
    GraphAnalytics,
    /// Spark MLlib recommendation.
    InMemoryAnalytics,
    /// Nginx video streaming.
    MediaStreaming,
    /// Apache Solr index search.
    WebSearch,
    /// Elgg + Memcached + MySQL web stack.
    WebServing,
}

impl WorkloadKind {
    /// All ten workloads, in the paper's Table 4 order.
    pub const ALL: [WorkloadKind; 10] = [
        WorkloadKind::DataAnalytics,
        WorkloadKind::DataCaching,
        WorkloadKind::DataServing,
        WorkloadKind::DjangoWorkload,
        WorkloadKind::FbOssPerformance,
        WorkloadKind::GraphAnalytics,
        WorkloadKind::InMemoryAnalytics,
        WorkloadKind::MediaStreaming,
        WorkloadKind::WebSearch,
        WorkloadKind::WebServing,
    ];

    /// The eight workloads used for the trace-driven studies (Figures 9,
    /// 10, 14; the paper's Pin traces cover the eight that run to
    /// completion under Pintool).
    pub const TRACED: [WorkloadKind; 8] = [
        WorkloadKind::DataAnalytics,
        WorkloadKind::DataCaching,
        WorkloadKind::DataServing,
        WorkloadKind::GraphAnalytics,
        WorkloadKind::InMemoryAnalytics,
        WorkloadKind::MediaStreaming,
        WorkloadKind::WebSearch,
        WorkloadKind::WebServing,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::DataAnalytics => "data-analytics",
            WorkloadKind::DataCaching => "data-caching",
            WorkloadKind::DataServing => "data-serving",
            WorkloadKind::DjangoWorkload => "django-workload",
            WorkloadKind::FbOssPerformance => "fb-oss-performance",
            WorkloadKind::GraphAnalytics => "graph-analytics",
            WorkloadKind::InMemoryAnalytics => "in-memory-analytics",
            WorkloadKind::MediaStreaming => "media-streaming",
            WorkloadKind::WebSearch => "web-search",
            WorkloadKind::WebServing => "web-serving",
        }
    }

    /// The calibrated statistical spec for this workload.
    pub fn spec(self) -> WorkloadSpec {
        // MAPKI values are Table 4 of the paper verbatim. Stride profiles
        // follow Figure 9's qualitative classes: Data-serving,
        // Media-streaming and Web-serving have narrow strides standalone;
        // the analytics/search workloads are wide.
        match self {
            WorkloadKind::DataAnalytics => WorkloadSpec {
                kind: self,
                mapki: 1.9,
                read_fraction: 0.70,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.35,
                hot_access_prob: 0.85,
                mean_run_lines: 8,
                hot_run_mean: 8,
                dead_fraction: 0.40,
                strides: StrideProfile::mixed(),
            },
            WorkloadKind::DataCaching => WorkloadSpec {
                kind: self,
                mapki: 1.5,
                read_fraction: 0.80,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.30,
                hot_access_prob: 0.90,
                mean_run_lines: 2,
                hot_run_mean: 4,
                dead_fraction: 0.30,
                strides: StrideProfile::wide(),
            },
            WorkloadKind::DataServing => WorkloadSpec {
                kind: self,
                mapki: 4.2,
                read_fraction: 0.65,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.40,
                hot_access_prob: 0.75,
                mean_run_lines: 24,
                hot_run_mean: 12,
                dead_fraction: 0.35,
                strides: StrideProfile::narrow(),
            },
            WorkloadKind::DjangoWorkload => WorkloadSpec {
                kind: self,
                mapki: 0.8,
                read_fraction: 0.72,
                working_set_bytes: 4 << 30,
                hot_fraction: 0.35,
                hot_access_prob: 0.85,
                mean_run_lines: 4,
                hot_run_mean: 6,
                dead_fraction: 0.30,
                strides: StrideProfile::mixed(),
            },
            WorkloadKind::FbOssPerformance => WorkloadSpec {
                kind: self,
                mapki: 3.6,
                read_fraction: 0.70,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.40,
                hot_access_prob: 0.80,
                mean_run_lines: 6,
                hot_run_mean: 8,
                dead_fraction: 0.35,
                strides: StrideProfile::mixed(),
            },
            WorkloadKind::GraphAnalytics => WorkloadSpec {
                kind: self,
                mapki: 6.5,
                read_fraction: 0.85,
                working_set_bytes: 16 << 30,
                hot_fraction: 0.45,
                hot_access_prob: 0.70,
                mean_run_lines: 3,
                hot_run_mean: 4,
                dead_fraction: 0.30,
                strides: StrideProfile::wide(),
            },
            WorkloadKind::InMemoryAnalytics => WorkloadSpec {
                kind: self,
                mapki: 2.5,
                read_fraction: 0.75,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.40,
                hot_access_prob: 0.80,
                mean_run_lines: 10,
                hot_run_mean: 10,
                dead_fraction: 0.40,
                strides: StrideProfile::mixed(),
            },
            WorkloadKind::MediaStreaming => WorkloadSpec {
                kind: self,
                mapki: 4.6,
                read_fraction: 0.90,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.25,
                hot_access_prob: 0.55,
                mean_run_lines: 64,
                hot_run_mean: 32,
                dead_fraction: 0.50,
                strides: StrideProfile::sequential(),
            },
            WorkloadKind::WebSearch => WorkloadSpec {
                kind: self,
                mapki: 0.7,
                read_fraction: 0.90,
                working_set_bytes: 8 << 30,
                hot_fraction: 0.30,
                hot_access_prob: 0.75,
                mean_run_lines: 4,
                hot_run_mean: 6,
                dead_fraction: 0.35,
                strides: StrideProfile::wide(),
            },
            WorkloadKind::WebServing => WorkloadSpec {
                kind: self,
                mapki: 0.7,
                read_fraction: 0.70,
                working_set_bytes: 4 << 30,
                hot_fraction: 0.35,
                hot_access_prob: 0.80,
                mean_run_lines: 16,
                hot_run_mean: 12,
                dead_fraction: 0.30,
                strides: StrideProfile::narrow(),
            },
        }
    }
}

/// Statistical parameters of one synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which benchmark this models.
    pub kind: WorkloadKind,
    /// Post-cache memory accesses per kilo-instruction (Table 4).
    pub mapki: f64,
    /// Fraction of post-cache accesses that are reads.
    pub read_fraction: f64,
    /// Size of the address region the workload touches.
    pub working_set_bytes: u64,
    /// Fraction of 2 MiB segments that belong to the hot set.
    pub hot_fraction: f64,
    /// Probability that an access targets the hot set.
    pub hot_access_prob: f64,
    /// Mean consecutive-line run length of the streaming component.
    pub mean_run_lines: u32,
    /// Mean burst length (accesses) to one hot segment before switching.
    pub hot_run_mean: u32,
    /// Fraction of the working set that is allocated but dormant (touched
    /// at most during initialization): datacenter heaps hold large cold
    /// regions whose reuse distances exceed any profiling window, which is
    /// what makes rank-level cold collection possible at all (§6.3).
    pub dead_fraction: f64,
    /// Stride distribution of the streaming component between runs.
    pub strides: StrideProfile,
}

impl WorkloadSpec {
    /// Scales the working set (hot set scales with it), for laptop-scale
    /// simulation. Panics if `div` is zero.
    pub fn scaled(mut self, div: u64) -> Self {
        assert!(div > 0, "scale divisor must be non-zero");
        self.working_set_bytes = (self.working_set_bytes / div).max(SEGMENT_BYTES * 8);
        self
    }

    /// Validates a (possibly hand-built) spec: probabilities in range, a
    /// normalized stride profile, a positive MAPKI, and a working set of
    /// at least eight segments.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mapki > 0.0 && self.mapki < 1000.0) {
            return Err(format!("mapki {} out of (0, 1000)", self.mapki));
        }
        for (name, v) in [
            ("read_fraction", self.read_fraction),
            ("hot_fraction", self.hot_fraction),
            ("hot_access_prob", self.hot_access_prob),
            ("dead_fraction", self.dead_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} {v} out of [0, 1]"));
            }
        }
        if self.working_set_bytes < SEGMENT_BYTES * 8 {
            return Err(format!(
                "working set {} below the 8-segment minimum",
                self.working_set_bytes
            ));
        }
        if !self.strides.is_normalized() {
            return Err("stride profile mass does not sum to 1".into());
        }
        if self.mean_run_lines == 0 {
            return Err("mean_run_lines must be non-zero".into());
        }
        Ok(())
    }
}

/// Segment size used for hot-set placement (the paper's 2 MiB default).
pub const SEGMENT_BYTES: u64 = 2 << 20;

/// One post-cache trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Cumulative retired instructions at this access.
    pub icount: u64,
    /// Byte address within the workload's private region (line aligned).
    pub addr: u64,
    /// Writeback vs demand read.
    pub is_write: bool,
}

/// Deterministic post-cache trace generator for one workload instance.
///
/// # Examples
///
/// ```
/// use dtl_trace::{TraceGen, WorkloadKind};
///
/// let mut gen = TraceGen::new(WorkloadKind::WebSearch.spec().scaled(64), 42);
/// let first = gen.next_record();
/// assert_eq!(first.addr % 64, 0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGen {
    spec: WorkloadSpec,
    rng: SmallRng,
    icount: u64,
    cursor: u64,
    run_remaining: u32,
    hot_seg: u64,
    hot_run_remaining: u32,
    hot_segments: Vec<u64>,
    /// Segment index -> is hot (for analysis).
    hot_lookup: Vec<bool>,
    /// Size of the live (non-dormant) zone in bytes.
    live_bytes: u64,
}

impl TraceGen {
    /// Builds a generator with a private random hot-segment placement.
    ///
    /// # Panics
    ///
    /// Panics if the spec's working set is smaller than 8 segments.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        let n_segments = spec.working_set_bytes / SEGMENT_BYTES;
        let mut rng = SmallRng::seed_from_u64(seed);
        // The live zone excludes the dormant tail of the working set.
        let live_segments =
            ((n_segments as f64 * (1.0 - spec.dead_fraction)) as u64).clamp(4, n_segments);
        let n_hot = ((live_segments as f64 * spec.hot_fraction).round() as u64).max(1);
        // Random placement within the live zone, without replacement
        // (partial Fisher-Yates).
        let mut all: Vec<u64> = (0..live_segments).collect();
        for i in 0..n_hot as usize {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        let hot_segments: Vec<u64> = all[..n_hot as usize].to_vec();
        let mut hot_lookup = vec![false; n_segments as usize];
        for &s in &hot_segments {
            hot_lookup[s as usize] = true;
        }
        let cursor = rng.gen_range(0..live_segments) * SEGMENT_BYTES;
        let hot_seg = hot_segments[0];
        TraceGen {
            spec,
            rng,
            icount: 0,
            cursor,
            run_remaining: 0,
            hot_seg,
            hot_run_remaining: 0,
            hot_segments,
            hot_lookup,
            live_bytes: live_segments * SEGMENT_BYTES,
        }
    }

    /// The spec in use.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Whether segment `idx` belongs to the hot placement.
    pub fn is_hot_segment(&self, idx: u64) -> bool {
        self.hot_lookup.get(idx as usize).copied().unwrap_or(false)
    }

    /// Number of segments in the working set.
    pub fn segment_count(&self) -> u64 {
        self.hot_lookup.len() as u64
    }

    /// Generates the next record. Infinite stream.
    pub fn next_record(&mut self) -> TraceRecord {
        // Instruction gap ~ Exp(1000 / MAPKI), keeping MAPKI on target.
        // Divided per record on purpose: with the quotient cached in a
        // field, the first floating-point instruction of this function
        // inherits a false register dependency on the previous record's
        // `ln()`, and a mixed record costs 54 ns instead of 36 (BENCH.md,
        // PR 18).
        let mean_gap = 1000.0 / self.spec.mapki;
        let u: f64 = self.rng.gen_range(1e-9..1.0f64);
        let gap = (-u.ln() * mean_gap).max(1.0) as u64;
        self.icount += gap.max(1);
        let is_write = self.rng.gen::<f64>() >= self.spec.read_fraction;
        let addr = if self.rng.gen::<f64>() < self.spec.hot_access_prob {
            self.hot_address()
        } else {
            self.stream_address()
        };
        TraceRecord { icount: self.icount, addr, is_write }
    }

    /// Generates `n` records into a vector.
    pub fn take_records(&mut self, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Shifts the hot set: `fraction` of the hot segments are replaced by
    /// randomly chosen live-zone segments (deterministic given the
    /// generator's internal RNG). Models the pattern drift that real
    /// services exhibit over minutes to hours (§6.3 cites such shifts as
    /// the reason self-refresh phases end and re-form).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn drift_hot_set(&mut self, fraction: f64) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let n_replace =
            ((self.hot_segments.len() as f64 * fraction) as usize).min(self.hot_segments.len());
        let live_segments = self.live_bytes / SEGMENT_BYTES;
        for i in 0..n_replace {
            let old = self.hot_segments[i];
            self.hot_lookup[old as usize] = false;
            // Draw until we land on a currently-cold live segment (bounded
            // retries keep this deterministic and cheap).
            let mut next = old;
            for _ in 0..16 {
                let candidate = self.rng.gen_range(0..live_segments);
                if !self.hot_lookup[candidate as usize] {
                    next = candidate;
                    break;
                }
            }
            self.hot_segments[i] = next;
            self.hot_lookup[next as usize] = true;
        }
        // Reset the burst state so drift takes effect immediately.
        self.hot_run_remaining = 0;
    }

    fn hot_address(&mut self) -> u64 {
        // Hot traffic is *bursty*: a request touches one hot segment many
        // times before moving on (this segment-level temporal locality is
        // what gives the paper's SMC its ~85% hit rate). Between bursts,
        // segments are drawn with a Zipf-ish square-law skew.
        if self.hot_run_remaining == 0 {
            let u: f64 = self.rng.gen();
            let idx = ((u * u) * self.hot_segments.len() as f64) as usize;
            self.hot_seg = self.hot_segments[idx.min(self.hot_segments.len() - 1)];
            let mean = f64::from(self.spec.hot_run_mean.max(1));
            let v: f64 = self.rng.gen_range(1e-9..1.0f64);
            self.hot_run_remaining = ((-v.ln() * mean) as u32).clamp(1, 4096);
        }
        self.hot_run_remaining -= 1;
        let off = self.rng.gen_range(0..SEGMENT_BYTES / 64) * 64;
        self.hot_seg * SEGMENT_BYTES + off
    }

    fn stream_address(&mut self) -> u64 {
        let ws = self.live_bytes;
        if self.run_remaining > 0 {
            self.run_remaining -= 1;
            self.cursor = (self.cursor + 64) % ws;
            return self.cursor;
        }
        let bucket = self.spec.strides.sample_bucket(&mut self.rng);
        match bucket {
            StrideBucket::AtLeast4M => {
                // Jump to a fresh random point of the working set.
                self.cursor = self.rng.gen_range(0..ws / 64) * 64;
            }
            b => {
                let stride = b.sample_stride(&mut self.rng);
                self.cursor = (self.cursor + stride) % ws;
            }
        }
        // Start a new sequential run (geometric length around the mean).
        let mean = f64::from(self.spec.mean_run_lines.max(1));
        let u: f64 = self.rng.gen_range(1e-9..1.0f64);
        self.run_remaining = ((-u.ln() * mean) as u32).min(4096);
        self.cursor
    }
}

impl Iterator for TraceGen {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(kind: WorkloadKind) -> WorkloadSpec {
        kind.spec().scaled(256)
    }

    #[test]
    fn all_presets_validate() {
        for k in WorkloadKind::ALL {
            k.spec().validate().unwrap();
            k.spec().scaled(512).validate().unwrap();
        }
    }

    #[test]
    fn validate_catches_bad_specs() {
        let mut s = WorkloadKind::WebSearch.spec();
        s.hot_access_prob = 1.5;
        assert!(s.validate().is_err());
        let mut s = WorkloadKind::WebSearch.spec();
        s.mapki = 0.0;
        assert!(s.validate().is_err());
        let mut s = WorkloadKind::WebSearch.spec();
        s.strides.mass[0] += 0.5;
        assert!(s.validate().is_err());
        let mut s = WorkloadKind::WebSearch.spec();
        s.working_set_bytes = 1;
        assert!(s.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn generator_rejects_invalid_spec() {
        let mut s = WorkloadKind::WebSearch.spec();
        s.read_fraction = 2.0;
        let _ = TraceGen::new(s, 1);
    }

    #[test]
    fn table4_mapki_values() {
        let expect = [
            (WorkloadKind::DataAnalytics, 1.9),
            (WorkloadKind::DataCaching, 1.5),
            (WorkloadKind::DataServing, 4.2),
            (WorkloadKind::DjangoWorkload, 0.8),
            (WorkloadKind::FbOssPerformance, 3.6),
            (WorkloadKind::GraphAnalytics, 6.5),
            (WorkloadKind::InMemoryAnalytics, 2.5),
            (WorkloadKind::MediaStreaming, 4.6),
            (WorkloadKind::WebSearch, 0.7),
            (WorkloadKind::WebServing, 0.7),
        ];
        for (k, m) in expect {
            assert_eq!(k.spec().mapki, m, "{}", k.name());
        }
    }

    #[test]
    fn generated_mapki_matches_spec() {
        for kind in [WorkloadKind::GraphAnalytics, WorkloadKind::WebSearch] {
            let spec = small_spec(kind);
            let mut gen = TraceGen::new(spec, 1);
            let n = 50_000;
            let recs = gen.take_records(n);
            let instr = recs.last().unwrap().icount;
            let mapki = n as f64 * 1000.0 / instr as f64;
            assert!(
                (mapki - spec.mapki).abs() / spec.mapki < 0.1,
                "{}: generated MAPKI {mapki} vs spec {}",
                kind.name(),
                spec.mapki
            );
        }
    }

    #[test]
    fn addresses_stay_in_working_set_and_aligned() {
        let spec = small_spec(WorkloadKind::DataServing);
        let mut gen = TraceGen::new(spec, 3);
        for r in gen.take_records(20_000) {
            assert!(r.addr < spec.working_set_bytes);
            assert_eq!(r.addr % 64, 0);
        }
    }

    #[test]
    fn read_fraction_approximately_respected() {
        let spec = small_spec(WorkloadKind::MediaStreaming);
        let mut gen = TraceGen::new(spec, 9);
        let recs = gen.take_records(20_000);
        let reads = recs.iter().filter(|r| !r.is_write).count() as f64 / recs.len() as f64;
        assert!((reads - spec.read_fraction).abs() < 0.02, "read fraction {reads}");
    }

    #[test]
    fn icount_is_monotonic() {
        let mut gen = TraceGen::new(small_spec(WorkloadKind::DataCaching), 5);
        let recs = gen.take_records(1000);
        assert!(recs.windows(2).all(|w| w[0].icount < w[1].icount));
    }

    #[test]
    fn hot_set_placement_matches_fraction() {
        let spec = small_spec(WorkloadKind::GraphAnalytics);
        let gen = TraceGen::new(spec, 11);
        let hot = (0..gen.segment_count()).filter(|&s| gen.is_hot_segment(s)).count() as f64;
        let frac = hot / gen.segment_count() as f64;
        // Hot segments are placed within the live zone only.
        let expect = spec.hot_fraction * (1.0 - spec.dead_fraction);
        assert!((frac - expect).abs() < 0.05, "hot fraction {frac} vs {expect}");
    }

    #[test]
    fn hot_segments_receive_most_traffic() {
        let spec = small_spec(WorkloadKind::DataCaching);
        let mut gen = TraceGen::new(spec, 2);
        let recs = gen.take_records(30_000);
        let hot_hits = recs.iter().filter(|r| gen.is_hot_segment(r.addr / SEGMENT_BYTES)).count()
            as f64
            / recs.len() as f64;
        assert!(
            hot_hits > spec.hot_access_prob - 0.05,
            "hot traffic share {hot_hits} vs prob {}",
            spec.hot_access_prob
        );
    }

    #[test]
    fn drift_replaces_part_of_the_hot_set() {
        let spec = small_spec(WorkloadKind::DataServing);
        let mut gen = TraceGen::new(spec, 3);
        let before: Vec<u64> =
            (0..gen.segment_count()).filter(|&s| gen.is_hot_segment(s)).collect();
        gen.drift_hot_set(0.5);
        let after: Vec<u64> = (0..gen.segment_count()).filter(|&s| gen.is_hot_segment(s)).collect();
        assert_eq!(before.len(), after.len(), "hot-set size is preserved");
        let moved = before.iter().filter(|s| !after.contains(s)).count();
        assert!(moved > 0, "some segments must move");
        // Traffic follows the new placement.
        let recs = gen.take_records(20_000);
        let hot_hits = recs.iter().filter(|r| gen.is_hot_segment(r.addr / SEGMENT_BYTES)).count()
            as f64
            / recs.len() as f64;
        assert!(hot_hits > spec.hot_access_prob - 0.05, "post-drift hot share {hot_hits}");
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn drift_rejects_bad_fraction() {
        let mut gen = TraceGen::new(small_spec(WorkloadKind::DataServing), 3);
        gen.drift_hot_set(1.5);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = small_spec(WorkloadKind::WebServing);
        let a = TraceGen::new(spec, 77).take_records(500);
        let b = TraceGen::new(spec, 77).take_records(500);
        assert_eq!(a, b);
        let c = TraceGen::new(spec, 78).take_records(500);
        assert_ne!(a, c);
    }

    #[test]
    fn scaled_keeps_minimum_size() {
        let s = WorkloadKind::WebServing.spec().scaled(1 << 40);
        assert_eq!(s.working_set_bytes, SEGMENT_BYTES * 8);
    }

    #[test]
    fn sequential_workload_has_more_line_strides_than_wide() {
        use crate::stride::StrideHistogram;
        let mut seq_h = StrideHistogram::new();
        let mut wide_h = StrideHistogram::new();
        let mut seq = TraceGen::new(small_spec(WorkloadKind::MediaStreaming), 4);
        let mut wide = TraceGen::new(small_spec(WorkloadKind::GraphAnalytics), 4);
        for _ in 0..30_000 {
            seq_h.observe(seq.next_record().addr);
            wide_h.observe(wide.next_record().addr);
        }
        assert!(
            seq_h.fraction(StrideBucket::Line) > wide_h.fraction(StrideBucket::Line),
            "sequential {} vs wide {}",
            seq_h.fraction(StrideBucket::Line),
            wide_h.fraction(StrideBucket::Line)
        );
    }
}
