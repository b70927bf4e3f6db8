//! **Figure 9** — post-cache memory access stride distribution for the
//! eight traced workloads, standalone and mixed: strides of 4 MiB or more
//! dominate, especially in multi-application mixes (89.3 % for the
//! 8-application mix in the paper).

use dtl_trace::{Mixer, StrideBucket, StrideHistogram, TraceGen, WorkloadKind};
use serde::{Deserialize, Serialize};

/// Stride bucket fractions for one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig09Row {
    /// Trace label (workload name or "mix-N").
    pub label: String,
    /// Fraction per bucket in [`StrideBucket::ALL`] order.
    pub fractions: Vec<f64>,
    /// The headline: fraction of strides >= 4 MiB.
    pub at_least_4m: f64,
}

/// Full result: standalone rows plus mixes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig09Result {
    /// Per-trace rows.
    pub rows: Vec<Fig09Row>,
    /// Bucket labels matching each row's `fractions`.
    pub bucket_labels: Vec<String>,
}

fn histogram_row(label: String, h: &StrideHistogram) -> Fig09Row {
    let fractions: Vec<f64> = StrideBucket::ALL.iter().map(|b| h.fraction(*b)).collect();
    Fig09Row { label, fractions, at_least_4m: h.fraction_at_least_4m() }
}

/// The traces the experiment observes: each workload solo, then mixes.
#[derive(Debug, Clone, Copy)]
enum TraceUnit {
    Solo(WorkloadKind),
    Mix(usize),
}

/// Runs the experiment: each workload solo, then 4- and 8-app mixes, one
/// worker unit per trace (solo workloads and mixes alike own their own
/// generator and histogram).
pub fn run(seed: u64, records_per_trace: usize, scale: u64, jobs: usize) -> Fig09Result {
    let mut units: Vec<TraceUnit> =
        WorkloadKind::TRACED.iter().map(|k| TraceUnit::Solo(*k)).collect();
    units.push(TraceUnit::Mix(4));
    units.push(TraceUnit::Mix(8));
    let rows = crate::exec::run_units(jobs, units, |_, unit| {
        let mut h = StrideHistogram::new();
        match unit {
            TraceUnit::Solo(kind) => {
                let mut gen = TraceGen::new(kind.spec().scaled(scale), seed);
                for _ in 0..records_per_trace {
                    h.observe(gen.next_record().addr);
                }
                histogram_row(kind.name().to_string(), &h)
            }
            TraceUnit::Mix(n) => {
                let specs: Vec<_> =
                    WorkloadKind::TRACED.iter().take(n).map(|k| k.spec().scaled(scale)).collect();
                let mut mix = Mixer::new(&specs, seed);
                for _ in 0..records_per_trace {
                    h.observe(mix.next_record().addr);
                }
                histogram_row(format!("mix-{n}"), &h)
            }
        }
    });
    Fig09Result {
        rows,
        bucket_labels: StrideBucket::ALL.iter().map(|b| b.label().to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_dominated_by_large_strides() {
        let r = run(3, 30_000, 64, 1);
        assert_eq!(r.rows.len(), 10);
        let mix8 = r.rows.last().unwrap();
        assert_eq!(mix8.label, "mix-8");
        // Paper: 89.3% of mixed strides are >= 4 MiB.
        assert!(mix8.at_least_4m > 0.80, "mix-8 large strides {}", mix8.at_least_4m);
        // Fractions are a distribution.
        for row in &r.rows {
            let sum: f64 = row.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: sum {sum}", row.label);
        }
        // Standalone media-streaming has more small strides than the mix.
        let media = r.rows.iter().find(|r| r.label == "media-streaming").unwrap();
        assert!(media.at_least_4m < mix8.at_least_4m);
    }
}
