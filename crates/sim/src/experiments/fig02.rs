//! **Figure 2** — performance with a varying number of active ranks per
//! channel: reducing 8 → 2 ranks (channels and banks constant) costs only
//! ~0.7 % on average for CloudSuite because bank- and channel-level
//! parallelism already cover the access stream.
//!
//! The mapper requires power-of-two rank counts, so the sweep runs
//! 8 / 4 / 2 (the paper's 6-rank point is interpolated by its own
//! methodology as well, §5.1).

use dtl_dram::AddressMapping;
use dtl_trace::WorkloadKind;
use serde::{Deserialize, Serialize};

use super::latency_sweep::{measure, SweepConfig};
use crate::PerfModel;

/// One workload's slowdown at each rank count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig02Row {
    /// Workload name.
    pub workload: String,
    /// Rank counts measured.
    pub ranks: Vec<u32>,
    /// AMAT per rank count, nanoseconds.
    pub amat_ns: Vec<f64>,
    /// Execution-time ratio vs the 8-rank baseline (1.0 = equal).
    pub slowdown: Vec<f64>,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig02Result {
    /// Per-workload rows.
    pub rows: Vec<Fig02Row>,
    /// Geometric-mean slowdown at the smallest rank count.
    pub mean_slowdown_at_min_ranks: f64,
}

/// Runs the experiment with one worker unit per workload (each unit owns
/// its three rank-count replays). `requests` bounds per-configuration
/// replay length. The geometric-mean fold happens after the join, in
/// workload order, so the result is bit-identical for any `jobs`.
pub fn run(requests: u64, workloads: &[WorkloadKind], jobs: usize) -> Fig02Result {
    let rank_counts = [8u32, 4, 2];
    let perf = PerfModel::cloudsuite();
    let rows = crate::exec::run_units(jobs, workloads.to_vec(), |_, kind| {
        let spec = kind.spec();
        let mut amat_ns = Vec::new();
        for ranks in rank_counts {
            let mut cfg = SweepConfig::paper(ranks, AddressMapping::RankInterleaved, 0);
            cfg.requests = requests;
            let out = measure(&cfg, &spec);
            amat_ns.push(out.amat.as_ns_f64());
        }
        let base = dtl_dram::Picos::from_ns_f64(amat_ns[0]);
        let slowdown: Vec<f64> = amat_ns
            .iter()
            .map(|a| perf.slowdown(spec.mapki, dtl_dram::Picos::from_ns_f64(*a), base))
            .collect();
        Fig02Row {
            workload: kind.name().to_string(),
            ranks: rank_counts.to_vec(),
            amat_ns,
            slowdown,
        }
    });
    let mut product = 1.0f64;
    for row in &rows {
        product *= row.slowdown[row.slowdown.len() - 1];
    }
    let mean = product.powf(1.0 / rows.len() as f64);
    Fig02Result { rows, mean_slowdown_at_min_ranks: mean }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_cost_little() {
        let r = run(6_000, &[WorkloadKind::DataServing, WorkloadKind::WebSearch], 1);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!((row.slowdown[0] - 1.0).abs() < 1e-9, "baseline is 1.0");
            for s in &row.slowdown {
                assert!(*s >= 0.999, "slowdown {s} below baseline");
                assert!(*s < 1.10, "slowdown {s} implausibly large");
            }
        }
        // The paper's shape: average cost of 2 ranks is small (<5 %).
        assert!(r.mean_slowdown_at_min_ranks < 1.05, "{}", r.mean_slowdown_at_min_ranks);
    }
}
