//! **Figure 5** — the cost of disabling rank interleaving (keeping channel
//! interleaving) under local-DRAM and CXL access latencies: the paper
//! measures −1.7 % locally and −1.4 % over CXL — the fixed link latency
//! dilutes the queueing difference.

use dtl_dram::{AddressMapping, Picos};
use dtl_trace::WorkloadKind;
use serde::{Deserialize, Serialize};

use super::latency_sweep::{measure, SweepConfig};
use crate::PerfModel;

/// One workload's interleaving sensitivity at one link latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Row {
    /// Workload name.
    pub workload: String,
    /// AMAT with rank interleaving, ns.
    pub interleaved_amat_ns: f64,
    /// AMAT with the DTL (rank-MSB) mapping, ns.
    pub dtl_amat_ns: f64,
    /// Execution-time ratio of DTL mapping vs interleaved (>1 = slower).
    pub slowdown: f64,
}

/// Result for one link latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Series {
    /// "local" or "cxl".
    pub label: String,
    /// Link round-trip added, ns.
    pub link_ns: u64,
    /// Per-workload rows.
    pub rows: Vec<Fig05Row>,
    /// Geometric-mean slowdown.
    pub mean_slowdown: f64,
}

/// Full result: both link latencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig05Result {
    /// Local and CXL series.
    pub series: Vec<Fig05Series>,
}

/// Runs the experiment with one worker unit per (link latency, workload)
/// cell — each cell replays its own pair of simulators. The per-series
/// geometric-mean fold happens after the join, in workload order, so the
/// result is bit-identical for any `jobs`.
pub fn run(requests: u64, workloads: &[WorkloadKind], jobs: usize) -> Fig05Result {
    let perf = PerfModel::cloudsuite();
    let links = [("local", 0u64), ("cxl", 89)];
    let mut cells = Vec::new();
    for (_, link_ns) in links {
        for kind in workloads {
            cells.push((link_ns, *kind));
        }
    }
    let flat = crate::exec::run_units(jobs, cells, |_, (link_ns, kind)| {
        let spec = kind.spec();
        let mut cfg_i = SweepConfig::paper(8, AddressMapping::RankInterleaved, link_ns);
        cfg_i.requests = requests;
        let inter = measure(&cfg_i, &spec);
        let mut cfg_d = SweepConfig::paper(8, AddressMapping::dtl_default(), link_ns);
        cfg_d.requests = requests;
        let dtl = measure(&cfg_d, &spec);
        Fig05Row {
            workload: kind.name().to_string(),
            interleaved_amat_ns: inter.amat.as_ns_f64(),
            dtl_amat_ns: dtl.amat.as_ns_f64(),
            slowdown: perf.slowdown(spec.mapki, dtl.amat, inter.amat),
        }
    });
    let mut series = Vec::new();
    for (s, (label, link_ns)) in links.iter().enumerate() {
        let rows: Vec<Fig05Row> = flat[s * workloads.len()..(s + 1) * workloads.len()].to_vec();
        let mut product = 1.0f64;
        for row in &rows {
            product *= row.slowdown;
        }
        let mean_slowdown = product.powf(1.0 / rows.len() as f64);
        series.push(Fig05Series {
            label: (*label).to_string(),
            link_ns: *link_ns,
            rows,
            mean_slowdown,
        });
    }
    Fig05Result { series }
}

impl Fig05Result {
    /// The local-memory mean slowdown.
    pub fn local_mean(&self) -> f64 {
        self.series[0].mean_slowdown
    }

    /// The CXL mean slowdown.
    pub fn cxl_mean(&self) -> f64 {
        self.series[1].mean_slowdown
    }

    /// A convenience AMAT check: CXL adds the link to every row.
    pub fn amat_gap_ns(&self) -> f64 {
        let l = &self.series[0].rows[0];
        let c = &self.series[1].rows[0];
        c.interleaved_amat_ns - l.interleaved_amat_ns
    }
}

/// The paper's local latency for reference assertions.
pub const LOCAL_DRAM_NS: Picos = Picos::from_ns(121);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_cost_small_and_smaller_over_cxl() {
        let r = run(6_000, &[WorkloadKind::DataServing, WorkloadKind::GraphAnalytics], 1);
        let local = r.local_mean();
        let cxl = r.cxl_mean();
        assert!(local >= 0.999, "local {local}");
        assert!(local < 1.08, "local cost too large: {local}");
        // The paper's shape: the relative cost shrinks with CXL latency.
        assert!(cxl <= local + 1e-9, "cxl {cxl} must not exceed local {local}");
        assert!((r.amat_gap_ns() - 89.0).abs() < 1.0);
    }
}
