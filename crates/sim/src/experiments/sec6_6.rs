//! **§6.6** — scaling the CXL memory device: "Since a higher-capacity DRAM
//! device often has more DRAM channels and ranks, the performance loss
//! would become smaller." Measured by running the Figure 5 comparison
//! (rank-interleaved vs rank-MSB mapping) on the 384 GB-class 4-channel
//! geometry and the 4 TB-class 8-channel geometry, under two load models:
//!
//! * **fixed demand** — the same workload moves to the bigger device (the
//!   paper's implicit reading): per-channel pressure halves and the loss
//!   stays flat-to-smaller;
//! * **scaled demand** — a bigger pool serves proportionally more hosts:
//!   per-channel pressure is constant, the richer rank-interleaved
//!   baseline gains more, and the loss grows modestly (2 % → ~4 %).
//!
//! The paper's sentence holds under the first reading; the second is the
//! honest caveat a deployment should know.

use dtl_dram::AddressMapping;
use dtl_trace::WorkloadKind;
use serde::{Deserialize, Serialize};

use super::latency_sweep::{measure, SweepConfig};
use crate::PerfModel;

/// One device geometry's interleaving sensitivity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec66Row {
    /// Label, e.g. "4ch x 8rk (1TB-class)".
    pub label: String,
    /// Channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Geometric-mean slowdown of the DTL mapping vs rank interleaving.
    pub mean_slowdown: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec66Result {
    /// Small and large device rows.
    pub rows: Vec<Sec66Row>,
}

/// The three device/load geometries the comparison sweeps.
const GEOMETRIES: [(&str, u32, u32, u32); 3] = [
    ("4ch x 8rk (1TB-class)", 4u32, 8u32, 28u32),
    ("8ch x 16rk, fixed demand", 8, 16, 28),
    ("8ch x 16rk, scaled demand", 8, 16, 56),
];

/// Runs the scaling comparison under both load models with one worker
/// unit per (geometry, workload) cell; the per-geometry geometric-mean fold
/// happens after the join, in workload order, so the result is
/// bit-identical for any `jobs`.
pub fn run(requests: u64, workloads: &[WorkloadKind], jobs: usize) -> Sec66Result {
    let perf = PerfModel::cloudsuite();
    let mut cells = Vec::new();
    for (g, (_, channels, ranks, cores)) in GEOMETRIES.iter().enumerate() {
        for kind in workloads {
            cells.push((g, *channels, *ranks, *cores, *kind));
        }
    }
    let slowdowns = crate::exec::run_units(jobs, cells, |_, (_, channels, ranks, cores, kind)| {
        let spec = kind.spec();
        let mut cfg_i = SweepConfig::paper(ranks, AddressMapping::RankInterleaved, 89);
        cfg_i.channels = channels;
        cfg_i.cores = cores;
        cfg_i.requests = requests;
        let inter = measure(&cfg_i, &spec);
        let mut cfg_d = SweepConfig::paper(ranks, AddressMapping::dtl_default(), 89);
        cfg_d.channels = channels;
        cfg_d.cores = cores;
        cfg_d.requests = requests;
        let dtl = measure(&cfg_d, &spec);
        perf.slowdown(spec.mapki, dtl.amat, inter.amat)
    });
    let mut rows = Vec::new();
    for (g, (label, channels, ranks, _)) in GEOMETRIES.iter().enumerate() {
        let mut product = 1.0f64;
        for s in &slowdowns[g * workloads.len()..(g + 1) * workloads.len()] {
            product *= s;
        }
        rows.push(Sec66Row {
            label: (*label).to_string(),
            channels: *channels,
            ranks_per_channel: *ranks,
            mean_slowdown: product.powf(1.0 / workloads.len() as f64),
        });
    }
    Sec66Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_behaviour_matches_both_readings() {
        let r = run(6_000, &[WorkloadKind::DataServing, WorkloadKind::GraphAnalytics], 1);
        assert_eq!(r.rows.len(), 3);
        let small = &r.rows[0];
        let fixed = &r.rows[1];
        let scaled = &r.rows[2];
        assert!(small.mean_slowdown >= 0.999);
        // Paper's reading: the same demand on a bigger device — the loss
        // stays flat-to-smaller (within noise).
        assert!(
            fixed.mean_slowdown <= small.mean_slowdown + 0.005,
            "fixed-demand {} vs small {}",
            fixed.mean_slowdown,
            small.mean_slowdown
        );
        // The caveat: proportionally scaled demand costs at least as much.
        assert!(
            scaled.mean_slowdown >= fixed.mean_slowdown - 0.005,
            "scaled-demand {} vs fixed {}",
            scaled.mean_slowdown,
            fixed.mean_slowdown
        );
    }
}
