//! **Ablation** — row-buffer policy under the DTL's rank-MSB mapping. The
//! Figure 6 layout keeps each 2 MiB segment row-buffer-friendly, which
//! only pays off under an open-page controller; closed-page (auto
//! precharge) forfeits those hits.

use serde::{Deserialize, Serialize};

use super::latency_sweep::{measure, SweepConfig};
use dtl_dram::{AddressMapping, PagePolicy};
use dtl_trace::WorkloadKind;

/// One (workload, policy) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PagePolicyRow {
    /// Workload name.
    pub workload: String,
    /// "OpenPage" or "ClosedPage".
    pub policy: String,
    /// Average memory access time, ns.
    pub amat_ns: f64,
    /// Row-buffer hit fraction.
    pub row_hit_fraction: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PagePolicyResult {
    /// Rows in (workload, policy) sweep order.
    pub rows: Vec<PagePolicyRow>,
}

/// The workloads the study sweeps.
pub const WORKLOADS: [WorkloadKind; 3] =
    [WorkloadKind::MediaStreaming, WorkloadKind::DataServing, WorkloadKind::GraphAnalytics];

/// Runs the sweep with one worker unit per (workload, policy) cell — each
/// cell replays its own cycle-level simulator.
pub fn run(requests: u64, jobs: usize) -> PagePolicyResult {
    let mut cells = Vec::new();
    for kind in WORKLOADS {
        for policy in [PagePolicy::OpenPage, PagePolicy::ClosedPage] {
            cells.push((kind, policy));
        }
    }
    let rows = crate::exec::run_units(jobs, cells, |_, (kind, policy)| {
        let mut cfg = SweepConfig::paper(8, AddressMapping::dtl_default(), 0);
        cfg.requests = requests;
        cfg.page_policy = policy;
        let out = measure(&cfg, &kind.spec());
        PagePolicyRow {
            workload: kind.name().to_string(),
            policy: format!("{policy:?}"),
            amat_ns: out.amat.as_ns_f64(),
            row_hit_fraction: out.row_hit_fraction,
        }
    });
    PagePolicyResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_page_keeps_more_row_hits() {
        let r = run(4_000, 2);
        assert_eq!(r.rows.len(), 6);
        for pair in r.rows.chunks(2) {
            let (open, closed) = (&pair[0], &pair[1]);
            assert_eq!(open.workload, closed.workload);
            assert!(
                open.row_hit_fraction >= closed.row_hit_fraction,
                "open page must not lose row hits: {open:?} vs {closed:?}"
            );
        }
    }
}
