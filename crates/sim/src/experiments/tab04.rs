//! **Table 4** — memory accesses per kilo-instruction (MAPKI) of the ten
//! CloudSuite workloads. The synthetic generators are calibrated to the
//! paper's values; this experiment measures what they actually produce.

use dtl_trace::{TraceGen, WorkloadKind};
use serde::{Deserialize, Serialize};

/// One workload's calibration check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab04Row {
    /// Workload name.
    pub workload: String,
    /// Table 4 value.
    pub paper_mapki: f64,
    /// MAPKI measured from the generator.
    pub measured_mapki: f64,
    /// Relative error.
    pub relative_error: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab04Result {
    /// One row per workload.
    pub rows: Vec<Tab04Row>,
    /// Worst relative error across the table.
    pub max_relative_error: f64,
}

/// Runs the calibration measurement with one worker unit per workload
/// (each generator is independent); the worst-error fold happens after the
/// join.
pub fn run(seed: u64, records: usize, jobs: usize) -> Tab04Result {
    let rows = crate::exec::run_units(jobs, WorkloadKind::ALL.to_vec(), |_, kind| {
        let spec = kind.spec().scaled(64);
        let mut gen = TraceGen::new(spec, seed);
        let recs = gen.take_records(records);
        let instr = recs.last().expect("records requested").icount;
        let measured = records as f64 * 1000.0 / instr as f64;
        Tab04Row {
            workload: kind.name().to_string(),
            paper_mapki: spec.mapki,
            measured_mapki: measured,
            relative_error: (measured - spec.mapki).abs() / spec.mapki,
        }
    });
    let mut worst = 0.0f64;
    for row in &rows {
        worst = worst.max(row.relative_error);
    }
    Tab04Result { rows, max_relative_error: worst }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_hit_their_mapki() {
        let r = run(1, 40_000, 1);
        assert_eq!(r.rows.len(), 10);
        assert!(r.max_relative_error < 0.08, "worst error {}", r.max_relative_error);
        // Spot-check the extremes of Table 4.
        let graph = r.rows.iter().find(|x| x.workload == "graph-analytics").unwrap();
        assert_eq!(graph.paper_mapki, 6.5);
        let web = r.rows.iter().find(|x| x.workload == "web-search").unwrap();
        assert_eq!(web.paper_mapki, 0.7);
    }
}
