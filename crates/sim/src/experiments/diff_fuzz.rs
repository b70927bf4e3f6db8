//! **Differential fuzz** — not a paper figure but the evaluation's
//! soundness argument: the cycle-level device and a flat reference model
//! replay identical op streams in lockstep while an external invariant
//! suite cross-checks translation bijectivity, residency conservation,
//! power safety, migration atomicity, and shadowed segment contents
//! (see `dtl-check`).
//!
//! The acceptance batch drives ≥ 10 000 lockstep ops over ≥ 20 seeds,
//! including deterministic `dtl-fault` plans, and must report **zero**
//! invariant violations. Any failure is shrunk to a replayable
//! counterexample carrying its generator seed.

use serde::{Deserialize, Serialize};

use crate::check_run::{run_checks, CheckRunConfig, CheckRunResult};

/// Summary row of one differential-fuzz batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffFuzzResult {
    /// Seeds run.
    pub seeds: u64,
    /// Seeds with a fault plan composed in.
    pub faulted_seeds: u64,
    /// Lockstep ops executed.
    pub total_ops: u64,
    /// Accesses cross-checked against the oracle.
    pub total_accesses: u64,
    /// Invariant-suite runs.
    pub total_checks: u64,
    /// Invariant violations (must be zero).
    pub violations: u64,
    /// Shrunk, replayable counterexample JSON for the first failure.
    pub first_counterexample: Option<String>,
    /// The raw per-seed batch result.
    pub batch: CheckRunResult,
}

/// Runs one differential-fuzz batch, its seeds sharded across up to
/// `jobs` workers (each seed is an independent lockstep replay), and
/// summarizes it.
pub fn run(cfg: &CheckRunConfig, jobs: usize) -> DiffFuzzResult {
    let batch = run_checks(cfg, jobs);
    DiffFuzzResult {
        seeds: batch.seeds.len() as u64,
        faulted_seeds: batch.seeds.iter().filter(|s| s.faulted).count() as u64,
        total_ops: batch.total_ops,
        total_accesses: batch.total_accesses,
        total_checks: batch.total_checks,
        violations: batch.violations,
        first_counterexample: batch.first_counterexample().map(|ce| ce.to_json()),
        batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The acceptance batch itself (≥ 20 seeds, ≥ 10k ops, ≥ 1 fault plan,
    // zero violations) runs as `dtl diff_fuzz` and in the CI smoke; here a
    // smaller batch keeps unit-test time in budget while still covering a
    // faulted seed.
    #[test]
    fn smoke_batch_reports_zero_violations() {
        let r = run(&CheckRunConfig::smoke(), 1);
        assert_eq!(r.violations, 0, "counterexample: {:?}", r.first_counterexample);
        // 4 seeds × 3 power policies.
        assert_eq!(r.seeds, 12);
        assert_eq!(r.faulted_seeds, 3);
        assert!(r.total_ops >= 3600);
        assert!(r.total_accesses > 0);
        assert!(r.total_checks > 0);
    }

    #[test]
    fn acceptance_config_meets_the_floor() {
        let cfg = CheckRunConfig::acceptance();
        assert!(cfg.clean_seeds.len() + cfg.faulted_seeds.len() >= 20);
        assert!(!cfg.faulted_seeds.is_empty());
        assert!(cfg.total_ops() >= 10_000);
        // 24 seeds × 3 policies = the 72-run acceptance campaign.
        assert_eq!((cfg.clean_seeds.len() + cfg.faulted_seeds.len()) * cfg.policies.len(), 72);
        assert_eq!(cfg.policies, dtl_dram::PowerPolicyKind::ALL.to_vec());
    }
}
