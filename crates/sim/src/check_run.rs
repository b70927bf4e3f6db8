//! The differential-check runner: batches of seeded lockstep fuzzing runs
//! through `dtl-check`, aggregated into one typed result row per seed.
//!
//! The heavy lifting (oracle, invariant suite, minimizer) lives in
//! [`dtl_check`]; this module is the experiment-facing wrapper that the
//! `diff_fuzz` experiment consumes.

use dtl_check::{fuzz, CheckSetup, Counterexample, FuzzOutcome};
use dtl_dram::PowerPolicyKind;
use serde::{Deserialize, Serialize};

/// One batch of differential-check runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckRunConfig {
    /// Seeds to run clean (no fault plan).
    pub clean_seeds: Vec<u64>,
    /// Seeds to run with a composed `dtl-fault` plan.
    pub faulted_seeds: Vec<u64>,
    /// Ops per stream (before fault splicing).
    pub ops_per_seed: usize,
    /// Power policies to sweep: every seed runs once per policy, so the
    /// oracle's power ledger and legal-transition checks cover each
    /// rank-state machine the device can be configured with.
    pub policies: Vec<PowerPolicyKind>,
}

impl CheckRunConfig {
    /// The acceptance batch: at least 20 seeds totalling ≥ 10 000 lockstep
    /// ops, at least one of them driving a deterministic fault plan —
    /// run once per built-in power policy (24 seeds × 3 policies).
    pub fn acceptance() -> Self {
        CheckRunConfig {
            clean_seeds: (0..16).collect(),
            faulted_seeds: (16..24).collect(),
            ops_per_seed: 500,
            policies: PowerPolicyKind::ALL.to_vec(),
        }
    }

    /// A time-boxed smoke batch for CI (a few seconds). Still sweeps all
    /// three policies so a smoke pass exercises every state machine.
    pub fn smoke() -> Self {
        CheckRunConfig {
            clean_seeds: vec![1, 2, 3],
            faulted_seeds: vec![4],
            ops_per_seed: 300,
            policies: PowerPolicyKind::ALL.to_vec(),
        }
    }

    /// Total ops the batch will drive (excluding fault splices).
    pub fn total_ops(&self) -> usize {
        (self.clean_seeds.len() + self.faulted_seeds.len())
            * self.ops_per_seed
            * self.policies.len().max(1)
    }
}

/// Outcome of one seed's run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Whether a fault plan was composed in.
    pub faulted: bool,
    /// The power policy the device ran under.
    pub policy: PowerPolicyKind,
    /// Ops executed.
    pub executed: u64,
    /// Accesses cross-checked.
    pub accesses: u64,
    /// Device commands replayed into the oracle.
    pub commands: u64,
    /// Full invariant-suite runs.
    pub full_checks: u64,
    /// Quiesced deep checks.
    pub deep_checks: u64,
    /// Shrunk counterexample, if the seed failed.
    pub counterexample: Option<Counterexample>,
}

/// Aggregated batch result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckRunResult {
    /// Per-seed outcomes.
    pub seeds: Vec<SeedResult>,
    /// Total lockstep ops executed across all seeds.
    pub total_ops: u64,
    /// Total accesses cross-checked.
    pub total_accesses: u64,
    /// Total invariant-suite runs.
    pub total_checks: u64,
    /// Seeds that failed (should be zero on a healthy device).
    pub violations: u64,
}

impl CheckRunResult {
    /// `true` when every seed verified clean.
    pub fn all_clean(&self) -> bool {
        self.violations == 0
    }

    /// The first counterexample, for reporting.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.seeds.iter().find_map(|s| s.counterexample.as_ref())
    }
}

/// Runs the whole batch with (seed, policy) pairs sharded across up to
/// `jobs` workers. Deterministic: equal configs yield equal results.
///
/// Each pair is an independent work unit — its own device, oracle, and
/// preassigned RNG stream — so the result (including every per-seed row
/// and the aggregation order) is **bit-identical** for every `jobs` value;
/// only wall-clock time changes.
pub fn run_checks(cfg: &CheckRunConfig, jobs: usize) -> CheckRunResult {
    let policies: &[PowerPolicyKind] =
        if cfg.policies.is_empty() { &[PowerPolicyKind::FixedThreshold] } else { &cfg.policies };
    let mut runs: Vec<(u64, bool, PowerPolicyKind)> = Vec::new();
    for &policy in policies {
        runs.extend(cfg.clean_seeds.iter().map(|&s| (s, false, policy)));
        runs.extend(cfg.faulted_seeds.iter().map(|&s| (s, true, policy)));
    }
    let seeds = crate::exec::run_units(jobs, runs, |_, (seed, faulted, policy)| {
        let setup = if faulted {
            CheckSetup::tiny_faulted(seed, cfg.ops_per_seed)
        } else {
            CheckSetup::tiny(seed, cfg.ops_per_seed)
        }
        .with_policy(policy);
        match fuzz(&setup) {
            FuzzOutcome::Clean(stats) => SeedResult {
                seed,
                faulted,
                policy,
                executed: stats.executed,
                accesses: stats.accesses,
                commands: stats.commands,
                full_checks: stats.full_checks,
                deep_checks: stats.deep_checks,
                counterexample: None,
            },
            FuzzOutcome::Failed(ce) => SeedResult {
                seed,
                faulted,
                policy,
                executed: 0,
                accesses: 0,
                commands: 0,
                full_checks: 0,
                deep_checks: 0,
                counterexample: Some(*ce),
            },
        }
    });
    let total_ops = seeds.iter().map(|s| s.executed).sum();
    let total_accesses = seeds.iter().map(|s| s.accesses).sum();
    let total_checks = seeds.iter().map(|s| s.full_checks).sum();
    let violations = seeds.iter().filter(|s| s.counterexample.is_some()).count() as u64;
    CheckRunResult { seeds, total_ops, total_accesses, total_checks, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_batch_is_clean_and_deterministic() {
        let cfg = CheckRunConfig::smoke();
        let a = run_checks(&cfg, 1);
        assert!(a.all_clean(), "smoke batch must verify: {:?}", a.first_counterexample());
        // Fault splices can only add ops on top of the configured stream.
        assert!(a.total_ops >= cfg.total_ops() as u64);
        // The sweep covers every built-in policy for every seed.
        let seeds_per_policy = cfg.clean_seeds.len() + cfg.faulted_seeds.len();
        assert_eq!(a.seeds.len(), seeds_per_policy * PowerPolicyKind::ALL.len());
        for kind in PowerPolicyKind::ALL {
            assert_eq!(a.seeds.iter().filter(|s| s.policy == kind).count(), seeds_per_policy);
        }
        let b = run_checks(&cfg, 1);
        assert_eq!(a, b, "equal configs must replay identically");
    }
}
