//! `fuzz_oracle` — the differential fuzz (`diff_fuzz`): a tiny device
//! with its command tap on, under all three power policies and composed
//! fault plans, in lockstep with the `dtl-check` reference model. The
//! registry fixes the seed list (`0..N` clean plus `16..24` faulted), so
//! every `--seed` replays the same streams.

use dtl_check::{CheckSetup, FuzzOp, LockstepHarness};
use dtl_dram::PowerPolicyKind;
use dtl_sim::experiments::diff_fuzz::DiffFuzzResult;
use dtl_sim::{CheckRunConfig, CheckRunResult, SeedResult};

use super::{Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, as_u64, field};
use crate::layers::{check, Counters};

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "fuzz_oracle",
    why: "dtl-core through its rarest paths (command tap on, all three power policies, \
          fault splices) in lockstep with the dtl-check oracle",
    op: "lockstep ops executed",
    exact: true,
    seeding: Seeding::Unseeded,
    runs: |scale| {
        let (seeds, ops) = size(scale);
        vec![RegistryRun::new(
            "diff_fuzz",
            false,
            &["--seeds", &seeds.to_string(), "--ops", &ops.to_string()],
        )]
    },
    ops: |_, results| as_u64(field(results.first()?, "total_ops")?),
    headline: |results| {
        Some(Headline {
            name: "invariant violations",
            value: as_f64(field(results.first()?, "violations")?)?,
            paper: None,
        })
    },
    prepare,
    prepare_with_telemetry: None,
};

/// Clean seeds and ops per stream.
fn size(scale: Scale) -> (u64, usize) {
    match scale {
        Scale::Quick => (2, 300),
        Scale::Ledger => (24, 1500),
    }
}

struct Unit {
    seed: u64,
    faulted: bool,
    policy: PowerPolicyKind,
    setup: CheckSetup,
    ops: Vec<FuzzOp>,
    harness: LockstepHarness,
}

fn prepare(scale: Scale, _seed: u64) -> Result<Run, String> {
    let (seeds, ops_per_seed) = size(scale);
    let cfg = CheckRunConfig {
        clean_seeds: (0..seeds).collect(),
        ops_per_seed,
        ..CheckRunConfig::acceptance()
    };
    let mut units = Vec::new();
    for &policy in &cfg.policies {
        let clean = cfg.clean_seeds.iter().map(|&s| (s, false));
        let faulted = cfg.faulted_seeds.iter().map(|&s| (s, true));
        for (seed, faulted) in clean.chain(faulted) {
            let setup = if faulted {
                CheckSetup::tiny_faulted(seed, cfg.ops_per_seed)
            } else {
                CheckSetup::tiny(seed, cfg.ops_per_seed)
            }
            .with_policy(policy);
            let ops = check::generate(&setup.stream);
            units.push(Unit { seed, faulted, policy, setup, ops, harness: check::harness(setup) });
        }
    }
    Ok(Box::new(move || {
        let mut counters = Counters::default();
        let seeds: Vec<SeedResult> = units.into_iter().map(run_unit).collect();
        let batch = CheckRunResult {
            total_ops: seeds.iter().map(|s| s.executed).sum(),
            total_accesses: seeds.iter().map(|s| s.accesses).sum(),
            total_checks: seeds.iter().map(|s| s.full_checks).sum(),
            violations: seeds.iter().filter(|s| s.counterexample.is_some()).count() as u64,
            seeds,
        };
        counters.add("check.ops", batch.total_ops as f64);
        counters.add("check.full_checks", batch.total_checks as f64);
        let result = DiffFuzzResult {
            seeds: batch.seeds.len() as u64,
            faulted_seeds: batch.seeds.iter().filter(|s| s.faulted).count() as u64,
            total_ops: batch.total_ops,
            total_accesses: batch.total_accesses,
            total_checks: batch.total_checks,
            violations: batch.violations,
            first_counterexample: batch.first_counterexample().map(|ce| ce.to_json()),
            batch,
        };
        Ok(Outcome { jsons: vec![dtl_sim::to_json(&result)], counters })
    }))
}

fn run_unit(unit: Unit) -> SeedResult {
    let Unit { seed, faulted, policy, setup, ops, mut harness } = unit;
    let blank = SeedResult {
        seed,
        faulted,
        policy,
        executed: 0,
        accesses: 0,
        commands: 0,
        full_checks: 0,
        deep_checks: 0,
        counterexample: None,
    };
    match check::run_ops(&mut harness, &ops) {
        Ok(stats) => SeedResult {
            executed: stats.executed,
            accesses: stats.accesses,
            commands: stats.commands,
            full_checks: stats.full_checks,
            deep_checks: stats.deep_checks,
            ..blank
        },
        Err(failure) => SeedResult {
            counterexample: Some(dtl_check::minimize(&setup, &ops, &failure)),
            ..blank
        },
    }
}
