//! Golden-file regression tests: the tiny fig12 (power-down), fig14 and
//! fig15 (hotness self-refresh), sec3_4_reentry, pool_scale,
//! pool_failover, fault_campaign and vm_campaign runs, the three that go
//! through the cycle-level DRAM model (fig02, sec6_6,
//! ablate_migration_priority), and the differential fuzz's smoke batch,
//! are fully deterministic, so their JSON outputs are pinned under
//! `results/golden/` and compared field by field with an explicit numeric
//! tolerance.
//!
//! To regenerate after an intentional model change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p dtl-bench --test golden_experiments
//! ```
//!
//! and commit the diff under `results/golden/` together with the change
//! that caused it.

use std::path::{Path, PathBuf};

use dtl_sim::experiments::{
    ablate_migration_priority, diff_fuzz, fabric_load, fault_campaign, fig02, fig12, fig14, fig15,
    policy_ablation, pool_failover, pool_scale, sec3_4_reentry, sec6_6, vm_campaign,
};
use dtl_sim::{
    to_json, CheckRunConfig, FabricRunConfig, FaultRunConfig, Heartbeat, HotnessRunConfig,
    PoolRunConfig, PowerDownRunConfig, VmCampaignConfig,
};
use dtl_telemetry::Telemetry;
use dtl_trace::WorkloadKind;
use serde::Value;

/// Relative tolerance for float comparisons. The runs are deterministic;
/// the slack only absorbs JSON round-trip formatting and libm differences
/// across platforms, so it is deliberately tight.
const REL_TOL: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// Numeric view of a [`Value`], if it is one of the number variants.
fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Uint(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Key lookup in a [`Value::Map`] body (entry order is not significant).
fn get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Compares two JSON trees numerically, returning the path of the first
/// mismatch.
fn diff(path: &str, a: &Value, b: &Value) -> Result<(), String> {
    if let (Some(x), Some(y)) = (as_number(a), as_number(b)) {
        let scale = x.abs().max(y.abs()).max(1.0);
        if (x - y).abs() > REL_TOL * scale {
            return Err(format!("{path}: {x} vs {y} (rel tol {REL_TOL})"));
        }
        return Ok(());
    }
    match (a, b) {
        (Value::Seq(xs), Value::Seq(ys)) => {
            if xs.len() != ys.len() {
                return Err(format!("{path}: array length {} vs {}", xs.len(), ys.len()));
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                diff(&format!("{path}[{i}]"), x, y)?;
            }
            Ok(())
        }
        (Value::Map(xs), Value::Map(ys)) => {
            let mut keys: Vec<&String> = xs.iter().chain(ys).map(|(k, _)| k).collect();
            keys.sort();
            keys.dedup();
            for k in keys {
                match (get(xs, k), get(ys, k)) {
                    (Some(x), Some(y)) => diff(&format!("{path}.{k}"), x, y)?,
                    (got, _) => {
                        return Err(format!(
                            "{path}.{k}: only present in {}",
                            if got.is_some() { "actual" } else { "golden" }
                        ))
                    }
                }
            }
            Ok(())
        }
        _ => {
            if a == b {
                Ok(())
            } else {
                Err(format!("{path}: {a:?} vs {b:?}"))
            }
        }
    }
}

/// Compares `json` to the golden file, or rewrites it under
/// `GOLDEN_REGEN=1`.
fn check_golden(name: &str, json: &str) {
    let dir = golden_dir();
    let path = dir.join(format!("{name}.json"));
    let actual: Value = serde_json::from_str(json).expect("result serializes");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, serde_json::to_string_pretty(&actual).expect("pretty"))
            .expect("write golden");
        eprintln!("[regenerated {}]", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with GOLDEN_REGEN=1 to create it", path.display())
    });
    let expected: Value = serde_json::from_str(&stored).expect("golden parses");
    if let Err(msg) = diff(name, &actual, &expected) {
        panic!(
            "{name} diverged from {}:\n  {msg}\nIf the change is intentional, regenerate with \
             GOLDEN_REGEN=1 and commit the new golden.",
            path.display()
        );
    }
}

#[test]
fn fig12_tiny_matches_golden() {
    let r =
        fig12::run(&PowerDownRunConfig::tiny(7, true), (0.014, 0.0018), &Telemetry::disabled(), 1)
            .expect("fig12 tiny");
    check_golden("fig12_tiny", &to_json(&r));
}

#[test]
fn pool_scale_tiny_matches_golden() {
    let (r, _) =
        pool_scale::run(&PoolRunConfig::tiny(7), &Telemetry::disabled(), 1, &Heartbeat::disabled())
            .expect("pool_scale tiny");
    check_golden("pool_scale_tiny", &to_json(&r));
}

#[test]
fn policy_ablation_tiny_matches_golden() {
    let (r, _) = policy_ablation::run(
        &PoolRunConfig::tiny(7),
        &Telemetry::disabled(),
        1,
        &Heartbeat::disabled(),
    )
    .expect("policy_ablation tiny");
    check_golden("policy_ablation_tiny", &to_json(&r));
}

#[test]
fn pool_failover_tiny_matches_golden() {
    // Two retirement campaigns: enough to pin the exact-time fault lane
    // (device retirements, evacuations, CRC bursts) without making the
    // golden run the slowest in the suite.
    let r = pool_failover::run(&PoolRunConfig::tiny(7), 2, 1).expect("pool_failover tiny");
    check_golden("pool_failover_tiny", &to_json(&r));
}

#[test]
fn fabric_load_tiny_matches_golden() {
    let (r, _) = fabric_load::run(
        &FabricRunConfig::tiny(7),
        &Telemetry::disabled(),
        1,
        &Heartbeat::disabled(),
    )
    .expect("fabric_load tiny");
    assert!(r.p99_monotone(), "access p99 must rise with offered load");
    assert!(r.pack_energy_edge_mj() > 0.0, "pack must beat spread on switch-port energy");
    check_golden("fabric_load_tiny", &to_json(&r));
}

#[test]
fn fig14_tiny_matches_golden() {
    let base = HotnessRunConfig {
        accesses: 900_000,
        n_apps: 3,
        channels: 2,
        ..HotnessRunConfig::tiny(5, true)
    };
    let r = fig14::run(&base, &[("loose", 4, 0.55), ("tight", 4, 0.95)], 1).expect("fig14 tiny");
    check_golden("fig14_tiny", &to_json(&r));
}

#[test]
fn fig15_tiny_matches_golden() {
    let base = HotnessRunConfig {
        accesses: 900_000,
        n_apps: 3,
        channels: 2,
        ..HotnessRunConfig::tiny(5, true)
    };
    let r = fig15::run(&base, 4, &[("6rk", 3, 0.6), ("8rk", 4, 0.8)], 1).expect("fig15 tiny");
    check_golden("fig15_tiny", &to_json(&r));
}

#[test]
fn sec3_4_reentry_tiny_matches_golden() {
    let r = sec3_4_reentry::run(&sec3_4_reentry::tiny(5)).expect("sec3_4_reentry tiny");
    check_golden("sec3_4_reentry_tiny", &to_json(&r));
}

#[test]
fn fault_campaign_tiny_matches_golden() {
    // The storm plan: exact-time faults between (and, at t = 600 s, tied
    // with) grid ticks, an auto-retirement and CRC retries.
    let (r, _) = fault_campaign::run(
        &FaultRunConfig::tiny_storm(7),
        &Telemetry::disabled(),
        1,
        &Heartbeat::disabled(),
    )
    .expect("fault_campaign tiny");
    check_golden("fault_campaign_tiny", &to_json(&r));
}

#[test]
fn vm_campaign_tiny_matches_golden() {
    let (r, _) = vm_campaign::run(&VmCampaignConfig::tiny(7), 1, None, &Heartbeat::disabled())
        .expect("vm_campaign tiny");
    check_golden("vm_campaign_tiny", &to_json(&r));
}

// The three below are the registry's `--tiny` runs of the cycle-level DDR4
// model (the ten above all run the analytic backend): the open-loop
// foreground stream of `latency_sweep` at two sizes, and the only registry
// run that puts migration-class requests through the FR-FCFS scheduler.

#[test]
fn fig02_tiny_matches_golden() {
    let r = fig02::run(10_000, &WorkloadKind::ALL, 1);
    check_golden("fig02_tiny", &to_json(&r));
}

#[test]
fn sec6_6_tiny_matches_golden() {
    let r = sec6_6::run(8_000, &WorkloadKind::TRACED, 1);
    check_golden("sec6_6_tiny", &to_json(&r));
}

#[test]
fn ablate_migration_priority_tiny_matches_golden() {
    let r = ablate_migration_priority::run(5_000, 1);
    check_golden("ablate_migration_priority_tiny", &to_json(&r));
}

// The device in lockstep with the dtl-check reference model: per seed and
// policy, the commands the oracle replayed and the full and deep checks it
// ran, so a faster oracle must still consume the same stream.

#[test]
fn diff_fuzz_tiny_matches_golden() {
    let r = diff_fuzz::run(&CheckRunConfig::smoke(), 1);
    check_golden("diff_fuzz_tiny", &to_json(&r));
}
