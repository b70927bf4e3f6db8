//! **Policy ablation** — the power-policy zoo: replay the same pool
//! schedule under every built-in [`PowerPolicyKind`] × workload mix ×
//! pool-coordinator combination and report what each rank-state machine
//! buys. The fixed 50 ms threshold cell of each (mix, coordinator) pair is
//! the baseline; a ladder policy *wins* a cell when it spends less energy
//! at equal-or-better access p99.
//!
//! The two workload mixes differ only in the access trickle's burst
//! length: `cold-touch` (burst 1) makes every trickle access a cold touch
//! — the worst case for low-power exit latency — while `burst-256`
//! streams 256 lines per VM per epoch, amortizing any wake over the
//! burst, as real cache-line streams through one AU would.

use serde::{Deserialize, Serialize};

use crate::{run_pool, Heartbeat, PoolRunConfig, PoolRunResult, RunObservations};
use dtl_core::DtlError;
use dtl_dram::PowerPolicyKind;
use dtl_telemetry::Telemetry;

/// The workload mixes swept, as (name, trickle burst length).
pub const MIXES: [(&str, u64); 2] = [("cold-touch", 1), ("burst-256", 256)];

/// The full (policy, mix, coordinator) matrix, in replay order: policy
/// varies fastest so each (mix, coordinator) block lists its baseline
/// first, then the ladder policies it is compared against.
pub fn variants() -> Vec<(PowerPolicyKind, usize, bool)> {
    let mut v = Vec::new();
    for coordinator in [true, false] {
        for mix in 0..MIXES.len() {
            for policy in PowerPolicyKind::ALL {
                v.push((policy, mix, coordinator));
            }
        }
    }
    v
}

/// One replayed cell of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCell {
    /// The rank power-management policy of this cell.
    pub policy: PowerPolicyKind,
    /// Workload-mix name (see [`MIXES`]).
    pub mix: String,
    /// Trickle burst length of the mix.
    pub trickle_burst: u64,
    /// Whether the pool-wide power coordinator ran.
    pub coordinator: bool,
    /// End-to-end access p99 over the run, picoseconds.
    pub access_p99_ps: u64,
    /// Mean access latency, picoseconds.
    pub access_mean_ps: f64,
    /// The replay outcome.
    pub result: PoolRunResult,
}

/// A ladder policy beating its fixed-threshold baseline on one
/// (mix, coordinator) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyWin {
    /// The winning policy.
    pub policy: PowerPolicyKind,
    /// Workload-mix name.
    pub mix: String,
    /// Whether the coordinator ran in the pair.
    pub coordinator: bool,
    /// Energy saved relative to the fixed-threshold cell of the pair.
    pub savings_fraction: f64,
    /// `p99(policy) - p99(fixed)`, picoseconds; never positive in a win.
    pub p99_delta_ps: i64,
}

/// Combined result of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyAblationResult {
    /// One entry per [`variants`] element, in that order.
    pub cells: Vec<PolicyCell>,
    /// Every cell where a ladder policy beats fixed-threshold on energy at
    /// equal-or-better p99, best savings first.
    pub wins: Vec<PolicyWin>,
}

impl PolicyAblationResult {
    /// The fixed-threshold baseline cell of a (mix, coordinator) pair.
    pub fn baseline(&self, mix: &str, coordinator: bool) -> Option<&PolicyCell> {
        self.cells.iter().find(|c| {
            c.policy == PowerPolicyKind::FixedThreshold
                && c.mix == mix
                && c.coordinator == coordinator
        })
    }

    /// The best win, if any ladder policy beat its baseline.
    pub fn headline(&self) -> Option<&PolicyWin> {
        self.wins.first()
    }
}

/// Runs the whole matrix with its cells as parallel work units. Only the
/// first cell records telemetry (the cells are independent pools whose
/// timelines would not compose into one trace); per-unit buffers merge
/// back in unit order, so the emitted trace and the result are
/// bit-identical for any `jobs`. The returned [`RunObservations`] (SLO
/// report and event-spine queue counters) are the **first** cell's. The
/// heartbeat ticks once per completed cell — wall-clock stderr only,
/// provably outside the result path.
///
/// # Errors
///
/// Propagates pool/device errors from any replay.
pub fn run(
    cfg: &PoolRunConfig,
    telemetry: &Telemetry,
    jobs: usize,
    heartbeat: &Heartbeat,
) -> Result<(PolicyAblationResult, RunObservations), DtlError> {
    let units = variants();
    let total_units = units.len() as u64;
    let outcomes =
        crate::exec::run_units_traced(jobs, telemetry, units, |i, (policy, mix, coord), t| {
            let (mix_name, burst) = MIXES[mix];
            let mut variant = *cfg;
            variant.power_policy = policy;
            variant.trickle_burst = burst;
            variant.coordinator = coord;
            let untraced = Telemetry::disabled();
            let (result, obs) = run_pool(&variant, if i == 0 { t } else { &untraced })?;
            heartbeat.tick(total_units);
            let (access_p99_ps, access_mean_ps) = match obs.slo.access {
                Some(a) => (a.p99_ps, a.mean_ps),
                None => (0, 0.0),
            };
            let cell = PolicyCell {
                policy,
                mix: mix_name.to_string(),
                trickle_burst: burst,
                coordinator: coord,
                access_p99_ps,
                access_mean_ps,
                result,
            };
            Ok::<_, DtlError>((cell, obs))
        });
    let (cells, obs): (Vec<_>, Vec<_>) =
        outcomes.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    let wins = score(&cells);
    Ok((PolicyAblationResult { cells, wins }, obs[0]))
}

/// Compares every ladder-policy cell against the fixed-threshold cell of
/// its (mix, coordinator) pair and collects the wins, best savings first.
fn score(cells: &[PolicyCell]) -> Vec<PolicyWin> {
    let mut wins = Vec::new();
    for cell in cells {
        if cell.policy == PowerPolicyKind::FixedThreshold {
            continue;
        }
        let Some(base) = cells.iter().find(|c| {
            c.policy == PowerPolicyKind::FixedThreshold
                && c.mix == cell.mix
                && c.coordinator == cell.coordinator
        }) else {
            continue;
        };
        if base.result.total_energy_mj <= 0.0 {
            continue;
        }
        let savings_fraction = 1.0 - cell.result.total_energy_mj / base.result.total_energy_mj;
        let p99_delta_ps = cell.access_p99_ps as i64 - base.access_p99_ps as i64;
        if savings_fraction > 0.0 && p99_delta_ps <= 0 {
            wins.push(PolicyWin {
                policy: cell.policy,
                mix: cell.mix.clone(),
                coordinator: cell.coordinator,
                savings_fraction,
                p99_delta_ps,
            });
        }
    }
    wins.sort_by(|a, b| b.savings_fraction.total_cmp(&a.savings_fraction));
    wins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_policy_and_finds_a_win() {
        let (r, _) =
            run(&PoolRunConfig::tiny(7), &Telemetry::disabled(), 1, &Heartbeat::disabled())
                .unwrap();
        assert_eq!(r.cells.len(), PowerPolicyKind::ALL.len() * MIXES.len() * 2);
        for kind in PowerPolicyKind::ALL {
            assert!(r.cells.iter().any(|c| c.policy == kind), "missing {}", kind.name());
        }
        // Every cell of a (mix, coordinator) pair places the same schedule.
        for cell in &r.cells {
            let base = r.baseline(&cell.mix, cell.coordinator).unwrap();
            assert_eq!(cell.result.vms_allocated, base.result.vms_allocated);
        }
        // The acceptance headline: at least one ladder policy beats the
        // fixed 50 ms scheme on energy at equal-or-better p99.
        let win = r.headline().expect("a ladder policy must win at least one cell");
        assert!(win.savings_fraction > 0.0);
        assert!(win.p99_delta_ps <= 0);
        // The adaptive ladder saves energy on every cell (the p99 side of
        // the trade is what the win criterion gates).
        for cell in r.cells.iter().filter(|c| c.policy == PowerPolicyKind::AdaptiveDemotion) {
            let base = r.baseline(&cell.mix, cell.coordinator).unwrap();
            assert!(
                cell.result.total_energy_mj < base.result.total_energy_mj,
                "adaptive must undercut fixed on {} (coord {}): {} vs {}",
                cell.mix,
                cell.coordinator,
                cell.result.total_energy_mj,
                base.result.total_energy_mj
            );
        }
    }

    #[test]
    fn jobs_do_not_change_the_result() {
        let cfg = PoolRunConfig::tiny(11);
        let (a, _) = run(&cfg, &Telemetry::disabled(), 1, &Heartbeat::disabled()).unwrap();
        let (b, _) = run(&cfg, &Telemetry::disabled(), 4, &Heartbeat::disabled()).unwrap();
        assert_eq!(a, b);
    }
}
