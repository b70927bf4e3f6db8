//! **Figure 15** — putting it all together: total DRAM energy savings from
//! rank-level power-down plus hotness-aware self-refresh, versus the
//! all-8-ranks baseline.
//!
//! The paper: one rank group powered down saves 20.2 %; stacking
//! self-refresh on the surviving ranks reaches 25.6–32.3 % where capacity
//! allows; the full 8-rank configuration gets self-refresh only (14.9 %).

use serde::{Deserialize, Serialize};

use crate::{hotness_savings, HotnessRunConfig};
use dtl_core::DtlError;
use dtl_dram::{PowerParams, PowerState};

/// One configuration's stacked savings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Row {
    /// Label, e.g. "208GB/6rk".
    pub label: String,
    /// Active ranks per channel.
    pub active_ranks: u32,
    /// Background saving from MPSM on the powered-down ranks alone.
    pub powerdown_saving: f64,
    /// Additional saving from self-refresh, measured on the active ranks.
    pub hotness_additional: f64,
    /// Combined total versus the 8-rank baseline.
    pub total_saving: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15Result {
    /// One row per configuration.
    pub rows: Vec<Fig15Row>,
}

/// Stacks the two mechanisms for each Figure 14 point.
///
/// The power-down component is the deterministic background arithmetic
/// (MPSM on `8 - active` ranks); the hotness component is measured by the
/// trace-driven replay on the remaining active ranks and applies to the
/// active-rank share of the energy. One worker unit per configuration
/// point.
///
/// # Errors
///
/// Propagates device errors from the hotness replays (first failing point
/// wins).
pub fn run(
    base: &HotnessRunConfig,
    physical_ranks: u32,
    points: &[(&str, u32, f64)],
    jobs: usize,
) -> Result<Fig15Result, DtlError> {
    let p = PowerParams::ddr4_128gb_dimm();
    let mpsm = p.factor(PowerState::Mpsm);
    let outcomes = crate::exec::run_units(jobs, points.to_vec(), |_, (label, active, frac)| {
        let cfg = HotnessRunConfig { active_ranks: active, allocated_fraction: frac, ..*base };
        let (_, _, hotness_additional) = hotness_savings(&cfg)?;
        Ok::<_, DtlError>((label, active, hotness_additional))
    });
    let mut rows = Vec::new();
    for outcome in outcomes {
        let (label, active, hotness_additional) = outcome?;
        let total_ranks = f64::from(physical_ranks);
        let act = f64::from(active);
        // Baseline energy ∝ 8 ranks standby; with power-down the idle
        // ranks cost only the MPSM factor.
        let powerdown_energy = (act + (total_ranks - act) * mpsm) / total_ranks;
        let powerdown_saving = 1.0 - powerdown_energy;
        // Hotness reduces the active-rank share further.
        let active_share = act / total_ranks;
        let total_energy = powerdown_energy - active_share * hotness_additional;
        rows.push(Fig15Row {
            label: label.to_string(),
            active_ranks: active,
            powerdown_saving,
            hotness_additional,
            total_saving: 1.0 - total_energy,
        });
    }
    Ok(Fig15Result { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacking_beats_either_mechanism_alone() {
        let base = HotnessRunConfig {
            accesses: 800_000,
            n_apps: 3,
            channels: 2,
            ..HotnessRunConfig::tiny(5, true)
        };
        let r = run(&base, 4, &[("6rk", 3, 0.6), ("8rk", 4, 0.8)], 1).unwrap();
        assert_eq!(r.rows.len(), 2);
        let six = &r.rows[0];
        // 1 of 4 ranks in MPSM: saving = (1 - 0.068)/4 = 23.3%.
        assert!((six.powerdown_saving - 0.233).abs() < 0.01, "{}", six.powerdown_saving);
        assert!(
            six.total_saving >= six.powerdown_saving,
            "stacked {} must not fall below power-down alone {}",
            six.total_saving,
            six.powerdown_saving
        );
        let eight = &r.rows[1];
        assert_eq!(eight.powerdown_saving, 0.0, "all ranks active: no MPSM saving");
        assert!(eight.total_saving >= 0.0);
    }
}
