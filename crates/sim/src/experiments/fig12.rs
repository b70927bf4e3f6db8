//! **Figures 12 & 13** — rank-level power-down over a 6-hour VM schedule:
//! runtime DRAM power (12a), normalized DRAM energy (12b, paper: −31.6 %
//! at a 1.6 % performance cost), and the background/active power breakdown
//! (Figure 13: background −35.3 %, total power −32.7 %).

use serde::{Deserialize, Serialize};

use crate::{run_schedule, IntervalSample, PowerDownRunConfig, PowerDownRunResult};
use dtl_core::DtlError;
use dtl_telemetry::Telemetry;

/// Combined result of the baseline and DTL runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Result {
    /// Baseline (all ranks active) per-interval samples.
    pub baseline: Vec<IntervalSample>,
    /// DTL per-interval samples.
    pub dtl: Vec<IntervalSample>,
    /// Baseline totals.
    pub baseline_totals: Totals,
    /// DTL totals.
    pub dtl_totals: Totals,
    /// Fractional energy saving (paper: 0.316).
    pub energy_saving: f64,
    /// Fractional background-power saving (paper: 0.353).
    pub background_saving: f64,
    /// Fractional mean-power saving (paper: 0.327).
    pub power_saving: f64,
    /// Modeled execution-time overhead (paper: 0.016): rank-interleaving
    /// disabled + DTL translation.
    pub exec_overhead: f64,
    /// Segments migrated by drains.
    pub segments_drained: u64,
    /// Rank groups powered down over the run.
    pub groups_powered_down: u64,
}

/// Energy totals of one run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Totals {
    /// Total DRAM energy, mJ.
    pub total_mj: f64,
    /// Background component.
    pub background_mj: f64,
    /// Active component.
    pub active_mj: f64,
    /// Mean power, mW.
    pub mean_power_mw: f64,
}

impl Totals {
    fn of(r: &PowerDownRunResult) -> Totals {
        Totals {
            total_mj: r.total_energy_mj,
            background_mj: r.background_mj,
            active_mj: r.active_mj,
            mean_power_mw: r.mean_power_mw(),
        }
    }
}

/// Runs baseline and DTL replays of the same schedule as two parallel
/// work units.
///
/// `exec_overhead_inputs` is `(interleaving_cost, translation_cost)` —
/// typically the Figure 5 CXL mean slowdown minus one and the §6.1
/// execution inflation.
///
/// Telemetry streams from the **DTL replay** only (the baseline stays
/// untraced so its events do not interleave into the same timeline); the
/// DTL unit records into a per-unit buffer that merges back in unit order,
/// so the emitted trace is bit-identical for any `jobs`.
///
/// # Errors
///
/// Propagates device errors from either replay.
pub fn run(
    cfg_base: &PowerDownRunConfig,
    exec_overhead_inputs: (f64, f64),
    telemetry: &Telemetry,
    jobs: usize,
) -> Result<Fig12Result, DtlError> {
    let mut outcomes =
        crate::exec::run_units_traced(jobs, telemetry, vec![false, true], |_, powerdown, t| {
            let untraced = Telemetry::disabled();
            let cfg = PowerDownRunConfig { powerdown, ..*cfg_base };
            run_schedule(&cfg, if powerdown { t } else { &untraced })
        });
    let dtl = outcomes.pop().expect("two units")?;
    let baseline = outcomes.pop().expect("two units")?;
    let energy_saving = 1.0 - dtl.total_energy_mj / baseline.total_energy_mj;
    let background_saving = 1.0 - dtl.background_mj / baseline.background_mj;
    let power_saving = 1.0 - dtl.mean_power_mw() / baseline.mean_power_mw();
    let (interleave, translate) = exec_overhead_inputs;
    Ok(Fig12Result {
        baseline_totals: Totals::of(&baseline),
        dtl_totals: Totals::of(&dtl),
        baseline: baseline.intervals,
        dtl: dtl.intervals,
        energy_saving,
        background_saving,
        power_saving,
        exec_overhead: interleave + translate,
        segments_drained: dtl.segments_drained,
        groups_powered_down: dtl.groups_powered_down,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtl_saves_substantial_energy_at_tiny_scale() {
        let r = run(&PowerDownRunConfig::tiny(7, true), (0.014, 0.0018), &Telemetry::disabled(), 1)
            .unwrap();
        assert!(r.energy_saving > 0.10, "energy saving {}", r.energy_saving);
        assert!(r.background_saving > r.energy_saving * 0.8, "background drives the saving");
        assert!(r.groups_powered_down > 0);
        assert!((r.exec_overhead - 0.0158).abs() < 1e-9);
        // DTL never uses more power than baseline in any interval... power
        // can transiently exceed during migration; check the mean instead.
        assert!(r.dtl_totals.mean_power_mw < r.baseline_totals.mean_power_mw);
    }
}
