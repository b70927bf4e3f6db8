//! **Ablation** — the hotness engine's central tunable: the profiling idle
//! threshold (paper default 50 ms). A short threshold enters self-refresh
//! eagerly but risks ping-pong; a long one leaves savings on the table.

use serde::{Deserialize, Serialize};

use crate::{HotnessRunConfig, HotnessRunResult};
use dtl_core::DtlError;

/// One threshold point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdRow {
    /// Threshold at paper scale, ms (default 50).
    pub threshold_ms_unscaled: f64,
    /// Self-refresh entries over the replay.
    pub sr_entries: u64,
    /// Self-refresh exits (ping-pong indicator).
    pub sr_exits: u64,
    /// Self-refresh residency fraction.
    pub sr_residency: f64,
    /// Consolidation swaps executed.
    pub swaps: u64,
    /// Stable-phase power, mW.
    pub stable_power_mw: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdResult {
    /// One row per threshold factor, in increasing threshold order.
    pub rows: Vec<ThresholdRow>,
}

/// The sweep's threshold factors relative to the paper's 50 ms default.
pub const FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Runs the hotness replay with the profiling threshold scaled by `factor`
/// relative to the paper's 50 ms default, extending the replay so longer
/// thresholds still see several threshold windows.
fn run_one(base: &HotnessRunConfig, factor: f64) -> Result<HotnessRunResult, DtlError> {
    let cfg =
        HotnessRunConfig { accesses: (base.accesses as f64 * factor.max(1.0)) as u64, ..*base };
    crate::run_hotness(&cfg, factor, &dtl_telemetry::Telemetry::disabled())
}

/// Runs the sweep with one worker unit per threshold factor (each factor
/// replays its own device, so the decomposition is exact).
///
/// # Errors
///
/// Propagates device errors from any replay (first failing factor wins).
pub fn run(base: &HotnessRunConfig, jobs: usize) -> Result<ThresholdResult, DtlError> {
    let outcomes =
        crate::exec::run_units(jobs, FACTORS.to_vec(), |_, factor| run_one(base, factor));
    let mut rows = Vec::new();
    for (factor, outcome) in FACTORS.iter().zip(outcomes) {
        let r = outcome?;
        rows.push(ThresholdRow {
            threshold_ms_unscaled: 50.0 * factor,
            sr_entries: r.sr_entries,
            sr_exits: r.sr_exits,
            sr_residency: r.sr_residency,
            swaps: r.swaps_executed,
            stable_power_mw: r.stable_power_mw,
        });
    }
    Ok(ThresholdResult { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_factor() {
        let base = HotnessRunConfig {
            accesses: 400_000,
            n_apps: 3,
            channels: 2,
            ..HotnessRunConfig::tiny(1, true)
        };
        let r = run(&base, 2).unwrap();
        assert_eq!(r.rows.len(), FACTORS.len());
        assert_eq!(r.rows[2].threshold_ms_unscaled, 50.0, "paper default in the middle");
        for row in &r.rows {
            assert!(row.sr_residency >= 0.0 && row.sr_residency <= 1.0);
        }
    }
}
