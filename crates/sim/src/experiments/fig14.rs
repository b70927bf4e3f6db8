//! **Figure 14** — additional DRAM energy savings from hotness-aware
//! self-refresh *after* rank-level power-down: ~20 % in the stable phase
//! for allocations leaving at least half a rank-pair of unallocated
//! capacity per channel; little or nothing when capacity is tight
//! (240 GB); 14.9 % for the 8-rank / 304 GB configuration.

use serde::{Deserialize, Serialize};

use crate::{hotness_savings, HotnessRunConfig, HotnessRunResult};
use dtl_core::DtlError;

/// One allocation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14Row {
    /// Label, e.g. "208GB/6rk".
    pub label: String,
    /// Active ranks per channel.
    pub active_ranks: u32,
    /// Allocated fraction of the active-rank capacity.
    pub allocated_fraction: f64,
    /// Additional energy saving over the power-down-only baseline.
    pub additional_saving: f64,
    /// Self-refresh residency fraction in the treatment run.
    pub sr_residency: f64,
    /// Warmup: time of first self-refresh entry, seconds (scaled time).
    pub warmup_s: Option<f64>,
    /// SR exits (ping-pong indicator; the paper's 208gb-mix5/6 cases).
    pub sr_exits: u64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14Result {
    /// One row per allocation point.
    pub rows: Vec<Fig14Row>,
    /// Scale factor used.
    pub scale: u64,
}

/// The paper's allocation points: (label, active ranks, allocated GB,
/// capacity GB of the active ranks).
pub const PAPER_POINTS: [(&str, u32, f64); 4] = [
    ("208GB/6rk", 6, 208.0 / 288.0),
    ("224GB/6rk", 6, 224.0 / 288.0),
    ("240GB/6rk", 6, 240.0 / 288.0),
    ("304GB/8rk", 8, 304.0 / 384.0),
];

/// Runs the sweep. `base` carries scale/bandwidth/accesses; rank count and
/// allocation are overridden per point. One worker unit per allocation
/// point — each point replays an independent pair of devices.
///
/// # Errors
///
/// Propagates device errors (first failing point wins).
pub fn run(
    base: &HotnessRunConfig,
    points: &[(&str, u32, f64)],
    jobs: usize,
) -> Result<Fig14Result, DtlError> {
    let outcomes = crate::exec::run_units(jobs, points.to_vec(), |_, (label, ranks, frac)| {
        let cfg = HotnessRunConfig { active_ranks: ranks, allocated_fraction: frac, ..*base };
        let (_, on, saving) = hotness_savings(&cfg)?;
        Ok::<_, DtlError>(row(label, &cfg, &on, saving))
    });
    let mut rows = Vec::new();
    for outcome in outcomes {
        rows.push(outcome?);
    }
    Ok(Fig14Result { rows, scale: base.scale })
}

fn row(label: &str, cfg: &HotnessRunConfig, on: &HotnessRunResult, saving: f64) -> Fig14Row {
    Fig14Row {
        label: label.to_string(),
        active_ranks: cfg.active_ranks,
        allocated_fraction: cfg.allocated_fraction,
        additional_saving: saving,
        sr_residency: on.sr_residency,
        warmup_s: on.first_sr_entry.map(|t| t.as_secs_f64()),
        sr_exits: on.sr_exits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loose_allocation_saves_more_than_tight() {
        let base = HotnessRunConfig {
            accesses: 1_000_000,
            n_apps: 3,
            channels: 2,
            ..HotnessRunConfig::tiny(1, true)
        };
        let r = run(&base, &[("loose", 4, 0.55), ("tight", 4, 0.95)], 1).unwrap();
        assert_eq!(r.rows.len(), 2);
        let loose = &r.rows[0];
        let tight = &r.rows[1];
        assert!(
            loose.additional_saving >= tight.additional_saving - 1e-9,
            "loose {} vs tight {}",
            loose.additional_saving,
            tight.additional_saving
        );
        assert!(loose.additional_saving > 0.0, "loose must save: {loose:?}");
    }
}
