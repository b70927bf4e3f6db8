//! **Fault campaign** (reliability extension, paper §7 outlook) — replay
//! the Figure 12 VM schedule twice, fault-free and under a deterministic
//! fault load (background ECC noise, an error storm on one victim rank,
//! CXL link CRC corruption, migration interruptions), and report what the
//! faults cost: capacity lost to automatic rank retirement, the DRAM
//! energy delta, and the foreground latency penalty of link retries.

use serde::{Deserialize, Serialize};

use crate::{
    run_faulted, FaultRunConfig, FaultRunResult, Heartbeat, PowerDownRunConfig, RunObservations,
};
use dtl_core::DtlError;
use dtl_telemetry::Telemetry;

/// Combined result of the fault-free and faulted replays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignResult {
    /// The fault-free replay of the same schedule.
    pub baseline: FaultRunResult,
    /// The replay under fault load.
    pub faulted: FaultRunResult,
    /// Capacity permanently lost to rank retirement, bytes.
    pub capacity_lost_bytes: u64,
    /// That loss as a fraction of device capacity.
    pub capacity_lost_fraction: f64,
    /// DRAM energy delta of the faulted run vs baseline, mJ. Usually
    /// negative at partial load: a retired rank stops burning background
    /// power, though the pool also lost its capacity.
    pub energy_delta_mj: f64,
    /// Energy delta as a fraction of baseline energy.
    pub energy_delta_fraction: f64,
    /// Foreground latency penalty of link CRC retries, ns per cache line
    /// (the baseline's penalty is zero by construction).
    pub latency_penalty_ns: f64,
}

/// Runs the campaign: a quiet baseline and the faulted replay of the same
/// schedule seed, as two parallel work units.
///
/// Telemetry streams from the **faulted replay** only (the quiet baseline
/// stays untraced so its events do not interleave into the same timeline);
/// the faulted unit records into a per-unit buffer merged back in unit
/// order, so the emitted trace is bit-identical for any `jobs`. The
/// returned [`RunObservations`] are likewise the faulted replay's — its
/// SLO report is the one that matters (the baseline's latency carries no
/// retry penalty by construction). The heartbeat ticks once per completed
/// replay.
///
/// # Errors
///
/// Propagates device errors from either replay; an invariant violation
/// after any injected fault fails the faulted run.
pub fn run(
    cfg: &FaultRunConfig,
    telemetry: &Telemetry,
    jobs: usize,
    heartbeat: &Heartbeat,
) -> Result<(FaultCampaignResult, RunObservations), DtlError> {
    let mut outcomes =
        crate::exec::run_units_traced(jobs, telemetry, vec![false, true], |_, inject, t| {
            let out = if inject {
                run_faulted(cfg, t)
            } else {
                run_faulted(
                    &FaultRunConfig::fault_free(cfg.faults.seed, cfg.run),
                    &Telemetry::disabled(),
                )
            };
            heartbeat.tick(2);
            out
        });
    let (faulted, obs) = outcomes.pop().expect("two units")?;
    let (baseline, _) = outcomes.pop().expect("two units")?;
    let device_bytes = cfg.run.node.mem_bytes;
    let result = FaultCampaignResult {
        baseline,
        faulted,
        capacity_lost_bytes: faulted.capacity_lost_bytes,
        capacity_lost_fraction: faulted.capacity_lost_bytes as f64 / device_bytes as f64,
        energy_delta_mj: faulted.total_energy_mj - baseline.total_energy_mj,
        energy_delta_fraction: faulted.total_energy_mj / baseline.total_energy_mj - 1.0,
        latency_penalty_ns: faulted.latency_penalty_ns,
    };
    Ok((result, obs))
}

/// The paper-scale campaign: the Figure 12 schedule (6 h, 4×8 ranks) under
/// the storm fault load.
pub fn paper(seed: u64) -> FaultRunConfig {
    let run = PowerDownRunConfig::paper(seed, true);
    let mut cfg = FaultRunConfig::fault_free(seed, run);
    cfg.faults.correctable_per_rank_per_sec = 0.001;
    cfg.faults.link_crc_per_sec = 0.02;
    cfg.faults.link_crc_max_burst = 6;
    cfg.faults.migration_interrupts = 24;
    cfg.faults.storm = Some(dtl_fault::StormConfig {
        channel: 0,
        rank: 1,
        start: dtl_dram::Picos::from_secs(3600),
        events: 40,
        spacing: dtl_dram::Picos::from_ms(250),
        correctable_ratio: 0.8,
    });
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_quantifies_fault_cost() {
        let (r, _) =
            run(&FaultRunConfig::tiny_storm(7), &Telemetry::disabled(), 1, &Heartbeat::disabled())
                .unwrap();
        assert_eq!(r.baseline.faults_injected, 0);
        assert!(r.faulted.faults_injected > 0);
        assert_eq!(r.faulted.ranks_retired, 1, "the storm retires its victim");
        assert!(r.capacity_lost_fraction > 0.0 && r.capacity_lost_fraction < 0.5);
        assert_eq!(r.capacity_lost_bytes, r.faulted.capacity_lost_bytes);
        assert!(r.latency_penalty_ns >= 0.0);
        // Both runs place the same schedule (capacity loss may shed a
        // late-arriving VM, but never gains one).
        assert!(r.faulted.vms_allocated <= r.baseline.vms_allocated);
    }
}
