//! **Pool failover** (rack-scale reliability, paper §7 outlook) — a batch
//! of seeded device-retirement campaigns against the pool: each campaign
//! replays the VM schedule while the fault plan retires one or two whole
//! devices mid-run (on top of background ECC noise and link CRC
//! corruption), and a reachability sweep after every retirement plus at
//! the end counts allocation units no access can reach. The acceptance
//! criterion is zero lost AUs across the whole batch.

use serde::{Deserialize, Serialize};

use crate::exec::derive_seed;
use crate::{run_pool_faulted, PoolFaultRunConfig, PoolFaultRunResult, PoolRunConfig};
use dtl_core::DtlError;

/// One seeded retirement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailoverCampaign {
    /// Derived campaign seed (schedule and fault plan).
    pub seed: u64,
    /// Whole-device retirements scheduled.
    pub retirements: u16,
    /// The faulted replay outcome.
    pub result: PoolFaultRunResult,
}

/// Result of the campaign batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolFailoverResult {
    /// One entry per campaign, in seed-derivation order.
    pub campaigns: Vec<FailoverCampaign>,
    /// Allocation units lost across every campaign — must be zero.
    pub total_lost_aus: u64,
    /// Devices retired across every campaign.
    pub total_devices_retired: u64,
    /// Health-driven failovers tripped across every campaign.
    pub total_failovers: u64,
    /// Shard evacuations completed across every campaign.
    pub total_evacuations: u64,
    /// Segments moved by those evacuations.
    pub total_segments_evacuated: u64,
}

/// Runs `campaigns` retirement campaigns as parallel work units sharded
/// across `jobs` workers. Campaign `i` uses the SplitMix64-derived seed
/// `derive_seed(base.seed, i)` and schedules `1 + i % 2` retirements, so
/// the batch alternates single and double device losses. Campaigns are
/// independent replays; results assemble in campaign order, so the output
/// is bit-identical for any `jobs`.
///
/// # Errors
///
/// Propagates pool/device errors; an invariant violation after any
/// injected fault fails its campaign and the batch.
pub fn run(
    base: &PoolRunConfig,
    campaigns: u64,
    jobs: usize,
) -> Result<PoolFailoverResult, DtlError> {
    let units: Vec<u64> = (0..campaigns).collect();
    let outcomes = crate::exec::run_units(jobs, units, |_, i| {
        let seed = derive_seed(base.seed, i);
        let retirements = 1 + (i % 2) as u16;
        let mut run = *base;
        run.seed = seed;
        let cfg = PoolFaultRunConfig::retirement_campaign(seed, run, retirements);
        let result = run_pool_faulted(&cfg, &dtl_telemetry::Telemetry::disabled())?;
        Ok::<_, DtlError>(FailoverCampaign { seed, retirements, result })
    });
    let mut out = PoolFailoverResult {
        campaigns: Vec::with_capacity(campaigns as usize),
        total_lost_aus: 0,
        total_devices_retired: 0,
        total_failovers: 0,
        total_evacuations: 0,
        total_segments_evacuated: 0,
    };
    for outcome in outcomes {
        let c = outcome?;
        out.total_lost_aus += c.result.lost_aus;
        out.total_devices_retired += c.result.devices_retired;
        out.total_failovers += c.result.failovers;
        out.total_evacuations += c.result.evacuations_completed;
        out.total_segments_evacuated += c.result.segments_evacuated;
        out.campaigns.push(c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batch_loses_nothing() {
        let r = run(&PoolRunConfig::tiny(7), 3, 1).unwrap();
        assert_eq!(r.campaigns.len(), 3);
        assert_eq!(r.total_lost_aus, 0, "no allocation unit may ever be lost");
        assert_eq!(r.total_devices_retired, 1 + 2 + 1, "alternating 1/2 retirements");
        assert!(r.total_evacuations > 0, "retirements force evacuations");
        // Distinct derived seeds.
        assert_ne!(r.campaigns[0].seed, r.campaigns[1].seed);
    }

    #[test]
    fn jobs_do_not_change_the_batch() {
        let base = PoolRunConfig::tiny(5);
        let a = run(&base, 2, 1).unwrap();
        let b = run(&base, 2, 2).unwrap();
        assert_eq!(a, b);
    }
}
