//! **Pool scale** (rack-scale extension, paper §7 outlook) — replay the
//! same synthesized VM schedule against a four-device memory pool under
//! every combination of placement policy (pack-for-power vs
//! spread-for-bandwidth) and pool-wide power coordination (on/off), and
//! report what cross-device consolidation buys: the headline is
//! pack+coordinator against the spread/no-coordinator baseline, the pool
//! analogue of DTL-vs-interleaved at device scale.

use serde::{Deserialize, Serialize};

use crate::{run_pool, Heartbeat, PoolRunConfig, PoolRunResult, RunObservations};
use dtl_core::DtlError;
use dtl_pool::PlacementPolicy;
use dtl_telemetry::Telemetry;

/// The four (policy, coordinator) variants, replayed in this order. The
/// first is the headline configuration and the only one traced.
pub const VARIANTS: [(PlacementPolicy, bool); 4] = [
    (PlacementPolicy::PackForPower, true),
    (PlacementPolicy::PackForPower, false),
    (PlacementPolicy::SpreadForBandwidth, true),
    (PlacementPolicy::SpreadForBandwidth, false),
];

/// One replayed variant of the pool schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolScaleVariant {
    /// Placement policy of this variant.
    pub policy: PlacementPolicy,
    /// Whether the pool-wide power coordinator ran.
    pub coordinator: bool,
    /// The replay outcome.
    pub result: PoolRunResult,
}

/// Combined result of the four variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolScaleResult {
    /// One entry per [`VARIANTS`] element, in that order.
    pub variants: Vec<PoolScaleVariant>,
    /// Energy saving of pack+coordinator over spread/no-coordinator.
    pub savings_fraction: f64,
}

impl PoolScaleResult {
    /// The headline pack+coordinator replay.
    pub fn headline(&self) -> &PoolRunResult {
        &self.variants[0].result
    }

    /// The spread/no-coordinator baseline replay.
    pub fn baseline(&self) -> &PoolRunResult {
        &self.variants[3].result
    }
}

/// Runs all four variants as parallel work units. Only the headline
/// pack+coordinator unit records telemetry (the variants are independent
/// pools whose timelines would not compose into one trace); per-unit
/// buffers merge back in unit order, so the emitted trace and the result
/// are bit-identical for any `jobs`. The returned [`RunObservations`] (SLO
/// report and event-spine queue counters) are the **headline** variant's.
/// The heartbeat ticks once per completed variant — wall-clock stderr
/// only, provably outside the result path.
///
/// # Errors
///
/// Propagates pool/device errors from any replay.
pub fn run(
    cfg: &PoolRunConfig,
    telemetry: &Telemetry,
    jobs: usize,
    heartbeat: &Heartbeat,
) -> Result<(PoolScaleResult, RunObservations), DtlError> {
    let total_units = VARIANTS.len() as u64;
    let outcomes = crate::exec::run_units_traced(
        jobs,
        telemetry,
        VARIANTS.to_vec(),
        |i, (policy, coord), t| {
            let mut variant = *cfg;
            variant.policy = policy;
            variant.coordinator = coord;
            let untraced = Telemetry::disabled();
            let (result, obs) = run_pool(&variant, if i == 0 { t } else { &untraced })?;
            heartbeat.tick(total_units);
            Ok::<_, DtlError>((PoolScaleVariant { policy, coordinator: coord, result }, obs))
        },
    );
    let (variants, obs): (Vec<_>, Vec<_>) =
        outcomes.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    let headline = variants[0].result.total_energy_mj;
    let baseline = variants[3].result.total_energy_mj;
    let savings_fraction = if baseline > 0.0 { 1.0 - headline / baseline } else { 0.0 };
    Ok((PoolScaleResult { variants, savings_fraction }, obs[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_with_coordinator_beats_spread_without() {
        let (r, _) =
            run(&PoolRunConfig::tiny(7), &Telemetry::disabled(), 1, &Heartbeat::disabled())
                .unwrap();
        assert_eq!(r.variants.len(), 4);
        assert!(
            r.savings_fraction > 0.0,
            "pool coordination must save energy: {}",
            r.savings_fraction
        );
        // Every variant places the same schedule.
        let placed = r.variants[0].result.vms_allocated;
        assert!(r.variants.iter().all(|v| v.result.vms_allocated == placed));
        // Only coordinator variants park devices.
        assert!(r.variants[0].result.stats.devices_parked > 0);
        assert_eq!(r.variants[1].result.stats.devices_parked, 0);
    }

    #[test]
    fn jobs_do_not_change_the_result() {
        let cfg = PoolRunConfig::tiny(11);
        let (a, _) = run(&cfg, &Telemetry::disabled(), 1, &Heartbeat::disabled()).unwrap();
        let (b, _) = run(&cfg, &Telemetry::disabled(), 4, &Heartbeat::disabled()).unwrap();
        assert_eq!(a, b);
    }
}
