//! Out-of-band observability bundles the campaign harnesses return
//! **beside** their frozen result structs.
//!
//! The serialized results (`PoolRunResult`, `FaultRunResult`,
//! `VmCampaignResult`, …) are pinned by goldens and replay tooling, so new
//! observability never lands inside them. Instead each campaign harness
//! returns its plain result plus a [`RunObservations`]: the SLO report and
//! the event-spine queue counters, which the experiment registry renders
//! and exports without touching a golden byte.

use dtl_event::QueueStats;
use dtl_telemetry::{MetricsRegistry, SloReport};

/// What a campaign replay observed about itself, out-of-band from its
/// serialized result.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunObservations {
    /// Latency/backlog SLO populations the harness instruments.
    pub slo: SloReport,
    /// Event-spine queue counters, summed over every simulation the run
    /// drove (per-epoch spines, per-host spines).
    pub queue: QueueStats,
}

/// Dumps event-spine queue counters into a metrics registry under the
/// `sim.queue.*` namespace.
///
/// Counts use `set` (the stats are already totals); when per-unit
/// registries later merge, counts sum and only one unit exports per run,
/// so the merged dump equals the sequential one.
pub fn export_queue_metrics(m: &MetricsRegistry, qs: &QueueStats) {
    m.counter("sim.queue.posted").set(qs.posted);
    m.counter("sim.queue.cancelled").set(qs.cancelled);
    m.counter("sim.queue.popped").set(qs.popped);
    m.counter("sim.queue.depth_high_water").set(qs.depth_high_water);
    m.counter("sim.queue.tombstones_high_water").set(qs.tombstones_high_water);
    m.counter("sim.queue.tombstone_ratio_ppm").set((qs.tombstone_ratio() * 1e6) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_metrics_land_under_the_sim_namespace() {
        let m = MetricsRegistry::new();
        let qs = QueueStats {
            posted: 10,
            cancelled: 4,
            popped: 6,
            depth_high_water: 3,
            tombstones_high_water: 2,
        };
        export_queue_metrics(&m, &qs);
        assert_eq!(m.counter("sim.queue.posted").get(), 10);
        assert_eq!(m.counter("sim.queue.cancelled").get(), 4);
        assert_eq!(m.counter("sim.queue.tombstone_ratio_ppm").get(), 400_000);
    }
}
