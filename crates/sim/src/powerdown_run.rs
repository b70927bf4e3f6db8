//! The rank-level power-down experiment harness (paper §5.1, Figures 12,
//! 13, 15): replay a synthesized 6-hour VM schedule against a DTL device
//! and integrate DRAM power per 5-minute interval.
//!
//! Foreground traffic is accounted in bulk per epoch (the paper likewise
//! measures wall power, not per-access timing, for this experiment);
//! migration traffic and its energy go through the real migration engine.

use dtl_core::{
    AnalyticBackend, DtlConfig, DtlDevice, DtlError, HostId, MemoryBackend, SegmentGeometry,
    VmHandle,
};
use dtl_dram::{Picos, PowerParams, PowerReport};
use dtl_event::{QueueStats, Simulation};
use dtl_telemetry::Telemetry;
use dtl_trace::{NodeConfig, VmEventKind, VmId, VmSchedule};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::assert_residency_consistency;
use crate::event_drive::{self, GridDriven};

/// Configuration of one schedule replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerDownRunConfig {
    /// Schedule seed.
    pub seed: u64,
    /// Schedule length in minutes (paper: 360).
    pub duration_min: u32,
    /// Hosting node (paper: 48 vCPU / 384 GB).
    pub node: NodeConfig,
    /// DRAM channels of the device (paper: 4).
    pub channels: u32,
    /// Ranks per channel (paper: 8 → 384 GB at 12 GiB/rank).
    pub ranks_per_channel: u32,
    /// Whether rank-level power-down is enabled (off = baseline).
    pub powerdown: bool,
    /// Compute hosts sharing the pool (VMs are assigned round-robin).
    pub hosts: u16,
    /// Foreground bandwidth per vCPU, bytes/s (drives active power).
    pub per_vcpu_bw: f64,
    /// Fraction of foreground traffic that is reads.
    pub read_fraction: f64,
}

impl PowerDownRunConfig {
    /// The paper's setup.
    pub fn paper(seed: u64, powerdown: bool) -> Self {
        PowerDownRunConfig {
            seed,
            duration_min: 360,
            node: NodeConfig::paper(),
            channels: 4,
            ranks_per_channel: 8,
            powerdown,
            hosts: 4,
            per_vcpu_bw: 650.0e6,
            read_fraction: 0.67,
        }
    }

    /// A fast, scaled-down variant for tests (160 GB node with 16 vCPUs —
    /// headroom comparable to the paper's ~42 % average usage).
    pub fn tiny(seed: u64, powerdown: bool) -> Self {
        PowerDownRunConfig {
            seed,
            duration_min: 60,
            node: NodeConfig { vcpus: 16, mem_bytes: 160 << 30 },
            channels: 2,
            ranks_per_channel: 4,
            powerdown,
            hosts: 2,
            per_vcpu_bw: 250.0e6,
            read_fraction: 0.67,
        }
    }

    /// Segments per rank implied by node capacity.
    pub fn segs_per_rank(&self, segment_bytes: u64) -> u64 {
        self.node.mem_bytes
            / (u64::from(self.channels) * u64::from(self.ranks_per_channel))
            / segment_bytes
    }
}

/// One 5-minute interval sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalSample {
    /// Interval start, minutes.
    pub t_min: u32,
    /// Active ranks over the whole device.
    pub active_ranks: u32,
    /// Mean DRAM power over the interval, milliwatts.
    pub power_mw: f64,
    /// Committed VM memory at interval start, bytes.
    pub committed_bytes: u64,
    /// Migration traffic in flight during the interval.
    pub migrating: bool,
    /// Segment bytes moved by migrations during the interval (the paper's
    /// Figure 12(a) red-line spikes).
    pub migration_bytes: u64,
}

/// Result of one schedule replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerDownRunResult {
    /// Per-interval samples.
    pub intervals: Vec<IntervalSample>,
    /// Total DRAM energy, millijoules.
    pub total_energy_mj: f64,
    /// Background share of the total.
    pub background_mj: f64,
    /// Active (event) share.
    pub active_mj: f64,
    /// Segments drained by power-down migrations.
    pub segments_drained: u64,
    /// Rank groups powered down over the run.
    pub groups_powered_down: u64,
    /// Rank groups woken for capacity.
    pub groups_woken: u64,
    /// VMs placed.
    pub vms_allocated: u64,
}

impl PowerDownRunResult {
    /// Mean power over the run in milliwatts.
    pub fn mean_power_mw(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|i| i.power_mw).sum::<f64>() / self.intervals.len() as f64
    }
}

/// Replays a VM schedule against a DTL device. The replay streams
/// `VmAlloc` / `VmDealloc` / `SegmentMigrated` / `RankPowerTransition`
/// events into `telemetry`'s sink and, if a metrics registry is attached,
/// exports every engine's statistics there at the end; callers that want
/// neither pass [`Telemetry::disabled`].
///
/// # Errors
///
/// Propagates device errors (these indicate bugs — the harness never
/// over-commits the device).
pub fn run_schedule(
    cfg: &PowerDownRunConfig,
    telemetry: &Telemetry,
) -> Result<PowerDownRunResult, DtlError> {
    let mut sampler =
        IntervalSampler { channels: cfg.channels, prev_energy: 0.0, intervals: Vec::new() };
    let replay = replay_schedule(cfg, telemetry, &mut sampler)?;
    let stats = replay.dev.powerdown_stats();
    Ok(PowerDownRunResult {
        intervals: sampler.intervals,
        total_energy_mj: replay.report.total.total_mj(),
        background_mj: replay.report.total.background_mj,
        active_mj: replay.report.total.active_mj(),
        segments_drained: stats.segments_drained,
        groups_powered_down: stats.groups_powered_down,
        groups_woken: stats.groups_woken,
        vms_allocated: replay.dev.stats().vms_allocated,
    })
}

/// Integrates DRAM power over each finished epoch into an
/// [`IntervalSample`].
struct IntervalSampler {
    channels: u32,
    prev_energy: f64,
    intervals: Vec<IntervalSample>,
}

impl ReplayHooks for IntervalSampler {
    fn epoch_end(&mut self, dev: &mut ScheduleDevice, epoch: &Epoch) {
        // Power over the epoch: energy delta [mJ] / time [s] = mW.
        let energy = dev.power_report(epoch.end).total.total_mj();
        let power_mw = (energy - self.prev_energy) / EPOCH.as_secs_f64();
        self.prev_energy = energy;
        self.intervals.push(IntervalSample {
            t_min: epoch.t_min,
            active_ranks: (0..self.channels).map(|c| dev.active_ranks(c)).sum(),
            power_mw,
            committed_bytes: epoch.committed_bytes,
            migrating: epoch.migrating || epoch.migration_bytes > 0,
            migration_bytes: epoch.migration_bytes,
        });
    }
}

/// The device every schedule replay drives.
pub(crate) type ScheduleDevice = DtlDevice<AnalyticBackend>;

/// Schedule events apply, and power is sampled, every 5 minutes.
const EPOCH: Picos = Picos::from_secs(300);
/// The legacy device tick grid inside an epoch.
const TICK_STEP: Picos = Picos::from_secs(10);

/// One finished epoch, as [`ReplayHooks::epoch_end`] sees it.
pub(crate) struct Epoch {
    /// Epoch start, minutes.
    pub t_min: u32,
    /// Epoch end instant.
    pub end: Picos,
    /// Committed VM memory over the epoch, bytes.
    pub committed_bytes: u64,
    /// Whether any tick of the epoch saw migrations queued or in flight.
    pub migrating: bool,
    /// Segment bytes moved by migrations during the epoch.
    pub migration_bytes: u64,
}

/// Everything the plain and the faulted schedule replay do differently:
/// the faulted one fires exactly-timed work on the event spine's side
/// lane, the plain one samples power at every epoch end.
pub(crate) trait ReplayHooks {
    /// Next side-lane instant, if any.
    fn side_deadline(&mut self) -> Option<Picos> {
        None
    }

    /// Releases all side-lane work due at `now`.
    fn side_fire(&mut self, dev: &mut ScheduleDevice, now: Picos) -> Result<(), DtlError> {
        let _ = (dev, now);
        Ok(())
    }

    /// Called once per epoch after its last tick.
    fn epoch_end(&mut self, dev: &mut ScheduleDevice, epoch: &Epoch) {
        let _ = (dev, epoch);
    }
}

/// What [`replay_schedule`] leaves behind.
pub(crate) struct Replayed {
    /// The device at the horizon, invariants checked.
    pub dev: ScheduleDevice,
    /// Its power report at the horizon.
    pub report: PowerReport,
    /// Event-spine counters of the replay's one clock.
    pub queue: QueueStats,
    /// Foreground cache lines charged over the run.
    pub foreground_lines: u64,
}

/// The schedule replay shared by [`run_schedule`] and
/// [`run_faulted`](crate::run_faulted): build the device, apply each
/// epoch's VM events, charge its foreground traffic in bulk, and drive
/// the tick grid (plus the hooks' side lane) through one event-spine
/// clock.
pub(crate) fn replay_schedule<H: ReplayHooks>(
    cfg: &PowerDownRunConfig,
    telemetry: &Telemetry,
    hooks: &mut H,
) -> Result<Replayed, DtlError> {
    let dtl_cfg = DtlConfig::paper();
    let geo = SegmentGeometry {
        channels: cfg.channels,
        ranks_per_channel: cfg.ranks_per_channel,
        segs_per_rank: cfg.segs_per_rank(dtl_cfg.segment_bytes),
    };
    let backend = AnalyticBackend::new(geo, dtl_cfg.segment_bytes, PowerParams::ddr4_128gb_dimm());
    let mut dev = DtlDevice::new(dtl_cfg, backend);
    dev.set_telemetry(telemetry.clone());
    dev.set_hotness_enabled(false);
    dev.set_powerdown_enabled(cfg.powerdown);
    for h in 0..cfg.hosts.max(1) {
        dev.register_host(HostId(h))?;
    }

    let schedule = VmSchedule::synthesize(cfg.seed, cfg.node, cfg.duration_min);
    let mut handles: HashMap<VmId, (VmHandle, u32, u64)> = HashMap::new();
    let mut committed: u64 = 0;
    let mut vcpus_active: u32 = 0;
    let mut foreground_lines = 0u64;
    let mut events = schedule.events().iter().peekable();
    // One event-spine clock for the whole replay; each epoch drains its
    // posted tick cascade on the legacy grid (see `event_drive`).
    let mut sim = Simulation::new(Picos::ZERO);

    let mut t_min = 0u32;
    while t_min < cfg.duration_min {
        let t_start = Picos::from_secs(u64::from(t_min) * 60);
        // Apply the schedule events of this instant.
        while let Some(ev) = events.next_if(|ev| ev.at_min <= t_min) {
            match ev.kind {
                VmEventKind::Alloc(vm) => {
                    // VMs land round-robin on the pool's compute hosts. AU
                    // rounding and fault-driven capacity loss can both push
                    // a schedule at the node's capacity edge over it; such
                    // VMs are skipped (the real cluster scheduler would
                    // place them elsewhere).
                    let host = HostId((vm.id.0 % u32::from(cfg.hosts.max(1))) as u16);
                    match dev.alloc_vm(host, vm.mem_bytes, t_start) {
                        Ok(alloc) => {
                            committed += vm.mem_bytes;
                            vcpus_active += vm.vcpus;
                            handles.insert(vm.id, (alloc.handle, vm.vcpus, vm.mem_bytes));
                        }
                        Err(DtlError::OutOfCapacity { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                VmEventKind::Dealloc(id) => {
                    if let Some((h, vcpus, bytes)) = handles.remove(&id) {
                        dev.dealloc_vm(h, t_start)?;
                        committed -= bytes;
                        vcpus_active -= vcpus;
                    }
                }
            }
        }
        // Bulk foreground energy for this epoch, spread over active ranks.
        foreground_lines += record_epoch_traffic(&mut dev, cfg, vcpus_active);
        // Let migrations progress through the epoch.
        let moved_before = dev.migration_stats().bytes_moved;
        let end = t_start + EPOCH;
        let mut client = EpochClient { dev: &mut dev, hooks: &mut *hooks, migrating: false };
        event_drive::drive_epoch(&mut sim, &mut client, t_start, end, TICK_STEP)?;
        let migrating = client.migrating;
        let migration_bytes = dev.migration_stats().bytes_moved - moved_before;
        let epoch = Epoch { t_min, end, committed_bytes: committed, migrating, migration_bytes };
        hooks.epoch_end(&mut dev, &epoch);
        t_min += 5;
    }
    let final_t = Picos::from_secs(u64::from(cfg.duration_min) * 60);
    let report = dev.power_report(final_t);
    dev.check_invariants()?;
    assert_residency_consistency(&dev, &report);
    if let Some(m) = telemetry.metrics() {
        dev.export_metrics(m);
    }
    Ok(Replayed { dev, report, queue: sim.queue_stats(), foreground_lines })
}

/// One epoch of the schedule replay as the event spine's grid client:
/// grid ticks advance the device, the side lane belongs to the hooks.
struct EpochClient<'x, H> {
    dev: &'x mut ScheduleDevice,
    hooks: &'x mut H,
    migrating: bool,
}

impl<H: ReplayHooks> GridDriven for EpochClient<'_, H> {
    type Error = DtlError;

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        self.dev.tick(now)?;
        self.migrating |= self.dev.migrations_pending() > 0;
        Ok(())
    }

    fn side_deadline(&mut self) -> Option<Picos> {
        self.hooks.side_deadline()
    }

    fn side_fire(&mut self, now: Picos) -> Result<(), DtlError> {
        self.hooks.side_fire(self.dev, now)
    }
}

/// Charges one epoch of foreground traffic in bulk and returns the cache
/// lines it carried (zero when no rank is in standby to take them).
fn record_epoch_traffic(dev: &mut ScheduleDevice, cfg: &PowerDownRunConfig, vcpus: u32) -> u64 {
    let bytes = f64::from(vcpus) * cfg.per_vcpu_bw * EPOCH.as_secs_f64();
    let lines = (bytes / 64.0) as u64;
    let reads = (lines as f64 * cfg.read_fraction) as u64;
    let writes = lines - reads;
    // Spread over active ranks (Figure 13: active power barely varies with
    // the rank count because the same traffic concentrates on fewer ranks).
    let mut active: Vec<(u32, u32)> = Vec::new();
    for c in 0..cfg.channels {
        for r in 0..cfg.ranks_per_channel {
            if dev.backend().rank_state(c, r) == dtl_dram::PowerState::Standby {
                active.push((c, r));
            }
        }
    }
    if active.is_empty() {
        return 0;
    }
    let per = active.len() as u64;
    for (c, r) in active {
        dev.backend_mut().record_foreground_bulk(c, r, reads / per, writes / per);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_vs_powerdown_energy() {
        let base =
            run_schedule(&PowerDownRunConfig::tiny(7, false), &Telemetry::disabled()).unwrap();
        let dtl = run_schedule(&PowerDownRunConfig::tiny(7, true), &Telemetry::disabled()).unwrap();
        assert_eq!(base.vms_allocated, dtl.vms_allocated, "same schedule");
        assert!(dtl.groups_powered_down > 0, "power-down must trigger");
        let saving = 1.0 - dtl.total_energy_mj / base.total_energy_mj;
        assert!(
            saving > 0.10 && saving < 0.75,
            "expected substantial energy savings, got {saving}"
        );
        // Background is where the savings come from.
        assert!(dtl.background_mj < base.background_mj);
    }

    #[test]
    fn intervals_cover_schedule() {
        let cfg = PowerDownRunConfig::tiny(3, true);
        let r = run_schedule(&cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(r.intervals.len(), (cfg.duration_min / 5) as usize);
        assert!(r.intervals.iter().all(|i| i.power_mw > 0.0));
        // Active ranks never exceed the device size.
        let max = cfg.channels * cfg.ranks_per_channel;
        assert!(r.intervals.iter().all(|i| i.active_ranks <= max));
    }

    #[test]
    fn baseline_keeps_all_ranks_active() {
        let cfg = PowerDownRunConfig::tiny(3, false);
        let r = run_schedule(&cfg, &Telemetry::disabled()).unwrap();
        let max = cfg.channels * cfg.ranks_per_channel;
        assert!(r.intervals.iter().all(|i| i.active_ranks == max));
        assert_eq!(r.groups_powered_down, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_schedule(&PowerDownRunConfig::tiny(11, true), &Telemetry::disabled()).unwrap();
        let b = run_schedule(&PowerDownRunConfig::tiny(11, true), &Telemetry::disabled()).unwrap();
        assert_eq!(a.total_energy_mj, b.total_energy_mj);
        assert_eq!(a.groups_powered_down, b.groups_powered_down);
    }
}
