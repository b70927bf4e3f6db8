//! The rank-level power-down experiment harness (paper §5.1, Figures 12,
//! 13, 15): replay a synthesized 6-hour VM schedule against a DTL device
//! and integrate DRAM power per 5-minute interval.
//!
//! Foreground traffic is accounted in bulk per epoch (the paper likewise
//! measures wall power, not per-access timing, for this experiment);
//! migration traffic and its energy go through the real migration engine.

use dtl_core::{
    AnalyticBackend, DtlConfig, DtlDevice, DtlError, HostId, MemoryBackend, SegmentGeometry,
};
use dtl_dram::{Picos, PowerParams, PowerReport, PowerState};
use dtl_event::QueueStats;
use dtl_telemetry::Telemetry;
use dtl_trace::{NodeConfig, VmSchedule};
use serde::{Deserialize, Serialize};

use crate::assert_residency_consistency;
use crate::scenario::{horizon, replay_epochs, Epoch, EpochHooks, Lane, EPOCH};

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
    let mut sampler = IntervalSampler {
        traffic: Foreground { cfg: *cfg, lines: 0 },
        moved_before: 0,
        migrating: false,
        prev_energy: 0.0,
        intervals: Vec::new(),
    };
    let replay = replay_schedule(cfg, telemetry, &mut (), &mut sampler)?;
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

/// The device every schedule replay drives.
pub(crate) type ScheduleDevice = DtlDevice<AnalyticBackend>;

/// The epoch hook every schedule replay needs: charges each epoch's
/// foreground traffic in bulk (the paper likewise measures wall power, not
/// per-access timing, for this experiment).
pub(crate) struct Foreground {
    pub cfg: PowerDownRunConfig,
    /// Foreground cache lines charged so far.
    pub lines: u64,
}

impl EpochHooks<ScheduleDevice> for Foreground {
    fn begin(&mut self, dev: &mut ScheduleDevice, epoch: &Epoch) -> Result<(), DtlError> {
        let cfg = &self.cfg;
        let bytes = f64::from(epoch.vcpus) * cfg.per_vcpu_bw * EPOCH.as_secs_f64();
        let lines = (bytes / 64.0) as u64;
        let reads = (lines as f64 * cfg.read_fraction) as u64;
        let writes = lines - reads;
        // Spread over active ranks (Figure 13: active power barely varies
        // with the rank count because the same traffic concentrates on
        // fewer ranks); none in standby means nothing carries the lines.
        let mut active: Vec<(u32, u32)> = Vec::new();
        for c in 0..cfg.channels {
            for r in 0..cfg.ranks_per_channel {
                if dev.backend().rank_state(c, r) == PowerState::Standby {
                    active.push((c, r));
                }
            }
        }
        let per = active.len() as u64;
        for &(c, r) in &active {
            dev.backend_mut().record_foreground_bulk(c, r, reads / per, writes / per);
        }
        if per > 0 {
            self.lines += lines;
        }
        Ok(())
    }
}

/// [`Foreground`] plus what only the plain replay does: integrate DRAM
/// power over each finished epoch into an [`IntervalSample`]. The faulted
/// replay must not — a per-epoch `power_report` re-associates the float
/// energy integration and moves its totals in the last digits.
struct IntervalSampler {
    traffic: Foreground,
    moved_before: u64,
    migrating: bool,
    prev_energy: f64,
    intervals: Vec<IntervalSample>,
}

impl EpochHooks<ScheduleDevice> for IntervalSampler {
    fn begin(&mut self, dev: &mut ScheduleDevice, epoch: &Epoch) -> Result<(), DtlError> {
        self.moved_before = dev.migration_stats().bytes_moved;
        self.migrating = false;
        self.traffic.begin(dev, epoch)
    }

    fn after_tick(&mut self, dev: &mut ScheduleDevice, _: Picos) {
        self.migrating |= dev.migrations_pending() > 0;
    }

    fn end(&mut self, dev: &mut ScheduleDevice, epoch: &Epoch) {
        let migration_bytes = dev.migration_stats().bytes_moved - self.moved_before;
        // Power over the epoch: energy delta [mJ] / time [s] = mW.
        let energy = dev.power_report(epoch.end).total.total_mj();
        let power_mw = (energy - self.prev_energy) / EPOCH.as_secs_f64();
        self.prev_energy = energy;
        self.intervals.push(IntervalSample {
            t_min: epoch.t_min,
            active_ranks: (0..self.traffic.cfg.channels).map(|c| dev.active_ranks(c)).sum(),
            power_mw,
            committed_bytes: epoch.committed_bytes,
            migrating: self.migrating || migration_bytes > 0,
            migration_bytes,
        });
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
}

/// The schedule replay shared by [`run_schedule`] and
/// [`run_faulted`](crate::run_faulted): build the device and hand it to
/// [`replay_epochs`] with the caller's side lane and epoch hooks.
pub(crate) fn replay_schedule<L: Lane<ScheduleDevice>, H: EpochHooks<ScheduleDevice>>(
    cfg: &PowerDownRunConfig,
    telemetry: &Telemetry,
    lane: &mut L,
    hooks: &mut H,
) -> Result<Replayed, DtlError> {
    let final_t = horizon(cfg.duration_min)?;
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
    let (_, queue) = replay_epochs(&mut dev, &schedule, cfg.hosts, lane, hooks)?;
    let report = dev.power_report(final_t);
    dev.check_invariants()?;
    assert_residency_consistency(&dev, &report);
    if let Some(m) = telemetry.metrics() {
        dev.export_metrics(m);
    }
    Ok(Replayed { dev, report, queue })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_horizon_that_wraps_picosecond_time_is_a_config_error() {
        // 307 446 min used to wrap to a ~4 s horizon after a full replay.
        let cfg = PowerDownRunConfig { duration_min: 307_446, ..PowerDownRunConfig::tiny(7, true) };
        let err = run_schedule(&cfg, &Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, DtlError::InvalidConfig { .. }), "{err:?}");
    }

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
