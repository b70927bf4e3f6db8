//! The rack-scale pool experiment harness: replay a synthesized VM
//! schedule against a [`MemoryPool`] of DTL devices and integrate DRAM
//! power per 5-minute interval — the cross-device extension of the
//! Figure 12 replay — plus a faulted variant that overlays a
//! [`PoolFaultPlan`](dtl_fault::PoolFaultPlan) with whole-device losses.
//!
//! As in the single-device harnesses, foreground traffic is accounted in
//! bulk per epoch; a deterministic trickle of pool-level accesses
//! additionally exercises the per-device CXL links so their round-trip and
//! retry accounting shows up in the results.

use dtl_core::{DtlConfig, DtlError, HealthStats, HostId, MemoryBackend};
use dtl_cxl::LinkRetryStats;
use dtl_dram::{AccessKind, Picos, PowerPolicyKind};
use dtl_event::QueueStats;
use dtl_fault::{FaultPlanConfig, PoolFaultInjector, PoolFaultKind, PoolFaultPlanConfig};
use dtl_pool::{
    AnalyticMemoryPool, CoordState, DeviceId, MemoryPool, PlacementPolicy, PoolConfig, PoolStats,
};
use dtl_telemetry::Telemetry;
use dtl_trace::{NodeConfig, VmSchedule};
use serde::{Deserialize, Serialize};

use crate::scenario::{horizon, replay_epochs, Epoch, EpochHooks, Lane, EPOCH};
use crate::{apply_device_fault, AppliedFault, RunObservations};

/// Configuration of one pool schedule replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolRunConfig {
    /// Schedule seed.
    pub seed: u64,
    /// Schedule length in minutes.
    pub duration_min: u32,
    /// The whole-pool node the VM schedule is synthesized for; its memory
    /// is split evenly across the member devices.
    pub node: NodeConfig,
    /// Member devices.
    pub devices: u16,
    /// Channels per device.
    pub channels: u32,
    /// Ranks per channel per device.
    pub ranks_per_channel: u32,
    /// Placement policy for VM admission.
    pub policy: PlacementPolicy,
    /// Whether the pool-wide power coordinator is enabled.
    pub coordinator: bool,
    /// Compute hosts sharing the pool (VMs are assigned round-robin).
    pub hosts: u16,
    /// Foreground bandwidth per vCPU, bytes/s (drives active power).
    pub per_vcpu_bw: f64,
    /// Fraction of foreground traffic that is reads.
    pub read_fraction: f64,
    /// Per-device rank power-management policy.
    pub power_policy: PowerPolicyKind,
    /// Translated reads per live VM per epoch in the access trickle. At 1
    /// every access is a cold touch (worst case for wake latency); larger
    /// bursts amortize any low-power exit over the burst, as a cache-line
    /// stream through one AU would.
    pub trickle_burst: u64,
}

impl PoolRunConfig {
    /// Paper-scale pool: four Figure 12 nodes (4x8 ranks, 384 GiB each)
    /// behind one orchestrator.
    pub fn paper(seed: u64) -> Self {
        PoolRunConfig {
            seed,
            duration_min: 360,
            node: NodeConfig { vcpus: 4 * 48, mem_bytes: 4 * (384 << 30) },
            devices: 4,
            channels: 4,
            ranks_per_channel: 8,
            policy: PlacementPolicy::PackForPower,
            coordinator: true,
            hosts: 4,
            per_vcpu_bw: 650.0e6,
            read_fraction: 0.67,
            power_policy: PowerPolicyKind::FixedThreshold,
            trickle_burst: 1,
        }
    }

    /// A fast, scaled-down pool for tests: four 40 GiB devices (2x4 ranks)
    /// serving a 160 GB schedule.
    pub fn tiny(seed: u64) -> Self {
        PoolRunConfig {
            seed,
            duration_min: 60,
            node: NodeConfig { vcpus: 16, mem_bytes: 160 << 30 },
            devices: 4,
            channels: 2,
            ranks_per_channel: 4,
            policy: PlacementPolicy::PackForPower,
            coordinator: true,
            hosts: 2,
            per_vcpu_bw: 250.0e6,
            read_fraction: 0.67,
            power_policy: PowerPolicyKind::FixedThreshold,
            trickle_burst: 1,
        }
    }

    /// The derived [`PoolConfig`]: paper DTL parameters (2 MiB segments,
    /// 2 GiB allocation units) over the node's capacity split across the
    /// member devices.
    pub fn pool_config(&self) -> PoolConfig {
        let dtl = DtlConfig::paper();
        let mut cfg = PoolConfig::paper(self.devices);
        cfg.channels = self.channels;
        cfg.ranks_per_channel = self.ranks_per_channel;
        cfg.segs_per_rank = self.node.mem_bytes
            / u64::from(self.devices)
            / (u64::from(self.channels) * u64::from(self.ranks_per_channel))
            / dtl.segment_bytes;
        cfg.policy = self.policy;
        cfg.coordinator.enabled = self.coordinator;
        cfg.dtl.power_policy = self.power_policy;
        cfg
    }
}

/// One 5-minute interval sample of a pool replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolIntervalSample {
    /// Interval start, minutes.
    pub t_min: u32,
    /// Devices in the coordinator's `Active` state at interval end.
    pub active_devices: u32,
    /// Devices parked by the coordinator at interval end.
    pub parked_devices: u32,
    /// Mean DRAM power over the interval across the whole pool, milliwatts.
    pub power_mw: f64,
    /// Committed VM memory at interval start, bytes.
    pub committed_bytes: u64,
    /// Shard evacuations in flight at interval end.
    pub evacuations_in_flight: u64,
}

/// Result of one pool schedule replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolRunResult {
    /// Per-interval samples.
    pub intervals: Vec<PoolIntervalSample>,
    /// Total DRAM energy across the pool, millijoules.
    pub total_energy_mj: f64,
    /// Background share of the total.
    pub background_mj: f64,
    /// Active (event) share.
    pub active_mj: f64,
    /// VMs placed.
    pub vms_allocated: u64,
    /// VM admissions rejected for capacity.
    pub vms_rejected: u64,
    /// Mapped segments pool-wide at the end of the run.
    pub mapped_segments: u64,
    /// Aggregate pool statistics (evacuations, parks, wakes, failovers).
    pub stats: PoolStats,
    /// Error-health counters summed over every device.
    pub errors: HealthStats,
    /// Link retry totals summed over every device's CXL attachment.
    pub link: LinkRetryStats,
}

impl PoolRunResult {
    /// Mean power over the run in milliwatts.
    pub fn mean_power_mw(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|i| i.power_mw).sum::<f64>() / self.intervals.len() as f64
    }

    /// Mean coordinator-active device count over the run.
    pub fn mean_active_devices(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|i| f64::from(i.active_devices)).sum::<f64>()
            / self.intervals.len() as f64
    }
}

/// Replays a VM schedule against a memory pool. Every member device
/// streams its events into `telemetry` through a channel-offset shim
/// (device *i* maps to channels `i * channels ..`), so the merged trace
/// renders one Perfetto track group per device.
///
/// Beside the serialized [`PoolRunResult`] (pinned by goldens) come the
/// out-of-band [`RunObservations`]: the pool's SLO report (access,
/// admission, evacuation backlog) and the event spine's queue counters.
///
/// # Errors
///
/// Propagates device and pool errors (these indicate bugs — the harness
/// never over-commits the pool).
pub fn run_pool(
    cfg: &PoolRunConfig,
    telemetry: &Telemetry,
) -> Result<(PoolRunResult, RunObservations), DtlError> {
    let replay = PoolReplay::run(cfg, telemetry, &mut ())?;
    // The SLO snapshot is taken before `finish` closes the books.
    let obs = RunObservations { slo: replay.pool.slo_report(), queue: replay.queue };
    Ok((replay.finish(telemetry)?, obs))
}

/// A pool at the end of its schedule replay, books still open.
struct PoolReplay {
    pool: AnalyticMemoryPool,
    /// The end of the schedule.
    final_t: Picos,
    intervals: Vec<PoolIntervalSample>,
    vms_rejected: u64,
    queue: QueueStats,
}

impl PoolReplay {
    /// Builds the pool and replays the schedule against it, `lane` riding
    /// along.
    fn run<L: Lane<AnalyticMemoryPool>>(
        cfg: &PoolRunConfig,
        telemetry: &Telemetry,
        lane: &mut L,
    ) -> Result<Self, DtlError> {
        let final_t = horizon(cfg.duration_min)?;
        let mut pool = MemoryPool::analytic(cfg.pool_config())?;
        pool.set_telemetry(telemetry.clone());
        for i in 0..cfg.devices {
            let dev = pool.device_mut(DeviceId(i)).expect("configured device");
            dev.set_hotness_enabled(false);
            dev.set_powerdown_enabled(true);
        }
        for h in 0..cfg.hosts.max(1) {
            pool.register_host(HostId(h))?;
        }
        let schedule = VmSchedule::synthesize(cfg.seed, cfg.node, cfg.duration_min);
        let mut sampler = PoolSampler { cfg: *cfg, prev_energy: 0.0, intervals: Vec::new() };
        let (tenants, queue) = replay_epochs(&mut pool, &schedule, cfg.hosts, lane, &mut sampler)?;
        Ok(PoolReplay {
            pool,
            final_t,
            intervals: sampler.intervals,
            vms_rejected: tenants.rejected(),
            queue,
        })
    }

    fn finish(mut self, telemetry: &Telemetry) -> Result<PoolRunResult, DtlError> {
        let energy = self.pool.pool_energy(self.final_t);
        self.pool.check_invariants()?;
        if let Some(m) = telemetry.metrics() {
            self.pool.export_metrics(m);
            crate::export_queue_metrics(m, &self.queue);
        }
        let snap = self.pool.snapshot();
        Ok(PoolRunResult {
            intervals: self.intervals,
            total_energy_mj: energy.total_mj(),
            background_mj: energy.background_mj,
            active_mj: energy.active_mj(),
            vms_allocated: snap.stats.admitted_vms,
            vms_rejected: self.vms_rejected,
            mapped_segments: snap.mapped_segments,
            stats: snap.stats,
            errors: snap.errors,
            link: snap.link,
        })
    }
}

/// The pool replay's epoch hook: bulk foreground traffic and a
/// deterministic access trickle at each epoch's start, one
/// [`PoolIntervalSample`] at its end.
struct PoolSampler {
    cfg: PoolRunConfig,
    prev_energy: f64,
    intervals: Vec<PoolIntervalSample>,
}

impl EpochHooks<AnalyticMemoryPool> for PoolSampler {
    fn begin(&mut self, pool: &mut AnalyticMemoryPool, epoch: &Epoch) -> Result<(), DtlError> {
        self.record_epoch_traffic(pool, epoch);
        self.access_trickle(pool, epoch)
    }

    fn end(&mut self, pool: &mut AnalyticMemoryPool, epoch: &Epoch) {
        let energy = pool.pool_energy(epoch.end).total_mj();
        let power_mw = (energy - self.prev_energy) / EPOCH.as_secs_f64();
        self.prev_energy = energy;
        let snap = pool.snapshot();
        let count =
            |state: CoordState| snap.devices.iter().filter(|d| d.coord == state).count() as u32;
        self.intervals.push(PoolIntervalSample {
            t_min: epoch.t_min,
            active_devices: count(CoordState::Active),
            parked_devices: count(CoordState::Parked),
            power_mw,
            committed_bytes: epoch.committed_bytes,
            evacuations_in_flight: snap.evacuations_pending as u64,
        });
    }
}

impl PoolSampler {
    /// Bulk foreground energy for this epoch, split across every
    /// data-retaining rank of the pool (the traffic concentrates wherever
    /// data lives). MPSM-parked ranks hold no data and carry none of it;
    /// ranks a ladder policy has demoted to a shallow state or self-refresh
    /// still do — the bulk charge is an epoch-level approximation that does
    /// not wake them, but it does reset their policy idle clocks.
    fn record_epoch_traffic(&self, pool: &mut AnalyticMemoryPool, epoch: &Epoch) {
        let bytes = f64::from(epoch.vcpus) * self.cfg.per_vcpu_bw * EPOCH.as_secs_f64();
        let lines = (bytes / 64.0) as u64;
        let reads = (lines as f64 * self.cfg.read_fraction) as u64;
        let writes = lines - reads;
        let mut active: Vec<(u16, u32, u32)> = Vec::new();
        for i in 0..self.cfg.devices {
            let dev = pool.device(DeviceId(i)).expect("configured device");
            for c in 0..self.cfg.channels {
                for r in 0..self.cfg.ranks_per_channel {
                    if dev.backend().rank_state(c, r).retains_data() {
                        active.push((i, c, r));
                    }
                }
            }
        }
        let per = active.len() as u64;
        for (i, c, r) in active {
            let dev = pool.device_mut(DeviceId(i)).expect("configured device");
            dev.backend_mut().record_foreground_bulk(c, r, reads / per, writes / per);
            dev.note_rank_traffic(c, r, epoch.start);
        }
    }

    /// `trickle_burst` translated reads per live VM per epoch, starting at
    /// a rotating AU offset: keeps the per-device CXL links and the SMC
    /// path exercised without simulating per-line traffic. The first read
    /// of a burst pays any low-power exit the target rank is in; the rest
    /// of the burst rides the woken rank, so larger bursts dilute wake
    /// latency in the access SLO population exactly as a streaming
    /// workload would.
    fn access_trickle(&self, pool: &mut AnalyticMemoryPool, epoch: &Epoch) -> Result<(), DtlError> {
        let au = pool.config().dtl.au_bytes;
        let round = u64::from(epoch.t_min) / 5;
        let burst = self.cfg.trickle_burst.max(1);
        for vm in pool.vm_ids() {
            let bytes = pool.vm_bytes(vm).expect("listed VM is live");
            let aus = (bytes / au).max(1);
            let base = (round % aus) * au;
            for k in 0..burst {
                let offset = base + (k * 64) % au;
                pool.access(vm, offset, AccessKind::Read, epoch.start)?;
            }
        }
        Ok(())
    }
}

/// Configuration of one faulted pool replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolFaultRunConfig {
    /// The underlying pool replay.
    pub run: PoolRunConfig,
    /// The pool-level fault schedule. Its geometry must match `run`.
    pub faults: PoolFaultPlanConfig,
}

impl PoolFaultRunConfig {
    /// A fault-free pool replay (quiet plan). A `run.duration_min` that
    /// wraps picosecond time gets a zero-length plan here;
    /// [`run_pool_faulted`] refuses the configuration itself.
    pub fn fault_free(seed: u64, run: PoolRunConfig) -> Self {
        let duration = horizon(run.duration_min).unwrap_or(Picos::ZERO);
        let per_device =
            FaultPlanConfig::quiet(seed, duration, run.channels, run.ranks_per_channel);
        PoolFaultRunConfig {
            run,
            faults: PoolFaultPlanConfig::quiet(seed, run.devices, per_device),
        }
    }

    /// A device-retirement campaign: background ECC noise and link CRC
    /// corruption on every device, plus `retirements` whole-device losses
    /// spread over the middle of the horizon.
    pub fn retirement_campaign(seed: u64, run: PoolRunConfig, retirements: u16) -> Self {
        let mut cfg = PoolFaultRunConfig::fault_free(seed, run);
        cfg.faults.per_device.correctable_per_rank_per_sec = 0.001;
        cfg.faults.per_device.link_crc_per_sec = 0.02;
        cfg.faults.per_device.link_crc_max_burst = 4;
        cfg.faults.device_retirements = retirements;
        cfg
    }
}

/// Result of one faulted pool replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolFaultRunResult {
    /// Total DRAM energy across the pool, millijoules.
    pub total_energy_mj: f64,
    /// VMs placed.
    pub vms_allocated: u64,
    /// Faults injected over the run (device-local and retirements).
    pub faults_injected: u64,
    /// Whole devices retired by the plan.
    pub devices_retired: u64,
    /// Health-driven failovers tripped by rank-health thresholds.
    pub failovers: u64,
    /// Shard evacuations completed.
    pub evacuations_completed: u64,
    /// Segments moved by completed evacuations.
    pub segments_evacuated: u64,
    /// Allocation units found unreachable by the sweeps after each
    /// retirement and at the end of the run — the zero-loss criterion.
    pub lost_aus: u64,
    /// Pool-wide error counters at the end of the run.
    pub errors: HealthStats,
    /// Link retry totals summed over every device.
    pub link: LinkRetryStats,
    /// Aggregate pool statistics.
    pub stats: PoolStats,
}

/// Replays a VM schedule against a pool while a deterministic pool-level
/// fault plan fires device faults and whole-device retirements into the
/// run. After every fault the pool's `check_invariants` is asserted, and
/// after every retirement (plus at the end) a full reachability sweep
/// counts lost allocation units. Telemetry streams as in [`run_pool`].
///
/// # Errors
///
/// Propagates device and pool errors; an invariant violation after any
/// injected fault surfaces here.
pub fn run_pool_faulted(
    cfg: &PoolFaultRunConfig,
    telemetry: &Telemetry,
) -> Result<PoolFaultRunResult, DtlError> {
    // Before the plan is generated: its event count grows with its span.
    horizon(cfg.run.duration_min)?;
    let injector = cfg.faults.generate().injector();
    let mut lane = PoolFaultLane { injector, faults_injected: 0, lost_aus: 0 };
    let mut replay = PoolReplay::run(&cfg.run, telemetry, &mut lane)?;
    // The final sweep issues accesses, so it runs before `finish` reads
    // the pool's energy.
    lane.lost_aus += count_unreachable(&mut replay.pool, replay.final_t);
    let run = replay.finish(telemetry)?;
    Ok(PoolFaultRunResult {
        total_energy_mj: run.total_energy_mj,
        vms_allocated: run.vms_allocated,
        faults_injected: lane.faults_injected,
        devices_retired: run.stats.devices_retired,
        failovers: run.stats.failovers,
        evacuations_completed: run.stats.evacuations_completed,
        segments_evacuated: run.stats.segments_evacuated,
        lost_aus: lane.lost_aus,
        errors: run.errors,
        link: run.link,
        stats: run.stats,
    })
}

/// The faulted pool replay's side lane: releases the plan's faults at
/// their exact scheduled instants and asserts the pool invariants after
/// each.
struct PoolFaultLane {
    injector: PoolFaultInjector,
    faults_injected: u64,
    lost_aus: u64,
}

impl Lane<AnalyticMemoryPool> for PoolFaultLane {
    fn next_at(&self) -> Option<Picos> {
        self.injector.peek_next_at()
    }

    fn fire(&mut self, pool: &mut AnalyticMemoryPool, now: Picos) -> Result<(), DtlError> {
        for fault in self.injector.pop_due(now) {
            self.lost_aus += apply_pool_fault(pool, fault.kind, now)?;
            self.faults_injected += 1;
            pool.check_invariants()?;
        }
        Ok(())
    }
}

/// Applies one fault; returns the allocation units it made unreachable.
fn apply_pool_fault(
    pool: &mut AnalyticMemoryPool,
    kind: PoolFaultKind,
    now: Picos,
) -> Result<u64, DtlError> {
    match kind {
        PoolFaultKind::Device { device, kind } => {
            let id = DeviceId(device);
            let dev = pool
                .device_mut(id)
                .ok_or_else(|| DtlError::Internal { reason: format!("no device {device}") })?;
            if let AppliedFault::LinkCrc { burst } = apply_device_fault(dev, kind, now)? {
                pool.inject_crc_burst(id, burst)?;
            }
            Ok(0)
        }
        PoolFaultKind::RetireDevice { device } => {
            pool.retire_device(DeviceId(device), now)?;
            // Every shard must stay reachable through the retirement —
            // sweep immediately, while evacuations are still in flight.
            Ok(count_unreachable(pool, now))
        }
    }
}

/// Counts allocation units no access can reach — the lost-segment oracle.
fn count_unreachable(pool: &mut AnalyticMemoryPool, now: Picos) -> u64 {
    let au = pool.config().dtl.au_bytes;
    let mut lost = 0u64;
    for vm in pool.vm_ids() {
        let bytes = pool.vm_bytes(vm).expect("listed VM is live");
        for i in 0..(bytes / au) {
            if pool.access(vm, i * au, AccessKind::Read, now).is_err() {
                lost += 1;
            }
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_horizon_that_wraps_picosecond_time_is_a_config_error() {
        let run = PoolRunConfig { duration_min: 307_446, ..PoolRunConfig::tiny(7) };
        let err = run_pool(&run, &Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, DtlError::InvalidConfig { .. }), "{err:?}");
        let faulted = PoolFaultRunConfig::retirement_campaign(7, run, 1);
        let err = run_pool_faulted(&faulted, &Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, DtlError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn pool_replay_places_and_consolidates() {
        let (r, _) = run_pool(&PoolRunConfig::tiny(7), &Telemetry::disabled()).unwrap();
        assert!(r.vms_allocated > 0, "schedule places VMs");
        assert_eq!(r.intervals.len(), 12, "one sample per 5 minutes");
        assert!(r.total_energy_mj > 0.0);
        assert!(
            r.intervals.iter().any(|i| i.parked_devices > 0),
            "the coordinator parks at least one device at tiny load"
        );
        assert!(r.link.crc_errors == 0, "quiet run has no CRC faults");
    }

    #[test]
    fn coordinator_saves_pool_energy() {
        let mut on = PoolRunConfig::tiny(7);
        on.coordinator = true;
        let mut off = on;
        off.coordinator = false;
        let (r_on, _) = run_pool(&on, &Telemetry::disabled()).unwrap();
        let (r_off, _) = run_pool(&off, &Telemetry::disabled()).unwrap();
        assert_eq!(r_on.vms_allocated, r_off.vms_allocated, "same schedule");
        assert!(
            r_on.total_energy_mj < r_off.total_energy_mj,
            "parking drained devices must save energy: {} vs {}",
            r_on.total_energy_mj,
            r_off.total_energy_mj
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run_pool(&PoolRunConfig::tiny(11), &Telemetry::disabled()).unwrap();
        let (b, _) = run_pool(&PoolRunConfig::tiny(11), &Telemetry::disabled()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_policy_saves_energy_at_equal_placement() {
        let fixed = PoolRunConfig::tiny(7);
        let mut adaptive = fixed;
        adaptive.power_policy = PowerPolicyKind::AdaptiveDemotion;
        let (rf, _) = run_pool(&fixed, &Telemetry::disabled()).unwrap();
        let (ra, _) = run_pool(&adaptive, &Telemetry::disabled()).unwrap();
        assert_eq!(rf.vms_allocated, ra.vms_allocated, "same schedule either way");
        assert!(
            ra.total_energy_mj < rf.total_energy_mj,
            "idle-rank demotion must save energy: {} vs {}",
            ra.total_energy_mj,
            rf.total_energy_mj
        );
    }

    #[test]
    fn trickle_burst_only_adds_accesses() {
        let one = PoolRunConfig::tiny(7);
        let mut burst = one;
        burst.trickle_burst = 8;
        let (_, obs1) = run_pool(&one, &Telemetry::disabled()).unwrap();
        let (_, obs8) = run_pool(&burst, &Telemetry::disabled()).unwrap();
        let (a1, a8) = (obs1.slo.access.unwrap(), obs8.slo.access.unwrap());
        assert_eq!(a8.count, a1.count * 8, "burst scales the trickle population");
    }

    #[test]
    fn observed_run_reports_slo_and_queue_counters() {
        let (r, obs) = run_pool(&PoolRunConfig::tiny(7), &Telemetry::disabled()).unwrap();
        let access = obs.slo.access.expect("the access trickle populates latency");
        assert!(access.count > 0);
        assert!(access.p50_ps > 0, "access latency includes the link round trip");
        let admission = obs.slo.admission.expect("admissions populate latency");
        assert_eq!(admission.count, r.vms_allocated);
        assert!(obs.queue.posted > 0, "epoch grid rides the event spine");
        assert!(obs.queue.popped <= obs.queue.posted);
    }

    #[test]
    fn retirement_campaign_loses_nothing() {
        let cfg = PoolFaultRunConfig::retirement_campaign(7, PoolRunConfig::tiny(7), 2);
        let r = run_pool_faulted(&cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(r.devices_retired, 2, "both scheduled retirements fired");
        assert_eq!(r.lost_aus, 0, "no allocation unit may ever be lost");
        assert!(r.evacuations_completed > 0, "retirement forces evacuations");
        assert!(r.faults_injected > 0);
    }

    #[test]
    fn faulted_replay_is_deterministic() {
        let cfg = PoolFaultRunConfig::retirement_campaign(13, PoolRunConfig::tiny(13), 1);
        let a = run_pool_faulted(&cfg, &Telemetry::disabled()).unwrap();
        let b = run_pool_faulted(&cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(a, b);
    }
}
