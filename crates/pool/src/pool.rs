//! The pool orchestrator: device ownership, VM admission, live
//! evacuation, pool-wide power coordination, and health-driven failover.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dtl_core::{
    AccessOutcome, AnalyticBackend, DeviceSnapshot, DtlDevice, HealthStats, HostId, MemoryBackend,
    RankHealth, VmAllocation, VmHandle,
};
use dtl_cxl::LinkRetryStats;
use dtl_dram::{AccessKind, Picos, PowerReport, RankEnergy};
use dtl_fabric::{Interconnect, PointToPoint};
use dtl_telemetry::{
    BacklogSummary, ChannelOffsetSink, Histogram, LatencySummary, MetricsRegistry, SloReport,
    Telemetry,
};
use serde::{Deserialize, Serialize};

use crate::placement::{self, Candidate};
use crate::{CoordState, DeviceHealth, DeviceId, PlacementPolicy, PoolConfig, PoolError, PoolVmId};

/// Bytes one pool access moves across the interconnect (a cache line).
const ACCESS_BYTES: u64 = 64;

/// One member device plus its pool-side state: the health and coordinator
/// lifecycles, and the allocation-unit book the placement planner reads.
/// Link accounting lives in the pool's [`Interconnect`], not here.
#[derive(Debug)]
struct PoolDevice<B: MemoryBackend> {
    id: DeviceId,
    dev: DtlDevice<B>,
    health: DeviceHealth,
    coord: CoordState,
    /// AUs resident on the device: live shards plus evacuation
    /// reservations. The planner's free count is derived from this, so a
    /// destination can never be over-committed while a copy is in flight.
    allocated_aus: u32,
}

/// One contiguous piece of a pool VM living on one device, backed by a
/// device-level VM allocation.
#[derive(Debug)]
struct Shard {
    device: DeviceId,
    alloc: VmAllocation,
}

impl Shard {
    fn aus(&self) -> u32 {
        self.alloc.aus.len() as u32
    }
}

#[derive(Debug)]
struct PoolVm {
    host: HostId,
    bytes: u64,
    /// Shards in HPA-offset order: shard `k` covers the AU range after the
    /// AUs of shards `0..k`.
    shards: Vec<Shard>,
}

impl PoolVm {
    fn total_aus(&self) -> u32 {
        self.shards.iter().map(Shard::aus).sum()
    }
}

#[derive(Debug, Default)]
struct HostState {
    mapped_aus: u32,
    quota_aus: Option<u32>,
}

/// An in-flight shard evacuation: destination capacity is reserved, the
/// source keeps serving accesses, and at `ready_at` the shard cuts over.
#[derive(Debug)]
pub struct EvacJob {
    /// VM whose shard is moving.
    pub vm: PoolVmId,
    /// Source device.
    pub src: DeviceId,
    /// Device-level handle of the moving shard on the source.
    pub src_handle: VmHandle,
    /// Reserved destination allocations, in placement order.
    pub dst: Vec<(DeviceId, VmAllocation)>,
    /// When the modelled copy finishes and the shard cuts over.
    pub ready_at: Picos,
    /// When the evacuation was planned (for backlog-age accounting).
    pub queued_at: Picos,
    /// Bytes being copied.
    pub bytes: u64,
}

/// Aggregate pool statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// VMs admitted.
    pub admitted_vms: u64,
    /// Admissions rejected (capacity or quota).
    pub rejected_vms: u64,
    /// VMs deallocated.
    pub deallocated_vms: u64,
    /// Shard evacuations started.
    pub evacuations_started: u64,
    /// Shard evacuations completed (cut over).
    pub evacuations_completed: u64,
    /// Evacuations cancelled (VM deallocated or destination retired
    /// mid-copy).
    pub evacuations_cancelled: u64,
    /// Segments moved by completed evacuations.
    pub segments_evacuated: u64,
    /// Bytes moved by completed evacuations.
    pub bytes_evacuated: u64,
    /// Coordinator drains started.
    pub drains_started: u64,
    /// Devices parked by the coordinator.
    pub devices_parked: u64,
    /// Parked devices woken by admission or evacuation pressure.
    pub devices_woken: u64,
    /// Health-driven device failovers tripped.
    pub failovers: u64,
    /// Devices retired (operator or fault plan).
    pub devices_retired: u64,
}

/// Result of one pool access: the device outcome plus what the CXL
/// attachment added on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAccessOutcome {
    /// Device that served the access.
    pub device: DeviceId,
    /// The device-level outcome.
    pub outcome: AccessOutcome,
    /// Link round-trip plus any CRC retry backoff.
    pub link_delay: Picos,
}

impl PoolAccessOutcome {
    /// Latency the pool added over raw DRAM: translation plus link.
    pub fn added_latency(&self) -> Picos {
        self.outcome.translation_latency + self.link_delay
    }
}

/// Per-device entry of a [`PoolSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolDeviceSnapshot {
    /// The device.
    pub id: DeviceId,
    /// Error-health lifecycle.
    pub health: DeviceHealth,
    /// Power-coordinator lifecycle.
    pub coord: CoordState,
    /// AUs resident (shards plus evacuation reservations).
    pub allocated_aus: u32,
    /// AUs the placement planner considers free.
    pub free_aus: u32,
    /// The CXL attachment's accumulated retry statistics.
    pub link: LinkRetryStats,
    /// The device's own snapshot.
    pub device: DeviceSnapshot,
}

/// A serializable snapshot of the whole pool, with the cross-device
/// aggregates (rank residency, error counters, link totals) computed here
/// once rather than re-summed by every caller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Per-device state.
    pub devices: Vec<PoolDeviceSnapshot>,
    /// Live pool VMs.
    pub vms: usize,
    /// Shard evacuations in flight.
    pub evacuations_pending: usize,
    /// Mapped (live) segments pool-wide.
    pub mapped_segments: u64,
    /// Cumulative power-state residency summed over every rank of every
    /// device, in `PowerState::ALL` order.
    pub rank_residency: [Picos; 5],
    /// Error-health counters summed over every device.
    pub errors: HealthStats,
    /// Link retry totals summed over every device's CXL attachment.
    pub link: LinkRetryStats,
    /// Aggregate pool statistics.
    pub stats: PoolStats,
}

/// A deterministic rack-scale pool of DTL devices behind CXL links.
///
/// See the [crate docs](crate) for the model. All mutating entry points
/// take the current simulation time; like `DtlDevice`, the pool assumes
/// monotone time across calls.
#[derive(Debug)]
pub struct MemoryPool<B: MemoryBackend> {
    config: PoolConfig,
    devices: Vec<PoolDevice<B>>,
    /// The link layer every access, admission round trip, and evacuation
    /// copy is charged through: point-to-point wires by default, or a
    /// switched CXL fabric via
    /// [`MemoryPool::with_devices_and_interconnect`].
    ic: Box<dyn Interconnect>,
    hosts: BTreeMap<u16, HostState>,
    vms: BTreeMap<u64, PoolVm>,
    next_vm: u64,
    evac: VecDeque<EvacJob>,
    stats: PoolStats,
    /// End-to-end access latency the pool added (translation + link +
    /// retry), always on — see [`MemoryPool::slo_report`].
    slo_access: Histogram,
    /// End-to-end admission latency (per-shard device carving + one link
    /// round trip per shard).
    slo_admission: Histogram,
    /// Age of completed evacuations (cutover minus planning time).
    slo_evac_age: Histogram,
    /// Deepest the evacuation queue ever got.
    evac_high_water: u64,
}

impl MemoryPool<AnalyticBackend> {
    /// Builds a pool of analytic-backend devices from `config` — the
    /// standard construction for simulations and tests.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn analytic(config: PoolConfig) -> Result<Self, PoolError> {
        MemoryPool::with_devices(config, |_, cfg| {
            DtlDevice::with_analytic_geometry(
                cfg.dtl,
                cfg.channels,
                cfg.ranks_per_channel,
                cfg.segs_per_rank,
            )
        })
    }

    /// Builds an analytic-backend pool charging its link traffic through
    /// `ic` instead of the default point-to-point wires — the construction
    /// fabric experiments use.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidConfig`] when the configuration fails
    /// validation or `ic` does not cover every configured device.
    pub fn analytic_with_interconnect(
        config: PoolConfig,
        ic: Box<dyn Interconnect>,
    ) -> Result<Self, PoolError> {
        MemoryPool::with_devices_and_interconnect(config, ic, |_, cfg| {
            DtlDevice::with_analytic_geometry(
                cfg.dtl,
                cfg.channels,
                cfg.ranks_per_channel,
                cfg.segs_per_rank,
            )
        })
    }
}

impl<B: MemoryBackend> MemoryPool<B> {
    /// Builds a pool whose member devices come from `make_device` — the
    /// hook for cycle-accurate or instrumented backends. Link traffic is
    /// charged through dedicated point-to-point wires built from
    /// `config.link` / `config.retry`.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn with_devices(
        config: PoolConfig,
        make_device: impl FnMut(DeviceId, &PoolConfig) -> DtlDevice<B>,
    ) -> Result<Self, PoolError> {
        let ic = Box::new(PointToPoint::new(config.link, config.retry, config.devices));
        MemoryPool::with_devices_and_interconnect(config, ic, make_device)
    }

    /// Builds a pool whose member devices come from `make_device` and whose
    /// link traffic is charged through `ic` — the seam that swaps the
    /// point-to-point wiring for a switched CXL fabric without touching the
    /// orchestrator.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidConfig`] when the configuration fails
    /// validation or `ic` does not cover every configured device.
    pub fn with_devices_and_interconnect(
        config: PoolConfig,
        ic: Box<dyn Interconnect>,
        mut make_device: impl FnMut(DeviceId, &PoolConfig) -> DtlDevice<B>,
    ) -> Result<Self, PoolError> {
        config.validate()?;
        if ic.devices() != config.devices {
            return Err(PoolError::InvalidConfig {
                reason: format!(
                    "interconnect reaches {} devices, pool configures {}",
                    ic.devices(),
                    config.devices
                ),
            });
        }
        let devices = (0..config.devices)
            .map(|i| {
                let id = DeviceId(i);
                PoolDevice {
                    id,
                    dev: make_device(id, &config),
                    health: DeviceHealth::Healthy,
                    coord: CoordState::Active,
                    allocated_aus: 0,
                }
            })
            .collect();
        Ok(MemoryPool {
            config,
            devices,
            ic,
            hosts: BTreeMap::new(),
            vms: BTreeMap::new(),
            next_vm: 0,
            evac: VecDeque::new(),
            stats: PoolStats::default(),
            slo_access: Histogram::default(),
            slo_admission: Histogram::default(),
            slo_evac_age: Histogram::default(),
            evac_high_water: 0,
        })
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Aggregate pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Live pool VMs.
    pub fn vms(&self) -> usize {
        self.vms.len()
    }

    /// Ids of the live pool VMs, ascending.
    pub fn vm_ids(&self) -> Vec<PoolVmId> {
        self.vms.keys().map(|&k| PoolVmId(k)).collect()
    }

    /// A VM's AU-rounded allocated bytes, if it is live.
    pub fn vm_bytes(&self, vm: PoolVmId) -> Option<u64> {
        self.vms.get(&vm.0).map(|v| u64::from(v.total_aus()) * self.config.dtl.au_bytes)
    }

    /// The bytes a VM originally asked for (before AU rounding).
    pub fn vm_requested_bytes(&self, vm: PoolVmId) -> Option<u64> {
        self.vms.get(&vm.0).map(|v| v.bytes)
    }

    /// Devices a VM currently has shards on, ascending and deduplicated.
    pub fn vm_devices(&self, vm: PoolVmId) -> Option<Vec<DeviceId>> {
        let v = self.vms.get(&vm.0)?;
        let mut ids: Vec<DeviceId> = v.shards.iter().map(|s| s.device).collect();
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }

    /// Shard evacuations in flight.
    pub fn evacuations_pending(&self) -> usize {
        self.evac.len()
    }

    /// Read access to one member device.
    pub fn device(&self, id: DeviceId) -> Option<&DtlDevice<B>> {
        self.devices.get(usize::from(id.0)).map(|d| &d.dev)
    }

    /// Mutable access to one member device (fault-injection hooks).
    pub fn device_mut(&mut self, id: DeviceId) -> Option<&mut DtlDevice<B>> {
        self.devices.get_mut(usize::from(id.0)).map(|d| &mut d.dev)
    }

    /// A device's error-health lifecycle state.
    pub fn device_health(&self, id: DeviceId) -> Option<DeviceHealth> {
        self.devices.get(usize::from(id.0)).map(|d| d.health)
    }

    /// A device's power-coordinator lifecycle state.
    pub fn coord_state(&self, id: DeviceId) -> Option<CoordState> {
        self.devices.get(usize::from(id.0)).map(|d| d.coord)
    }

    /// Queues a CRC corruption burst on one device's CXL link; the next
    /// access routed there pays the replay cost.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownDevice`] for out-of-range ids.
    pub fn inject_crc_burst(&mut self, id: DeviceId, burst: u32) -> Result<(), PoolError> {
        if usize::from(id.0) >= self.devices.len() || !self.ic.inject_crc_burst(id.0, burst) {
            return Err(PoolError::UnknownDevice(id));
        }
        Ok(())
    }

    /// The interconnect the pool charges link traffic through.
    pub fn interconnect(&self) -> &dyn Interconnect {
        self.ic.as_ref()
    }

    /// Mutable interconnect access (fault-injection and scheduling hooks).
    pub fn interconnect_mut(&mut self) -> &mut dyn Interconnect {
        self.ic.as_mut()
    }

    /// Installs telemetry: device *i* records through a channel-offset
    /// shim (`offset = i * channels`), so one shared sink renders one
    /// Perfetto process-track group per device.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        let ic = &mut self.ic;
        for (i, d) in self.devices.iter_mut().enumerate() {
            let offset = i as u32 * self.config.channels;
            let sink = Arc::new(ChannelOffsetSink::new(telemetry.sink().clone(), offset));
            let mut t = Telemetry::new(sink);
            if let Some(m) = telemetry.metrics() {
                t = t.with_metrics(m.clone());
            }
            d.dev.set_telemetry(t.clone());
            ic.set_device_telemetry(i as u16, t);
        }
    }

    /// Registers a host on every member device.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnroutableHost`] when the interconnect cannot route the
    /// host to some device (checked before any device sees the host), or
    /// [`PoolError::Device`] when a device rejects the host (id beyond
    /// `DtlConfig::max_hosts`).
    pub fn register_host(&mut self, host: HostId) -> Result<(), PoolError> {
        if let Some(device) =
            self.devices.iter().map(|d| d.id).find(|d| self.ic.route(host, d.0).is_none())
        {
            return Err(PoolError::UnroutableHost { host, device });
        }
        for d in &mut self.devices {
            d.dev.register_host(host).map_err(|e| PoolError::Device { device: d.id, source: e })?;
        }
        self.hosts.entry(host.0).or_default();
        Ok(())
    }

    /// Sets (or clears) a host's pool-wide capacity quota in allocation
    /// units. Enforced at admission against the host's pool-wide mapped
    /// total, not per device.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownHost`] for unregistered hosts.
    pub fn set_host_quota(
        &mut self,
        host: HostId,
        quota_aus: Option<u32>,
    ) -> Result<(), PoolError> {
        let hs = self.hosts.get_mut(&host.0).ok_or(PoolError::UnknownHost(host))?;
        hs.quota_aus = quota_aus;
        Ok(())
    }

    /// AUs a host has mapped pool-wide.
    pub fn host_mapped_aus(&self, host: HostId) -> Option<u32> {
        self.hosts.get(&host.0).map(|h| h.mapped_aus)
    }

    fn evac_delay(&self, bytes: u64) -> Picos {
        let ps =
            u128::from(bytes) * 1_000_000_000_000u128 / u128::from(self.config.evac_bytes_per_sec);
        Picos::from_ps((ps as u64).max(1))
    }

    fn in_flight(&self, device: DeviceId, handle: VmHandle) -> bool {
        self.evac.iter().any(|j| j.src == device && j.src_handle == handle)
    }

    /// Devices the placement planner may target: healthy, coordinator-
    /// active, not explicitly excluded, with free capacity.
    fn candidates(&self, excluded: &[DeviceId]) -> Vec<Candidate> {
        let total = self.config.aus_per_device();
        self.devices
            .iter()
            .filter(|d| {
                d.health == DeviceHealth::Healthy
                    && d.coord == CoordState::Active
                    && !excluded.contains(&d.id)
                    && d.allocated_aus < total
            })
            .map(|d| Candidate {
                device: d.id,
                free_aus: total - d.allocated_aus,
                allocated_aus: d.allocated_aus,
            })
            .collect()
    }

    /// Wakes the lowest-id healthy parked device; `false` when none exist.
    fn wake_one_parked(&mut self) -> bool {
        if let Some(d) = self
            .devices
            .iter_mut()
            .find(|d| d.coord == CoordState::Parked && d.health == DeviceHealth::Healthy)
        {
            d.coord = CoordState::Active;
            self.stats.devices_woken += 1;
            true
        } else {
            false
        }
    }

    /// Plans and carves `aus` allocation units for `host` across eligible
    /// devices, waking parked devices under pressure and excluding devices
    /// whose carve fails (e.g. capacity lost to retired ranks). Returns the
    /// carved device-level allocations in placement order, or the pool-wide
    /// placeable free count on failure.
    fn place_and_carve(
        &mut self,
        host: HostId,
        aus: u32,
        now: Picos,
        mut excluded: Vec<DeviceId>,
    ) -> Result<Vec<(DeviceId, VmAllocation)>, u64> {
        loop {
            let candidates = self.candidates(&excluded);
            let Some(slices) = placement::plan(self.config.policy, &candidates, aus) else {
                if self.wake_one_parked() {
                    continue;
                }
                return Err(candidates.iter().map(|c| u64::from(c.free_aus)).sum());
            };
            let mut carved: Vec<(DeviceId, VmAllocation)> = Vec::with_capacity(slices.len());
            let mut failed: Option<DeviceId> = None;
            for s in &slices {
                let d = &mut self.devices[usize::from(s.device.0)];
                match d.dev.alloc_vm(host, u64::from(s.aus) * self.config.dtl.au_bytes, now) {
                    Ok(alloc) => {
                        d.allocated_aus += s.aus;
                        carved.push((s.device, alloc));
                    }
                    Err(_) => {
                        failed = Some(s.device);
                        break;
                    }
                }
            }
            match failed {
                None => return Ok(carved),
                Some(bad) => {
                    // All-or-nothing: roll back and re-plan without the
                    // device that lied about its capacity.
                    for (id, alloc) in carved {
                        let d = &mut self.devices[usize::from(id.0)];
                        let n = alloc.aus.len() as u32;
                        d.dev.dealloc_vm(alloc.handle, now).expect("rollback of fresh alloc");
                        d.allocated_aus -= n;
                    }
                    excluded.push(bad);
                }
            }
        }
    }

    /// Admits a VM of `bytes` (AU-rounded up), placing its shards under the
    /// configured policy. Parked devices are woken before the request is
    /// rejected.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownHost`], [`PoolError::QuotaExceeded`], or
    /// [`PoolError::NoCapacity`]; rejections are counted in
    /// [`PoolStats::rejected_vms`].
    pub fn alloc_vm(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<PoolVmId, PoolError> {
        let hs = self.hosts.get(&host.0).ok_or(PoolError::UnknownHost(host))?;
        let n_aus = bytes.div_ceil(self.config.dtl.au_bytes).max(1) as u32;
        if let Some(quota) = hs.quota_aus {
            if hs.mapped_aus + n_aus > quota {
                self.stats.rejected_vms += 1;
                return Err(PoolError::QuotaExceeded {
                    host,
                    mapped_aus: hs.mapped_aus,
                    quota_aus: quota,
                });
            }
        }
        match self.place_and_carve(host, n_aus, now, Vec::new()) {
            Ok(carved) => {
                // Admission latency: each shard's device-level carve (table
                // walk + capacity wakes) plus one control-plane round trip
                // per shard on the interconnect.
                let mut admission = Picos::ZERO;
                for (device, _) in &carved {
                    let d = &self.devices[usize::from(device.0)];
                    admission +=
                        d.dev.last_admission_latency() + self.ic.round_trip(host, device.0);
                }
                self.slo_admission.observe(admission.as_ps());
                let shards =
                    carved.into_iter().map(|(device, alloc)| Shard { device, alloc }).collect();
                let id = PoolVmId(self.next_vm);
                self.next_vm += 1;
                self.vms.insert(id.0, PoolVm { host, bytes, shards });
                self.hosts.get_mut(&host.0).expect("checked above").mapped_aus += n_aus;
                self.stats.admitted_vms += 1;
                Ok(id)
            }
            Err(free_aus) => {
                self.stats.rejected_vms += 1;
                Err(PoolError::NoCapacity { requested_aus: n_aus, free_aus })
            }
        }
    }

    /// Releases a VM: cancels its in-flight evacuations and deallocates
    /// every shard (each device's own power-down engine then consolidates
    /// and parks freed rank groups).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownVm`] for dead or never-issued ids.
    pub fn dealloc_vm(&mut self, vm: PoolVmId, now: Picos) -> Result<(), PoolError> {
        let v = self.vms.remove(&vm.0).ok_or(PoolError::UnknownVm(vm))?;
        let cancelled: Vec<EvacJob> = {
            let (keep, cancel): (VecDeque<EvacJob>, VecDeque<EvacJob>) =
                std::mem::take(&mut self.evac).into_iter().partition(|j| j.vm != vm);
            self.evac = keep;
            cancel.into_iter().collect()
        };
        for job in cancelled {
            self.release_dst(&job, now);
            self.stats.evacuations_cancelled += 1;
        }
        let aus = v.total_aus();
        for shard in v.shards {
            let d = &mut self.devices[usize::from(shard.device.0)];
            d.dev
                .dealloc_vm(shard.alloc.handle, now)
                .map_err(|e| PoolError::Device { device: d.id, source: e })?;
            d.allocated_aus -= shard.aus();
        }
        self.hosts.get_mut(&v.host.0).expect("vm host is registered").mapped_aus -= aus;
        self.stats.deallocated_vms += 1;
        Ok(())
    }

    fn release_dst(&mut self, job: &EvacJob, now: Picos) {
        for (id, alloc) in &job.dst {
            let d = &mut self.devices[usize::from(id.0)];
            let n = alloc.aus.len() as u32;
            d.dev.dealloc_vm(alloc.handle, now).expect("release of live reservation");
            d.allocated_aus -= n;
        }
    }

    /// One translated access to byte `offset` of a VM's address space. The
    /// owning shard's device serves it; the outcome carries the CXL link
    /// round-trip plus any CRC retry backoff on top of the device latency.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownVm`], [`PoolError::OutOfRange`], or
    /// [`PoolError::Device`].
    pub fn access(
        &mut self,
        vm: PoolVmId,
        offset: u64,
        kind: AccessKind,
        now: Picos,
    ) -> Result<PoolAccessOutcome, PoolError> {
        let au_bytes = self.config.dtl.au_bytes;
        let v = self.vms.get(&vm.0).ok_or(PoolError::UnknownVm(vm))?;
        let (au_index, within) = dtl_core::div_rem(offset, au_bytes);
        // The shard holding AU `au_index` of the VM, and the AU's index in it.
        let mut skipped = 0u64;
        let target = v.shards.iter().find_map(|shard| {
            let first = skipped;
            skipped += u64::from(shard.aus());
            (au_index < skipped).then(|| (shard, (au_index - first) as usize))
        });
        let Some((shard, i)) = target else {
            return Err(PoolError::OutOfRange {
                vm,
                offset,
                bytes: u64::from(v.total_aus()) * au_bytes,
            });
        };
        let (host, device) = (v.host, shard.device);
        let hpa = shard.alloc.hpa_base(i, au_bytes).offset_by(within);
        // One cache-line transaction crosses the interconnect (queueing +
        // propagation + retry), then the device serves it.
        let delivery = self.ic.submit_at(host, device.0, ACCESS_BYTES, now);
        let d = &mut self.devices[usize::from(device.0)];
        let outcome = d
            .dev
            .access(host, hpa, kind, now)
            .map_err(|e| PoolError::Device { device, source: e })?;
        let out = PoolAccessOutcome { device, outcome, link_delay: delivery.delay };
        self.slo_access.observe(out.added_latency().as_ps());
        Ok(out)
    }

    /// Starts evacuating every shard resident on `src` that is not already
    /// in flight. Shards that cannot be placed right now (no capacity even
    /// after waking every parked device) are left in place and retried on
    /// subsequent ticks — they remain fully accessible meanwhile.
    fn evacuate_device(&mut self, src: DeviceId, now: Picos) {
        let pending: Vec<(PoolVmId, HostId, VmHandle, u32)> = self
            .vms
            .iter()
            .flat_map(|(&id, v)| {
                v.shards
                    .iter()
                    .filter(|s| s.device == src)
                    .map(move |s| (PoolVmId(id), v.host, s.alloc.handle, s.aus()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (vm, host, handle, aus) in pending {
            if self.in_flight(src, handle) {
                continue;
            }
            let Ok(carved) = self.place_and_carve(host, aus, now, vec![src]) else {
                continue;
            };
            let bytes = u64::from(aus) * self.config.dtl.au_bytes;
            // The copy reads the source over its link and writes every
            // destination over theirs; fabrics serialize those transfers
            // through shared ports (point-to-point wires charge nothing).
            let mut wire = self.ic.charge_bulk(host, src.0, bytes, now);
            for (dst, _) in &carved {
                wire += self.ic.charge_bulk(host, dst.0, bytes, now);
            }
            let ready_at = now + self.evac_delay(bytes) + wire;
            self.evac.push_back(EvacJob {
                vm,
                src,
                src_handle: handle,
                dst: carved,
                ready_at,
                queued_at: now,
                bytes,
            });
            self.evac_high_water = self.evac_high_water.max(self.evac.len() as u64);
            self.stats.evacuations_started += 1;
        }
    }

    /// Cuts over evacuations whose copy finished by `now`.
    fn cutover_due(&mut self, now: Picos) -> Result<(), PoolError> {
        // Jobs are scanned in start order; completion order still follows
        // ready_at because every due job cuts over within this call.
        let mut remaining: VecDeque<EvacJob> = VecDeque::with_capacity(self.evac.len());
        let jobs = std::mem::take(&mut self.evac);
        for job in jobs {
            if job.ready_at > now {
                remaining.push_back(job);
                continue;
            }
            let v = self.vms.get_mut(&job.vm.0).expect("jobs of dead VMs are cancelled");
            let pos = v
                .shards
                .iter()
                .position(|s| s.device == job.src && s.alloc.handle == job.src_handle)
                .expect("source shard exists until cutover");
            let old = v.shards.remove(pos);
            for (k, (device, alloc)) in job.dst.into_iter().enumerate() {
                v.shards.insert(pos + k, Shard { device, alloc });
            }
            let d = &mut self.devices[usize::from(job.src.0)];
            d.dev
                .dealloc_vm(old.alloc.handle, now)
                .map_err(|e| PoolError::Device { device: d.id, source: e })?;
            d.allocated_aus -= old.aus();
            self.slo_evac_age.observe(now.saturating_sub(job.queued_at).as_ps());
            self.stats.evacuations_completed += 1;
            self.stats.segments_evacuated +=
                u64::from(old.aus()) * self.config.dtl.segments_per_au();
            self.stats.bytes_evacuated += job.bytes;
        }
        self.evac = remaining;
        Ok(())
    }

    /// Trips health-driven failover: a healthy device whose rank-health
    /// lifecycle has pushed at least `failover_rank_fraction` of its ranks
    /// into `Draining`/`Retired` is marked draining pool-side.
    fn poll_health(&mut self) {
        let ranks = self.config.channels * self.config.ranks_per_channel;
        for d in &mut self.devices {
            if d.health != DeviceHealth::Healthy {
                continue;
            }
            let mut bad = 0u32;
            for c in 0..self.config.channels {
                for r in 0..self.config.ranks_per_channel {
                    if matches!(d.dev.rank_health(c, r), RankHealth::Draining | RankHealth::Retired)
                    {
                        bad += 1;
                    }
                }
            }
            if f64::from(bad) >= self.config.failover_rank_fraction * f64::from(ranks) && bad > 0 {
                d.health = DeviceHealth::Draining;
                self.stats.failovers += 1;
            }
        }
    }

    fn shards_on(&self, id: DeviceId) -> usize {
        self.vms.values().flat_map(|v| v.shards.iter()).filter(|s| s.device == id).count()
    }

    fn touches_jobs(&self, id: DeviceId) -> bool {
        self.evac.iter().any(|j| j.src == id || j.dst.iter().any(|(d, _)| *d == id))
    }

    /// Parks a device: bookkeeping plus the physical half — the device's
    /// own power-down engine only plans on the dealloc path, so a device
    /// the pool idles without it ever serving a VM would keep every rank
    /// in standby forever. Parking asks it to plan immediately.
    fn park_device(&mut self, id: DeviceId, now: Picos) -> Result<(), PoolError> {
        let d = &mut self.devices[usize::from(id.0)];
        d.coord = CoordState::Parked;
        d.dev.request_power_down(now).map_err(|e| PoolError::Device { device: id, source: e })?;
        self.stats.devices_parked += 1;
        Ok(())
    }

    /// The pool-wide power coordinator: parks drained victims, and — when
    /// the pool is quiescent — picks the least-utilized active device whose
    /// load fits in the others' free space (plus slack) and drains it, the
    /// cross-device extension of the paper's rank-group consolidation.
    fn coordinate(&mut self, now: Picos) -> Result<(), PoolError> {
        if !self.config.coordinator.enabled {
            return Ok(());
        }
        // Drained victims become parked; stuck drains are retried.
        let draining: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|d| d.coord == CoordState::Draining && d.health == DeviceHealth::Healthy)
            .map(|d| d.id)
            .collect();
        for id in &draining {
            if self.shards_on(*id) == 0 && !self.touches_jobs(*id) {
                self.park_device(*id, now)?;
            } else {
                self.evacuate_device(*id, now);
            }
        }
        if !self.evac.is_empty() || !draining.is_empty() {
            return Ok(()); // one consolidation at a time
        }
        let active: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|d| d.coord == CoordState::Active && d.health == DeviceHealth::Healthy)
            .map(|d| d.id)
            .collect();
        if active.len() <= usize::from(self.config.coordinator.min_active) {
            return Ok(());
        }
        // Least-utilized victim; ties prefer the highest id so low ids
        // accumulate load under packing.
        let victim = *active
            .iter()
            .min_by_key(|id| {
                (self.devices[usize::from(id.0)].allocated_aus, core::cmp::Reverse(id.0))
            })
            .expect("active is nonempty");
        let victim_load = self.devices[usize::from(victim.0)].allocated_aus;
        if victim_load == 0 {
            return self.park_device(victim, now);
        }
        let total = self.config.aus_per_device();
        let others_free: u64 = active
            .iter()
            .filter(|id| **id != victim)
            .map(|id| u64::from(total - self.devices[usize::from(id.0)].allocated_aus))
            .sum();
        if others_free >= u64::from(victim_load) + u64::from(self.config.coordinator.slack_aus) {
            self.devices[usize::from(victim.0)].coord = CoordState::Draining;
            self.stats.drains_started += 1;
            self.evacuate_device(victim, now);
        }
        Ok(())
    }

    /// Drains a device for maintenance: marked unhealthy-draining, its
    /// shards evacuate to the survivors, and it receives no new placements.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownDevice`] for out-of-range ids.
    pub fn drain_device(&mut self, id: DeviceId, now: Picos) -> Result<(), PoolError> {
        let d = self.devices.get_mut(usize::from(id.0)).ok_or(PoolError::UnknownDevice(id))?;
        if d.health == DeviceHealth::Healthy {
            d.health = DeviceHealth::Draining;
        }
        self.evacuate_device(id, now);
        Ok(())
    }

    /// Retires a device permanently (device loss): in-flight evacuations
    /// *onto* it are cancelled and re-planned, every resident shard is
    /// evacuated, and the device never receives placements again. Shards
    /// stay readable on the retired device until their cutover completes,
    /// so no segment is ever lost.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownDevice`] for out-of-range ids.
    pub fn retire_device(&mut self, id: DeviceId, now: Picos) -> Result<(), PoolError> {
        let d = self.devices.get_mut(usize::from(id.0)).ok_or(PoolError::UnknownDevice(id))?;
        if d.health != DeviceHealth::Retired {
            d.health = DeviceHealth::Retired;
            self.stats.devices_retired += 1;
        }
        // Cancel jobs that were copying onto the now-dead device; their
        // source shards are still live and will be re-planned.
        let (keep, cancel): (VecDeque<EvacJob>, VecDeque<EvacJob>) = std::mem::take(&mut self.evac)
            .into_iter()
            .partition(|j| !j.dst.iter().any(|(dst, _)| *dst == id));
        self.evac = keep;
        let cancelled: Vec<EvacJob> = cancel.into_iter().collect();
        for job in cancelled {
            self.release_dst(&job, now);
            self.stats.evacuations_cancelled += 1;
        }
        self.evacuate_device(id, now);
        Ok(())
    }

    /// Advances pool time: ticks every device, cuts over finished
    /// evacuations, polls device health for failover, retries evacuations
    /// off unhealthy devices, and runs the power coordinator.
    ///
    /// # Errors
    ///
    /// [`PoolError::Device`] on device-internal invariant violations.
    pub fn tick(&mut self, now: Picos) -> Result<(), PoolError> {
        self.ic.advance_to(now);
        for d in &mut self.devices {
            d.dev.tick(now).map_err(|e| PoolError::Device { device: d.id, source: e })?;
        }
        self.cutover_due(now)?;
        self.poll_health();
        let unhealthy: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|d| d.health != DeviceHealth::Healthy)
            .map(|d| d.id)
            .collect();
        for id in unhealthy {
            if self.shards_on(id) > 0 {
                self.evacuate_device(id, now);
            }
        }
        self.coordinate(now)
    }

    /// The next time [`MemoryPool::tick`] has timed work to do, for
    /// event-driven drivers (`dtl-event`): the earliest device activity
    /// (migrations, hotness deadlines) or the earliest evacuation cutover
    /// (`ready_at`). `None` means every engine is quiescent; health
    /// failover and the power coordinator are reactive — they reassess on
    /// the tick that handles whichever event fires next — so they add no
    /// deadlines of their own. Re-query after every tick or mutating call.
    pub fn next_activity_at(&self) -> Option<Picos> {
        let dev = self.devices.iter().filter_map(|d| d.dev.next_activity_at()).min();
        let evac = self.evac.iter().map(|j| j.ready_at).min();
        let link = self.ic.next_activity_at();
        [dev, evac, link].into_iter().flatten().min()
    }

    /// Per-device power reports at `now`, in device order.
    pub fn power_reports(&mut self, now: Picos) -> Vec<(DeviceId, PowerReport)> {
        self.devices.iter_mut().map(|d| (d.id, d.dev.power_report(now))).collect()
    }

    /// Pool-wide energy account at `now`: the sum of every device's total.
    pub fn pool_energy(&mut self, now: Picos) -> RankEnergy {
        let mut total = RankEnergy::default();
        for d in &mut self.devices {
            total.accumulate(&d.dev.power_report(now).total);
        }
        total
    }

    /// A full pool snapshot with cross-device aggregates precomputed.
    pub fn snapshot(&self) -> PoolSnapshot {
        let total = self.config.aus_per_device();
        let mut rank_residency = [Picos::ZERO; 5];
        let mut errors = HealthStats::default();
        let mut link = LinkRetryStats::default();
        let mut mapped_segments = 0u64;
        let devices: Vec<PoolDeviceSnapshot> = self
            .devices
            .iter()
            .map(|d| {
                let snap = d.dev.snapshot();
                for rank in &snap.ranks {
                    for (acc, add) in rank_residency.iter_mut().zip(rank.residency.iter()) {
                        *acc += *add;
                    }
                }
                errors.correctable_errors += snap.errors.correctable_errors;
                errors.uncorrectable_errors += snap.errors.uncorrectable_errors;
                errors.retire_trips += snap.errors.retire_trips;
                let dev_link = self.ic.device_stats(d.id.0);
                link.merge_from(&dev_link);
                mapped_segments += snap.mapped_segments;
                PoolDeviceSnapshot {
                    id: d.id,
                    health: d.health,
                    coord: d.coord,
                    allocated_aus: d.allocated_aus,
                    free_aus: total - d.allocated_aus,
                    link: dev_link,
                    device: snap,
                }
            })
            .collect();
        PoolSnapshot {
            devices,
            vms: self.vms.len(),
            evacuations_pending: self.evac.len(),
            mapped_segments,
            rank_residency,
            errors,
            link,
            stats: self.stats,
        }
    }

    /// Dumps pool statistics and cross-device aggregates into `registry` as
    /// `pool.*` counters. Counters are *set*, so repeated exports are
    /// idempotent (the same contract as `DtlDevice::export_metrics`).
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let s = self.stats;
        registry.counter("pool.vms_admitted").set(s.admitted_vms);
        registry.counter("pool.vms_rejected").set(s.rejected_vms);
        registry.counter("pool.vms_deallocated").set(s.deallocated_vms);
        registry.counter("pool.evacuations_started").set(s.evacuations_started);
        registry.counter("pool.evacuations_completed").set(s.evacuations_completed);
        registry.counter("pool.evacuations_cancelled").set(s.evacuations_cancelled);
        registry.counter("pool.segments_evacuated").set(s.segments_evacuated);
        registry.counter("pool.bytes_evacuated").set(s.bytes_evacuated);
        registry.counter("pool.drains_started").set(s.drains_started);
        registry.counter("pool.devices_parked").set(s.devices_parked);
        registry.counter("pool.devices_woken").set(s.devices_woken);
        registry.counter("pool.failovers").set(s.failovers);
        registry.counter("pool.devices_retired").set(s.devices_retired);
        let snap = self.snapshot();
        registry.counter("pool.health.correctable_errors").set(snap.errors.correctable_errors);
        registry.counter("pool.health.uncorrectable_errors").set(snap.errors.uncorrectable_errors);
        registry.counter("pool.health.retire_trips").set(snap.errors.retire_trips);
        registry.counter("pool.link.crc_errors").set(snap.link.crc_errors);
        registry.counter("pool.link.retries").set(snap.link.retries);
        registry.counter("pool.link.giveups").set(snap.link.giveups);
    }

    /// The pool's SLO report: end-to-end access latency (translation +
    /// link + retry), admission latency (per-shard carving + link), and
    /// evacuation backlog age/depth. Sections with no samples are `None`.
    pub fn slo_report(&self) -> SloReport {
        SloReport {
            access: LatencySummary::from_histogram(&self.slo_access),
            admission: LatencySummary::from_histogram(&self.slo_admission),
            evac_backlog: BacklogSummary::from_parts(&self.slo_evac_age, self.evac_high_water),
            fabric_queue: self.ic.queue_latency(),
        }
    }

    /// Checks pool *and* device invariants: every device's internal
    /// consistency, the AU bookkeeping against live shards and evacuation
    /// reservations, and host quota accounting.
    ///
    /// # Errors
    ///
    /// The first violation found (device errors wrapped in
    /// [`PoolError::Device`], pool-level ones as
    /// [`PoolError::InvalidConfig`]-style internal descriptions).
    pub fn check_invariants(&self) -> Result<(), PoolError> {
        for d in &self.devices {
            d.dev.check_invariants().map_err(|e| PoolError::Device { device: d.id, source: e })?;
        }
        let mut per_device = vec![0u32; self.devices.len()];
        let mut per_host: BTreeMap<u16, u32> = BTreeMap::new();
        for v in self.vms.values() {
            for s in &v.shards {
                per_device[usize::from(s.device.0)] += s.aus();
            }
            *per_host.entry(v.host.0).or_default() += v.total_aus();
        }
        for j in &self.evac {
            if !self.vms.contains_key(&j.vm.0) {
                return Err(internal(format!("evacuation references dead VM {}", j.vm)));
            }
            for (id, alloc) in &j.dst {
                per_device[usize::from(id.0)] += alloc.aus.len() as u32;
            }
        }
        for (d, &counted) in self.devices.iter().zip(per_device.iter()) {
            if d.allocated_aus != counted {
                return Err(internal(format!(
                    "{} books {} AUs but shards+reservations sum to {counted}",
                    d.id, d.allocated_aus
                )));
            }
        }
        for (&host, hs) in &self.hosts {
            let counted = per_host.get(&host).copied().unwrap_or(0);
            if hs.mapped_aus != counted {
                return Err(internal(format!(
                    "host{host} books {} mapped AUs but VMs sum to {counted}",
                    hs.mapped_aus
                )));
            }
        }
        Ok(())
    }

    /// Sweeps one read through every allocation unit of every live VM —
    /// the zero-lost-segments oracle the failover campaigns assert after
    /// retiring devices.
    ///
    /// # Errors
    ///
    /// The first unreachable AU, as the underlying access error.
    pub fn assert_all_reachable(&mut self, now: Picos) -> Result<(), PoolError> {
        let au_bytes = self.config.dtl.au_bytes;
        for vm in self.vm_ids() {
            let aus = self.vm_bytes(vm).expect("listed VM is live") / au_bytes;
            for i in 0..aus {
                self.access(vm, i * au_bytes, AccessKind::Read, now)?;
            }
        }
        Ok(())
    }

    /// The placement policy in effect.
    pub fn policy(&self) -> PlacementPolicy {
        self.config.policy
    }
}

fn internal(reason: String) -> PoolError {
    PoolError::InvalidConfig { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;

    fn pool(devices: u16) -> MemoryPool<AnalyticBackend> {
        let mut cfg = PoolConfig::tiny(devices);
        cfg.coordinator.enabled = false;
        let mut p = MemoryPool::analytic(cfg).unwrap();
        p.register_host(HostId(0)).unwrap();
        p
    }

    fn coord_pool(devices: u16) -> MemoryPool<AnalyticBackend> {
        let mut p = MemoryPool::analytic(PoolConfig::tiny(devices)).unwrap();
        p.register_host(HostId(0)).unwrap();
        p
    }

    fn au(p: &MemoryPool<AnalyticBackend>) -> u64 {
        p.config().dtl.au_bytes
    }

    fn secs(s: u64) -> Picos {
        Picos::from_secs(s)
    }

    /// Ticks until the evacuation queue drains (bounded).
    fn settle(p: &mut MemoryPool<AnalyticBackend>, mut now: Picos) -> Picos {
        for _ in 0..64 {
            now += secs(10);
            p.tick(now).unwrap();
            if p.evacuations_pending() == 0 {
                return now;
            }
        }
        panic!("evacuations never settled: {} pending", p.evacuations_pending());
    }

    #[test]
    fn pack_concentrates_and_spread_stripes() {
        let mut pack = pool(3);
        let b = au(&pack);
        for _ in 0..3 {
            pack.alloc_vm(HostId(0), b, Picos::ZERO).unwrap();
        }
        let snap = pack.snapshot();
        assert_eq!(snap.devices[0].allocated_aus, 3, "pack stacks one device");
        assert_eq!(snap.devices[1].allocated_aus + snap.devices[2].allocated_aus, 0);

        let mut cfg = PoolConfig::tiny(3);
        cfg.coordinator.enabled = false;
        cfg.policy = PlacementPolicy::SpreadForBandwidth;
        let mut spread = MemoryPool::analytic(cfg).unwrap();
        spread.register_host(HostId(0)).unwrap();
        spread.alloc_vm(HostId(0), 3 * b, Picos::ZERO).unwrap();
        let snap = spread.snapshot();
        let per: Vec<u32> = snap.devices.iter().map(|d| d.allocated_aus).collect();
        assert_eq!(per, vec![1, 1, 1], "spread stripes one AU per device");
    }

    #[test]
    fn access_reaches_every_au_and_charges_the_link() {
        let mut p = pool(2);
        let b = au(&p);
        let vm = p.alloc_vm(HostId(0), 3 * b, Picos::ZERO).unwrap();
        for i in 0..3 {
            let out = p.access(vm, i * b + 17, AccessKind::Read, secs(1)).unwrap();
            assert!(out.link_delay > Picos::ZERO, "link round-trip charged");
        }
        let err = p.access(vm, 3 * b, AccessKind::Read, secs(1)).unwrap_err();
        assert!(matches!(err, PoolError::OutOfRange { .. }), "{err}");
    }

    #[test]
    fn access_walks_a_striped_vm_shard_by_shard() {
        let mut cfg = PoolConfig::tiny(3);
        cfg.coordinator.enabled = false;
        cfg.policy = PlacementPolicy::SpreadForBandwidth;
        let mut p = MemoryPool::analytic(cfg).unwrap();
        p.register_host(HostId(0)).unwrap();
        let b = au(&p);
        let vm = p.alloc_vm(HostId(0), 3 * b, Picos::ZERO).unwrap();
        // One AU per device: the first and the last byte of AU `i` are both
        // served by the `i`-th shard's device, and no two AUs share one.
        let mut served = Vec::new();
        for i in 0..3 {
            let first = p.access(vm, i * b, AccessKind::Read, secs(1)).unwrap().device;
            let last = p.access(vm, (i + 1) * b - 64, AccessKind::Write, secs(1)).unwrap().device;
            assert_eq!(first, last, "AU {i}");
            served.push(first);
        }
        served.sort();
        assert_eq!(served, [DeviceId(0), DeviceId(1), DeviceId(2)]);
        let err = p.access(vm, 3 * b, AccessKind::Read, secs(1)).unwrap_err();
        assert!(matches!(err, PoolError::OutOfRange { .. }), "{err}");
    }

    #[test]
    fn a_host_the_fabric_cannot_route_is_refused_before_any_device_sees_it() {
        // `FabricRunConfig::tiny`'s shape: two hosts on the fabric, devices
        // that would accept four.
        let mut cfg = PoolConfig::tiny(4);
        cfg.coordinator.enabled = false;
        let topo = dtl_fabric::TopologyConfig::dual_switch(2, 4);
        let fabric = dtl_fabric::CxlFabric::new(topo, cfg.link, cfg.retry).unwrap();
        let mut p = MemoryPool::analytic_with_interconnect(cfg, Box::new(fabric)).unwrap();
        p.register_host(HostId(1)).unwrap();
        let err = p.register_host(HostId(2)).unwrap_err();
        assert_eq!(err, PoolError::UnroutableHost { host: HostId(2), device: DeviceId(0) });
        assert!(err.to_string().contains("no route"), "{err}");
        let err = p.alloc_vm(HostId(2), au(&p), Picos::ZERO).unwrap_err();
        assert_eq!(err, PoolError::UnknownHost(HostId(2)));
        let dev = p.device_mut(DeviceId(3)).unwrap();
        assert!(dev.alloc_vm(HostId(2), 1, Picos::ZERO).is_err(), "no device registered it");
    }

    #[test]
    fn pool_quota_gates_admission_across_devices() {
        let mut p = pool(2);
        let b = au(&p);
        p.set_host_quota(HostId(0), Some(3)).unwrap();
        p.alloc_vm(HostId(0), 2 * b, Picos::ZERO).unwrap();
        let err = p.alloc_vm(HostId(0), 2 * b, Picos::ZERO).unwrap_err();
        assert!(matches!(err, PoolError::QuotaExceeded { .. }), "{err}");
        assert_eq!(p.stats().rejected_vms, 1);
        p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap();
        p.check_invariants().unwrap();
    }

    #[test]
    fn dealloc_returns_capacity_and_books_balance() {
        let mut p = pool(2);
        let b = au(&p);
        let vm = p.alloc_vm(HostId(0), 5 * b, Picos::ZERO).unwrap();
        assert_eq!(p.host_mapped_aus(HostId(0)), Some(5));
        p.dealloc_vm(vm, secs(1)).unwrap();
        assert_eq!(p.host_mapped_aus(HostId(0)), Some(0));
        let snap = p.snapshot();
        assert!(snap.devices.iter().all(|d| d.allocated_aus == 0));
        assert_eq!(snap.mapped_segments, 0);
        p.check_invariants().unwrap();
    }

    /// A pool whose member geometry the DTL configuration cannot run on is
    /// refused as a configuration error — before a device is built (whose
    /// constructor would panic on it) and before any size is divided.
    #[test]
    fn member_geometry_the_dtl_cannot_hold_is_a_config_error() {
        let reason = |cfg: PoolConfig| match MemoryPool::analytic(cfg) {
            Err(PoolError::InvalidConfig { reason }) => reason,
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a pool"),
        };
        let tiny = PoolConfig::tiny(2);
        // 32-segment AUs over 3 channels.
        assert!(
            reason(PoolConfig { channels: 3, ..tiny }).contains("cannot balance over 3 channels")
        );
        // 2^21 segments an AU: the offset would spill into the AU id.
        let mut wide = tiny;
        wide.dtl.segment_bytes = 4;
        assert!(reason(wide).contains("AU offset"));
        // A zero segment size used to divide by zero in `aus_per_device`.
        let mut zero = tiny;
        zero.dtl.segment_bytes = 0;
        assert!(reason(zero).contains("at least one segment"));
        // A segment count that wraps u64.
        let wraps = PoolConfig { segs_per_rank: u64::MAX / 4, ..tiny };
        assert!(reason(wraps).contains("do not fit a table index"));
    }

    /// The pool sweep's own books, one hand mutation each: an AU a device
    /// counts but no shard or reservation owns, and a device whose tables
    /// went wrong underneath the pool.
    #[test]
    fn sweep_reports_an_orphaned_au_and_a_corrupt_member() {
        let mut p = pool(2);
        let b = au(&p);
        p.alloc_vm(HostId(0), 3 * b, Picos::ZERO).unwrap();
        p.check_invariants().unwrap();

        p.devices[0].allocated_aus += 1;
        match p.check_invariants() {
            Err(PoolError::InvalidConfig { reason }) => {
                assert_eq!(reason, "dev0 books 4 AUs but shards+reservations sum to 3")
            }
            other => panic!("orphaned AU went unreported: {other:?}"),
        }
        p.devices[0].allocated_aus -= 1;
        p.check_invariants().unwrap();

        p.devices[0].dev.corrupt_mapping_for_test().unwrap();
        assert!(matches!(
            p.check_invariants(),
            Err(PoolError::Device {
                device: DeviceId(0),
                source: dtl_core::DtlError::Internal { .. }
            })
        ));
    }

    #[test]
    fn retire_evacuates_every_shard_with_zero_loss() {
        let mut p = pool(3);
        let b = au(&p);
        let mut vms = Vec::new();
        for _ in 0..4 {
            vms.push(p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap());
        }
        // Pack put all four AUs on dev0; retire it.
        p.retire_device(DeviceId(0), secs(1)).unwrap();
        assert_eq!(p.device_health(DeviceId(0)), Some(DeviceHealth::Retired));
        assert!(p.evacuations_pending() > 0);
        // Shards stay readable mid-copy.
        p.assert_all_reachable(secs(1)).unwrap();
        let now = settle(&mut p, secs(1));
        assert_eq!(p.stats().evacuations_completed, p.stats().evacuations_started);
        for vm in &vms {
            let homes = p.vm_devices(*vm).unwrap();
            assert!(!homes.contains(&DeviceId(0)), "{vm} still on retired device");
        }
        p.assert_all_reachable(now).unwrap();
        p.check_invariants().unwrap();
        let snap = p.snapshot();
        assert_eq!(snap.devices[0].allocated_aus, 0, "retired device fully drained");
    }

    /// Event-driven drivers wake the pool at [`MemoryPool::next_activity_at`]:
    /// a started evacuation must surface its cutover time, and ticking at
    /// exactly the reported instants must drain the queue without a grid.
    #[test]
    fn next_activity_surfaces_evacuation_cutover() {
        let mut p = pool(3);
        // The hotness engine, when enabled, always has a sampling-window
        // deadline; switch it off so only migrations and evacuations drive
        // the activity query (as the dtl-sim pool driver configures it).
        for i in 0..3 {
            p.device_mut(DeviceId(i)).unwrap().set_hotness_enabled(false);
        }
        let b = au(&p);
        for _ in 0..4 {
            p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap();
        }
        assert_eq!(p.next_activity_at(), None, "quiescent pool has no deadline");
        p.retire_device(DeviceId(0), secs(1)).unwrap();
        let first = p.next_activity_at().expect("evacuation in progress");
        assert!(first > secs(1), "cutover is in the future");
        // Walk the event chain: tick only at reported activity times.
        let mut now = secs(1);
        for _ in 0..64 {
            match p.next_activity_at() {
                Some(t) => {
                    now = t.max(now);
                    p.tick(now).unwrap();
                }
                None => break,
            }
        }
        assert_eq!(p.evacuations_pending(), 0, "event walk drains evacuations");
        assert_eq!(p.stats().evacuations_completed, p.stats().evacuations_started);
        p.assert_all_reachable(now).unwrap();
        p.check_invariants().unwrap();
    }

    #[test]
    fn retirement_cancels_inbound_copies_and_replans() {
        let mut p = pool(3);
        let b = au(&p);
        let vm = p.alloc_vm(HostId(0), 2 * b, Picos::ZERO).unwrap();
        p.drain_device(DeviceId(0), secs(1)).unwrap();
        assert!(p.evacuations_pending() > 0);
        // The evacuation targets dev1 (busiest eligible under pack);
        // retiring dev1 mid-copy must cancel and re-plan onto dev2.
        p.retire_device(DeviceId(1), secs(2)).unwrap();
        assert!(p.stats().evacuations_cancelled > 0);
        let now = settle(&mut p, secs(2));
        let homes = p.vm_devices(vm).unwrap();
        assert_eq!(homes, vec![DeviceId(2)]);
        p.assert_all_reachable(now).unwrap();
        p.check_invariants().unwrap();
    }

    #[test]
    fn coordinator_drains_the_least_utilized_device_then_parks_it() {
        let mut p = coord_pool(3);
        let b = au(&p);
        // Pack fills dev0; dev1 gets one straggler AU via a manual drain.
        for _ in 0..6 {
            p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap();
        }
        let mut now = secs(1);
        p.tick(now).unwrap();
        // Empty dev1/dev2 park immediately (one per tick).
        now += secs(10);
        p.tick(now).unwrap();
        let parked = p.snapshot().devices.iter().filter(|d| d.coord == CoordState::Parked).count();
        assert_eq!(parked, 2, "idle devices parked");
        assert!(p.stats().devices_parked >= 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn admission_wakes_parked_devices_under_pressure() {
        let mut p = coord_pool(2);
        let b = au(&p);
        let aus_per_dev = p.config().aus_per_device() as u64;
        let mut now = secs(1);
        p.tick(now).unwrap();
        now += secs(10);
        p.tick(now).unwrap();
        assert_eq!(p.coord_state(DeviceId(1)), Some(CoordState::Parked));
        // Fill past one device's capacity: the parked device must wake.
        p.alloc_vm(HostId(0), aus_per_dev * b, now).unwrap();
        p.alloc_vm(HostId(0), b, now).unwrap();
        assert_eq!(p.coord_state(DeviceId(1)), Some(CoordState::Active));
        assert_eq!(p.stats().devices_woken, 1);
        p.check_invariants().unwrap();
    }

    /// ISSUE 8 satellite regression: the coordinator parks devices via
    /// `request_power_down` — under a ladder policy the victim's ranks may
    /// already sit in active/precharge power-down or self-refresh, and the
    /// park must bridge them through standby instead of erroring (or
    /// double-charging the MPSM entry).
    #[test]
    fn coordinator_parks_devices_whose_ranks_ladder_demoted() {
        let mut cfg = PoolConfig::tiny(3);
        cfg.dtl.power_policy = dtl_dram::PowerPolicyKind::AdaptiveDemotion;
        let mut p = MemoryPool::analytic(cfg).unwrap();
        p.register_host(HostId(0)).unwrap();
        let b = au(&p);
        for _ in 0..6 {
            p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap();
        }
        // First tick: every idle rank demotes a rung (the tiny adaptive
        // floor is microseconds); subsequent ticks park one empty device
        // each, with ranks at APD or deeper.
        let mut now = secs(1);
        for _ in 0..3 {
            p.tick(now).unwrap();
            now += secs(10);
        }
        let parked = p.snapshot().devices.iter().filter(|d| d.coord == CoordState::Parked).count();
        assert_eq!(parked, 2, "ladder-demoted devices still park");
        assert!(
            p.device(DeviceId(0)).unwrap().policy_demotions() > 0,
            "the adaptive policy actually demoted before the park"
        );
        p.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_aggregates_residency_errors_and_link_totals() {
        let mut p = pool(2);
        let b = au(&p);
        let vm = p.alloc_vm(HostId(0), 2 * b, Picos::ZERO).unwrap();
        p.inject_crc_burst(DeviceId(0), 2).unwrap();
        p.access(vm, 0, AccessKind::Read, secs(1)).unwrap();
        let mut now = secs(1);
        for _ in 0..6 {
            now += secs(10);
            p.tick(now).unwrap();
        }
        let snap = p.snapshot();
        let summed: u64 = snap.devices.iter().map(|d| d.link.crc_errors).sum();
        assert_eq!(snap.link.crc_errors, summed, "link totals match per-device sum");
        assert!(snap.link.crc_errors >= 2);
        let residency_total: Picos = snap.rank_residency.iter().copied().sum();
        let per_device: Picos = snap
            .devices
            .iter()
            .flat_map(|d| d.device.ranks.iter())
            .flat_map(|r| r.residency.iter().copied())
            .sum();
        assert_eq!(residency_total, per_device, "residency aggregate matches");
        assert!(residency_total > Picos::ZERO);
    }

    #[test]
    fn slo_report_covers_access_admission_and_evacuation() {
        let mut p = pool(3);
        let b = au(&p);
        assert!(p.slo_report().is_empty(), "fresh pool has no samples");
        let mut vms = Vec::new();
        for _ in 0..4 {
            vms.push(p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap());
        }
        p.access(vms[0], 17, AccessKind::Read, secs(1)).unwrap();
        p.retire_device(DeviceId(0), secs(1)).unwrap();
        let _ = settle(&mut p, secs(1));
        let slo = p.slo_report();
        let access = slo.access.expect("accesses observed");
        assert_eq!(access.count, 1);
        // The link round trip alone puts a floor under every access.
        assert!(access.p50_ps >= p.config().link.round_trip().as_ps());
        let admission = slo.admission.expect("admissions observed");
        assert_eq!(admission.count, 4);
        assert!(admission.p50_ps > 0);
        let evac = slo.evac_backlog.expect("evacuations completed");
        assert_eq!(evac.completed, p.stats().evacuations_completed);
        assert!(evac.peak_depth > 0);
        assert!(evac.max_age_ps > 0, "cutover happens after planning");
    }

    #[test]
    fn export_metrics_is_idempotent() {
        let mut p = pool(2);
        let b = au(&p);
        p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap();
        let registry = MetricsRegistry::new();
        p.export_metrics(&registry);
        p.export_metrics(&registry);
        assert_eq!(registry.counter("pool.vms_admitted").get(), 1, "set, not add");
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut p = pool(1);
        assert!(matches!(p.alloc_vm(HostId(9), 1, Picos::ZERO), Err(PoolError::UnknownHost(_))));
        assert!(matches!(p.dealloc_vm(PoolVmId(42), Picos::ZERO), Err(PoolError::UnknownVm(_))));
        assert!(matches!(
            p.retire_device(DeviceId(7), Picos::ZERO),
            Err(PoolError::UnknownDevice(_))
        ));
        assert!(matches!(
            p.access(PoolVmId(42), 0, AccessKind::Read, Picos::ZERO),
            Err(PoolError::UnknownVm(_))
        ));
    }

    #[test]
    fn capacity_exhaustion_reports_placeable_free_space() {
        let mut p = pool(1);
        let b = au(&p);
        let per_dev = u64::from(p.config().aus_per_device());
        p.alloc_vm(HostId(0), per_dev * b, Picos::ZERO).unwrap();
        let err = p.alloc_vm(HostId(0), b, Picos::ZERO).unwrap_err();
        match err {
            PoolError::NoCapacity { requested_aus, free_aus } => {
                assert_eq!(requested_aus, 1);
                assert_eq!(free_aus, 0);
            }
            other => panic!("unexpected {other}"),
        }
    }
}
