//! VM admission: the one owner of hosts, VMs and allocation-unit ids.
//!
//! The paper keeps one AU table per host (§4.1, Table 5) and allocates at
//! VM granularity (§4.3). [`Admission`] holds what that takes — per host
//! the live VMs with their AU lists, the AU ids handed out and given back,
//! the mapped-AU count and the quota — indexed like the mapping tables' host
//! table, which alone says *which* hosts are registered. It works through
//! [`AdmissionCtl`]: itself, the translator, the command tap and the whole
//! [`PowerCtl`] view (tables, allocator, migration engine, telemetry, and
//! rank power for capacity wakes and power-down planning), borrowed for one
//! call. One entry per cause — a host registers, a quota is set, a VM
//! arrives, grows, shrinks, leaves — over one `carve` (quota, capacity
//! wakes, all or nothing, admission latency) and one `release_au`. A
//! released AU's forward table goes on a spare stack that the next carve
//! writes into, so a device that admits and releases in steady state
//! allocates no table.

use dtl_dram::{FastMap, Picos};
use dtl_telemetry::{EventKind, Histogram};
use serde::{Deserialize, Serialize};

use crate::addr::{AuId, Dsn, HostId, HostPhysAddr, Hsn, VmHandle};
use crate::backend::MemoryBackend;
use crate::config::DtlConfig;
use crate::error::DtlError;
use crate::power::PowerCtl;
use crate::tables::MappingTables;
use crate::tap::{CommandTap, DeviceCommand};
use crate::translate::Translator;

/// A successful VM allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmAllocation {
    /// Handle for deallocation.
    pub handle: VmHandle,
    /// Allocation units granted, in HPA order.
    pub aus: Vec<AuId>,
    /// Bytes reserved (AU-rounded).
    pub bytes: u64,
}

impl VmAllocation {
    /// The host physical base address of the `i`-th granted AU.
    pub fn hpa_base(&self, i: usize, au_bytes: u64) -> HostPhysAddr {
        HostPhysAddr::new(u64::from(self.aus[i].0) * au_bytes)
    }
}

/// Operational snapshot of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSnapshot {
    /// Host id.
    pub host: HostId,
    /// Live VMs.
    pub vms: u32,
    /// Allocation units currently mapped.
    pub aus: u32,
}

#[derive(Debug, Default)]
struct Host {
    next_au: u32,
    /// AU ids given back, reused most recently freed first.
    free_aus: Vec<AuId>,
    next_vm: u32,
    vms: FastMap<u32, Vec<AuId>>,
    /// AUs mapped over all VMs (and, inside `carve`, the ones carved so
    /// far).
    mapped_aus: u32,
    /// Admission-control cap on simultaneously mapped AUs (availability:
    /// one tenant cannot starve the pool). `None` = unlimited.
    quota_aus: Option<u32>,
}

/// The telemetry id of a VM: host in the high word, VM number in the low.
fn event_id(handle: VmHandle) -> u64 {
    (u64::from(handle.host.0) << 32) | u64::from(handle.vm)
}

/// Everything the device remembers about its hosts and their VMs.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    /// Indexed by [`HostId`] like the mapping tables' host table, which
    /// says whether an id is registered; an entry below a registered id is
    /// an empty host.
    hosts: Vec<Host>,
    /// Forward tables of released AUs, stale DSNs and all, for the next
    /// carve to write into: never more of them than the device maps AUs,
    /// so a device that gives back everything keeps none.
    spares: Vec<Vec<Dsn>>,
    /// Admission latency (table carving + capacity wakes), always on — an
    /// allocation is rare enough that a histogram observe is free.
    pub(crate) slo: Histogram,
    /// Latency of the most recent successful carve (zero before the first).
    pub(crate) last_latency: Picos,
}

impl Admission {
    /// Per-host occupancy of the hosts registered in `tables`, ascending.
    pub(crate) fn snapshot(&self, tables: &MappingTables) -> Vec<HostSnapshot> {
        let hosts = (0u16..).map(HostId).zip(&self.hosts);
        hosts
            .filter(|(id, _)| tables.has_host(*id))
            .map(|(host, h)| HostSnapshot { host, vms: h.vms.len() as u32, aus: h.mapped_aus })
            .collect()
    }

    /// Verifies, per host and whenever no entry of this module is running:
    /// the VMs' AU lists and the free-id list partition the ids handed out
    /// (`0..next_au`); the tables hold every listed AU and no other; the kept
    /// mapped-AU count is their number, and within the quota. O(hosts +
    /// AUs), nothing per segment.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first violation.
    pub(crate) fn check(&self, tables: &MappingTables) -> Result<(), DtlError> {
        for (host, state) in (0u16..).map(HostId).zip(&self.hosts) {
            let broken =
                |what: String| Err(DtlError::Internal { reason: format!("{host}: {what}") });
            let listed = state.vms.values().flatten();
            let mut lists = vec![0u8; state.next_au as usize];
            for au in listed.clone().chain(&state.free_aus) {
                match lists.get_mut(au.0 as usize) {
                    Some(n) => *n += 1,
                    None => return broken(format!("{au} was never handed out")),
                }
            }
            if let Some(au) = lists.iter().position(|n| *n != 1) {
                return broken(format!("AU {au} is in {} of the VM and free lists", lists[au]));
            }
            let mut in_vms = 0;
            for au in listed {
                in_vms += 1;
                if tables.translate(Hsn { host, au: *au, au_offset: 0 }).is_none() {
                    return broken(format!("{au} is in a VM but not in the tables"));
                }
            }
            let (kept, mapped) = (state.mapped_aus, tables.au_count(host));
            if in_vms != kept as usize || in_vms != mapped {
                return broken(format!("VMs list {in_vms} AUs, count {kept}, tables {mapped}"));
            }
            if let Some(quota) = state.quota_aus.filter(|quota| kept > *quota) {
                return broken(format!("{kept} AUs mapped over a quota of {quota}"));
            }
        }
        Ok(())
    }
}

/// [`Admission`] at work: the module's state together with the parts of the
/// device an allocation touches, borrowed for one call.
pub(crate) struct AdmissionCtl<'a, B> {
    pub(crate) state: &'a mut Admission,
    pub(crate) config: &'a DtlConfig,
    pub(crate) translator: &'a mut Translator,
    pub(crate) tap: &'a mut CommandTap,
    pub(crate) power: PowerCtl<'a, B>,
}

impl<B: MemoryBackend> AdmissionCtl<'_, B> {
    /// The admission state of a registered host.
    fn host(&mut self, host: HostId) -> Option<&mut Host> {
        let registered = self.power.tables.has_host(host);
        self.state.hosts.get_mut(usize::from(host.0)).filter(|_| registered)
    }

    /// The AU list of a live VM.
    fn vm(&mut self, handle: VmHandle) -> Result<&mut Vec<AuId>, DtlError> {
        let host = self.host(handle.host);
        host.and_then(|h| h.vms.get_mut(&handle.vm)).ok_or(DtlError::UnknownVm(handle))
    }

    /// Registers a host (idempotent), unless past the configured maximum.
    pub(crate) fn register_host(&mut self, host: HostId) -> Result<(), DtlError> {
        let max_hosts = self.config.max_hosts;
        if host.0 >= max_hosts {
            return Err(DtlError::TooManyHosts { host, max_hosts });
        }
        self.power.tables.register_host(host);
        let hosts = &mut self.state.hosts;
        hosts.resize_with(hosts.len().max(usize::from(host.0) + 1), Host::default);
        Ok(())
    }

    /// Sets (or clears) a host's quota. One below what the host already
    /// maps is refused: nothing is evicted, so such a cap could not hold.
    pub(crate) fn set_quota(&mut self, host: HostId, quota: Option<u32>) -> Result<(), DtlError> {
        let state = self.host(host).ok_or(DtlError::UnknownHost(host))?;
        let mapped_aus = state.mapped_aus;
        if let Some(quota_aus) = quota.filter(|quota| mapped_aus > *quota) {
            return Err(DtlError::QuotaExceeded { host, mapped_aus, quota_aus });
        }
        state.quota_aus = quota;
        Ok(())
    }

    /// Carves `bytes` (rounded up to whole AUs, at least one) for `host`,
    /// all or nothing, waking powered-down rank groups while the active
    /// ranks lack the capacity, and charges the admission latency: one
    /// controller cycle per segment-table entry carved, plus the MPSM exit
    /// penalty (ddr4-2933 txmpsm) of every group woken. The one place the
    /// quota is asked.
    fn carve(&mut self, host: HostId, bytes: u64, now: Picos) -> Result<Vec<AuId>, DtlError> {
        let segs = self.config.segments_per_au();
        let n_aus = bytes.div_ceil(self.config.au_bytes).max(1);
        let state = self.host(host).ok_or(DtlError::UnknownHost(host))?;
        let (mapped_aus, quota) = (state.mapped_aus, state.quota_aus);
        if let Some(quota_aus) = quota.filter(|q| u64::from(mapped_aus) + n_aus > u64::from(*q)) {
            return Err(DtlError::QuotaExceeded { host, mapped_aus, quota_aus });
        }
        let wakes_before = self.power.stats.capacity_wakes;
        // Sized once, for no more AUs than the device holds: a request
        // past that is refused, not allocated for.
        let device_aus = self.power.alloc.geometry().total_segments() / segs;
        let mut aus = Vec::with_capacity(n_aus.min(device_aus) as usize);
        let refusal = loop {
            let wanted = n_aus - aus.len() as u64;
            if wanted == 0 {
                break None;
            }
            // Every AU still wanted that the active ranks hold, in one
            // allocator pass into the spare tables; a wake comes only once
            // they hold none, so it lands at the same AU as with one call
            // an AU.
            let Admission { hosts, spares, .. } = &mut *self.state;
            match self.power.alloc.allocate_aus(segs, wanted, spares) {
                Ok(carved) => {
                    let state = &mut hosts[usize::from(host.0)];
                    for dsns in spares.drain(spares.len() - carved..) {
                        let au = state.free_aus.pop().unwrap_or_else(|| {
                            state.next_au += 1;
                            AuId(state.next_au - 1)
                        });
                        state.mapped_aus += 1;
                        aus.push(au);
                        let tap_dsns = self.tap.enabled().then(|| dsns.clone());
                        self.power.tables.create_au(host, au, dsns)?;
                        if let Some(dsns) = tap_dsns {
                            self.tap.record(DeviceCommand::AuCreated { host, au, dsns, at: now });
                        }
                    }
                }
                // With nothing left to wake, the refusal is the allocator's.
                Err(short @ DtlError::OutOfCapacity { .. }) => {
                    match self.power.wake_for_capacity(now) {
                        Ok(()) => {}
                        Err(DtlError::OutOfCapacity { .. }) => break Some(short),
                        Err(e) => break Some(e),
                    }
                }
                Err(e) => break Some(e),
            }
        };
        if let Some(refusal) = refusal {
            for au in aus {
                self.release_au(host, au, now)?;
            }
            return Err(refusal);
        }
        let wakes = self.power.stats.capacity_wakes - wakes_before;
        let t = dtl_dram::TimingParams::ddr4_2933();
        self.state.last_latency =
            self.config.controller_cycle() * (n_aus * segs) + t.cycles(t.txmpsm) * wakes;
        self.state.slo.observe(self.state.last_latency.as_ps());
        Ok(aus)
    }

    /// Gives one AU back: unmaps it, cancels the migrations touching its
    /// segments, frees the segments, returns the AU id to the host and its
    /// table to the spares (into the `AuRemoved` command instead while the
    /// tap records).
    fn release_au(&mut self, host: HostId, au: AuId, now: Picos) -> Result<(), DtlError> {
        let dsns = self.power.tables.remove_au(host, au)?;
        // One pass per structure. Every cancel comes before any settling, in
        // the order a cancel-and-settle per segment had: settling a job frees
        // a copy's reserved destination and advances its drain group or
        // consolidation plan (rank power, hotness, telemetry), but never
        // calls the migration engine — so it can neither enqueue nor cancel
        // a job, least of all one on these segments, which are unmapped and
        // not yet free.
        for job in self.power.migrate.cancel_involving(&dsns) {
            self.power.job_cancelled(job.id, job.kind, now)?;
        }
        debug_assert!(
            !dsns.iter().any(|d| self.power.migrate.involves(*d)),
            "settling a cancelled job queued another on {host}/{au}"
        );
        self.translator.invalidate_au(host, au, dsns.len() as u32);
        self.power.alloc.free_segments(&dsns)?;
        if self.tap.enabled() {
            self.tap.record(DeviceCommand::AuRemoved { host, au, dsns, at: now });
        } else {
            self.state.spares.push(dsns);
        }
        let mapped = self.power.tables.mapped_segments() / self.config.segments_per_au();
        self.state.spares.truncate(mapped as usize);
        let state = self.host(host).expect("its AU was mapped");
        state.free_aus.push(au);
        state.mapped_aus -= 1;
        Ok(())
    }

    /// A VM arrives: carves its AUs and gives it the host's next VM number.
    pub(crate) fn alloc_vm(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<VmAllocation, DtlError> {
        let aus = self.carve(host, bytes, now)?;
        let state = self.host(host).expect("carve found it");
        let handle = VmHandle { host, vm: state.next_vm };
        state.next_vm += 1;
        state.vms.insert(handle.vm, aus.clone());
        self.power.stats.vms_allocated += 1;
        let n_aus = aus.len() as u64;
        let (vm, segments) = (event_id(handle), n_aus * self.config.segments_per_au());
        self.power.telemetry.emit(now.as_ps(), EventKind::VmAlloc { vm, segments });
        Ok(VmAllocation { handle, aus, bytes: n_aus * self.config.au_bytes })
    }

    /// A VM grows: the new AUs extend its HPA space. Not an arrival — no VM
    /// number is used and no `VmAlloc` is emitted.
    pub(crate) fn grow_vm(
        &mut self,
        handle: VmHandle,
        bytes: u64,
        now: Picos,
    ) -> Result<Vec<AuId>, DtlError> {
        self.vm(handle)?;
        let aus = self.carve(handle.host, bytes, now)?;
        self.vm(handle)?.extend_from_slice(&aus);
        Ok(aus)
    }

    /// A VM shrinks by its `n_aus` highest AUs, but not to nothing; the
    /// freed capacity may let a rank group power down.
    pub(crate) fn shrink_vm(
        &mut self,
        handle: VmHandle,
        n_aus: u32,
        now: Picos,
    ) -> Result<(), DtlError> {
        let aus = self.vm(handle)?;
        let held = aus.len();
        if n_aus as usize >= held {
            let reason =
                format!("shrinking by {n_aus} of {held} AUs would empty the VM; use dealloc_vm");
            return Err(DtlError::Internal { reason });
        }
        for au in aus.split_off(held - n_aus as usize) {
            self.release_au(handle.host, au, now)?;
        }
        self.power.plan_power_down(now)
    }

    /// A VM leaves: gives back every AU it holds and plans power-downs.
    pub(crate) fn dealloc_vm(&mut self, handle: VmHandle, now: Picos) -> Result<(), DtlError> {
        let host = self.host(handle.host);
        let aus = host.and_then(|h| h.vms.remove(&handle.vm)).ok_or(DtlError::UnknownVm(handle))?;
        let (vm, segments) = (event_id(handle), aus.len() as u64 * self.config.segments_per_au());
        for au in aus {
            self.release_au(handle.host, au, now)?;
        }
        self.power.stats.vms_deallocated += 1;
        self.power.telemetry.emit(now.as_ps(), EventKind::VmDealloc { vm, segments });
        self.power.plan_power_down(now)
    }
}

#[cfg(test)]
impl Admission {
    /// Hand mutation for the sweep's self-tests: the host's free-id list,
    /// the AU list of its lowest-numbered VM, its kept count and its quota.
    pub(crate) fn corrupt_for_test(
        &mut self,
        host: HostId,
    ) -> (&mut Vec<AuId>, &mut Vec<AuId>, &mut u32, &mut Option<u32>) {
        let h = &mut self.hosts[usize::from(host.0)];
        let first = *h.vms.keys().min().expect("a live VM");
        let vm = h.vms.get_mut(&first).expect("just found");
        (&mut h.free_aus, vm, &mut h.mapped_aus, &mut h.quota_aus)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dtl_telemetry::{RingSink, Telemetry, TelemetrySink};

    use super::*;
    use crate::{AnalyticBackend, DtlDevice};

    fn device() -> DtlDevice<AnalyticBackend> {
        let mut dev = DtlDevice::with_analytic_geometry(DtlConfig::tiny(), 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev
    }

    /// A grow is not a VM arrival: over allocations, grows and
    /// deallocations every `VmAlloc` names a VM of its own, and each meets
    /// exactly one `VmDealloc`.
    #[test]
    fn every_vm_alloc_event_names_one_vm_and_meets_one_dealloc() {
        let mut dev = device();
        let sink = Arc::new(RingSink::with_capacity(256));
        dev.set_telemetry(Telemetry::new(sink.clone() as Arc<dyn TelemetrySink>));
        let au = dev.config().au_bytes;
        let t = Picos::from_us;
        let a = dev.alloc_vm(HostId(0), au, t(1)).unwrap().handle;
        dev.grow_vm(a, au, t(2)).unwrap();
        let b = dev.alloc_vm(HostId(0), au, t(3)).unwrap().handle;
        dev.grow_vm(b, 2 * au, t(4)).unwrap();
        dev.dealloc_vm(a, t(5)).unwrap();
        let c = dev.alloc_vm(HostId(0), au, t(6)).unwrap().handle;
        dev.shrink_vm(b, 1, t(7)).unwrap();
        dev.dealloc_vm(b, t(8)).unwrap();
        dev.dealloc_vm(c, t(9)).unwrap();
        let (mut arrived, mut left) = (Vec::new(), Vec::new());
        for event in sink.drain() {
            match event.kind {
                EventKind::VmAlloc { vm, .. } => arrived.push(vm),
                EventKind::VmDealloc { vm, .. } => left.push(vm),
                _ => {}
            }
        }
        assert_eq!(arrived, [a, b, c].map(event_id), "one arrival per VM, none for a grow");
        left.sort_unstable();
        assert_eq!(left, arrived, "each arrival meets one departure");
        assert_eq!(dev.stats().vms_allocated, 3);
        assert_eq!(dev.snapshot().hosts[0], HostSnapshot { host: HostId(0), vms: 0, aus: 0 });
        dev.check_invariants().unwrap();
    }

    /// The device evicts nothing to meet a quota, so one below what the host
    /// already maps is refused and the old one stays in force.
    #[test]
    fn a_quota_below_what_the_host_maps_is_refused() {
        let mut dev = device();
        let au = dev.config().au_bytes;
        let vm = dev.alloc_vm(HostId(0), 3 * au, Picos::ZERO).unwrap().handle;
        let refused = dev.set_host_quota(HostId(0), Some(2)).unwrap_err();
        assert_eq!(
            refused,
            DtlError::QuotaExceeded { host: HostId(0), mapped_aus: 3, quota_aus: 2 }
        );
        dev.grow_vm(vm, au, Picos::ZERO).expect("still unlimited");
        dev.set_host_quota(HostId(0), Some(4)).unwrap();
        assert!(matches!(
            dev.grow_vm(vm, au, Picos::ZERO),
            Err(DtlError::QuotaExceeded { mapped_aus: 4, quota_aus: 4, .. })
        ));
        dev.shrink_vm(vm, 2, Picos::ZERO).unwrap();
        dev.set_host_quota(HostId(0), Some(2)).expect("fits now");
        assert!(matches!(
            dev.set_host_quota(HostId(1), None),
            Err(DtlError::UnknownHost(HostId(1)))
        ));
        dev.check_invariants().unwrap();
    }

    /// An allocation that runs out of capacity midway gives back what it
    /// carved: AU ids, segments and the mapped count.
    #[test]
    fn a_refused_allocation_leaves_no_trace() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        let au = dev.config().au_bytes;
        // 2 x 4 x 32 segments = 8 AUs of 32.
        let big = dev.alloc_vm(HostId(0), 6 * au, Picos::ZERO).unwrap();
        let before = dev.snapshot();
        let err = dev.alloc_vm(HostId(0), 3 * au, Picos::ZERO).unwrap_err();
        assert!(matches!(err, DtlError::OutOfCapacity { .. }), "{err}");
        assert!(matches!(
            dev.grow_vm(big.handle, 3 * au, Picos::ZERO),
            Err(DtlError::OutOfCapacity { .. })
        ));
        assert_eq!(dev.snapshot(), before);
        dev.check_invariants().unwrap();
        // The two AU ids the rollbacks gave back are handed out again, most
        // recently freed first.
        let next = dev.alloc_vm(HostId(0), 2 * au, Picos::ZERO).unwrap();
        assert_eq!(next.aus, vec![AuId(6), AuId(7)]);
        // Billions of AUs asked: refused like three, nothing sized for them.
        dev.shrink_vm(big.handle, 1, Picos::ZERO).unwrap();
        let before = dev.snapshot();
        assert!(matches!(
            dev.alloc_vm(HostId(0), u64::MAX, Picos::ZERO),
            Err(DtlError::OutOfCapacity { .. })
        ));
        assert_eq!(dev.snapshot(), before);
    }

    /// A VM whose AUs need capacity wakes mid-carve gets what one AU a
    /// call gets: the same AU ids over the same DSNs, and the same wakes —
    /// the command streams, MPSM exits included, are equal.
    #[test]
    fn a_carve_that_wakes_mid_vm_matches_au_by_au_allocation() {
        // One active rank per channel: 32 segments, two AUs' share.
        let parked = || {
            let mut dev = device();
            dev.request_power_down(Picos::ZERO).unwrap();
            assert_eq!(dev.active_ranks(0), 1);
            dev.set_command_tap(true);
            dev
        };
        let (au, t) = (parked().config().au_bytes, Picos::from_us(1));
        let mut whole = parked();
        let vm = whole.alloc_vm(HostId(0), 5 * au, t).unwrap();
        let mut by_au = parked();
        let first = by_au.alloc_vm(HostId(0), au, t).unwrap();
        let mut aus = first.aus;
        for _ in 1..5 {
            aus.extend(by_au.grow_vm(first.handle, au, t).unwrap());
        }
        assert_eq!(vm.aus, aus);
        assert_eq!(whole.mapped_entries(), by_au.mapped_entries());
        assert_eq!(whole.stats().capacity_wakes, 2, "after AU 2 and after AU 4");
        assert_eq!(whole.stats().capacity_wakes, by_au.stats().capacity_wakes);
        let commands = whole.drain_commands();
        assert!(commands.iter().any(|c| matches!(c, DeviceCommand::PowerTransition { .. })));
        assert_eq!(commands, by_au.drain_commands());
        whole.check_invariants().unwrap();
    }

    /// AU ids are recycled most recently freed first; the order decides the
    /// HPA ranges every later VM gets, so it is behaviour.
    #[test]
    fn au_ids_come_back_most_recently_freed_first() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        let au = dev.config().au_bytes;
        let first = dev.alloc_vm(HostId(0), 3 * au, Picos::ZERO).unwrap();
        assert_eq!(first.aus, [0, 1, 2].map(AuId));
        dev.dealloc_vm(first.handle, Picos::ZERO).unwrap();
        let second = dev.alloc_vm(HostId(0), 2 * au, Picos::ZERO).unwrap();
        assert_eq!(second.aus, [2, 1].map(AuId));
        let third = dev.alloc_vm(HostId(0), 2 * au, Picos::ZERO).unwrap();
        assert_eq!(third.aus, [0, 3].map(AuId), "then the ids never handed out");
    }

    /// A carve after a dealloc writes into the tables the dealloc gave
    /// back — as many as the AUs still mapped — and that shows nowhere: a
    /// device whose tap recorded the release, which moves each table into
    /// its `AuRemoved` instead, hands out the same AU ids over the same
    /// DSNs and records the same commands from then on.
    #[test]
    fn a_carve_after_a_dealloc_reuses_the_released_tables() {
        let run = |tap_on_release: bool| {
            let mut dev = device();
            dev.set_command_tap(tap_on_release);
            let (au, t) = (dev.config().au_bytes, Picos::from_us);
            let a = dev.alloc_vm(HostId(0), 3 * au, t(1)).unwrap();
            let b = dev.alloc_vm(HostId(0), 2 * au, t(2)).unwrap();
            let tables = |dev: &mut DtlDevice<AnalyticBackend>, aus: &[AuId]| {
                let tables = &dev.admission().power.tables;
                aus.iter().map(|au| tables.au_table_ptr(HostId(0), *au).unwrap()).collect()
            };
            let released: Vec<_> = tables(&mut dev, &a.aus);
            dev.dealloc_vm(a.handle, t(3)).unwrap();
            let spares = dev.admission().state.spares.len();
            drop(dev.drain_commands());
            dev.set_command_tap(true);
            let c = dev.alloc_vm(HostId(0), 2 * au, t(4)).unwrap();
            dev.dealloc_vm(b.handle, t(5)).unwrap();
            let reused: Vec<_> = tables(&mut dev, &c.aus);
            dev.check_invariants().unwrap();
            let shown = (c.aus, dev.mapped_entries(), dev.drain_commands());
            (released, reused, spares, dev.admission().state.spares.len(), shown)
        };
        let (released, reused, spares, left, recycled) = run(false);
        assert_eq!(spares, 2, "three tables back, two AUs still mapped");
        assert_eq!(reused, released[..2], "AUs 0 and 1's tables, in carve order");
        assert_eq!(left, 0, "a tapped release keeps no table");
        assert_eq!(recycled.0, [2, 1].map(AuId));
        let (_, _, spares, _, tapped) = run(true);
        assert_eq!(spares, 0, "each table went into its AuRemoved");
        assert!(tapped.2.iter().any(|c| matches!(c, DeviceCommand::AuCreated { .. })));
        assert_eq!(recycled, tapped);
    }

    /// A release scans the SMC only if it caches something: a device that
    /// has served no access, like every fleet host, releases without
    /// reading an L1 slot; after one access a release scans all of them.
    #[test]
    fn a_release_scans_no_smc_slot_on_a_device_that_served_no_access() {
        use crate::smc::L1_SLOTS_SCANNED;
        use dtl_dram::AccessKind;
        let scanned = || L1_SLOTS_SCANNED.with(std::cell::Cell::get);
        let mut dev = device();
        let (au, t) = (dev.config().au_bytes, Picos::from_us);
        let before = scanned();
        let a = dev.alloc_vm(HostId(0), 3 * au, t(1)).unwrap();
        let b = dev.alloc_vm(HostId(0), au, t(2)).unwrap();
        dev.shrink_vm(a.handle, 1, t(3)).unwrap();
        dev.dealloc_vm(a.handle, t(4)).unwrap();
        assert_eq!(scanned(), before, "no access, no scan");
        dev.access(HostId(0), b.hpa_base(0, au), AccessKind::Read, t(5)).unwrap();
        dev.dealloc_vm(b.handle, t(6)).unwrap();
        let l1 = dev.config().smc_l1_entries as u64;
        assert_eq!(scanned() - before, l1, "one release of a cached AU");
    }

    /// The mapping tables' host table is the one registry: an id below a
    /// registered one is not a host, and registering twice changes nothing.
    #[test]
    fn an_id_below_a_registered_host_is_not_a_host() {
        let mut dev = device();
        let au = dev.config().au_bytes;
        dev.register_host(HostId(2)).unwrap();
        let vm = dev.alloc_vm(HostId(2), au, Picos::ZERO).unwrap().handle;
        dev.register_host(HostId(2)).expect("idempotent");
        assert_eq!(dev.alloc_vm(HostId(1), au, Picos::ZERO), Err(DtlError::UnknownHost(HostId(1))));
        let stale = VmHandle { host: HostId(1), vm: 0 };
        assert_eq!(dev.dealloc_vm(stale, Picos::ZERO), Err(DtlError::UnknownVm(stale)));
        let hosts: Vec<_> = dev.snapshot().hosts.iter().map(|h| (h.host, h.vms, h.aus)).collect();
        assert_eq!(hosts, [(HostId(0), 0, 0), (HostId(2), 1, 1)]);
        let max_hosts = dev.config().max_hosts;
        assert_eq!(
            dev.register_host(HostId(max_hosts)),
            Err(DtlError::TooManyHosts { host: HostId(max_hosts), max_hosts })
        );
        dev.dealloc_vm(vm, Picos::ZERO).unwrap();
        dev.check_invariants().unwrap();
    }
}
