//! `dtl-core`: one `DtlDevice` over a [`Timed`] analytic backend.

use std::ops::{Deref, DerefMut};

use dtl_core::{
    AccessOutcome, AnalyticBackend, DeviceCommand, DtlConfig, DtlDevice, DtlError, HostId,
    HostPhysAddr, VmAllocation, VmHandle,
};
use dtl_dram::{AccessKind, Picos, PowerReport};

use super::Counters;
use crate::span::{span, Layer};
use crate::timed::Timed;

/// The backend every traced device runs over.
pub type Backend = Timed<AnalyticBackend>;

/// A device whose working calls are spans. Everything else (`set_*`,
/// statistics getters, `backend_mut`) reaches the device through `Deref`
/// untimed: that is harness glue, and counts as such.
#[derive(Debug)]
pub struct Device(DtlDevice<Backend>);

impl Device {
    /// Builds the device over `backend`, wrapped at the backend seam.
    pub fn new(config: DtlConfig, backend: AnalyticBackend) -> Self {
        Device(DtlDevice::new(config, Timed(backend)))
    }

    /// `DtlDevice::alloc_vm`.
    pub fn alloc_vm(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<VmAllocation, DtlError> {
        span(Layer::CoreAllocVm, || self.0.alloc_vm(host, bytes, now))
    }

    /// `DtlDevice::dealloc_vm`.
    pub fn dealloc_vm(&mut self, handle: VmHandle, now: Picos) -> Result<(), DtlError> {
        span(Layer::CoreDeallocVm, || self.0.dealloc_vm(handle, now))
    }

    /// `DtlDevice::tick`.
    pub fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        span(Layer::CoreTick, || self.0.tick(now))
    }

    /// `DtlDevice::next_activity_at`.
    pub fn next_activity_at(&self) -> Option<Picos> {
        span(Layer::CoreNextActivity, || self.0.next_activity_at())
    }

    /// `DtlDevice::access`. Per access: call it inside a
    /// [`crate::span::iteration`].
    pub fn access(
        &mut self,
        host: HostId,
        hpa: HostPhysAddr,
        kind: AccessKind,
        now: Picos,
    ) -> Result<AccessOutcome, DtlError> {
        span(Layer::CoreAccess, || self.0.access(host, hpa, kind, now))
    }

    /// `DtlDevice::power_report`.
    pub fn power_report(&mut self, now: Picos) -> PowerReport {
        span(Layer::CoreReport, || self.0.power_report(now))
    }

    /// `DtlDevice::check_invariants`.
    pub fn check_invariants(&self) -> Result<(), DtlError> {
        span(Layer::CoreReport, || self.0.check_invariants())
    }

    /// `DtlDevice::drain_commands`.
    pub fn drain_commands(&mut self) -> Vec<DeviceCommand> {
        span(Layer::CoreReport, || self.0.drain_commands())
    }

    /// Adds this device's simulated statistics to `out`.
    pub fn count_into(&self, out: &mut Counters) {
        count_device(&self.0, out);
    }
}

/// Adds one device's simulated statistics to `out` (also used for the
/// member devices of a pool).
pub fn count_device(dev: &DtlDevice<Backend>, out: &mut Counters) {
    let smc = dev.smc_stats();
    out.add_ratio(
        "core.smc_hit_ratio",
        (smc.l1_hits + smc.l2_hits) as f64,
        (smc.l1_hits + smc.l1_misses) as f64,
    );
    out.add("core.segments_migrated", dev.migration_stats().completed as f64);
    out.add("core.groups_powered_down", dev.powerdown_stats().groups_powered_down as f64);
    out.add("core.sr_entries", dev.hotness_stats().sr_entries as f64);
}

impl Deref for Device {
    type Target = DtlDevice<Backend>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Device {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
