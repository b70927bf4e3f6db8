//! `dtl-pool`: a `MemoryPool` whose member devices sit on [`Timed`]
//! backends and whose link traffic goes through a timed interconnect.
//!
//! The pool calls its devices directly, so device admission, translation
//! and migration time inside a pool call is part of that `pool.*` span;
//! only backend and interconnect calls show as children.

use std::ops::{Deref, DerefMut};

use dtl_core::{AnalyticBackend, DtlDevice, HostId};
use dtl_dram::{AccessKind, Picos, PowerParams};
use dtl_fabric::Interconnect;
use dtl_pool::{DeviceId, MemoryPool, PoolAccessOutcome, PoolConfig, PoolError, PoolVmId};

use super::core::{count_device, Backend};
use super::Counters;
use crate::span::{span, Layer};
use crate::timed::Timed;

/// A pool whose working calls are spans; configuration and statistics
/// reach it through `Deref`, untimed.
#[derive(Debug)]
pub struct Pool(MemoryPool<Backend>);

impl Pool {
    /// Builds the pool `MemoryPool::analytic_with_interconnect` would,
    /// with every member device's backend wrapped.
    pub fn new(config: PoolConfig, ic: Box<dyn Interconnect>) -> Result<Self, PoolError> {
        MemoryPool::with_devices_and_interconnect(config, ic, |_, cfg| {
            let geo = dtl_core::SegmentGeometry {
                channels: cfg.channels,
                ranks_per_channel: cfg.ranks_per_channel,
                segs_per_rank: cfg.segs_per_rank,
            };
            let backend =
                AnalyticBackend::new(geo, cfg.dtl.segment_bytes, PowerParams::ddr4_128gb_dimm());
            DtlDevice::new(cfg.dtl, Timed(backend))
        })
        .map(Pool)
    }

    /// `MemoryPool::alloc_vm`.
    pub fn alloc_vm(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<PoolVmId, PoolError> {
        span(Layer::PoolAllocVm, || self.0.alloc_vm(host, bytes, now))
    }

    /// `MemoryPool::dealloc_vm`.
    pub fn dealloc_vm(&mut self, vm: PoolVmId, now: Picos) -> Result<(), PoolError> {
        span(Layer::PoolDeallocVm, || self.0.dealloc_vm(vm, now))
    }

    /// `MemoryPool::access`. Where it is per access, call it inside a
    /// [`crate::span::iteration`].
    pub fn access(
        &mut self,
        vm: PoolVmId,
        offset: u64,
        kind: AccessKind,
        now: Picos,
    ) -> Result<PoolAccessOutcome, PoolError> {
        span(Layer::PoolAccess, || self.0.access(vm, offset, kind, now))
    }

    /// `MemoryPool::tick`.
    pub fn tick(&mut self, now: Picos) -> Result<(), PoolError> {
        span(Layer::PoolTick, || self.0.tick(now))
    }

    /// `MemoryPool::retire_device`.
    pub fn retire_device(&mut self, id: DeviceId, now: Picos) -> Result<(), PoolError> {
        span(Layer::PoolRetire, || self.0.retire_device(id, now))
    }

    /// `MemoryPool::check_invariants`.
    pub fn check_invariants(&self) -> Result<(), PoolError> {
        span(Layer::PoolInvariants, || self.0.check_invariants())
    }

    /// Adds the pool's simulated statistics, and those of its member
    /// devices and link layer, to `out`.
    pub fn count_into(&self, out: &mut Counters) {
        let stats = self.0.stats();
        out.add("pool.evacuations_completed", stats.evacuations_completed as f64);
        out.add("pool.segments_evacuated", stats.segments_evacuated as f64);
        for i in 0..self.0.config().devices {
            if let Some(dev) = self.0.device(DeviceId(i)) {
                count_device(dev, out);
            }
        }
        super::fabric::count_into(self.0.interconnect(), out);
    }
}

impl Deref for Pool {
    type Target = MemoryPool<Backend>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Pool {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
