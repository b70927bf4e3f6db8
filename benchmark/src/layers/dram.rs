//! `dtl-dram`: the cycle-level FR-FCFS `DramSystem`.

use std::ops::Deref;

use dtl_dram::{
    AccessKind, AddressMapping, DramConfig, DramError, DramSystem, PhysAddr, Picos, Priority,
};

use super::Counters;
use crate::span::{span, Layer};

/// A `DramSystem` whose request and clock calls are spans; statistics
/// getters reach it through `Deref`.
#[derive(Debug)]
pub struct Dram(DramSystem);

impl Dram {
    /// `DramSystem::new`.
    pub fn new(config: DramConfig, mapping: AddressMapping) -> Result<Self, DramError> {
        DramSystem::new(config, mapping).map(Dram)
    }

    /// `DramSystem::submit`. Per request: call it inside a
    /// [`crate::span::iteration`].
    pub fn submit(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
        priority: Priority,
        at: Picos,
    ) -> Result<(), DramError> {
        span(Layer::DramSubmit, || self.0.submit(addr, kind, priority, at).map(|_| ()))
    }

    /// `DramSystem::advance_to`.
    pub fn advance_to(&mut self, t: Picos) {
        span(Layer::DramAdvance, || self.0.advance_to(t));
    }

    /// `DramSystem::run_until_idle`.
    pub fn run_until_idle(&mut self, chunk: Picos) -> Picos {
        span(Layer::DramAdvance, || self.0.run_until_idle(chunk))
    }

    /// Adds this system's simulated latency to the run's mean.
    pub fn count_into(&self, out: &mut Counters) {
        let s = self.0.foreground_stats();
        out.add_ratio("dram.mean_latency_ps", s.sum_ps as f64, s.count as f64);
    }
}

impl Deref for Dram {
    type Target = DramSystem;

    fn deref(&self) -> &DramSystem {
        &self.0
    }
}
