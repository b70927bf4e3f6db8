//! `dtl-trace`: VM-schedule synthesis and per-access record generation.

use dtl_trace::{MixedRecord, Mixer, NodeConfig, TraceGen, TraceRecord, VmSchedule, WorkloadSpec};

use super::Counters;
use crate::span::{span, Layer};

/// `VmSchedule::synthesize`; counts the schedule's events.
pub fn synthesize(
    seed: u64,
    node: NodeConfig,
    duration_min: u32,
    out: &mut Counters,
) -> VmSchedule {
    let schedule = span(Layer::TraceVmSynth, || VmSchedule::synthesize(seed, node, duration_min));
    out.add("trace.vm_events", schedule.events().len() as f64);
    schedule
}

/// A `Mixer` whose record generation is a span.
#[derive(Debug)]
pub struct Mix(Mixer);

impl Mix {
    /// `Mixer::new`.
    pub fn new(specs: &[WorkloadSpec], seed: u64) -> Self {
        Mix(Mixer::new(specs, seed))
    }

    /// `Mixer::next_record`. Per access: call it inside a
    /// [`crate::span::iteration`].
    pub fn next_record(&mut self) -> MixedRecord {
        span(Layer::TraceRecord, || self.0.next_record())
    }

    /// `Mixer::base_of`.
    pub fn base_of(&self, instance: u32) -> u64 {
        self.0.base_of(instance)
    }
}

/// A `TraceGen` whose record generation is a span.
#[derive(Debug)]
pub struct Gen(TraceGen);

impl Gen {
    /// `TraceGen::new`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        Gen(TraceGen::new(spec, seed))
    }

    /// `TraceGen::next_record`. Per request: call it inside a
    /// [`crate::span::iteration`].
    pub fn next_record(&mut self) -> TraceRecord {
        span(Layer::TraceRecord, || self.0.next_record())
    }
}
