//! `dtl-event`: the picosecond event queue behind a `Simulation`, driven
//! in pop-loop style so every queue operation is its own span.

use dtl_dram::Picos;
use dtl_event::{EventId, Simulation};

use super::Counters;
use crate::span::{span, Layer};

/// A `Simulation` whose queue operations are spans.
#[derive(Debug)]
pub struct Sim<E>(Simulation<E>);

impl<E> Sim<E> {
    /// An empty queue with the clock at `start`.
    pub fn new(start: Picos) -> Self {
        Sim(Simulation::new(start))
    }

    /// `Simulation::post` (times before the clock clamp to it).
    pub fn post(&mut self, at: Picos, payload: E) -> EventId {
        span(Layer::EventQueue, || self.0.post(at, payload))
    }

    /// `Simulation::cancel`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        span(Layer::EventQueue, || self.0.cancel(id))
    }

    /// `Simulation::next_at`.
    pub fn next_at(&mut self) -> Option<Picos> {
        span(Layer::EventQueue, || self.0.next_at())
    }

    /// `Simulation::pop_next`.
    pub fn pop_next(&mut self) -> Option<(Picos, E)> {
        span(Layer::EventQueue, || self.0.pop_next())
    }

    /// Events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }

    /// Adds the queue's own counters to `out`.
    pub fn count_into(&self, out: &mut Counters) {
        let q = self.0.queue_stats();
        out.add("event.posted", q.posted as f64);
        out.add("event.popped", q.popped as f64);
        out.add("event.cancelled", q.cancelled as f64);
        out.max("event.depth_high_water", q.depth_high_water as f64);
    }
}

/// The two event kinds of a legacy grid epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridEv {
    /// A grid tick.
    Tick,
    /// An exactly-timed side-lane release (a scheduled fault).
    Side,
}

/// What an epoch hangs on the grid: the per-tick body and, for faulted
/// replays, a side lane of exactly-timed work.
pub trait GridClient {
    /// The driver's error type.
    type Error;

    /// The per-tick body.
    fn tick(&mut self, now: Picos) -> Result<(), Self::Error>;

    /// Next side-lane instant, if any.
    fn side_deadline(&mut self) -> Option<Picos> {
        None
    }

    /// Releases the side-lane work due at `now`.
    fn side_fire(&mut self, now: Picos) -> Result<(), Self::Error> {
        let _ = now;
        Ok(())
    }
}

/// Drives one epoch `start..=end` on the legacy tick grid: ticks at
/// `start + step, start + 2·step, …` with the last one landing on or past
/// `end`, the side lane in between at its exact instants, queue drained on
/// return. This restates `dtl-sim`'s private `event_drive::drive_epoch`
/// over the public queue; the grid workloads' `sim.replica_exact` says
/// whether the two still agree.
pub fn drive_epoch<C: GridClient>(
    sim: &mut Sim<GridEv>,
    client: &mut C,
    start: Picos,
    end: Picos,
    step: Picos,
) -> Result<(), C::Error> {
    if start >= end {
        return Ok(());
    }
    sim.post(start + step, GridEv::Tick);
    if let Some(at) = client.side_deadline().filter(|at| *at <= end) {
        sim.post(at, GridEv::Side);
    }
    while let Some((now, ev)) = sim.pop_next() {
        match ev {
            GridEv::Tick => {
                client.tick(now)?;
                if now < end {
                    sim.post(now + step, GridEv::Tick);
                }
            }
            GridEv::Side => {
                client.side_fire(now)?;
                if let Some(at) = client.side_deadline().filter(|at| *at <= end) {
                    sim.post(at, GridEv::Side);
                }
            }
        }
    }
    Ok(())
}
