//! # dtl-event — deterministic discrete-event simulation spine
//!
//! The device and pool engines historically advanced on a fixed tick grid:
//! every simulated 10 s cost a `tick()` even when nothing was pending, so a
//! quiescent month — exactly where the paper's self-refresh savings accrue —
//! cost wall-clock time proportional to the horizon. This crate provides the
//! event-driven alternative: a picosecond-keyed [`EventQueue`] with stable
//! FIFO tie-breaking and a [`Simulation`] driver — a clock over the queue
//! that its user pops in a loop. Power-state residency and
//! energy are *not* accumulated here per event — the analytic backend in
//! `dtl-core` already integrates them in closed form at state-transition
//! boundaries, so skipping idle time is exact, not approximate.
//!
//! ## Determinism contract
//!
//! * Events are ordered by `(time, sequence)`: among events posted for the
//!   same picosecond, **post order is pop order** (FIFO). No hash-map or
//!   pointer order ever influences scheduling.
//! * [`Simulation::post`] clamps times below `now` up to `now`; time never
//!   moves backwards. An event posted "immediately" therefore pops after
//!   every event already queued for the current instant, in post order.
//! * Cancellation is by tombstone: [`EventQueue::cancel`] marks the entry
//!   and [`EventQueue::pop`] skips it, so cancelling never perturbs the
//!   relative order of surviving events.
//!
//! Two identical runs — same seeds, same post sequence — produce identical
//! event orders and therefore bit-identical results.
//!
//! ## Example
//!
//! ```
//! use dtl_event::{Picos, Simulation};
//!
//! let mut sim = Simulation::new(Picos::ZERO);
//! sim.post(Picos::from_us(5), "beta");
//! sim.post(Picos::from_us(1), "alpha");
//! let mut seen = Vec::new();
//! while let Some((at, ev)) = sim.pop_next() {
//!     seen.push((at, ev));
//! }
//! assert_eq!(seen, vec![(Picos::from_us(1), "alpha"), (Picos::from_us(5), "beta")]);
//! assert_eq!(sim.now(), Picos::from_us(5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use dtl_dram::FastSet;
pub use dtl_dram::Picos;

/// Handle to a posted event, usable for [`EventQueue::cancel`] /
/// [`Simulation::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// Scheduler instrumentation counters, maintained by [`EventQueue`] and
/// surfaced through [`Simulation::queue_stats`]. Counts are exact and
/// deterministic (they follow the post/cancel/pop sequence, which the
/// determinism contract already fixes), so exporting them can never
/// perturb a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever pushed.
    pub posted: u64,
    /// Events cancelled while still pending (tombstoned).
    pub cancelled: u64,
    /// Live events popped (tombstone discards are not counted).
    pub popped: u64,
    /// Deepest the live queue ever got.
    pub depth_high_water: u64,
    /// Most tombstones (cancelled entries still in the heap) ever pending
    /// at once — the heap-bloat cost of the cancellation strategy.
    pub tombstones_high_water: u64,
}

impl QueueStats {
    /// Fraction of posted events that were cancelled (0 when nothing was
    /// posted) — how much of the schedule was speculative re-arming.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.posted == 0 {
            0.0
        } else {
            self.cancelled as f64 / self.posted as f64
        }
    }

    /// Folds another queue's stats into this one: counts sum, high-water
    /// marks take the max. Used when aggregating per-host simulations into
    /// fleet totals; commutative, so shard merge order does not matter.
    pub fn merge_from(&mut self, other: &QueueStats) {
        self.posted += other.posted;
        self.cancelled += other.cancelled;
        self.popped += other.popped;
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.tombstones_high_water = self.tombstones_high_water.max(other.tombstones_high_water);
    }
}

/// One queued event. Ordered for a **max**-heap, so comparisons are
/// reversed: the smallest `(at, seq)` is the heap maximum.
struct Entry<E> {
    at: Picos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Picosecond-keyed priority queue with stable FIFO tie-breaking and
/// tombstone cancellation.
///
/// The queue itself has no notion of "now" — it is a pure ordering
/// structure. [`Simulation`] layers the clock on top.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of live (posted, not popped, not cancelled)
    /// entries, hashed by `dtl_dram::FastHasher`: one multiply per lookup
    /// for a key the queue numbered itself. Only membership and size are
    /// queried, never iteration order, so the set cannot leak into
    /// scheduling.
    live: FastSet<u64>,
    next_seq: u64,
    stats: QueueStats,
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: FastSet::default(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Posts `payload` at time `at`; later posts for the same `at` pop
    /// later (FIFO).
    pub fn push(&mut self, at: Picos, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.live.insert(seq);
        self.stats.posted += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.live.len() as u64);
        EventId(seq)
    }

    /// Cancels a pending event. Returns `true` if the event was still
    /// pending (not yet popped or cancelled); stale ids are a no-op. The
    /// entry stays in the heap as a tombstone and is discarded when it
    /// reaches the top.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.live.remove(&id.0);
        if cancelled {
            self.stats.cancelled += 1;
            let tombstones = (self.heap.len() - self.live.len()) as u64;
            self.stats.tombstones_high_water = self.stats.tombstones_high_water.max(tombstones);
        }
        cancelled
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Pending (non-cancelled) event count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Time of the earliest live event.
    pub fn peek_at(&mut self) -> Option<Picos> {
        while let Some(top) = self.heap.peek() {
            if self.live.contains(&top.seq) {
                return Some(top.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(Picos, EventId, E)> {
        while let Some(e) = self.heap.pop() {
            if self.live.remove(&e.seq) {
                self.stats.popped += 1;
                return Some((e.at, EventId(e.seq), e.payload));
            }
        }
        None
    }
}

/// Discrete-event simulation driver: a clock plus an [`EventQueue`].
///
/// Driven by a pop loop — `while let Some((at, ev)) = sim.pop_next() { ... }`,
/// posting follow-ups via [`Simulation::post`] — which leaves its user `?`
/// error propagation and full borrow freedom. A run up to a horizon pops
/// while [`Simulation::next_at`] is at or before it.
pub struct Simulation<E> {
    now: Picos,
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("queue", &self.queue)
            .finish()
    }
}

impl<E> Simulation<E> {
    /// A simulation starting at `start` with an empty queue.
    pub fn new(start: Picos) -> Self {
        Simulation { now: start, queue: EventQueue::new(), processed: 0 }
    }

    /// Current simulation time.
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Total events popped so far (the throughput denominator for
    /// events/sec reporting).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The queue's instrumentation counters (posts, cancels, pops,
    /// depth/tombstone high-water marks).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Live events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Time of the next live event, if any.
    pub fn next_at(&mut self) -> Option<Picos> {
        self.queue.peek_at()
    }

    /// Posts an event; times before [`Simulation::now`] are clamped to
    /// `now`.
    pub fn post(&mut self, at: Picos, payload: E) -> EventId {
        self.queue.push(at.max(self.now), payload)
    }

    /// Cancels a pending event (see [`EventQueue::cancel`]).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pops the next event and advances the clock to it.
    pub fn pop_next(&mut self) -> Option<(Picos, E)> {
        let (at, _, payload) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue produced a time in the past");
        self.now = at;
        self.processed += 1;
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(n: u64) -> Picos {
        Picos::from_ps(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ps(30), "c");
        q.push(ps(10), "a");
        q.push(ps(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(ps(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_only_target() {
        let mut q = EventQueue::new();
        let _a = q.push(ps(1), "a");
        let b = q.push(ps(1), "b");
        let _c = q.push(ps(1), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports stale");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, ["a", "c"]);
    }

    #[test]
    fn cancel_after_pop_is_stale() {
        let mut q = EventQueue::new();
        let a = q.push(ps(1), "a");
        assert!(q.pop().is_some());
        assert!(!q.cancel(a) || q.is_empty(), "cancelling a popped id must not corrupt len");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(ps(1), "a");
        q.push(ps(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_at(), Some(ps(2)));
    }

    #[test]
    fn simulation_clock_advances_monotonically() {
        let mut sim = Simulation::new(ps(100));
        sim.post(ps(50), "past"); // clamped to now
        sim.post(ps(200), "future");
        let (at1, p1) = sim.pop_next().unwrap();
        assert_eq!((at1, p1), (ps(100), "past"));
        let (at2, p2) = sim.pop_next().unwrap();
        assert_eq!((at2, p2), (ps(200), "future"));
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.now(), ps(200));
    }

    /// A pop loop up to a horizon: an event may post its successor, events
    /// past the horizon stay queued, and the clock stops at the last one
    /// popped.
    #[test]
    fn pop_loop_cascades_and_stops_at_the_horizon() {
        let mut sim = Simulation::new(Picos::ZERO);
        sim.post(ps(10), 1u64);
        let mut fired = Vec::new();
        while sim.next_at().is_some_and(|at| at <= ps(35)) {
            let (now, step) = sim.pop_next().unwrap();
            fired.push(now);
            sim.post(now + ps(10), step + 1);
        }
        assert_eq!(fired, [ps(10), ps(20), ps(30)]);
        assert_eq!((sim.now(), sim.pending()), (ps(30), 1), "the fourth waits past the horizon");
    }

    #[test]
    fn queue_stats_track_posts_cancels_pops_and_high_water() {
        let mut q = EventQueue::new();
        let a = q.push(ps(1), "a");
        let _b = q.push(ps(2), "b");
        let c = q.push(ps(3), "c");
        // Depth peaked at 3 live events.
        assert_eq!(q.stats().depth_high_water, 3);
        q.cancel(a);
        q.cancel(c);
        q.cancel(c); // stale: not double-counted
        assert_eq!(q.stats().cancelled, 2);
        assert_eq!(q.stats().tombstones_high_water, 2);
        assert!(q.pop().is_some(), "b survives");
        assert!(q.pop().is_none(), "tombstone discards are not pops");
        let s = q.stats();
        assert_eq!(s.posted, 3);
        assert_eq!(s.popped, 1);
        assert!((s.tombstone_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(QueueStats::default().tombstone_ratio(), 0.0);
    }

    #[test]
    fn queue_stats_merge_sums_counts_and_maxes_high_water() {
        let mut a = QueueStats {
            posted: 10,
            cancelled: 2,
            popped: 8,
            depth_high_water: 5,
            tombstones_high_water: 1,
        };
        let b = QueueStats {
            posted: 4,
            cancelled: 1,
            popped: 3,
            depth_high_water: 9,
            tombstones_high_water: 0,
        };
        let mut ba = b;
        ba.merge_from(&a);
        a.merge_from(&b);
        assert_eq!(a, ba, "merge must be commutative");
        assert_eq!(a.posted, 14);
        assert_eq!(a.depth_high_water, 9);
        assert_eq!(a.tombstones_high_water, 1);
    }

    #[test]
    fn simulation_surfaces_queue_stats() {
        let mut sim = Simulation::new(Picos::ZERO);
        let id = sim.post(ps(10), "x");
        sim.post(ps(20), "y");
        sim.cancel(id);
        assert!(sim.pop_next().is_some());
        let s = sim.queue_stats();
        assert_eq!((s.posted, s.cancelled, s.popped), (2, 1, 1));
    }
}
