//! Segment migration (paper §4.2): copy jobs for rank-level power-down,
//! swap jobs for hotness-aware self-refresh, and the atomic-migration
//! protocol that keeps foreground writes correct.
//!
//! One migration is in flight per channel (migration traffic only uses the
//! bandwidth the foreground queue leaves idle — the backend enforces the
//! scheduling; this engine enforces the bookkeeping):
//!
//! * a foreground **write** to a line the in-flight job has already copied
//!   aborts the job, which retries; after `retry_limit` aborts the job goes
//!   to the back of the queue;
//! * a write after the job's data movement completed but before the mapping
//!   update (the *completion bit* window) is routed to the new location;
//! * reads always proceed against the still-valid old location.
//!
//! Jobs wait in one FIFO per channel. Every queued job carries a *ticket*,
//! its place in the device-wide arrival order: an enqueue (or a demotion to
//! the tail) takes the next ticket above every live one, an abort or
//! interrupt that puts a job back at the head takes the next one below.
//! A pump round starts the head of each idle channel in ticket order, which
//! is the order a single device-wide FIFO would have started them in. An
//! *endpoint index* — jobs per DSN, endpoints per (channel, rank) — answers
//! "does anything touch this segment / rank" without looking at a queue.

use std::collections::VecDeque;

use dtl_dram::{FastMap, Picos};
use dtl_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, SegmentGeometry, SegmentLocation};
use crate::backend::MemoryBackend;
use crate::error::DtlError;

/// What a migration job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationKind {
    /// Copy a live segment to a free slot (power-down drain).
    Copy {
        /// Source (live) segment.
        src: Dsn,
        /// Destination (free) segment.
        dst: Dsn,
    },
    /// Swap two segments' contents (hotness consolidation).
    Swap {
        /// First segment.
        a: Dsn,
        /// Second segment.
        b: Dsn,
    },
}

impl MigrationKind {
    pub(crate) fn endpoints(&self) -> (Dsn, Dsn) {
        match *self {
            MigrationKind::Copy { src, dst } => (src, dst),
            MigrationKind::Swap { a, b } => (a, b),
        }
    }

    #[cfg(test)]
    fn touches(&self, dsn: Dsn) -> bool {
        let (x, y) = self.endpoints();
        x == dsn || y == dsn
    }
}

/// A queued or in-flight migration job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationJob {
    /// Engine-assigned id.
    pub id: u64,
    /// What to move.
    pub kind: MigrationKind,
    /// Aborts suffered so far.
    pub retries: u32,
    /// When the job entered the queue (its earliest possible start).
    pub enqueued_at: Picos,
}

/// A finished job, ready for mapping/allocator updates by the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedMigration {
    /// The finished job.
    pub job: MigrationJob,
    /// When its data movement finished.
    pub finished: Picos,
}

/// How the device must handle a foreground write hitting a segment with
/// migration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteRouting {
    /// No migration state involved: write normally.
    Proceed,
    /// Data already moved, mapping not yet updated: write the new location.
    RouteTo(Dsn),
    /// The write invalidated already-copied data; the job was aborted and
    /// will retry. The write itself proceeds against the old location.
    AbortedJob,
}

/// Outcome of interrupting a channel's in-flight migration
/// ([`MigrationEngine::interrupt_channel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationInterrupt {
    /// No migration was in flight on the channel.
    Idle,
    /// The job's partial progress was discarded and it was requeued to
    /// replay after a backoff.
    Replayed {
        /// The replaying job's id.
        id: u64,
        /// Aborts the job has now suffered.
        retries: u32,
    },
    /// The job exhausted its retry budget and was removed from the engine;
    /// the caller must roll back its bookkeeping (release reservations,
    /// restart or abandon the move).
    RolledBack {
        /// The removed job, as it was when interrupted.
        job: MigrationJob,
    },
}

#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    job: MigrationJob,
    start: Picos,
    complete_at: Picos,
    bytes: u64,
}

impl ActiveJob {
    /// Fraction of lines copied by `now`, by linear interpolation.
    fn lines_done(&self, now: Picos) -> u64 {
        let total_lines = self.bytes / 64;
        if now >= self.complete_at {
            return total_lines;
        }
        if now <= self.start {
            return 0;
        }
        let num = (now - self.start).as_ps() as u128;
        let den = (self.complete_at - self.start).as_ps().max(1) as u128;
        (u128::from(total_lines) * num / den) as u64
    }
}

/// Cumulative migration statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Jobs completed.
    pub completed: u64,
    /// Bytes of segment data moved (swaps count both directions).
    pub bytes_moved: u64,
    /// Job aborts due to conflicting foreground writes.
    pub aborts: u64,
    /// Jobs demoted to the queue tail after exceeding the retry limit.
    pub requeues: u64,
    /// In-flight jobs cut off by injected interruptions.
    pub interrupts: u64,
    /// Interrupted jobs handed back for rollback (retry budget exhausted).
    pub rollbacks: u64,
}

/// The migration engine: one in-flight job per channel, a FIFO behind each.
///
/// # Examples
///
/// ```
/// use dtl_core::{AnalyticBackend, Dsn, MigrationEngine, SegmentGeometry};
/// use dtl_dram::{Picos, PowerParams};
///
/// let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
/// let mut backend = AnalyticBackend::new(geo, 256 << 10, PowerParams::ddr4_128gb_dimm());
/// let mut eng = MigrationEngine::new(geo, 256 << 10, 3);
/// eng.enqueue_copy(Dsn(0), Dsn(10), Picos::ZERO)?;   // same channel (even DSNs)
/// let done = eng.pump(Picos::from_ms(10), &mut backend);
/// assert_eq!(done.len(), 1);
/// # Ok::<(), dtl_core::DtlError>(())
/// ```
#[derive(Debug)]
pub struct MigrationEngine {
    geo: SegmentGeometry,
    segment_bytes: u64,
    retry_limit: u32,
    /// Waiting jobs, one FIFO per channel; tickets rise front to back.
    queues: Vec<VecDeque<QueuedJob>>,
    /// Ticket of the next job queued at the tail (counts up).
    next_back_ticket: i64,
    /// Ticket of the next job put back at the head (counts down).
    next_front_ticket: i64,
    in_flight: Vec<Option<ActiveJob>>,
    /// When each channel's migration slot last freed (successor jobs chain
    /// back-to-back from here, not from the next pump call).
    channel_free_at: Vec<Picos>,
    /// Energy of aborted partial copies, charged at the next pump.
    pending_charges: Vec<(SegmentLocation, SegmentLocation, u64)>,
    /// Endpoint index: endpoints of queued or in-flight jobs on each DSN,
    /// one byte each; enqueue refuses a job that would wrap it. Reaches only
    /// as far as the highest DSN any job ever named (enqueue grows it, and
    /// nothing shrinks it); every DSN past its end is an endpoint of
    /// nothing. A fresh engine therefore allocates nothing per segment.
    dsn_jobs: Vec<u8>,
    /// Endpoint index: job endpoints in each (channel, rank). Two per job,
    /// so a `u64` outlives any run.
    rank_endpoints: Vec<u64>,
    /// Copy jobs queued or in flight.
    copies: u64,
    next_id: u64,
    stats: MigrationStats,
    /// Deepest the backlog (queued + in flight) ever got. Kept outside
    /// [`MigrationStats`] so serialized results are unaffected.
    backlog_high_water: u64,
    telemetry: Telemetry,
}

/// A waiting job and its place in the device-wide start order.
#[derive(Debug, Clone, Copy)]
struct QueuedJob {
    ticket: i64,
    job: MigrationJob,
}

impl MigrationEngine {
    /// Builds an idle engine.
    pub fn new(geo: SegmentGeometry, segment_bytes: u64, retry_limit: u32) -> Self {
        let channels = geo.channels as usize;
        MigrationEngine {
            geo,
            segment_bytes,
            retry_limit,
            queues: vec![VecDeque::new(); channels],
            next_back_ticket: 0,
            next_front_ticket: -1,
            in_flight: vec![None; channels],
            channel_free_at: vec![Picos::ZERO; channels],
            pending_charges: Vec::new(),
            dsn_jobs: Vec::new(),
            rank_endpoints: vec![0; channels * geo.ranks_per_channel as usize],
            copies: 0,
            next_id: 0,
            stats: MigrationStats::default(),
            backlog_high_water: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; every completed job emits a
    /// `SegmentMigrated` event stamped with its data-movement finish time.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Statistics so far.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Queued jobs (not yet started).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Jobs currently moving data.
    pub fn in_flight(&self) -> usize {
        self.in_flight.iter().filter(|j| j.is_some()).count()
    }

    /// True when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queued() == 0 && self.in_flight() == 0
    }

    /// Copy jobs queued or in flight — each holds one allocated but
    /// still-unmapped destination reservation in the segment allocator.
    pub fn pending_copies(&self) -> u64 {
        self.copies
    }

    /// Queues a copy job at time `now`.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if either segment lies outside the device, if
    /// source and destination are on different channels (DTL migrations are
    /// always intra-channel so per-VM channel balance is preserved), or if
    /// a segment already carries as many jobs as the endpoint index counts.
    pub fn enqueue_copy(&mut self, src: Dsn, dst: Dsn, now: Picos) -> Result<u64, DtlError> {
        self.enqueue(MigrationKind::Copy { src, dst }, now)
    }

    /// Queues a swap job at time `now`.
    ///
    /// # Errors
    ///
    /// Same restrictions as [`MigrationEngine::enqueue_copy`].
    pub fn enqueue_swap(&mut self, a: Dsn, b: Dsn, now: Picos) -> Result<u64, DtlError> {
        self.enqueue(MigrationKind::Swap { a, b }, now)
    }

    fn enqueue(&mut self, kind: MigrationKind, now: Picos) -> Result<u64, DtlError> {
        let (x, y) = kind.endpoints();
        let total = self.geo.total_segments();
        if x.0 >= total || y.0 >= total {
            return Err(DtlError::Internal {
                reason: format!("migration {x} -> {y} outside the device's {total} segments"),
            });
        }
        let (cx, cy) = (self.geo.location(x).channel, self.geo.location(y).channel);
        if cx != cy {
            return Err(DtlError::Internal {
                reason: format!("cross-channel migration {x} -> {y} (ch{cx} vs ch{cy})"),
            });
        }
        let top = x.0.max(y.0) as usize;
        if self.dsn_jobs.len() <= top {
            self.dsn_jobs.resize(top + 1, 0);
        }
        // A job adds one per endpoint, two when both are the same segment.
        if let Some(d) = [x, y].into_iter().find(|d| self.dsn_jobs[d.0 as usize] > u8::MAX - 2) {
            return Err(DtlError::Internal {
                reason: format!(
                    "{d} is already an endpoint of {} migration jobs",
                    self.dsn_jobs[d.0 as usize]
                ),
            });
        }
        for d in [x, y] {
            self.dsn_jobs[d.0 as usize] += 1;
            let slot = self.rank_slot(d);
            self.rank_endpoints[slot] += 1;
        }
        self.copies += u64::from(matches!(kind, MigrationKind::Copy { .. }));
        let id = self.next_id;
        self.next_id += 1;
        self.push_back(cx as usize, MigrationJob { id, kind, retries: 0, enqueued_at: now });
        let depth = (self.queued() + self.in_flight()) as u64;
        self.backlog_high_water = self.backlog_high_water.max(depth);
        Ok(id)
    }

    /// Takes a job that left the engine (completed, cancelled or rolled
    /// back) out of the endpoint index.
    fn unindex(&mut self, kind: MigrationKind) {
        let (x, y) = kind.endpoints();
        for d in [x, y] {
            self.dsn_jobs[d.0 as usize] -= 1;
            let slot = self.rank_slot(d);
            self.rank_endpoints[slot] -= 1;
        }
        self.copies -= u64::from(matches!(kind, MigrationKind::Copy { .. }));
    }

    /// Slot of an in-range DSN's (channel, rank) in `rank_endpoints`.
    fn rank_slot(&self, dsn: Dsn) -> usize {
        let loc = self.geo.location(dsn);
        (loc.channel * self.geo.ranks_per_channel + loc.rank) as usize
    }

    /// Queues `job` behind every waiting job of the device.
    fn push_back(&mut self, ch: usize, job: MigrationJob) {
        self.queues[ch].push_back(QueuedJob { ticket: self.next_back_ticket, job });
        self.next_back_ticket += 1;
    }

    /// Puts `job` ahead of every waiting job of the device.
    fn push_front(&mut self, ch: usize, job: MigrationJob) {
        self.queues[ch].push_front(QueuedJob { ticket: self.next_front_ticket, job });
        self.next_front_ticket -= 1;
    }

    /// Deepest the backlog (queued + in flight) ever got, sampled at every
    /// enqueue.
    pub fn backlog_high_water(&self) -> u64 {
        self.backlog_high_water
    }

    /// Starts queued jobs and collects completions, chaining successor jobs
    /// back-to-back from each channel-slot release (so an entire rank drain
    /// progresses within one pump, at the modeled migration bandwidth).
    /// Call regularly; `now` must be monotonic.
    pub fn pump<B: MemoryBackend>(
        &mut self,
        now: Picos,
        backend: &mut B,
    ) -> Vec<CompletedMigration> {
        let mut done = Vec::new();
        for (src, dst, lines) in self.pending_charges.drain(..) {
            backend.charge_migration(src, dst, lines);
        }
        loop {
            let mut progressed = false;
            // Collect completions (charging the moved lines).
            for ch in 0..self.in_flight.len() {
                let Some(active) = self.in_flight[ch] else { continue };
                if now < active.complete_at {
                    continue;
                }
                self.stats.completed += 1;
                self.stats.bytes_moved += active.bytes;
                self.channel_free_at[ch] = active.complete_at;
                let (x, y) = active.job.kind.endpoints();
                let (sl, dl) = (self.geo.location(x), self.geo.location(y));
                match active.job.kind {
                    MigrationKind::Copy { .. } => {
                        backend.charge_migration(sl, dl, active.bytes / 64);
                    }
                    MigrationKind::Swap { .. } => {
                        let half = active.bytes / 2 / 64;
                        backend.charge_migration(sl, dl, half);
                        backend.charge_migration(dl, sl, half);
                    }
                }
                self.telemetry.emit(
                    active.complete_at.as_ps(),
                    EventKind::SegmentMigrated {
                        channel: ch as u32,
                        src: x.0,
                        dst: y.0,
                        swap: matches!(active.job.kind, MigrationKind::Swap { .. }),
                        bytes: active.bytes,
                    },
                );
                done.push(CompletedMigration { job: active.job, finished: active.complete_at });
                self.in_flight[ch] = None;
                self.unindex(active.job.kind);
                progressed = true;
            }
            // Start the head of every idle channel, lowest ticket first.
            while let Some(ch) = self.next_startable_channel() {
                let job = self.queues[ch].pop_front().expect("channel has a head").job;
                if self.queues[ch].is_empty() {
                    // A rank drain leaves tens of thousands of slots behind;
                    // hand them back rather than hold them for the run.
                    self.queues[ch].shrink_to_fit();
                }
                let (x, y) = job.kind.endpoints();
                let start = job.enqueued_at.max(self.channel_free_at[ch]);
                let (src_loc, dst_loc) = (self.geo.location(x), self.geo.location(y));
                let bytes = match job.kind {
                    MigrationKind::Copy { .. } => self.segment_bytes,
                    MigrationKind::Swap { .. } => self.segment_bytes * 2,
                };
                let complete_at = match job.kind {
                    MigrationKind::Copy { .. } => {
                        backend.bulk_copy(src_loc, dst_loc, self.segment_bytes, start)
                    }
                    MigrationKind::Swap { .. } => {
                        let t1 = backend.bulk_copy(src_loc, dst_loc, self.segment_bytes, start);
                        backend.bulk_copy(dst_loc, src_loc, self.segment_bytes, t1)
                    }
                };
                self.in_flight[ch] = Some(ActiveJob { job, start, complete_at, bytes });
                progressed = true;
            }
            if !progressed {
                break;
            }
            // Loop again: a job that started and completes before `now`
            // frees its slot for the next queued job on that channel.
            let any_completable = self.in_flight.iter().flatten().any(|a| a.complete_at <= now);
            if !any_completable {
                break;
            }
        }
        done
    }

    /// The idle channel whose waiting head holds the lowest ticket.
    fn next_startable_channel(&self) -> Option<usize> {
        (0..self.queues.len())
            .filter(|&ch| self.in_flight[ch].is_none())
            .filter_map(|ch| Some((self.queues[ch].front()?.ticket, ch)))
            .min()
            .map(|(_, ch)| ch)
    }

    /// The next time at which [`MigrationEngine::pump`] would make
    /// progress, for event-driven callers: the earliest in-flight
    /// completion, or the earliest start time of a queued job whose channel
    /// is idle (pumping then starts it and yields a real completion time).
    /// Queued jobs behind an in-flight one are covered by that channel's
    /// completion event. `None` means the engine is quiescent — no pump is
    /// needed until new work is enqueued.
    pub fn next_event_at(&self) -> Option<Picos> {
        (0..self.queues.len())
            .filter_map(|ch| match self.in_flight[ch] {
                Some(active) => Some(active.complete_at),
                // Every waiting job counts, not only the head: a head that
                // is backing off can be due later than the job behind it.
                None => {
                    let earliest = self.queues[ch].iter().map(|q| q.job.enqueued_at).min()?;
                    Some(earliest.max(self.channel_free_at[ch]))
                }
            })
            .min()
    }

    /// Classifies a foreground **write** to segment `dsn` at line `offset`
    /// (bytes within the segment). Implements the §4.2 conflict protocol.
    /// The energy of partially-copied-then-aborted lines is charged at the
    /// next [`MigrationEngine::pump`].
    pub fn on_foreground_write(&mut self, dsn: Dsn, offset: u64, now: Picos) -> WriteRouting {
        let ch = self.geo.location(dsn).channel as usize;
        let Some(active) = self.in_flight[ch] else {
            return WriteRouting::Proceed;
        };
        let (src, dst) = active.job.kind.endpoints();
        // Swaps touch both segments; copies only conflict on the source.
        let involved = match active.job.kind {
            MigrationKind::Copy { .. } => dsn == src,
            MigrationKind::Swap { .. } => dsn == src || dsn == dst,
        };
        if !involved {
            return WriteRouting::Proceed;
        }
        if now >= active.complete_at {
            // Completion bit set; mapping not updated yet: route to the new
            // physical location.
            let new = match active.job.kind {
                MigrationKind::Copy { .. } => dst,
                MigrationKind::Swap { a, b } => {
                    if dsn == a {
                        b
                    } else {
                        a
                    }
                }
            };
            return WriteRouting::RouteTo(new);
        }
        let line = offset / 64;
        if line < active.lines_done(now) {
            // The line was already copied: the copy is stale. Abort and
            // retry the whole request (§4.2). A retry backs off
            // exponentially in the job's own duration — without backoff a
            // write-hot segment would re-copy (and re-pay) continuously.
            self.stats.aborts += 1;
            let mut job = active.job;
            job.retries += 1;
            let duration = active.complete_at.saturating_sub(active.start);
            let backoff = duration * (1u64 << job.retries.min(8));
            job.enqueued_at = now + backoff;
            // Pay for the lines that were copied before the abort.
            let wasted = active.lines_done(now);
            if wasted > 0 {
                let (x, y) = job.kind.endpoints();
                self.pending_charges.push((self.geo.location(x), self.geo.location(y), wasted));
            }
            self.in_flight[ch] = None;
            if job.retries > self.retry_limit {
                self.stats.requeues += 1;
                job.retries = 0;
                self.push_back(ch, job);
            } else {
                self.push_front(ch, job);
            }
            WriteRouting::AbortedJob
        } else {
            WriteRouting::Proceed
        }
    }

    /// Cuts off the channel's in-flight migration mid-transfer (a fault
    /// injector's controller reset / queue flush). The crash-consistency
    /// contract of §4.2 applies: mapping updates only ever happen on
    /// completion, so the partially-written destination is simply
    /// discarded — its already-copied lines are charged as wasted energy —
    /// and the job either *replays* (requeued at the front, with the same
    /// exponential backoff as a write-conflict abort) or, once its retry
    /// budget is exhausted, is *rolled back*: removed from the engine and
    /// returned so the device can release reservations and restart or
    /// abandon the move.
    pub fn interrupt_channel(&mut self, channel: u32, now: Picos) -> MigrationInterrupt {
        let Some(slot) = self.in_flight.get_mut(channel as usize) else {
            return MigrationInterrupt::Idle;
        };
        let Some(active) = slot.take() else {
            return MigrationInterrupt::Idle;
        };
        self.stats.interrupts += 1;
        // Energy of the lines copied before the cut-off is still spent.
        let wasted = active.lines_done(now);
        if wasted > 0 {
            let (x, y) = active.job.kind.endpoints();
            self.pending_charges.push((self.geo.location(x), self.geo.location(y), wasted));
        }
        let mut job = active.job;
        job.retries += 1;
        if job.retries > self.retry_limit {
            self.stats.rollbacks += 1;
            self.unindex(job.kind);
            return MigrationInterrupt::RolledBack { job };
        }
        let duration = active.complete_at.saturating_sub(active.start);
        let backoff = duration * (1u64 << job.retries.min(8));
        job.enqueued_at = now + backoff;
        self.push_front(channel as usize, job);
        MigrationInterrupt::Replayed { id: job.id, retries: job.retries }
    }

    /// Cancels every queued or in-flight job touching any of `dsns` — the
    /// segments of an allocation unit whose VM deallocates mid-migration.
    /// Returns the cancelled jobs so the caller can release reservations
    /// and fix bookkeeping, in the order one call per DSN would have: by
    /// the first position in `dsns` a job touches, then waiting jobs (in
    /// start order) before the one in flight. DSNs outside the device are
    /// endpoints of nothing. Each channel that holds a hit is filtered
    /// once, however many of `dsns` it holds.
    pub fn cancel_involving(&mut self, dsns: &[Dsn]) -> Vec<MigrationJob> {
        let mut first: FastMap<Dsn, usize> = FastMap::default();
        for (i, &dsn) in dsns.iter().enumerate() {
            if self.involves(dsn) {
                first.entry(dsn).or_insert(i);
            }
        }
        if first.is_empty() {
            return Vec::new();
        }
        // Migrations are intra-channel: every hit waits or runs on the
        // channel of an involved segment.
        let mut channels: Vec<usize> =
            first.keys().map(|&d| self.geo.location(d).channel as usize).collect();
        channels.sort_unstable();
        channels.dedup();
        self.cancel_where(channels, |j| {
            let (x, y) = j.kind.endpoints();
            [x, y].iter().filter_map(|d| first.get(d)).min().copied()
        })
    }

    /// Removes the jobs `key` selects from the given channels and returns
    /// them by key, then waiting before in flight, then in start order
    /// (ticket for a waiting job, channel for one in flight).
    fn cancel_where<K: Ord>(
        &mut self,
        channels: impl IntoIterator<Item = usize>,
        key: impl Fn(&MigrationJob) -> Option<K>,
    ) -> Vec<MigrationJob> {
        let mut hits = Vec::new();
        for ch in channels {
            self.queues[ch].retain(|q| {
                let Some(k) = key(&q.job) else { return true };
                hits.push(((k, false, q.ticket), q.job));
                false
            });
            if let Some(k) = self.in_flight[ch].as_ref().and_then(|a| key(&a.job)) {
                let active = self.in_flight[ch].take().expect("read just above");
                hits.push(((k, true, ch as i64), active.job));
            }
        }
        hits.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let out: Vec<MigrationJob> = hits.into_iter().map(|(_, job)| job).collect();
        for job in &out {
            self.unindex(job.kind);
        }
        out
    }

    /// Lists (without cancelling) every queued or in-flight job with an
    /// endpoint in the given rank.
    pub fn jobs_involving_rank(&self, channel: u32, rank: u32) -> Vec<MigrationJob> {
        if !self.involves_rank(channel, rank) {
            return Vec::new();
        }
        let hits = |j: &MigrationJob| {
            let (x, y) = j.kind.endpoints();
            [x, y].into_iter().any(|d| self.geo.location(d).rank == rank)
        };
        let ch = channel as usize;
        self.queues[ch]
            .iter()
            .map(|q| q.job)
            .chain(self.in_flight[ch].map(|a| a.job))
            .filter(hits)
            .collect()
    }

    /// Cancels the jobs with the given ids (queued or in flight); returns
    /// the ones actually found, waiting jobs first in the order they would
    /// have started. An id does not say which channel holds it, so this
    /// visits every channel.
    pub fn cancel_ids(&mut self, ids: &[u64]) -> Vec<MigrationJob> {
        if ids.is_empty() {
            return Vec::new();
        }
        self.cancel_where(0..self.queues.len(), |j| ids.contains(&j.id).then_some(()))
    }

    /// Whether any queued or in-flight job has an endpoint in the given
    /// rank (used by rank-level power-down to avoid draining a rank that
    /// migrations are concurrently writing into).
    pub fn involves_rank(&self, channel: u32, rank: u32) -> bool {
        channel < self.geo.channels
            && rank < self.geo.ranks_per_channel
            && self.rank_endpoints[(channel * self.geo.ranks_per_channel + rank) as usize] > 0
    }

    /// Whether `dsn` is an endpoint of any queued or in-flight job (used to
    /// avoid planning conflicting migrations). A DSN outside the device is
    /// an endpoint of nothing.
    pub fn involves(&self, dsn: Dsn) -> bool {
        usize::try_from(dsn.0).ok().and_then(|i| self.dsn_jobs.get(i)).is_some_and(|&n| n > 0)
    }

    /// Audits the bookkeeping the queries above rely on: every job sits on
    /// its own channel, tickets rise front to back inside the range handed
    /// out so far, and the endpoint index equals a recount from the queues
    /// and the in-flight slots.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] naming the first discrepancy.
    pub fn check_index(&self) -> Result<(), DtlError> {
        let broken = |reason: String| Err(DtlError::Internal { reason });
        let mut dsn_jobs = vec![0u8; self.dsn_jobs.len()];
        let mut rank_endpoints = vec![0u64; self.rank_endpoints.len()];
        let mut copies = 0u64;
        let mut count = |job: &MigrationJob, ch: usize| {
            let (x, y) = job.kind.endpoints();
            for d in [x, y] {
                if self.geo.location(d).channel as usize != ch {
                    return broken(format!("job {} ({d}) held by channel {ch}", job.id));
                }
                let Some(n) = dsn_jobs.get_mut(d.0 as usize) else {
                    return broken(format!("job {} ({d}) lies past the endpoint index", job.id));
                };
                *n += 1;
                rank_endpoints[self.rank_slot(d)] += 1;
            }
            copies += u64::from(matches!(job.kind, MigrationKind::Copy { .. }));
            Ok(())
        };
        for (ch, queue) in self.queues.iter().enumerate() {
            let mut floor = self.next_front_ticket;
            for q in queue {
                if q.ticket <= floor || q.ticket >= self.next_back_ticket {
                    return broken(format!(
                        "job {} on channel {ch}: ticket out of order",
                        q.job.id
                    ));
                }
                floor = q.ticket;
                count(&q.job, ch)?;
            }
            if let Some(active) = &self.in_flight[ch] {
                count(&active.job, ch)?;
            }
        }
        if dsn_jobs != self.dsn_jobs || rank_endpoints != self.rank_endpoints {
            return broken("migration endpoint index disagrees with the queues".into());
        }
        if copies != self.copies {
            return broken(format!("{copies} copy jobs held, {} counted", self.copies));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use dtl_dram::PowerParams;
    use proptest::prelude::*;

    fn geo() -> SegmentGeometry {
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 }
    }

    const SEG: u64 = 256 << 10;

    fn setup() -> (MigrationEngine, AnalyticBackend) {
        (
            MigrationEngine::new(geo(), SEG, 3),
            AnalyticBackend::new(geo(), SEG, PowerParams::ddr4_128gb_dimm()),
        )
    }

    /// DSNs on channel 0: even numbers (2 channels).
    fn dsn_ch0(n: u64) -> Dsn {
        Dsn(n * 2)
    }

    #[test]
    fn copy_job_completes_after_bandwidth_time() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        assert!(eng.pump(Picos::ZERO, &mut be).is_empty(), "just started");
        assert_eq!(eng.in_flight(), 1);
        let done = eng.pump(Picos::from_ms(10), &mut be);
        assert_eq!(done.len(), 1);
        assert!(eng.is_idle());
        assert_eq!(eng.stats().completed, 1);
        assert_eq!(eng.stats().bytes_moved, SEG);
    }

    #[test]
    fn swap_moves_double_the_bytes() {
        let (mut eng, mut be) = setup();
        eng.enqueue_swap(dsn_ch0(1), dsn_ch0(7), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        eng.pump(Picos::from_ms(50), &mut be);
        assert_eq!(eng.stats().bytes_moved, SEG * 2);
    }

    #[test]
    fn cross_channel_migration_rejected() {
        let (mut eng, _) = setup();
        // Dsn(0) is channel 0; Dsn(1) is channel 1.
        assert!(eng.enqueue_copy(Dsn(0), Dsn(1), Picos::ZERO).is_err());
    }

    #[test]
    fn next_event_at_tracks_in_flight_and_queued() {
        let (mut eng, mut be) = setup();
        assert_eq!(eng.next_event_at(), None, "idle engine has no deadline");
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::from_us(3)).unwrap();
        // Not pumped yet: the queued job can start on its idle channel at
        // its enqueue time.
        assert_eq!(eng.next_event_at(), Some(Picos::from_us(3)));
        eng.pump(Picos::from_us(3), &mut be);
        let at = eng.next_event_at().expect("in-flight completion");
        assert!(at > Picos::from_us(3), "completion is in the future");
        // A second job on the same channel is covered by the first's
        // completion event, not a deadline of its own.
        eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), Picos::from_us(4)).unwrap();
        assert_eq!(eng.next_event_at(), Some(at));
        // Pump exactly at the reported time: the first job completes and
        // the second starts.
        let done = eng.pump(at, &mut be);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished, at);
        assert!(eng.next_event_at().expect("second job in flight") > at);
        eng.pump(Picos::from_ms(50), &mut be);
        assert_eq!(eng.next_event_at(), None, "drained engine is quiescent");
    }

    #[test]
    fn one_job_per_channel_at_a_time() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), Picos::ZERO).unwrap();
        // A channel-1 job can start concurrently.
        eng.enqueue_copy(Dsn(3), Dsn(9), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        assert_eq!(eng.in_flight(), 2, "one per channel");
        assert_eq!(eng.queued(), 1);
    }

    #[test]
    fn write_to_uncopied_line_proceeds() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        // At t=0+epsilon almost nothing is copied; the last line proceeds.
        let r = eng.on_foreground_write(dsn_ch0(0), SEG - 64, Picos::from_ns(10));
        assert_eq!(r, WriteRouting::Proceed);
    }

    #[test]
    fn write_to_copied_line_aborts_job() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        // Halfway through, line 0 is long copied.
        let halfway = Picos::from_us(60);
        let r = eng.on_foreground_write(dsn_ch0(0), 0, halfway);
        assert_eq!(r, WriteRouting::AbortedJob);
        assert_eq!(eng.stats().aborts, 1);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(eng.queued(), 1, "job requeued for retry");
        // It restarts on the next pump.
        eng.pump(halfway, &mut be);
        assert_eq!(eng.in_flight(), 1);
    }

    #[test]
    fn repeated_aborts_demote_to_tail() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), Picos::ZERO).unwrap();
        // One same-channel copy takes SEG / (4.6 GB/s / 2).
        let dur = Picos::from_ps((SEG as f64 / (4.6e9 / 2.0) * 1e12) as u64);
        let mut restart = Picos::ZERO;
        for k in 1..=4u32 {
            // Probe shortly after the retry's backoff expires: the job is
            // mid-copy, and a write to its first (already copied) line
            // aborts it again.
            let probe = restart + Picos::from_us(20);
            eng.pump(probe, &mut be);
            let at = probe + Picos::from_us(1);
            let r = eng.on_foreground_write(dsn_ch0(0), 0, at);
            assert_eq!(r, WriteRouting::AbortedJob, "abort {k}");
            restart = at + dur * (1u64 << k);
        }
        assert_eq!(eng.stats().requeues, 1);
        // Job 1 completes first (it was never aborted); job 0 finally
        // completes once its post-demotion backoff expires.
        let done = eng.pump(restart + Picos::from_ms(200), &mut be);
        assert_eq!(
            done.last().unwrap().job.kind,
            MigrationKind::Copy { src: dsn_ch0(0), dst: dsn_ch0(5) }
        );
        assert_eq!(eng.stats().completed, 2);
        assert!(eng.is_idle());
    }

    #[test]
    fn write_after_completion_bit_routes_to_new_location() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        // Data movement done but pump (mapping update) not run yet.
        let r = eng.on_foreground_write(dsn_ch0(0), 0, Picos::from_ms(10));
        assert_eq!(r, WriteRouting::RouteTo(dsn_ch0(5)));
    }

    #[test]
    fn swap_routes_writes_to_counterpart() {
        let (mut eng, mut be) = setup();
        eng.enqueue_swap(dsn_ch0(2), dsn_ch0(9), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        let r = eng.on_foreground_write(dsn_ch0(9), 0, Picos::from_ms(50));
        assert_eq!(r, WriteRouting::RouteTo(dsn_ch0(2)));
    }

    #[test]
    fn unrelated_write_proceeds() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        let r = eng.on_foreground_write(dsn_ch0(3), 0, Picos::from_us(60));
        assert_eq!(r, WriteRouting::Proceed);
    }

    #[test]
    fn interrupt_idle_channel_is_a_no_op() {
        let (mut eng, _) = setup();
        assert_eq!(eng.interrupt_channel(0, Picos::ZERO), MigrationInterrupt::Idle);
        assert_eq!(eng.interrupt_channel(99, Picos::ZERO), MigrationInterrupt::Idle);
        assert_eq!(eng.stats().interrupts, 0);
    }

    #[test]
    fn interrupted_job_replays_and_completes() {
        let (mut eng, mut be) = setup();
        let id = eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        let r = eng.interrupt_channel(0, Picos::from_us(60));
        assert_eq!(r, MigrationInterrupt::Replayed { id, retries: 1 });
        assert_eq!(eng.stats().interrupts, 1);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(eng.queued(), 1);
        let done = eng.pump(Picos::from_ms(50), &mut be);
        assert_eq!(done.len(), 1, "replay finishes the copy");
        assert_eq!(eng.stats().completed, 1);
    }

    #[test]
    fn interrupts_past_retry_limit_roll_back() {
        let (mut eng, mut be) = setup();
        let id = eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        // One same-channel copy takes SEG / (4.6 GB/s / 2); interrupt each
        // attempt mid-copy, just after its backoff expires. retry_limit = 3:
        // the 4th interruption rolls the job back.
        let dur = Picos::from_ps((SEG as f64 / (4.6e9 / 2.0) * 1e12) as u64);
        let mut restart = Picos::ZERO;
        let mut outcome = MigrationInterrupt::Idle;
        for k in 1..=4u32 {
            eng.pump(restart, &mut be);
            let at = restart + Picos::from_us(1);
            outcome = eng.interrupt_channel(0, at);
            if matches!(outcome, MigrationInterrupt::RolledBack { .. }) {
                break;
            }
            assert_eq!(outcome, MigrationInterrupt::Replayed { id, retries: k });
            restart = at + dur * (1u64 << k);
        }
        let MigrationInterrupt::RolledBack { job } = outcome else {
            panic!("expected rollback, got {outcome:?}");
        };
        assert_eq!(job.id, id);
        assert_eq!(job.retries, 4);
        assert_eq!(eng.stats().rollbacks, 1);
        assert!(eng.is_idle(), "rolled-back job left the engine");
        assert_eq!(eng.stats().completed, 0);
    }

    #[test]
    fn involves_checks_queue_and_flight() {
        let (mut eng, mut be) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        assert!(eng.involves(dsn_ch0(0)), "in flight");
        assert!(eng.involves(dsn_ch0(6)), "queued");
        assert!(!eng.involves(dsn_ch0(12)));
    }

    #[test]
    fn enqueue_copy_rejects_out_of_range_dsn() {
        let (mut eng, _) = setup();
        // Dsn(128) is one past the device and would land on channel 0.
        let past = Dsn(geo().total_segments());
        assert!(matches!(
            eng.enqueue_copy(Dsn(0), past, Picos::ZERO),
            Err(DtlError::Internal { .. })
        ));
        assert!(eng.enqueue_copy(Dsn(u64::MAX), Dsn(0), Picos::ZERO).is_err());
        assert!(eng.is_idle());
        eng.check_index().unwrap();
    }

    #[test]
    fn enqueue_swap_rejects_out_of_range_dsn() {
        let (mut eng, _) = setup();
        let past = Dsn(geo().total_segments());
        assert!(matches!(
            eng.enqueue_swap(past, Dsn(0), Picos::ZERO),
            Err(DtlError::Internal { .. })
        ));
        assert!(eng.enqueue_swap(past, past, Picos::ZERO).is_err());
        assert!(eng.is_idle());
        eng.check_index().unwrap();
    }

    #[test]
    fn involves_is_false_for_out_of_range_dsn() {
        let (mut eng, _) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        assert!(!eng.involves(Dsn(geo().total_segments())));
        assert!(!eng.involves(Dsn(u64::MAX)));
        assert!(!eng.involves_rank(geo().channels, 0));
        assert!(!eng.involves_rank(0, geo().ranks_per_channel), "not channel 1, rank 0");
    }

    // --- the endpoint index grows on demand ------------------------------

    #[test]
    fn a_fresh_engine_holds_an_empty_index() {
        // The paper device: 4 channels x 8 ranks x 6 144 segments.
        let paper = SegmentGeometry { channels: 4, ranks_per_channel: 8, segs_per_rank: 6144 };
        let eng = MigrationEngine::new(paper, 2 << 20, 3);
        assert_eq!(eng.dsn_jobs.capacity(), 0, "nothing allocated per segment");
        assert!(!eng.involves(Dsn(0)));
        assert!(!eng.involves(Dsn(paper.total_segments() - 1)));
        eng.check_index().unwrap();
    }

    #[test]
    fn an_index_shorter_than_the_device_audits_through_every_exit() {
        let (mut eng, mut be) = setup();
        let total = geo().total_segments();
        // Completion: one copy runs to its end.
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        assert_eq!(eng.dsn_jobs.len() as u64, dsn_ch0(5).0 + 1, "grown to the higher endpoint");
        eng.pump(Picos::ZERO, &mut be);
        assert_eq!(eng.pump(Picos::from_ms(10), &mut be).len(), 1);
        eng.check_index().unwrap();
        // Cancellation: one queued behind one in flight, cancelled by id.
        eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), Picos::from_ms(10)).unwrap();
        let queued = eng.enqueue_swap(dsn_ch0(2), dsn_ch0(9), Picos::from_ms(10)).unwrap();
        eng.pump(Picos::from_ms(10), &mut be);
        eng.check_index().unwrap();
        assert_eq!(eng.cancel_ids(&[queued]).len(), 1);
        eng.check_index().unwrap();
        // Rollback: the in-flight copy interrupted past its retry budget.
        // Each replay restarts when its backoff ends; cut it 1 us in.
        let dur = Picos::from_ps((SEG as f64 / (4.6e9 / 2.0) * 1e12) as u64);
        let mut restart = Picos::from_ms(10);
        let mut rolled = None;
        for k in 1..=4u32 {
            eng.pump(restart, &mut be);
            let at = restart + Picos::from_us(1);
            if let MigrationInterrupt::RolledBack { job } = eng.interrupt_channel(0, at) {
                rolled = Some(job);
            }
            restart = at + dur * (1u64 << k);
        }
        assert!(rolled.is_some(), "the copy rolled back");
        assert!(eng.is_idle());
        let len = eng.dsn_jobs.len() as u64;
        assert!(len < total, "the index ({len}) stays shorter than the device ({total})");
        eng.check_index().unwrap();
        for d in [len, total - 1, total] {
            assert!(!eng.involves(Dsn(d)), "dsn{d} past the index's end");
        }
    }

    #[test]
    fn a_job_at_the_device_s_last_dsn_grows_the_index_to_the_device() {
        let (mut eng, mut be) = setup();
        let last = Dsn(geo().total_segments() - 1);
        let peer = Dsn(last.0 - u64::from(geo().channels));
        eng.enqueue_copy(peer, last, Picos::ZERO).unwrap();
        assert_eq!(eng.dsn_jobs.len() as u64, geo().total_segments());
        assert!(eng.involves(last) && eng.involves(peer));
        eng.check_index().unwrap();
        eng.pump(Picos::ZERO, &mut be);
        assert_eq!(eng.pump(Picos::from_ms(10), &mut be).len(), 1);
        assert!(!eng.involves(last));
        eng.check_index().unwrap();
    }

    #[test]
    fn a_dsn_takes_254_job_endpoints_and_refuses_the_next() {
        let (mut eng, _) = setup();
        let hub = dsn_ch0(0);
        for i in 0..254 {
            eng.enqueue_copy(hub, dsn_ch0(1 + i % 4), Picos::ZERO).unwrap();
        }
        let err = eng.enqueue_copy(hub, dsn_ch0(9), Picos::ZERO);
        assert!(matches!(err, Err(DtlError::Internal { .. })), "{err:?}");
        assert!(!eng.involves(dsn_ch0(9)), "the refused job left nothing behind");
        assert_eq!(eng.queued(), 254);
        eng.check_index().unwrap();
    }

    #[test]
    fn cancel_involving_out_of_range_dsn_cancels_nothing() {
        let (mut eng, _) = setup();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        assert!(eng.cancel_involving(&[Dsn(geo().total_segments()), Dsn(u64::MAX)]).is_empty());
        assert!(eng.cancel_involving(&[]).is_empty());
        assert_eq!(eng.queued(), 1);
        eng.check_index().unwrap();
    }

    #[test]
    fn endpoint_index_refuses_to_wrap() {
        let (mut eng, _) = setup();
        // Each swap of a segment with itself counts twice on that segment.
        for _ in 0..127 {
            eng.enqueue_swap(dsn_ch0(0), dsn_ch0(0), Picos::ZERO).unwrap();
        }
        assert!(matches!(
            eng.enqueue_copy(dsn_ch0(0), dsn_ch0(1), Picos::ZERO),
            Err(DtlError::Internal { .. })
        ));
        assert_eq!(eng.queued(), 127, "the refused job left no trace");
        eng.check_index().unwrap();
        assert_eq!(eng.cancel_involving(&[dsn_ch0(0)]).len(), 127);
        assert!(!eng.involves(dsn_ch0(0)));
        eng.check_index().unwrap();
    }

    #[test]
    fn cancel_involving_orders_hits_like_one_call_per_dsn() {
        let (mut eng, mut be) = setup();
        let a = eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        let d = eng.enqueue_copy(Dsn(3), Dsn(9), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        let b = eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), Picos::ZERO).unwrap();
        let c = eng.enqueue_swap(dsn_ch0(2), dsn_ch0(0), Picos::ZERO).unwrap();
        assert_eq!((eng.in_flight(), eng.queued()), (2, 2), "a and d run, b and c wait");
        // Position 2 (`dsn_ch0(0)`) is the first that c touches and the one
        // that a touches: waiting c comes before a, in flight on channel 0.
        let au = [dsn_ch0(1), Dsn(9), dsn_ch0(0), dsn_ch0(2), dsn_ch0(12), Dsn(u64::MAX)];
        let ids: Vec<u64> = eng.cancel_involving(&au).iter().map(|j| j.id).collect();
        assert_eq!(ids, [b, d, c, a]);
        assert!(eng.is_idle());
        eng.check_index().unwrap();
    }

    /// What the engine asked of the backend, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        BulkCopy { src: SegmentLocation, dst: SegmentLocation, bytes: u64, at: Picos },
        Charge { src: SegmentLocation, dst: SegmentLocation, lines: u64 },
    }

    /// Backend that logs the two calls the engine makes and gives every
    /// transfer the same duration.
    #[derive(Debug, Default)]
    struct Recorder {
        calls: Vec<Call>,
    }

    const COPY_TIME: Picos = Picos::from_us(100);

    impl MemoryBackend for Recorder {
        fn bulk_copy(
            &mut self,
            src: SegmentLocation,
            dst: SegmentLocation,
            bytes: u64,
            at: Picos,
        ) -> Picos {
            self.calls.push(Call::BulkCopy { src, dst, bytes, at });
            at + COPY_TIME
        }
        fn charge_migration(&mut self, src: SegmentLocation, dst: SegmentLocation, lines: u64) {
            self.calls.push(Call::Charge { src, dst, lines });
        }
        fn geometry(&self) -> SegmentGeometry {
            unreachable!("the engine only moves data")
        }
        fn segment_bytes(&self) -> u64 {
            unreachable!("the engine only moves data")
        }
        fn now(&self) -> Picos {
            unreachable!("the engine only moves data")
        }
        fn advance_to(&mut self, _: Picos) {
            unreachable!("the engine only moves data")
        }
        fn access(
            &mut self,
            _: SegmentLocation,
            _: u64,
            _: dtl_dram::AccessKind,
            _: dtl_dram::Priority,
            _: Picos,
        ) -> Picos {
            unreachable!("the engine only moves data")
        }
        fn set_rank_state(
            &mut self,
            _: u32,
            _: u32,
            _: dtl_dram::PowerState,
            _: Picos,
        ) -> Result<Picos, DtlError> {
            unreachable!("the engine only moves data")
        }
        fn rank_state(&self, _: u32, _: u32) -> dtl_dram::PowerState {
            unreachable!("the engine only moves data")
        }
        fn power_report(&mut self, _: Picos) -> dtl_dram::PowerReport {
            unreachable!("the engine only moves data")
        }
        fn drain_power_events(&mut self) -> Vec<dtl_dram::PowerEvent> {
            unreachable!("the engine only moves data")
        }
        fn est_access_latency(&self) -> Picos {
            unreachable!("the engine only moves data")
        }
    }

    #[test]
    fn cross_channel_start_order_follows_tickets() {
        let mut eng = MigrationEngine::new(geo(), SEG, 3);
        let mut be = Recorder::default();
        // X runs on channel 1; Y then waits on the idle channel 0, unpumped.
        let x = eng.enqueue_copy(Dsn(1), Dsn(9), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        let y = eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::from_us(1)).unwrap();
        // A write to X's first line mid-copy puts X back at the head of the
        // device-wide order, ahead of the older-by-channel Y.
        let r = eng.on_foreground_write(Dsn(1), 0, Picos::from_us(50));
        assert_eq!(r, WriteRouting::AbortedJob);
        assert_eq!(eng.queued(), 2);
        eng.check_index().unwrap();
        be.calls.clear();
        eng.pump(Picos::from_us(50), &mut be);
        let started: Vec<u32> = be
            .calls
            .iter()
            .filter_map(|c| match c {
                Call::BulkCopy { src, .. } => Some(src.channel),
                Call::Charge { .. } => None,
            })
            .collect();
        assert_eq!(started, [1, 0], "the aborted job restarts before channel 0's head");
        assert_eq!(eng.in_flight(), 2);
        eng.check_index().unwrap();
        // Both complete; the one that started earlier in simulated time
        // (Y: X is backing off) is still collected in channel order.
        let done = eng.pump(Picos::from_ms(10), &mut be);
        assert_eq!(done.iter().map(|d| d.job.id).collect::<Vec<_>>(), [y, x]);
        eng.check_index().unwrap();
    }

    #[test]
    fn next_event_at_sees_past_a_backed_off_head() {
        let mut eng = MigrationEngine::new(geo(), SEG, 3);
        let mut be = Recorder::default();
        eng.enqueue_copy(dsn_ch0(0), dsn_ch0(5), Picos::ZERO).unwrap();
        eng.pump(Picos::ZERO, &mut be);
        let behind = Picos::from_us(10);
        eng.enqueue_copy(dsn_ch0(1), dsn_ch0(6), behind).unwrap();
        let at = Picos::from_us(50);
        assert_eq!(eng.on_foreground_write(dsn_ch0(0), 0, at), WriteRouting::AbortedJob);
        // Channel 0 is idle; its head backs off for two copy times, the job
        // behind it could start at once.
        assert_eq!(eng.queues[0].front().unwrap().job.enqueued_at, at + COPY_TIME * 2);
        assert_eq!(eng.next_event_at(), Some(behind));
        eng.check_index().unwrap();
    }

    /// Today's predecessor of [`MigrationEngine`], kept as the model the
    /// differential test holds it to: one device-wide FIFO, rescanned end to
    /// end by every operation.
    #[derive(Debug)]
    struct ReferenceEngine {
        geo: SegmentGeometry,
        segment_bytes: u64,
        retry_limit: u32,
        queue: VecDeque<MigrationJob>,
        in_flight: Vec<Option<ActiveJob>>,
        channel_free_at: Vec<Picos>,
        pending_charges: Vec<(SegmentLocation, SegmentLocation, u64)>,
        next_id: u64,
        stats: MigrationStats,
        backlog_high_water: u64,
    }

    impl ReferenceEngine {
        fn new(geo: SegmentGeometry, segment_bytes: u64, retry_limit: u32) -> Self {
            ReferenceEngine {
                geo,
                segment_bytes,
                retry_limit,
                queue: VecDeque::new(),
                in_flight: vec![None; geo.channels as usize],
                channel_free_at: vec![Picos::ZERO; geo.channels as usize],
                pending_charges: Vec::new(),
                next_id: 0,
                stats: MigrationStats::default(),
                backlog_high_water: 0,
            }
        }

        fn in_flight(&self) -> usize {
            self.in_flight.iter().filter(|j| j.is_some()).count()
        }

        fn pending_copies(&self) -> u64 {
            let is_copy = |j: &MigrationJob| matches!(j.kind, MigrationKind::Copy { .. });
            (self.queue.iter().filter(|j| is_copy(j)).count()
                + self.in_flight.iter().flatten().filter(|a| is_copy(&a.job)).count())
                as u64
        }

        fn enqueue(&mut self, kind: MigrationKind, now: Picos) -> Result<u64, DtlError> {
            let (x, y) = kind.endpoints();
            let (cx, cy) = (self.geo.location(x).channel, self.geo.location(y).channel);
            if cx != cy {
                return Err(DtlError::Internal { reason: "cross-channel".into() });
            }
            let id = self.next_id;
            self.next_id += 1;
            self.queue.push_back(MigrationJob { id, kind, retries: 0, enqueued_at: now });
            let depth = (self.queue.len() + self.in_flight()) as u64;
            self.backlog_high_water = self.backlog_high_water.max(depth);
            Ok(id)
        }

        fn pump(&mut self, now: Picos, backend: &mut Recorder) -> Vec<CompletedMigration> {
            let mut done = Vec::new();
            for (src, dst, lines) in self.pending_charges.drain(..) {
                backend.charge_migration(src, dst, lines);
            }
            loop {
                let mut progressed = false;
                for (ch, slot) in self.in_flight.iter_mut().enumerate() {
                    if let Some(active) = slot {
                        if now >= active.complete_at {
                            self.stats.completed += 1;
                            self.stats.bytes_moved += active.bytes;
                            self.channel_free_at[ch] = active.complete_at;
                            let (x, y) = active.job.kind.endpoints();
                            let (sl, dl) = (self.geo.location(x), self.geo.location(y));
                            match active.job.kind {
                                MigrationKind::Copy { .. } => {
                                    backend.charge_migration(sl, dl, active.bytes / 64);
                                }
                                MigrationKind::Swap { .. } => {
                                    let half = active.bytes / 2 / 64;
                                    backend.charge_migration(sl, dl, half);
                                    backend.charge_migration(dl, sl, half);
                                }
                            }
                            done.push(CompletedMigration {
                                job: active.job,
                                finished: active.complete_at,
                            });
                            *slot = None;
                            progressed = true;
                        }
                    }
                }
                let mut remaining = VecDeque::with_capacity(self.queue.len());
                while let Some(job) = self.queue.pop_front() {
                    let (x, y) = job.kind.endpoints();
                    let ch = self.geo.location(x).channel as usize;
                    if self.in_flight[ch].is_some() {
                        remaining.push_back(job);
                        continue;
                    }
                    let start = job.enqueued_at.max(self.channel_free_at[ch]);
                    let (src_loc, dst_loc) = (self.geo.location(x), self.geo.location(y));
                    let bytes = match job.kind {
                        MigrationKind::Copy { .. } => self.segment_bytes,
                        MigrationKind::Swap { .. } => self.segment_bytes * 2,
                    };
                    let complete_at = match job.kind {
                        MigrationKind::Copy { .. } => {
                            backend.bulk_copy(src_loc, dst_loc, self.segment_bytes, start)
                        }
                        MigrationKind::Swap { .. } => {
                            let t1 = backend.bulk_copy(src_loc, dst_loc, self.segment_bytes, start);
                            backend.bulk_copy(dst_loc, src_loc, self.segment_bytes, t1)
                        }
                    };
                    self.in_flight[ch] = Some(ActiveJob { job, start, complete_at, bytes });
                    progressed = true;
                }
                self.queue = remaining;
                if !progressed {
                    break;
                }
                if !self.in_flight.iter().flatten().any(|a| a.complete_at <= now) {
                    break;
                }
            }
            done
        }

        fn next_event_at(&self) -> Option<Picos> {
            let in_flight = self.in_flight.iter().flatten().map(|a| a.complete_at).min();
            let queued = self
                .queue
                .iter()
                .filter_map(|job| {
                    let ch = self.geo.location(job.kind.endpoints().0).channel as usize;
                    if self.in_flight[ch].is_some() {
                        None
                    } else {
                        Some(job.enqueued_at.max(self.channel_free_at[ch]))
                    }
                })
                .min();
            match (in_flight, queued) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }

        fn on_foreground_write(&mut self, dsn: Dsn, offset: u64, now: Picos) -> WriteRouting {
            let ch = self.geo.location(dsn).channel as usize;
            let Some(active) = self.in_flight[ch] else {
                return WriteRouting::Proceed;
            };
            let (src, dst) = active.job.kind.endpoints();
            let involved = match active.job.kind {
                MigrationKind::Copy { .. } => dsn == src,
                MigrationKind::Swap { .. } => dsn == src || dsn == dst,
            };
            if !involved {
                return WriteRouting::Proceed;
            }
            if now >= active.complete_at {
                let new = match active.job.kind {
                    MigrationKind::Copy { .. } => dst,
                    MigrationKind::Swap { a, b } => {
                        if dsn == a {
                            b
                        } else {
                            a
                        }
                    }
                };
                return WriteRouting::RouteTo(new);
            }
            if offset / 64 >= active.lines_done(now) {
                return WriteRouting::Proceed;
            }
            self.stats.aborts += 1;
            let mut job = active.job;
            job.retries += 1;
            let duration = active.complete_at.saturating_sub(active.start);
            job.enqueued_at = now + duration * (1u64 << job.retries.min(8));
            let wasted = active.lines_done(now);
            if wasted > 0 {
                let (x, y) = job.kind.endpoints();
                self.pending_charges.push((self.geo.location(x), self.geo.location(y), wasted));
            }
            self.in_flight[ch] = None;
            if job.retries > self.retry_limit {
                self.stats.requeues += 1;
                job.retries = 0;
                self.queue.push_back(job);
            } else {
                self.queue.push_front(job);
            }
            WriteRouting::AbortedJob
        }

        fn interrupt_channel(&mut self, channel: u32, now: Picos) -> MigrationInterrupt {
            let Some(slot) = self.in_flight.get_mut(channel as usize) else {
                return MigrationInterrupt::Idle;
            };
            let Some(active) = slot.take() else {
                return MigrationInterrupt::Idle;
            };
            self.stats.interrupts += 1;
            let wasted = active.lines_done(now);
            if wasted > 0 {
                let (x, y) = active.job.kind.endpoints();
                self.pending_charges.push((self.geo.location(x), self.geo.location(y), wasted));
            }
            let mut job = active.job;
            job.retries += 1;
            if job.retries > self.retry_limit {
                self.stats.rollbacks += 1;
                return MigrationInterrupt::RolledBack { job };
            }
            let duration = active.complete_at.saturating_sub(active.start);
            job.enqueued_at = now + duration * (1u64 << job.retries.min(8));
            self.queue.push_front(job);
            MigrationInterrupt::Replayed { id: job.id, retries: job.retries }
        }

        /// Removes and returns the jobs `hits` selects, queue first.
        fn cancel_where(&mut self, hits: impl Fn(&MigrationJob) -> bool) -> Vec<MigrationJob> {
            let mut out = Vec::new();
            self.queue.retain(|j| {
                if hits(j) {
                    out.push(*j);
                    false
                } else {
                    true
                }
            });
            for slot in &mut self.in_flight {
                if let Some(active) = slot.take_if(|a| hits(&a.job)) {
                    out.push(active.job);
                }
            }
            out
        }

        fn cancel_involving(&mut self, dsn: Dsn) -> Vec<MigrationJob> {
            self.cancel_where(|j| j.kind.touches(dsn))
        }

        fn cancel_ids(&mut self, ids: &[u64]) -> Vec<MigrationJob> {
            self.cancel_where(|j| ids.contains(&j.id))
        }

        fn all_jobs(&self) -> impl Iterator<Item = MigrationJob> + '_ {
            self.queue.iter().copied().chain(self.in_flight.iter().flatten().map(|a| a.job))
        }

        fn touches_rank(&self, j: &MigrationJob, channel: u32, rank: u32) -> bool {
            let (x, y) = j.kind.endpoints();
            [x, y].into_iter().any(|d| {
                let loc = self.geo.location(d);
                loc.channel == channel && loc.rank == rank
            })
        }

        fn jobs_involving_rank(&self, channel: u32, rank: u32) -> Vec<MigrationJob> {
            self.all_jobs().filter(|j| self.touches_rank(j, channel, rank)).collect()
        }

        fn involves_rank(&self, channel: u32, rank: u32) -> bool {
            self.all_jobs().any(|j| self.touches_rank(&j, channel, rank))
        }

        fn involves(&self, dsn: Dsn) -> bool {
            self.all_jobs().any(|j| j.kind.touches(dsn))
        }
    }

    /// One step of the differential test. Segments are named by channel
    /// and slot so that enqueues stay intra-channel and in range (the
    /// reference has neither check's error path to compare).
    #[derive(Debug, Clone)]
    enum Op {
        Copy {
            ch: u64,
            src: u64,
            dst: u64,
        },
        Swap {
            ch: u64,
            a: u64,
            b: u64,
        },
        Pump,
        /// A foreground write to line 0 (copied as soon as the job moves)
        /// or to the last line (uncopied until it completes). `aim` 1..=3
        /// redirects it to an endpoint of the job in flight on `dsn`'s
        /// channel, if there is one — random DSNs alone rarely conflict.
        Write {
            dsn: u64,
            last_line: bool,
            aim: u8,
        },
        Interrupt {
            ch: u32,
        },
        /// Cancels on an AU's worth of DSNs. `bracket` picks a live job (in
        /// flight or waiting) whose two endpoints open and close the slice,
        /// so that one job is touched at two positions.
        CancelAu {
            dsns: Vec<u64>,
            bracket: Option<usize>,
        },
        CancelIds {
            ids: Vec<u64>,
        },
        JobsInvolvingRank {
            ch: u32,
            rank: u32,
        },
    }

    const PROP_GEO: SegmentGeometry =
        SegmentGeometry { channels: 3, ranks_per_channel: 2, segs_per_rank: 4 };
    const PROP_SLOTS: u64 = 8; // per channel
    const PROP_SEGMENTS: u64 = 24;

    fn op_strategy() -> impl Strategy<Value = Op> {
        let ch = 0..PROP_GEO.channels as u64;
        let slot = 0..PROP_SLOTS;
        // Queries and cancels also get DSNs, a channel and a rank just past
        // the device; writes reach the engine translated, so never do.
        let dsn = 0..PROP_SEGMENTS + 2;
        prop_oneof![
            4 => (ch.clone(), slot.clone(), slot.clone())
                .prop_map(|(ch, src, dst)| Op::Copy { ch, src, dst }),
            2 => (ch, slot.clone(), slot).prop_map(|(ch, a, b)| Op::Swap { ch, a, b }),
            4 => Just(Op::Pump),
            6 => (0..PROP_SEGMENTS, any::<bool>(), 0u8..4)
                .prop_map(|(dsn, last_line, aim)| Op::Write { dsn, last_line, aim }),
            3 => (0..PROP_GEO.channels + 1).prop_map(|ch| Op::Interrupt { ch }),
            3 => (prop::collection::vec(dsn, 0..8), 0usize..24).prop_map(|(dsns, pick)| {
                Op::CancelAu { dsns, bracket: (pick < 16).then_some(pick) }
            }),
            1 => prop::collection::vec(0u64..40, 0..4).prop_map(|ids| Op::CancelIds { ids }),
            1 => (0..PROP_GEO.channels + 1, 0..PROP_GEO.ranks_per_channel + 1)
                .prop_map(|(ch, rank)| Op::JobsInvolvingRank { ch, rank }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The per-channel engine and the single-FIFO reference, fed the
        /// same operations at the same instants, return the same values in
        /// the same order, report the same state after every step, and make
        /// the same backend calls in the same order.
        #[test]
        fn lockstep_with_the_single_fifo_reference(
            retry_limit in 0u32..3,
            steps in prop::collection::vec((op_strategy(), 0u64..150), 1..120),
        ) {
            let mut eng = MigrationEngine::new(PROP_GEO, SEG, retry_limit);
            let mut model = ReferenceEngine::new(PROP_GEO, SEG, retry_limit);
            let (mut be, mut model_be) = (Recorder::default(), Recorder::default());
            let at = |ch: u64, slot: u64| Dsn(slot * u64::from(PROP_GEO.channels) + ch);
            let mut now = Picos::ZERO;
            for (op, dt_us) in steps {
                now += Picos::from_us(dt_us);
                match op {
                    Op::Copy { ch, src, dst } => {
                        let (src, dst) = (at(ch, src), at(ch, dst));
                        prop_assert_eq!(
                            eng.enqueue_copy(src, dst, now).unwrap(),
                            model.enqueue(MigrationKind::Copy { src, dst }, now).unwrap()
                        );
                    }
                    Op::Swap { ch, a, b } => {
                        let (a, b) = (at(ch, a), at(ch, b));
                        prop_assert_eq!(
                            eng.enqueue_swap(a, b, now).unwrap(),
                            model.enqueue(MigrationKind::Swap { a, b }, now).unwrap()
                        );
                    }
                    Op::Pump => {
                        prop_assert_eq!(eng.pump(now, &mut be), model.pump(now, &mut model_be));
                    }
                    Op::Write { dsn, last_line, aim } => {
                        let moving = model.in_flight[(dsn % u64::from(PROP_GEO.channels)) as usize]
                            .map(|a| a.job.kind.endpoints());
                        let dsn = match (aim, moving) {
                            (1 | 2, Some((first, _))) => first,
                            (3, Some((_, second))) => second,
                            _ => Dsn(dsn),
                        };
                        let offset = if last_line { SEG - 64 } else { 0 };
                        prop_assert_eq!(
                            eng.on_foreground_write(dsn, offset, now),
                            model.on_foreground_write(dsn, offset, now)
                        );
                    }
                    Op::Interrupt { ch } => {
                        prop_assert_eq!(
                            eng.interrupt_channel(ch, now),
                            model.interrupt_channel(ch, now)
                        );
                    }
                    Op::CancelAu { dsns, bracket } => {
                        let mut dsns: Vec<Dsn> = dsns.into_iter().map(Dsn).collect();
                        let live: Vec<MigrationJob> = model.all_jobs().collect();
                        if let Some(job) = bracket.filter(|_| !live.is_empty()).map(|i| live[i % live.len()]) {
                            let (x, y) = job.kind.endpoints();
                            dsns.insert(0, y);
                            dsns.push(x);
                        }
                        let per_dsn: Vec<MigrationJob> =
                            dsns.iter().flat_map(|&d| model.cancel_involving(d)).collect();
                        prop_assert_eq!(eng.cancel_involving(&dsns), per_dsn);
                    }
                    Op::CancelIds { ids } => {
                        prop_assert_eq!(eng.cancel_ids(&ids), model.cancel_ids(&ids));
                    }
                    Op::JobsInvolvingRank { ch, rank } => {
                        prop_assert_eq!(
                            eng.jobs_involving_rank(ch, rank),
                            model.jobs_involving_rank(ch, rank)
                        );
                    }
                }
                if let Err(e) = eng.check_index() {
                    prop_assert!(false, "{e}");
                }
                prop_assert_eq!(eng.stats(), model.stats);
                prop_assert_eq!(eng.queued(), model.queue.len());
                prop_assert_eq!(eng.in_flight(), model.in_flight());
                prop_assert_eq!(eng.pending_copies(), model.pending_copies());
                prop_assert_eq!(eng.backlog_high_water(), model.backlog_high_water);
                prop_assert_eq!(eng.next_event_at(), model.next_event_at());
                for dsn in (0..PROP_SEGMENTS + 2).map(Dsn) {
                    prop_assert_eq!(eng.involves(dsn), model.involves(dsn), "{}", dsn);
                }
                for ch in 0..=PROP_GEO.channels {
                    for rank in 0..=PROP_GEO.ranks_per_channel {
                        prop_assert_eq!(
                            eng.involves_rank(ch, rank),
                            model.involves_rank(ch, rank),
                            "ch{} rk{}", ch, rank
                        );
                    }
                }
                prop_assert_eq!(&be.calls, &model_be.calls);
            }
        }
    }
}
