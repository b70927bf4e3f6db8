//! One DDR channel: ranks, the shared data bus, two request queues
//! (foreground + migration), and an FR-FCFS command scheduler.
//!
//! The scheduler follows the paper's device-side policy (§4.2): the
//! migration queue issues a request only when the foreground queue of the
//! same channel has no pending (arrived) request, so segment migration
//! steals only otherwise-unused bandwidth.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::addr::DecodedAddr;
use crate::command::{CommandKind, CommandSink, IssuedCommand};
use crate::config::{Geometry, PagePolicy, TimingParams, LINE_BYTES};
use crate::power::{PowerParams, PowerState};
use crate::rank::Rank;
use crate::request::{Completion, LatencyStats, MemRequest, Priority};
use crate::time::Picos;

/// Why a rank changed power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerEventCause {
    /// The controller exited a low-power state automatically because a
    /// request targeted the rank.
    AutoExit,
    /// An explicit transition requested through the device API (the DTL).
    Explicit,
}

/// A rank power-state change notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerEvent {
    /// Completion time of the transition.
    pub at: Picos,
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// State before.
    pub from: PowerState,
    /// State after.
    pub to: PowerState,
    /// What triggered it.
    pub cause: PowerEventCause,
}

#[derive(Debug, Clone)]
struct Pending {
    req: MemRequest,
    dec: DecodedAddr,
    /// Whether the scheduler issued an ACT on this request's behalf (used
    /// to classify its CAS as a row hit or miss).
    had_act: bool,
}

/// The queued requests of one scheduling class, oldest enqueue first.
#[derive(Debug, Clone)]
struct RequestQueue {
    entries: VecDeque<Pending>,
    /// No entry arrived earlier than the one before it. Callers normally
    /// enqueue in arrival order (both registry sweeps always do) but
    /// nothing requires it: an enqueue can clear this, a removal cannot,
    /// and an empty queue starts over.
    arrival_ordered: bool,
}

impl RequestQueue {
    fn new() -> Self {
        RequestQueue { entries: VecDeque::new(), arrival_ordered: true }
    }

    fn push(&mut self, p: Pending) {
        match self.entries.back() {
            Some(last) => self.arrival_ordered &= last.req.arrival <= p.req.arrival,
            None => self.arrival_ordered = true,
        }
        self.entries.push_back(p);
    }

    /// Whether any entry has arrived by `now`: the front one, when it is
    /// the earliest.
    fn has_arrived(&self, now: Picos) -> bool {
        if self.arrival_ordered {
            self.entries.front().is_some_and(|p| p.req.arrival <= now)
        } else {
            self.entries.iter().any(|p| p.req.arrival <= now)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextCommand {
    Cas,
    Act,
    Pre,
    PowerExit,
}

impl NextCommand {
    /// FR-FCFS preference: column hits first, then row misses, conflicts last.
    fn class_rank(self) -> u8 {
        match self {
            NextCommand::Cas => 0,
            NextCommand::Act => 1,
            NextCommand::Pre => 2,
            NextCommand::PowerExit => 3,
        }
    }
}

/// One scheduling decision: `(queue_slot, command, issue_time)`.
type Pick = (QueueSlot, NextCommand, Picos);

/// Age beyond which the oldest request preempts FR-FCFS reordering.
const STARVATION_CAP: Picos = Picos::from_us(5);
/// How many queued requests the scheduler scans per decision.
const SCAN_WINDOW: usize = 24;

/// One DDR channel with its ranks and scheduler state.
#[derive(Debug, Clone)]
pub struct Channel {
    index: u32,
    timing: TimingParams,
    page_policy: PagePolicy,
    ranks: Vec<Rank>,
    fg: RequestQueue,
    mig: RequestQueue,
    clock: Picos,
    bus_free: Picos,
    last_bus_rank: Option<u32>,
    last_bus_was_write: bool,
    completions: Vec<Completion>,
    events: Vec<PowerEvent>,
    fg_stats: LatencyStats,
    mig_stats: LatencyStats,
    bytes_transferred: u64,
}

impl Channel {
    /// A fresh channel at time zero with all ranks in standby.
    pub fn new(index: u32, geometry: &Geometry, timing: TimingParams, power: PowerParams) -> Self {
        Channel::with_policy(index, geometry, timing, power, PagePolicy::OpenPage)
    }

    /// A fresh channel with an explicit row-buffer policy.
    pub fn with_policy(
        index: u32,
        geometry: &Geometry,
        timing: TimingParams,
        power: PowerParams,
        page_policy: PagePolicy,
    ) -> Self {
        let ranks =
            (0..geometry.ranks_per_channel).map(|_| Rank::new(geometry, &timing, power)).collect();
        Channel {
            index,
            timing,
            page_policy,
            ranks,
            fg: RequestQueue::new(),
            mig: RequestQueue::new(),
            clock: Picos::ZERO,
            bus_free: Picos::ZERO,
            last_bus_rank: None,
            last_bus_was_write: false,
            completions: Vec::new(),
            events: Vec::new(),
            fg_stats: LatencyStats::new(),
            mig_stats: LatencyStats::new(),
            bytes_transferred: 0,
        }
    }

    /// Channel index within the device.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Current channel clock.
    pub fn clock(&self) -> Picos {
        self.clock
    }

    /// Immutable access to a rank.
    pub fn rank(&self, rank: u32) -> &Rank {
        &self.ranks[rank as usize]
    }

    /// Mutable access to a rank (for explicit power transitions and energy
    /// integration by the owning device).
    pub fn rank_mut(&mut self, rank: u32) -> &mut Rank {
        &mut self.ranks[rank as usize]
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Queued-but-unfinished request count (both classes).
    pub fn pending(&self) -> usize {
        self.fg.entries.len() + self.mig.entries.len()
    }

    /// Queued migration requests.
    pub fn pending_migration(&self) -> usize {
        self.mig.entries.len()
    }

    /// Total bytes moved over the data bus so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Foreground latency statistics.
    pub fn foreground_stats(&self) -> &LatencyStats {
        &self.fg_stats
    }

    /// Migration latency statistics.
    pub fn migration_stats(&self) -> &LatencyStats {
        &self.mig_stats
    }

    /// Adds a request to the appropriate queue.
    ///
    /// # Panics
    ///
    /// Panics if the decoded channel does not match this channel.
    pub fn enqueue(&mut self, req: MemRequest, dec: DecodedAddr) {
        assert_eq!(dec.channel, self.index, "request routed to the wrong channel");
        let p = Pending { req, dec, had_act: false };
        match req.priority {
            Priority::Foreground => self.fg.push(p),
            Priority::Migration => self.mig.push(p),
        }
    }

    /// Drains completion records accumulated since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Drains power events accumulated since the last call.
    pub fn drain_events(&mut self) -> Vec<PowerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Records an externally requested power event (called by the device
    /// wrapper after an explicit transition).
    pub fn push_event(&mut self, ev: PowerEvent) {
        self.events.push(ev);
    }

    /// Runs the scheduler until `until`, issuing commands and completing
    /// requests. The channel clock never exceeds `until`.
    pub fn advance_to<S: CommandSink>(&mut self, until: Picos, sink: &mut S) {
        self.advance_with(until, sink, Channel::pick_command);
    }

    /// [`Channel::advance_to`] with the scheduling decision passed in: the
    /// tests run a reference scheduler through the same loop.
    fn advance_with<S: CommandSink>(
        &mut self,
        until: Picos,
        sink: &mut S,
        pick: impl Fn(&Channel) -> Option<Pick>,
    ) {
        while self.clock < until {
            self.service_due_refreshes(sink);
            let Some((qi, cmd, t_issue)) = pick(self) else {
                // Nothing issuable before `until`: fast-forward, batching
                // refreshes that fall in the idle gap.
                self.fast_forward_refreshes(until);
                self.clock = until;
                break;
            };
            if t_issue >= until {
                self.fast_forward_refreshes(until);
                self.clock = until;
                break;
            }
            self.issue(qi, cmd, t_issue, sink);
        }
    }

    /// True when both queues are empty.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// The earliest arrival time among queued requests, if any.
    pub fn earliest_arrival(&self) -> Option<Picos> {
        self.fg.entries.iter().chain(&self.mig.entries).map(|p| p.req.arrival).min()
    }

    // ---- internals ----------------------------------------------------

    /// Performs any mandatory refreshes whose deadline has passed.
    fn service_due_refreshes<S: CommandSink>(&mut self, sink: &mut S) {
        let t = self.timing;
        for (ri, rank) in self.ranks.iter_mut().enumerate() {
            if rank.state() != PowerState::Standby {
                continue;
            }
            while rank.refresh_due() <= self.clock {
                let base = self.clock.max(rank.busy_until());
                let start = rank.all_banks_closed_by(base, &t);
                // Close any open banks (the PREs are implied).
                for b in 0..rank.bank_count() {
                    rank.bank_mut(b).force_close(start);
                }
                rank.do_refresh(start, &t);
                sink.on_command(IssuedCommand {
                    at: start,
                    kind: CommandKind::Refresh,
                    channel: self.index,
                    rank: ri as u32,
                    target: DecodedAddr {
                        channel: self.index,
                        rank: ri as u32,
                        ..Default::default()
                    },
                });
            }
        }
    }

    /// Batch-processes refreshes for ranks whose deadlines fall in an idle
    /// window ending at `until`.
    fn fast_forward_refreshes(&mut self, until: Picos) {
        let t = self.timing;
        for rank in self.ranks.iter_mut() {
            if rank.state() != PowerState::Standby {
                continue;
            }
            if rank.refresh_due() < until {
                let gap = until - rank.refresh_due();
                let n = gap.as_ps() / t.cycles(t.trefi).as_ps() + 1;
                rank.do_idle_refreshes(n, &t);
            }
        }
    }

    /// Chooses the next command.
    fn pick_command(&self) -> Option<Pick> {
        // Starvation guard: if the oldest foreground request has waited
        // past the cap, schedule only it.
        if let Some(oldest) = self.fg.entries.front() {
            if self.clock.saturating_sub(oldest.req.arrival) > STARVATION_CAP {
                let (cmd, t) = self.next_command_for(oldest);
                return Some((QueueSlot::Fg(0), cmd, t.max(self.clock)));
            }
        }
        // Foreground priority: migration only when no *arrived* foreground
        // request exists (asked only when there is migration traffic to
        // hold back).
        let scan_mig = !self.mig.entries.is_empty() && !self.fg.has_arrived(self.clock);
        let queues =
            [(&self.fg, QueueSlot::Fg as fn(usize) -> QueueSlot), (&self.mig, QueueSlot::Mig)];
        let window = self.timing.tck;
        let mut best: Option<(QueueSlot, NextCommand, Picos, Picos)> = None;
        for (queue, slot) in &queues[..1 + usize::from(scan_mig)] {
            for (i, p) in queue.entries.iter().take(SCAN_WINDOW).enumerate() {
                let arrival = p.req.arrival;
                // No command issues before its request arrives, so one that
                // arrives more than a clock after the best so far would lose
                // the comparison below on time alone, whatever it needs. In
                // an arrival-ordered queue so would every entry behind it
                // (the best cannot change while candidates lose).
                if let Some((_, _, bt, _)) = best {
                    if bt.checked_add(window).is_some_and(|bw| bw < arrival) {
                        if queue.arrival_ordered {
                            break;
                        }
                        continue;
                    }
                }
                #[cfg(test)]
                tests::EVALUATED.with(|n| n.set(n.get() + 1));
                let (cmd, t) = self.next_command_for(p);
                if t >= Picos::MAX {
                    continue;
                }
                let better = match best {
                    None => true,
                    // Candidates within one clock of the earliest are peers;
                    // prefer FR-FCFS class, then age.
                    Some((_, bcmd, bt, barr)) => {
                        if t.checked_add(window).is_some_and(|tw| tw < bt) {
                            true
                        } else if bt.checked_add(window).is_none_or(|bw| bw < t) {
                            false
                        } else {
                            match cmd.class_rank().cmp(&bcmd.class_rank()) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Greater => false,
                                std::cmp::Ordering::Equal => arrival < barr,
                            }
                        }
                    }
                };
                if better {
                    best = Some((slot(i), cmd, t, arrival));
                }
            }
        }
        best.map(|(slot, cmd, t, _)| (slot, cmd, t.max(self.clock)))
    }

    /// The next command a pending request needs, and its earliest issue time
    /// (including the request's own arrival time).
    fn next_command_for(&self, p: &Pending) -> (NextCommand, Picos) {
        let t = &self.timing;
        let rank = &self.ranks[p.dec.rank as usize];
        let arrival = p.req.arrival;
        if rank.state() != PowerState::Standby {
            // Needs a power-state exit first; it can start once the request
            // has arrived and the rank is free.
            return (NextCommand::PowerExit, arrival.max(rank.busy_until()).max(self.clock));
        }
        let flat = rank.flat_bank(p.dec.bank_group, p.dec.bank);
        let bank = rank.bank(flat);
        match bank.open_row() {
            Some(row) if row == p.dec.row => {
                let is_read = !p.req.kind.is_write();
                let mut ti = arrival
                    .max(self.clock)
                    .max(if is_read { bank.rd_ready() } else { bank.wr_ready() })
                    .max(rank.cas_constraint(p.dec.bank_group, is_read, t));
                // Data-bus availability: the burst must start after the bus
                // frees (plus a turnaround bubble on rank/direction change).
                let cas_lat = if is_read { t.cycles(t.cl) } else { t.cycles(t.cwl) };
                let mut bus_avail = self.bus_free;
                let switching = self.last_bus_rank.is_some()
                    && (self.last_bus_rank != Some(p.dec.rank)
                        || self.last_bus_was_write != p.req.kind.is_write());
                if switching {
                    bus_avail += t.cycles(t.rank_to_rank);
                }
                if ti + cas_lat < bus_avail {
                    ti = bus_avail - cas_lat;
                }
                (NextCommand::Cas, ti)
            }
            Some(_) => {
                let ti = arrival.max(self.clock).max(bank.pre_ready()).max(rank.busy_until());
                (NextCommand::Pre, ti)
            }
            None => {
                let ti = arrival
                    .max(self.clock)
                    .max(bank.act_ready())
                    .max(rank.act_constraint(p.dec.bank_group, t));
                (NextCommand::Act, ti)
            }
        }
    }

    /// Issues `cmd` at `at` for the request in `slot`, updating all state.
    fn issue<S: CommandSink>(
        &mut self,
        slot: QueueSlot,
        cmd: NextCommand,
        at: Picos,
        sink: &mut S,
    ) {
        let t = self.timing;
        let p = match slot {
            QueueSlot::Fg(i) => self.fg.entries[i].clone(),
            QueueSlot::Mig(i) => self.mig.entries[i].clone(),
        };
        let rank_idx = p.dec.rank;
        let rank = &mut self.ranks[rank_idx as usize];
        let flat = rank.flat_bank(p.dec.bank_group, p.dec.bank);
        match cmd {
            NextCommand::PowerExit => {
                let from = rank.state();
                let done = rank
                    .transition(at, PowerState::Standby, &t)
                    .expect("exit to standby is always legal");
                self.events.push(PowerEvent {
                    at: done,
                    channel: self.index,
                    rank: rank_idx,
                    from,
                    to: PowerState::Standby,
                    cause: PowerEventCause::AutoExit,
                });
                let kind = match from {
                    PowerState::SelfRefresh => CommandKind::SelfRefreshExit,
                    PowerState::Mpsm => CommandKind::MpsmExit,
                    _ => CommandKind::PowerDownExit,
                };
                sink.on_command(IssuedCommand {
                    at,
                    kind,
                    channel: self.index,
                    rank: rank_idx,
                    target: p.dec,
                });
                self.clock = self.clock.max(at);
            }
            NextCommand::Pre => {
                rank.bank_mut(flat).do_precharge(at, &t);
                sink.on_command(IssuedCommand {
                    at,
                    kind: CommandKind::Precharge,
                    channel: self.index,
                    rank: rank_idx,
                    target: p.dec,
                });
                self.clock = at + t.tck;
            }
            NextCommand::Act => {
                rank.bank_mut(flat).do_activate(at, p.dec.row, &t);
                rank.note_activate(at, p.dec.bank_group);
                match slot {
                    QueueSlot::Fg(i) => self.fg.entries[i].had_act = true,
                    QueueSlot::Mig(i) => self.mig.entries[i].had_act = true,
                }
                sink.on_command(IssuedCommand {
                    at,
                    kind: CommandKind::Activate,
                    channel: self.index,
                    rank: rank_idx,
                    target: p.dec,
                });
                self.clock = at + t.tck;
            }
            NextCommand::Cas => {
                let is_write = p.req.kind.is_write();
                let row_hit_was_open = !p.had_act;
                let data_end = if is_write {
                    rank.bank_mut(flat).do_write(at, &t)
                } else {
                    rank.bank_mut(flat).do_read(at, &t)
                };
                rank.note_cas(at, p.dec.bank_group, !is_write, data_end, row_hit_was_open, &t);
                sink.on_command(IssuedCommand {
                    at,
                    kind: if is_write { CommandKind::Write } else { CommandKind::Read },
                    channel: self.index,
                    rank: rank_idx,
                    target: p.dec,
                });
                if self.page_policy == PagePolicy::ClosedPage {
                    // Auto-precharge (RDA/WRA): the row closes once its
                    // restore window (tRTP / write recovery) elapses.
                    let bank = rank.bank_mut(flat);
                    let pre_at = bank.pre_ready();
                    bank.do_precharge(pre_at, &t);
                    sink.on_command(IssuedCommand {
                        at: pre_at,
                        kind: CommandKind::Precharge,
                        channel: self.index,
                        rank: rank_idx,
                        target: p.dec,
                    });
                }
                self.bus_free = data_end;
                self.last_bus_rank = Some(rank_idx);
                self.last_bus_was_write = is_write;
                self.bytes_transferred += LINE_BYTES;
                let completion = Completion {
                    id: p.req.id,
                    finished: data_end,
                    arrival: p.req.arrival,
                    priority: p.req.priority,
                };
                match p.req.priority {
                    Priority::Foreground => self.fg_stats.record(completion.latency()),
                    Priority::Migration => self.mig_stats.record(completion.latency()),
                }
                self.completions.push(completion);
                match slot {
                    QueueSlot::Fg(i) => {
                        self.fg.entries.remove(i);
                    }
                    QueueSlot::Mig(i) => {
                        self.mig.entries.remove(i);
                    }
                }
                self.clock = at + t.tck;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueSlot {
    Fg(usize),
    Mig(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::command::{NullSink, RecordingSink};
    use crate::config::DramConfig;
    use crate::mapping::{AddressMapper, AddressMapping};
    use crate::request::AccessKind;
    use proptest::prelude::*;

    fn channel() -> (Channel, AddressMapper) {
        let cfg = DramConfig::tiny();
        let mapper = AddressMapper::new(cfg.geometry, AddressMapping::RankInterleaved).unwrap();
        (Channel::new(0, &cfg.geometry, cfg.timing, cfg.power), mapper)
    }

    fn req_at(
        ch: &Channel,
        mapper: &AddressMapper,
        id: u64,
        addr: u64,
        kind: AccessKind,
        arrival: Picos,
        priority: Priority,
    ) -> (MemRequest, DecodedAddr) {
        let _ = ch;
        let r = MemRequest { id, addr: PhysAddr::new(addr), kind, arrival, priority };
        let dec = mapper.decode(r.addr).unwrap();
        (r, dec)
    }

    /// Finds an address that decodes to channel 0 with the given row, for
    /// deterministic row-conflict construction.
    fn addr_for(mapper: &AddressMapper, rank: u32, bg: u32, bank: u32, row: u64, col: u64) -> u64 {
        mapper
            .encode(&DecodedAddr { channel: 0, rank, bank_group: bg, bank, row, column: col })
            .unwrap()
            .as_u64()
    }

    #[test]
    fn single_read_latency_is_act_plus_cas() {
        let (mut ch, mapper) = channel();
        let a = addr_for(&mapper, 0, 0, 0, 5, 3);
        let (r, d) =
            req_at(&ch, &mapper, 1, a, AccessKind::Read, Picos::ZERO, Priority::Foreground);
        ch.enqueue(r, d);
        ch.advance_to(Picos::from_us(1), &mut NullSink);
        let done = ch.drain_completions();
        assert_eq!(done.len(), 1);
        let t = TimingParams::ddr4_2933();
        let expect = t.cycles(t.trcd) + t.cycles(t.cl) + t.burst_time() + t.tck;
        // ACT at tCK-aligned zero; one extra tCK of command-bus serialization
        // tolerance.
        assert!(
            done[0].latency() <= expect && done[0].latency() >= expect - t.tck * 2,
            "latency {} expect about {}",
            done[0].latency(),
            expect
        );
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        let (mut ch, mapper) = channel();
        // Two reads to the same row: second is a hit.
        let a1 = addr_for(&mapper, 0, 0, 0, 5, 0);
        let a2 = addr_for(&mapper, 0, 0, 0, 5, 1);
        // Then one to a different row in the same bank: conflict.
        let a3 = addr_for(&mapper, 0, 0, 0, 9, 0);
        for (id, a) in [(1, a1), (2, a2), (3, a3)] {
            let (r, d) =
                req_at(&ch, &mapper, id, a, AccessKind::Read, Picos::ZERO, Priority::Foreground);
            ch.enqueue(r, d);
        }
        ch.advance_to(Picos::from_us(2), &mut NullSink);
        let done = ch.drain_completions();
        assert_eq!(done.len(), 3);
        let lat = |id: u64| done.iter().find(|c| c.id == id).unwrap().latency();
        assert!(lat(2) < lat(3), "hit {} must beat conflict {}", lat(2), lat(3));
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let (mut ch, mapper) = channel();
        // Open row 5 with request 1; request 2 conflicts (row 9), request 3
        // hits row 5 and should be served before 2 despite arriving later.
        let a1 = addr_for(&mapper, 0, 0, 0, 5, 0);
        let a2 = addr_for(&mapper, 0, 0, 0, 9, 0);
        let a3 = addr_for(&mapper, 0, 0, 0, 5, 7);
        for (id, a, ns) in [(1, a1, 0), (2, a2, 1), (3, a3, 2)] {
            let (r, d) = req_at(
                &ch,
                &mapper,
                id,
                a,
                AccessKind::Read,
                Picos::from_ns(ns),
                Priority::Foreground,
            );
            ch.enqueue(r, d);
        }
        ch.advance_to(Picos::from_us(2), &mut NullSink);
        let done = ch.drain_completions();
        let pos = |id: u64| done.iter().position(|c| c.id == id).unwrap();
        assert!(pos(3) < pos(2), "row hit must be reordered ahead of the conflict");
    }

    #[test]
    fn migration_yields_to_foreground() {
        let (mut ch, mapper) = channel();
        // Saturate with interleaved fg+mig requests to the same bank; all
        // fg must complete before any mig given equal arrival.
        for i in 0..8u64 {
            let af = addr_for(&mapper, 0, 0, 0, 1, i);
            let (r, d) =
                req_at(&ch, &mapper, i, af, AccessKind::Read, Picos::ZERO, Priority::Foreground);
            ch.enqueue(r, d);
            let am = addr_for(&mapper, 1, 0, 0, 1, i);
            let (r, d) = req_at(
                &ch,
                &mapper,
                100 + i,
                am,
                AccessKind::Read,
                Picos::ZERO,
                Priority::Migration,
            );
            ch.enqueue(r, d);
        }
        ch.advance_to(Picos::from_us(5), &mut NullSink);
        let done = ch.drain_completions();
        assert_eq!(done.len(), 16);
        let last_fg = done
            .iter()
            .filter(|c| c.priority == Priority::Foreground)
            .map(|c| c.finished)
            .max()
            .unwrap();
        let first_mig = done
            .iter()
            .filter(|c| c.priority == Priority::Migration)
            .map(|c| c.finished)
            .min()
            .unwrap();
        assert!(last_fg < first_mig, "all foreground must finish before migration starts");
    }

    #[test]
    fn refresh_happens_roughly_every_trefi() {
        let (mut ch, _mapper) = channel();
        let t = TimingParams::ddr4_2933();
        let horizon = Picos::from_us(100);
        ch.advance_to(horizon, &mut NullSink);
        let expected = horizon.as_ps() / t.cycles(t.trefi).as_ps();
        for r in 0..ch.rank_count() {
            let refs = ch.rank(r).counters().refreshes;
            assert!(
                refs >= expected && refs <= expected + 1,
                "rank {r}: {refs} refreshes, expected about {expected}"
            );
        }
    }

    #[test]
    fn self_refresh_rank_auto_exits_on_access() {
        let (mut ch, mapper) = channel();
        let t = TimingParams::ddr4_2933();
        ch.rank_mut(2).transition(Picos::ZERO, PowerState::SelfRefresh, &t).unwrap();
        let a = addr_for(&mapper, 2, 0, 0, 5, 0);
        let (r, d) =
            req_at(&ch, &mapper, 9, a, AccessKind::Read, Picos::from_us(10), Priority::Foreground);
        ch.enqueue(r, d);
        let mut sink = RecordingSink::default();
        ch.advance_to(Picos::from_us(20), &mut sink);
        let done = ch.drain_completions();
        assert_eq!(done.len(), 1);
        // The exit penalty (tXS ~ 560 ns) dominates the latency.
        assert!(done[0].latency() >= t.cycles(t.txs), "latency {}", done[0].latency());
        assert!(sink.commands.iter().any(|c| c.kind == CommandKind::SelfRefreshExit));
        let evs = ch.drain_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].cause, PowerEventCause::AutoExit);
        assert_eq!(evs[0].from, PowerState::SelfRefresh);
    }

    #[test]
    fn idle_fast_forward_counts_refreshes() {
        let (mut ch, _mapper) = channel();
        let t = TimingParams::ddr4_2933();
        ch.advance_to(Picos::from_ms(1), &mut NullSink);
        let refs = ch.rank(0).counters().refreshes;
        let expected = Picos::from_ms(1).as_ps() / t.cycles(t.trefi).as_ps();
        assert!(refs >= expected && refs <= expected + 1);
        assert_eq!(ch.clock(), Picos::from_ms(1));
    }

    #[test]
    fn idle_refreshes_are_charged_as_many_as_counted() {
        // 20 s idle is ~2.56 M refreshes a rank, past the million the
        // batch used to stop charging at.
        let cfg = DramConfig::tiny();
        let power = PowerParams { refresh_nj: 100.0, ..cfg.power };
        let mut ch = Channel::new(0, &cfg.geometry, cfg.timing, power);
        ch.advance_to(Picos::from_secs(20), &mut NullSink);
        for r in 0..ch.rank_count() {
            let counted = ch.rank(r).counters().refreshes;
            assert!(counted > 2_500_000, "rank {r}: {counted} refreshes");
            let charged = ch.rank(r).energy().energy().refresh_mj;
            let expect = counted as f64 * power.refresh_nj * 1e-6;
            assert!(
                (charged - expect).abs() <= 1e-9 * expect,
                "rank {r}: {charged} mJ charged for {counted} refreshes ({expect} mJ)"
            );
        }
    }

    #[test]
    fn bytes_transferred_counts_lines() {
        let (mut ch, mapper) = channel();
        for i in 0..4u64 {
            let a = addr_for(&mapper, 0, 0, 0, 1, i);
            let (r, d) =
                req_at(&ch, &mapper, i, a, AccessKind::Write, Picos::ZERO, Priority::Foreground);
            ch.enqueue(r, d);
        }
        ch.advance_to(Picos::from_us(2), &mut NullSink);
        assert_eq!(ch.bytes_transferred(), 4 * 64);
    }

    #[test]
    fn wrong_channel_request_panics() {
        let (mut ch, mapper) = channel();
        // Find an address on channel 1.
        let mut addr = 0u64;
        loop {
            if mapper.decode(PhysAddr::new(addr)).unwrap().channel == 1 {
                break;
            }
            addr += 64;
        }
        let r = MemRequest {
            id: 0,
            addr: PhysAddr::new(addr),
            kind: AccessKind::Read,
            arrival: Picos::ZERO,
            priority: Priority::Foreground,
        };
        let dec = mapper.decode(r.addr).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ch.enqueue(r, dec);
        }));
        assert!(result.is_err());
    }

    // ---- the scheduler against the one it replaced ----------------------

    thread_local! {
        /// Candidates `pick_command` has called `next_command_for` on, on
        /// this thread (a test runs on one).
        pub(super) static EVALUATED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    impl Channel {
        /// `pick_command` as it stood before it learnt to skip requests
        /// that cannot win, body kept as it was: every candidate in the
        /// scan window is evaluated, the arrived-foreground test walks the
        /// whole queue. The reference the lockstep tests compare against.
        fn pick_command_reference(&self) -> Option<Pick> {
            let (fg, mig) = (&self.fg.entries, &self.mig.entries);
            let fg_has_arrived = fg.iter().any(|p| p.req.arrival <= self.clock);
            let fg_candidates = !fg.is_empty();
            let mig_candidates = !mig.is_empty();
            if !fg_candidates && !mig_candidates {
                return None;
            }
            // Foreground priority: migration only when no *arrived* foreground
            // request exists.
            let mut best: Option<(QueueSlot, NextCommand, Picos, Picos)> = None;
            let scan_fg = fg_candidates;
            let scan_mig = mig_candidates && !fg_has_arrived;
            let mut consider = |slot: QueueSlot, p: &Pending, this: &Channel| {
                let (cmd, t) = this.next_command_for(p);
                if t >= Picos::MAX {
                    return;
                }
                let better = match &best {
                    None => true,
                    Some((_, bcmd, bt, barr)) => {
                        // Candidates within one clock of the earliest are peers;
                        // prefer FR-FCFS class, then age.
                        let window = this.timing.tck;
                        if t.checked_add(window).is_some_and(|tw| tw < *bt) {
                            true
                        } else if bt.checked_add(window).is_none_or(|bw| bw < t) {
                            false
                        } else {
                            match cmd.class_rank().cmp(&bcmd.class_rank()) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Greater => false,
                                std::cmp::Ordering::Equal => p.req.arrival < *barr,
                            }
                        }
                    }
                };
                if better {
                    best = Some((slot, cmd, t, p.req.arrival));
                }
            };
            if scan_fg {
                // Starvation guard: if the oldest foreground request has waited
                // past the cap, schedule only it.
                if let Some(oldest) = fg.front() {
                    if self.clock.saturating_sub(oldest.req.arrival) > STARVATION_CAP {
                        let (cmd, t) = self.next_command_for(oldest);
                        return Some((QueueSlot::Fg(0), cmd, t.max(self.clock)));
                    }
                }
                for (i, p) in fg.iter().take(SCAN_WINDOW).enumerate() {
                    consider(QueueSlot::Fg(i), p, self);
                }
            }
            if scan_mig {
                for (i, p) in mig.iter().take(SCAN_WINDOW).enumerate() {
                    consider(QueueSlot::Mig(i), p, self);
                }
            }
            best.map(|(slot, cmd, t, _)| (slot, cmd, t.max(self.clock)))
        }
    }

    /// The cost of a decision is what the requests that can issue cost, not
    /// what the queue holds: an open-loop stream submitted up to 512
    /// requests ahead of the clock, as `latency_sweep` submits it, keeps the
    /// scan window full of requests from the future (21.9 candidates a
    /// pick before the arrival bound).
    #[test]
    fn candidates_evaluated_per_pick_stay_few_under_an_open_loop_stream() {
        let (mut ch, mapper) = channel();
        let picks = std::cell::Cell::new(0u64);
        let counted = |ch: &Channel| {
            picks.set(picks.get() + 1);
            ch.pick_command()
        };
        // A fixed stream: 20 ns apart, a new row every fourth request, banks
        // and ranks in rotation.
        let mut arrival = Picos::ZERO;
        for i in 0..6_000u64 {
            arrival += Picos::from_ns(20);
            let a = addr_for(&mapper, (i % 4) as u32, (i / 4 % 4) as u32, 0, i / 16 % 64, i % 4);
            let kind = if i % 5 == 0 { AccessKind::Write } else { AccessKind::Read };
            let (r, d) = req_at(&ch, &mapper, i, a, kind, arrival, Priority::Foreground);
            ch.enqueue(r, d);
            if ch.pending() > 512 {
                ch.advance_with(arrival, &mut NullSink, counted);
            }
        }
        ch.advance_with(arrival + Picos::from_us(10), &mut NullSink, counted);
        assert_eq!(ch.drain_completions().len(), 6_000);
        let evaluated = EVALUATED.with(std::cell::Cell::get);
        assert!(picks.get() > 12_000, "{} picks", picks.get());
        assert!(
            evaluated <= 4 * picks.get(),
            "{evaluated} candidates evaluated over {} picks",
            picks.get()
        );
    }

    /// The peer window is closed at both ends: a row hit that can issue
    /// exactly one clock after the best so far (an ACT) still beats it on
    /// FR-FCFS class, so the arrival bound may skip only past that.
    #[test]
    fn a_candidate_one_clock_after_the_best_is_still_its_peer() {
        let (mut ch, mapper) = channel();
        let tck = TimingParams::ddr4_2933().tck;
        let open = addr_for(&mapper, 0, 0, 0, 5, 0);
        let (r, d) =
            req_at(&ch, &mapper, 1, open, AccessKind::Read, Picos::ZERO, Priority::Foreground);
        ch.enqueue(r, d);
        ch.advance_to(Picos::from_us(1), &mut NullSink);
        // Everything is quiet: both requests can issue the instant they arrive.
        let at = Picos::from_us(2);
        let miss = addr_for(&mapper, 0, 1, 0, 9, 0);
        let hit = addr_for(&mapper, 0, 0, 0, 5, 1);
        for (id, a, arrival) in [(2, miss, at), (3, hit, at + tck)] {
            let (r, d) =
                req_at(&ch, &mapper, id, a, AccessKind::Read, arrival, Priority::Foreground);
            ch.enqueue(r, d);
        }
        assert_eq!(ch.pick_command(), Some((QueueSlot::Fg(1), NextCommand::Cas, at + tck)));
        assert_eq!(ch.pick_command(), ch.pick_command_reference());
    }

    /// Enqueue order is not arrival order by contract: a request enqueued
    /// behind ones from the future, itself already due, is found.
    #[test]
    fn an_out_of_order_arrival_behind_future_requests_is_found() {
        let (mut ch, mapper) = channel();
        for i in 0..4u64 {
            let a = addr_for(&mapper, 0, i as u32, 0, 1, 0);
            let arrival = Picos::from_us(50 + i);
            let (r, d) =
                req_at(&ch, &mapper, i, a, AccessKind::Read, arrival, Priority::Foreground);
            ch.enqueue(r, d);
        }
        let a = addr_for(&mapper, 1, 0, 0, 1, 0);
        let (r, d) =
            req_at(&ch, &mapper, 9, a, AccessKind::Read, Picos::from_ns(10), Priority::Foreground);
        ch.enqueue(r, d);
        assert!(!ch.fg.arrival_ordered);
        assert!(ch.fg.has_arrived(Picos::from_ns(10)));
        assert_eq!(
            ch.pick_command(),
            Some((QueueSlot::Fg(4), NextCommand::Act, Picos::from_ns(10)))
        );
        // Draining the queue puts the bool back.
        ch.advance_to(Picos::from_us(100), &mut NullSink);
        assert_eq!(ch.drain_completions().len(), 5);
        let (r, d) =
            req_at(&ch, &mapper, 10, a, AccessKind::Read, Picos::ZERO, Priority::Foreground);
        ch.enqueue(r, d);
        assert!(ch.fg.arrival_ordered);
    }

    /// One step of a lockstep stream.
    #[derive(Debug, Clone)]
    enum Op {
        /// A request; `arrival_ps` is relative to the channel clock, either
        /// side of it, so a stream holds requests from the past (starved
        /// ones included), from the far future, and out of arrival order.
        /// `lottery` decides, with the stream's `disorder`, whether the
        /// arrival is first raised to the previous one of its class.
        Enqueue { migration: bool, target: DecodedAddr, write: bool, arrival_ps: i64, lottery: u32 },
        /// Run the scheduler this far ahead (divided by the stream's pace).
        Advance(u64),
        /// An explicit rank power transition (illegal ones are refused by
        /// the rank and change nothing).
        Park { rank: u32, state: PowerState },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let tck = TimingParams::ddr4_2933().tck.as_ps() as i64;
        let arrival = prop_oneof![
            // Whole clocks around now: candidates exactly one clock apart.
            4 => (-40i64..40).prop_map(move |c| c * tck),
            3 => -200_000i64..200_000,
            // Older than STARVATION_CAP on arrival.
            1 => -12_000_000i64..-5_000_000,
            // Far ahead of the clock, as an open-loop generator submits.
            2 => 1_000_000i64..400_000_000,
        ];
        // Three rows a bank: hits, misses and conflicts all happen.
        let target = (0u32..4, 0u32..2, 0u32..2, 0u64..3, 0u64..8).prop_map(
            |(rank, bank_group, bank, row, column)| DecodedAddr {
                channel: 0,
                rank,
                bank_group,
                bank,
                row,
                column,
            },
        );
        let state = prop_oneof![
            2 => Just(PowerState::Standby),
            1 => Just(PowerState::ActivePowerDown),
            1 => Just(PowerState::PrechargePowerDown),
            1 => Just(PowerState::SelfRefresh),
            1 => Just(PowerState::Mpsm),
        ];
        prop_oneof![
            40 => (any::<bool>(), target, any::<bool>(), arrival, 0u32..8).prop_map(
                |(migration, target, write, arrival_ps, lottery)| Op::Enqueue {
                    migration,
                    target,
                    write,
                    arrival_ps,
                    lottery,
                },
            ),
            // A few commands' worth, a queue's worth, an idle gap.
            4 => (1u64..60).prop_map(move |c| Op::Advance(c * tck as u64)),
            1 => (1_000_000u64..20_000_000).prop_map(Op::Advance),
            1 => (100_000_000u64..2_000_000_000).prop_map(Op::Advance),
            1 => (0u32..4, state).prop_map(|(rank, state)| Op::Park { rank, state }),
        ]
    }

    /// What a set of lockstep streams reached, counted per decision.
    #[derive(Debug, Default)]
    struct Reached {
        decisions: u64,
        both_classes_queued: u64,
        migration_picked: u64,
        out_of_order_foreground: u64,
        ordered_foreground: u64,
        starved_oldest: u64,
        power_exits: u64,
        deeper_than_window: u64,
        shallower_than_window: u64,
    }

    impl Reached {
        fn note(&mut self, ch: &Channel, pick: Option<Pick>) {
            let fg = &ch.fg.entries;
            let sorted = |q: &RequestQueue| {
                let arrivals = q.entries.iter().map(|p| p.req.arrival);
                arrivals.clone().zip(arrivals.skip(1)).all(|(a, b)| a <= b)
            };
            // The bool may be false over a queue that removals have put
            // back in order; it may never be true over one that is not.
            assert!(!ch.fg.arrival_ordered || sorted(&ch.fg), "foreground queue: stale bool");
            assert!(!ch.mig.arrival_ordered || sorted(&ch.mig), "migration queue: stale bool");
            self.decisions += 1;
            self.both_classes_queued += u64::from(!fg.is_empty() && !ch.mig.entries.is_empty());
            self.out_of_order_foreground += u64::from(!sorted(&ch.fg));
            self.ordered_foreground += u64::from(fg.len() > 1 && ch.fg.arrival_ordered);
            self.starved_oldest += u64::from(
                fg.front().is_some_and(|p| ch.clock.saturating_sub(p.req.arrival) > STARVATION_CAP),
            );
            self.deeper_than_window += u64::from(fg.len() > SCAN_WINDOW);
            self.shallower_than_window += u64::from((1..SCAN_WINDOW).contains(&fg.len()));
            if let Some((slot, cmd, _)) = pick {
                self.migration_picked += u64::from(matches!(slot, QueueSlot::Mig(_)));
                self.power_exits += u64::from(cmd == NextCommand::PowerExit);
            }
        }
    }

    /// Feeds `ops` to two channels, one deciding with `pick_command` and
    /// one with the reference, and compares `(slot, command, time)` at
    /// every decision of the first and everything observable at the end.
    /// A stream's advances are shifted right by `pace`: the slower the
    /// clock, the deeper the queues. `disorder` 0 enqueues every class in
    /// arrival order (what both registry workloads do), 1 breaks the order
    /// with one request in eight, 2 takes every arrival as drawn. What the
    /// stream reached is added to `reached`.
    fn lockstep(
        policy: PagePolicy,
        pace: u32,
        disorder: u32,
        ops: &[Op],
        reached: &std::cell::RefCell<Reached>,
    ) -> Result<(), String> {
        let cfg = DramConfig::tiny();
        let mut fast = Channel::with_policy(0, &cfg.geometry, cfg.timing, cfg.power, policy);
        let mut model = fast.clone();
        let mut fast_sink = RecordingSink::default();
        let mut model_sink = RecordingSink::default();
        let mismatch = std::cell::RefCell::new(None);
        let checked = |ch: &Channel| {
            let pick = ch.pick_command();
            let expect = ch.pick_command_reference();
            if pick != expect && mismatch.borrow().is_none() {
                *mismatch.borrow_mut() =
                    Some(format!("at {}: picked {pick:?}, reference {expect:?}", ch.clock));
            }
            reached.borrow_mut().note(ch, pick);
            pick
        };
        let mut id = 0;
        let mut last_arrival = [Picos::ZERO; 2];
        for op in ops {
            match *op {
                Op::Enqueue { migration, target, write, arrival_ps, lottery } => {
                    let mut arrival =
                        Picos::from_ps(fast.clock.as_ps().saturating_add_signed(arrival_ps));
                    if disorder == 0 || (disorder == 1 && lottery != 0) {
                        arrival = arrival.max(last_arrival[usize::from(migration)]);
                    }
                    last_arrival[usize::from(migration)] = arrival;
                    let req = MemRequest {
                        id,
                        addr: PhysAddr::new(0),
                        kind: if write { AccessKind::Write } else { AccessKind::Read },
                        arrival,
                        priority: if migration {
                            Priority::Migration
                        } else {
                            Priority::Foreground
                        },
                    };
                    id += 1;
                    fast.enqueue(req, target);
                    model.enqueue(req, target);
                }
                Op::Advance(ps) => {
                    let until = fast.clock + Picos::from_ps((ps >> pace).max(1));
                    fast.advance_with(until, &mut fast_sink, checked);
                    model.advance_with(until, &mut model_sink, Channel::pick_command_reference);
                }
                Op::Park { rank, state } => {
                    let now = fast.clock;
                    let a = fast.rank_mut(rank).transition(now, state, &cfg.timing);
                    let b = model.rank_mut(rank).transition(now, state, &cfg.timing);
                    if a.ok() != b.ok() {
                        return Err(format!("rank {rank} -> {state:?} diverged at {now}"));
                    }
                }
            }
            if let Some(msg) = mismatch.take() {
                return Err(msg);
            }
        }
        // Past the furthest arrival a stream can hold, so both drain.
        let until = fast.clock + Picos::from_ms(3);
        fast.advance_with(until, &mut fast_sink, checked);
        model.advance_with(until, &mut model_sink, Channel::pick_command_reference);
        if let Some(msg) = mismatch.take() {
            return Err(msg);
        }
        if fast_sink.commands != model_sink.commands {
            return Err("command streams differ".into());
        }
        if fast.drain_completions() != model.drain_completions() {
            return Err("completions differ".into());
        }
        if fast.drain_events() != model.drain_events() {
            return Err("power events differ".into());
        }
        let state = |ch: &Channel| {
            (ch.clock, ch.pending(), ch.fg_stats, ch.mig_stats, ch.bytes_transferred, ch.bus_free)
        };
        if state(&fast) != state(&model) {
            return Err(format!("end state {:?} vs {:?}", state(&fast), state(&model)));
        }
        Ok(())
    }

    fn policy_of(closed: bool) -> PagePolicy {
        if closed {
            PagePolicy::ClosedPage
        } else {
            PagePolicy::OpenPage
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The scheduler and the one it replaced agree at every decision,
        /// and so on every command, completion and power event, over
        /// foreground + migration mixes, arrivals out of order and far in
        /// the future, both page policies and ranks parked mid-stream.
        fn lockstep_with_the_reference_scheduler(
            closed in any::<bool>(),
            pace in 0u32..3,
            disorder in 0u32..3,
            ops in prop::collection::vec(op_strategy(), 1..600),
        ) {
            let outcome = lockstep(policy_of(closed), 3 * pace, disorder, &ops, &Default::default());
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// The streams above reach what the two registry workloads do not:
    /// the same generator, counted.
    #[test]
    fn lockstep_streams_reach_the_hard_cases() {
        let mut rng = TestRng::deterministic_for("dtl_dram::channel::reach");
        let strategy = prop::collection::vec(op_strategy(), 1..600);
        let total = std::cell::RefCell::new(Reached::default());
        for case in 0..72 {
            let ops = strategy.generate(&mut rng);
            lockstep(policy_of(case % 2 == 1), 3 * (case % 3), case / 3 % 3, &ops, &total).unwrap();
        }
        let total = total.into_inner();
        assert!(total.decisions > 10_000, "{total:?}");
        for (what, n) in [
            ("both classes queued", total.both_classes_queued),
            ("migration picked", total.migration_picked),
            ("foreground queue out of arrival order", total.out_of_order_foreground),
            ("foreground queue of several known to be in order", total.ordered_foreground),
            ("oldest request past STARVATION_CAP", total.starved_oldest),
            ("power-state exits", total.power_exits),
            ("queue deeper than SCAN_WINDOW", total.deeper_than_window),
            ("queue shallower than SCAN_WINDOW", total.shallower_than_window),
        ] {
            assert!(n >= 100, "{what}: {n} of {} decisions", total.decisions);
        }
    }
}
