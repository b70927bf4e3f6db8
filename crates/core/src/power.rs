//! The one owner of rank state.
//!
//! In the paper one controller decides what power state a rank is in: §3.3
//! drains the least-allocated rank of every channel at VM deallocation and
//! parks the (virtual, §4.3: one rank per channel, indices independent)
//! rank group in maximum power saving mode, §3.4 puts a consolidated victim
//! rank into self-refresh, and both act through segment migration. Here
//! that decision lives in three copies that must agree — a rank's
//! **lifecycle** ([`RankPdState`], kept in [`RankPower`]), whether the
//! **allocator** may place data in it, and the **backend**'s DRAM power
//! state — and this module is the only code that writes any of them. It has
//! one entry per cause:
//!
//! * a deallocation, shrink or explicit request —
//!   [`PowerCtl::plan_power_down`];
//! * an allocation short of capacity — [`PowerCtl::wake_for_capacity`];
//! * a rank leaving service — [`PowerCtl::retire`];
//! * a migration job gone for good — [`PowerCtl::job_settled`] (finished)
//!   [`PowerCtl::job_cancelled`] and [`PowerCtl::job_rolled_back`] (which
//!   restarts a drain that must still happen), ending in
//!   `drain_job_settled` or `consolidation_job_settled`, one per
//!   [`JobOrigin`];
//! * the hotness engine finishing a consolidation plan —
//!   [`PowerCtl::consolidate`], which hands it to the migration engine;
//! * time passing under a ladder policy — [`PowerCtl::pump`] and
//!   [`RankPower::next_deadline`];
//! * a power event the backend raised on its own — [`RankPower::observed`];
//! * traffic — [`RankPower::note_access`].
//!
//! The device keeps the *mapping* half of a job (tables, SMC, command tap).

use dtl_dram::{Picos, PolicyEngine, PowerEvent, PowerEventCause, PowerPolicyKind, PowerState};
use dtl_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, SegmentGeometry, SegmentLocation};
use crate::alloc::SegmentAllocator;
use crate::backend::MemoryBackend;
use crate::device::DeviceStats;
use crate::error::DtlError;
use crate::health::{HealthTracker, RankHealth};
use crate::hotness::HotnessEngine;
use crate::migrate::{MigrationEngine, MigrationJob, MigrationKind};
use crate::origin::{JobOrigin, JobOrigins};
use crate::tables::MappingTables;

/// Power-down lifecycle of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankPdState {
    /// Serving traffic and allocations.
    Active,
    /// Selected as a victim; live segments are migrating out.
    Draining,
    /// In maximum power saving mode.
    PoweredDown,
    /// Permanently taken out of service (reliability retirement); never
    /// woken for capacity.
    Retired,
}

/// Counters of the power-down activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerDownStats {
    /// Rank groups that completed power-down.
    pub groups_powered_down: u64,
    /// Rank groups woken for capacity.
    pub groups_woken: u64,
    /// Segments drained out of victim ranks.
    pub segments_drained: u64,
    /// Ranks permanently retired (reliability extension).
    pub ranks_retired: u64,
}

#[derive(Debug, Clone, Copy)]
struct RankEntry {
    lifecycle: RankPdState,
    /// While `Draining`: the drain group that finalizes the rank. A rank
    /// can be reactivated for capacity and later drained again by a *newer*
    /// plan; the older group must then leave it alone.
    owner: Option<u32>,
    /// Where the drain ends: `Retired` instead of `PoweredDown`.
    retiring: bool,
}

/// "`pending_jobs` copies left, then these ranks power down." A slot whose
/// count has reached zero is free: every live drain job is counted in the
/// group its origin names, so no job can still name it.
#[derive(Debug, Default)]
struct DrainGroup {
    ranks: Vec<(u32, u32)>,
    pending_jobs: u64,
}

/// Everything the device remembers about its ranks' power management.
#[derive(Debug)]
pub(crate) struct RankPower {
    geo: SegmentGeometry,
    /// Channel-major.
    ranks: Vec<RankEntry>,
    /// The live drain groups and the free slots between them.
    groups: Vec<DrainGroup>,
    /// Per channel, while a consolidation plan's jobs are in the migration
    /// engine: (jobs still pending, jobs originally planned).
    consolidating: Vec<Option<(u64, u64)>>,
    /// Whether deallocations plan power-downs (on by default).
    enabled: bool,
    /// The ladder policy (the power-policy zoo). Inert for
    /// [`PowerPolicyKind::FixedThreshold`], where deallocation-time MPSM
    /// and hotness self-refresh are every transition there is,
    /// bit-compatible with the pre-policy device.
    policy: PolicyEngine,
    /// Last observed foreground/bulk traffic per rank (channel-major), the
    /// idle clock the policy demotes against.
    last_access: Vec<Picos>,
    /// Ladder demotions committed by the policy pump.
    demotions: u64,
    stats: PowerDownStats,
}

impl RankPower {
    /// Every rank active, power-down enabled, the policy `kind` scaled from
    /// `base` (the hotness profile threshold).
    pub(crate) fn new(geo: SegmentGeometry, kind: PowerPolicyKind, base: Picos) -> Self {
        let ranks = (geo.channels * geo.ranks_per_channel) as usize;
        let active = RankEntry { lifecycle: RankPdState::Active, owner: None, retiring: false };
        RankPower {
            geo,
            ranks: vec![active; ranks],
            groups: Vec::new(),
            consolidating: vec![None; geo.channels as usize],
            enabled: true,
            policy: PolicyEngine::new(kind, geo.channels, geo.ranks_per_channel, base),
            last_access: vec![Picos::ZERO; ranks],
            demotions: 0,
            stats: PowerDownStats::default(),
        }
    }

    #[inline]
    fn index(&self, channel: u32, rank: u32) -> usize {
        (channel * self.geo.ranks_per_channel + rank) as usize
    }

    fn entry(&mut self, channel: u32, rank: u32) -> &mut RankEntry {
        let idx = self.index(channel, rank);
        &mut self.ranks[idx]
    }

    fn channel(&self, channel: u32) -> &[RankEntry] {
        &self.ranks[self.index(channel, 0)..self.index(channel + 1, 0)]
    }

    /// Lifecycle state of a rank.
    pub(crate) fn lifecycle(&self, channel: u32, rank: u32) -> RankPdState {
        self.ranks[self.index(channel, rank)].lifecycle
    }

    /// Ranks of a channel currently active (serving allocations).
    pub(crate) fn active_ranks(&self, channel: u32) -> u32 {
        let active = |e: &&RankEntry| e.lifecycle == RankPdState::Active;
        self.channel(channel).iter().filter(active).count() as u32
    }

    /// Power-down statistics so far.
    pub(crate) fn stats(&self) -> PowerDownStats {
        self.stats
    }

    /// Enables/disables planning power-downs at deallocation.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The active ladder policy.
    pub(crate) fn policy_kind(&self) -> PowerPolicyKind {
        self.policy.kind()
    }

    /// Switches the ladder policy; the new one starts from a cold idle
    /// history.
    pub(crate) fn set_policy(&mut self, kind: PowerPolicyKind, base: Picos) {
        self.policy = PolicyEngine::new(kind, self.geo.channels, self.geo.ranks_per_channel, base);
    }

    /// Ladder demotions committed by the policy pump so far.
    pub(crate) fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Asks the policy to postpone the rank's next refresh.
    pub(crate) fn postpone_refresh(&mut self, channel: u32, rank: u32, now: Picos) -> bool {
        self.policy.postpone_refresh(channel, rank, now)
    }

    /// Traffic reached the rank at `at`: restarts its idle clock.
    #[inline]
    pub(crate) fn note_access(&mut self, channel: u32, rank: u32, at: Picos) {
        let idx = self.index(channel, rank);
        self.last_access[idx] = self.last_access[idx].max(at);
        self.policy.note_access(channel, rank, at);
    }

    /// A power event the backend raised: an access that wakes the
    /// self-refreshing victim ends the hotness engine's parked phase.
    #[inline]
    pub(crate) fn observed(hotness: &mut HotnessEngine, ev: &PowerEvent) {
        if ev.cause == PowerEventCause::AutoExit && ev.from == PowerState::SelfRefresh {
            hotness.on_sr_exit(ev.channel, ev.rank, ev.at);
        }
    }

    /// Verifies that the copies of a rank's state agree, and that every
    /// count of outstanding jobs is the number of live jobs it stands for.
    /// These hold whenever no entry of this module is running:
    ///
    /// * a rank's lifecycle is `Active` exactly when the allocator may place
    ///   data in it;
    /// * the backend holds a rank in MPSM exactly when its lifecycle is
    ///   `PoweredDown` or `Retired`;
    /// * a rank is `Draining` exactly when a drain group owns it, and that
    ///   group still waits for jobs;
    /// * a drain group waits for as many jobs as live jobs name it, and a
    ///   channel's consolidation plan for as many as live hotness jobs name
    ///   the channel.
    ///
    /// What does *not* hold: "the hotness engine's self-refresh rank is in
    /// `SelfRefresh` at the backend". An access wakes the rank inside the
    /// backend at once, and the engine only hears of it when the device next
    /// drains the backend's power events.
    ///
    /// That a rank in MPSM maps no live segment (MPSM loses data) is the
    /// device sweep's per-segment pass (`sweep.rs`), not this check: it
    /// reads the rank's whole stride of the reverse table.
    ///
    /// O(ranks + live jobs).
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first disagreement.
    pub(crate) fn check<B: MemoryBackend>(
        &self,
        backend: &B,
        alloc: &SegmentAllocator,
        origins: &JobOrigins,
    ) -> Result<(), DtlError> {
        let broken = |reason: String| Err(DtlError::Internal { reason });
        let mut drains = vec![0u64; self.groups.len()];
        let mut moves = vec![0u64; self.consolidating.len()];
        for origin in origins.iter() {
            match origin {
                JobOrigin::Drain { group } => match drains.get_mut(group as usize) {
                    Some(n) => *n += 1,
                    None => return broken(format!("a live job names drain group {group}")),
                },
                JobOrigin::Hotness { channel } => moves[channel as usize] += 1,
            }
        }
        for (g, (group, live)) in self.groups.iter().zip(drains).enumerate() {
            if group.pending_jobs != live {
                let waits = group.pending_jobs;
                return broken(format!("drain group {g} waits for {waits} jobs, {live} are live"));
            }
        }
        for (c, (plan, live)) in self.consolidating.iter().zip(moves).enumerate() {
            let waits = plan.map_or(0, |(left, _)| left);
            if waits != live {
                return broken(format!(
                    "ch{c} consolidation waits for {waits} jobs, {live} are live"
                ));
            }
        }
        for c in 0..self.geo.channels {
            for r in 0..self.geo.ranks_per_channel {
                let RankEntry { lifecycle, owner, .. } = self.ranks[self.index(c, r)];
                if (lifecycle == RankPdState::Active) != alloc.is_rank_active(c, r) {
                    return broken(format!(
                        "ch{c}/rk{r} is {lifecycle:?} but the allocator differs"
                    ));
                }
                let power = backend.rank_state(c, r);
                let parked = matches!(lifecycle, RankPdState::PoweredDown | RankPdState::Retired);
                if parked != (power == PowerState::Mpsm) {
                    return broken(format!("ch{c}/rk{r} is {lifecycle:?} but in {power:?}"));
                }
                let waiting = owner.is_some_and(|g| self.groups[g as usize].pending_jobs > 0);
                if (lifecycle == RankPdState::Draining) != waiting || owner.is_some() != waiting {
                    return broken(format!("ch{c}/rk{r} is {lifecycle:?}, drain group {owner:?}"));
                }
            }
        }
        Ok(())
    }

    /// The ranks the ladder policy looks at: every rank, or none under the
    /// inert [`PowerPolicyKind::FixedThreshold`] — the one place that asks.
    fn ladder_ranks(&self) -> impl Iterator<Item = (u32, u32)> {
        let geo = self.geo;
        let channels = if self.policy.is_inert() { 0 } else { geo.channels };
        (0..channels).flat_map(move |c| (0..geo.ranks_per_channel).map(move |r| (c, r)))
    }

    /// The one eligibility rule of the policy pump and of its deadline,
    /// over [`RankPower::ladder_ranks`]: the rank's power state, if the
    /// policy may demote it now. Never a rank this module is moving for
    /// another reason — draining, parked, retired, the hotness victim
    /// already in self-refresh, or an endpoint of a queued or in-flight
    /// migration (a lookup in the migration engine's endpoint index) — so
    /// the pump never fights them.
    fn demotable<B: MemoryBackend>(
        &self,
        backend: &B,
        migrate: &MigrationEngine,
        channel: u32,
        rank: u32,
    ) -> Option<PowerState> {
        if self.lifecycle(channel, rank) != RankPdState::Active
            || migrate.involves_rank(channel, rank)
        {
            return None;
        }
        let state = backend.rank_state(channel, rank);
        let on_ladder = matches!(
            state,
            PowerState::Standby | PowerState::ActivePowerDown | PowerState::PrechargePowerDown
        );
        on_ladder.then_some(state)
    }

    /// The earliest instant a rank becomes due for a policy demotion, so
    /// event-driven drivers wake the pump in time. `None` when the policy
    /// is inert or every demotable rank has bottomed out.
    pub(crate) fn next_deadline<B: MemoryBackend>(
        &self,
        backend: &B,
        migrate: &MigrationEngine,
    ) -> Option<Picos> {
        self.ladder_ranks()
            .filter_map(|(c, r)| {
                let state = self.demotable(backend, migrate, c, r)?;
                self.policy.deadline(c, r, state, self.last_access[self.index(c, r)])
            })
            .min()
    }
}

/// [`RankPower`] at work: the module's state together with the parts of
/// the device a rank's state is spread over, borrowed for one call.
pub(crate) struct PowerCtl<'a, B> {
    pub(crate) state: &'a mut RankPower,
    pub(crate) backend: &'a mut B,
    pub(crate) alloc: &'a mut SegmentAllocator,
    pub(crate) migrate: &'a mut MigrationEngine,
    pub(crate) hotness: &'a mut HotnessEngine,
    pub(crate) origins: &'a mut JobOrigins,
    pub(crate) stats: &'a mut DeviceStats,
    pub(crate) tables: &'a mut MappingTables,
    pub(crate) health: &'a mut HealthTracker,
    pub(crate) telemetry: &'a Telemetry,
}

impl<B: MemoryBackend> PowerCtl<'_, B> {
    /// The one place a rank power transition is committed to the backend:
    /// takes the rank from wherever it is to `target` along legal edges
    /// only and returns the completion time of the last hop (`now` if the
    /// rank is already there). A rank may sit anywhere on the retention
    /// ladder (hotness parked it in self-refresh, or the power policy
    /// demoted it): a deeper retention state is reached one rung at a time,
    /// anything else — MPSM in particular — by bridging through standby,
    /// and the hotness engine forgets a victim that leaves self-refresh.
    /// Each hop is issued at the previous hop's *completion* time — issuing
    /// it at `now` would back-date it into the previous transition's
    /// window, producing an out-of-order command stream and charging the
    /// bridge state to the wrong account.
    pub(crate) fn commit(
        &mut self,
        channel: u32,
        rank: u32,
        target: PowerState,
        now: Picos,
    ) -> Result<Picos, DtlError> {
        let mut at = now;
        loop {
            let state = self.backend.rank_state(channel, rank);
            if state == target {
                return Ok(at);
            }
            let next = match (state, target) {
                _ if dtl_dram::transition_is_legal(state, target) => target,
                (PowerState::ActivePowerDown, PowerState::SelfRefresh) => {
                    PowerState::PrechargePowerDown
                }
                _ => PowerState::Standby,
            };
            debug_assert!(
                dtl_dram::transition_is_legal(state, next),
                "ch{channel}/rk{rank}: {state:?} -> {next:?} on the way to {target:?}"
            );
            at = self.backend.set_rank_state(channel, rank, next, at)?;
            if state == PowerState::SelfRefresh {
                self.hotness.on_sr_exit(channel, rank, at);
            }
        }
    }

    /// The one writer of a rank's lifecycle; the allocator places data in
    /// active ranks only.
    fn set_lifecycle(&mut self, channel: u32, rank: u32, to: RankPdState) {
        self.state.entry(channel, rank).lifecycle = to;
        self.alloc.set_rank_active(channel, rank, to == RankPdState::Active);
    }

    /// Plans and launches rank-group power-downs while capacity allows
    /// (paper §3.3; call whenever segments were freed). No-op while
    /// power-down is disabled.
    pub(crate) fn plan_power_down(&mut self, now: Picos) -> Result<(), DtlError> {
        if !self.state.enabled {
            return Ok(());
        }
        while let Some(victims) = self.pick_victims() {
            let copies = self.plan_drain(&victims, false);
            self.launch(&victims, &copies, now)?;
        }
        Ok(())
    }

    /// The next rank group to power down — the least-allocated rank of
    /// every channel — if every channel keeps at least two active ranks,
    /// its active ranks hold at least one rank of free capacity, and the
    /// others can absorb the victim's live data. Ranks that a migration
    /// touches are never selected; the question is asked once per candidate
    /// rank, and each answer is a lookup in the migration engine's endpoint
    /// index, not a walk of its queues.
    fn pick_victims(&self) -> Option<Vec<(u32, u32)>> {
        let geo = self.state.geo;
        let mut victims = Vec::with_capacity(geo.channels as usize);
        for c in 0..geo.channels {
            if self.state.active_ranks(c) < 2 {
                return None;
            }
            if self.alloc.free_in_channel_active(c) < geo.segs_per_rank {
                return None;
            }
            let skip: Vec<u32> =
                (0..geo.ranks_per_channel).filter(|r| self.migrate.involves_rank(c, *r)).collect();
            let victim = self.alloc.least_allocated_active_rank(c, &skip)?;
            // The other active ranks must absorb the victim's live data.
            let spare = self.alloc.free_in_channel_active(c) - self.alloc.free_in_rank(c, victim);
            if spare < self.alloc.allocated_in_rank(c, victim) {
                return None;
            }
            victims.push((c, victim));
        }
        Some(victims)
    }

    /// Commits a drain of `victims`, whose channels were verified to have
    /// the spare capacity, towards retirement if `retire`: marks them
    /// draining and reserves a destination for every live segment. Returns
    /// the `(src, dst)` copies that empty them.
    fn plan_drain(&mut self, victims: &[(u32, u32)], retire: bool) -> Vec<(Dsn, Dsn)> {
        let geo = self.state.geo;
        let mut copies = Vec::new();
        for &(c, victim) in victims {
            self.set_lifecycle(c, victim, RankPdState::Draining);
            self.state.entry(c, victim).retiring = retire;
            let live: Vec<u64> = self.alloc.allocated_slots(c, victim).collect();
            for within in live {
                let src = geo.dsn(SegmentLocation { channel: c, rank: victim, within });
                let dst = self.pick_destination(c, None).expect("spare capacity verified");
                copies.push((src, geo.dsn(dst)));
            }
        }
        self.state.stats.segments_drained += copies.len() as u64;
        copies
    }

    /// Picks (and reserves) a drain destination in channel `c`, outside
    /// rank `exclude`: the most utilized active rank with free space (the
    /// allocator's packing preference).
    fn pick_destination(&mut self, c: u32, exclude: Option<u32>) -> Option<SegmentLocation> {
        let rank = (0..self.state.geo.ranks_per_channel)
            .filter(|r| {
                Some(*r) != exclude
                    && self.state.lifecycle(c, *r) == RankPdState::Active
                    && self.alloc.free_in_rank(c, *r) > 0
            })
            .max_by_key(|r| (self.alloc.allocated_in_rank(c, *r), u32::MAX - *r))?;
        self.alloc.take_free_in_rank(c, rank)
    }

    /// Starts a planned drain: its copies go to the migration engine under
    /// a drain group that owns `victims`, or — with nothing to copy — the
    /// ranks power down at once.
    fn launch(
        &mut self,
        victims: &[(u32, u32)],
        copies: &[(Dsn, Dsn)],
        now: Picos,
    ) -> Result<(), DtlError> {
        if copies.is_empty() {
            return self.finalize(victims, now);
        }
        let groups = &mut self.state.groups;
        let slot = groups.iter().position(|g| g.pending_jobs == 0).unwrap_or_else(|| {
            groups.push(DrainGroup::default());
            groups.len() - 1
        });
        groups[slot].ranks.extend_from_slice(victims);
        groups[slot].pending_jobs = copies.len() as u64;
        for &(c, r) in victims {
            self.state.entry(c, r).owner = Some(slot as u32);
        }
        for (src, dst) in copies {
            self.enqueue_drain(*src, *dst, slot as u32, now)?;
        }
        Ok(())
    }

    /// Enqueues one drain copy counted in `group`.
    fn enqueue_drain(
        &mut self,
        src: Dsn,
        dst: Dsn,
        group: u32,
        now: Picos,
    ) -> Result<(), DtlError> {
        let id = self.migrate.enqueue_copy(src, dst, now)?;
        self.origins.insert(id, JobOrigin::Drain { group });
        Ok(())
    }

    /// Takes drained ranks to their terminal state: lifecycle, allocator
    /// and backend together.
    fn finalize(&mut self, ranks: &[(u32, u32)], now: Picos) -> Result<(), DtlError> {
        let mut parked = false;
        for &(c, r) in ranks {
            let entry = self.state.entry(c, r);
            entry.owner = None;
            if entry.retiring {
                self.set_lifecycle(c, r, RankPdState::Retired);
                self.state.stats.ranks_retired += 1;
            } else {
                self.set_lifecycle(c, r, RankPdState::PoweredDown);
                parked = true;
            }
            // MPSM is entered from standby, at the completion of whatever
            // exit gets the rank there. A rank that is *already* parked
            // (retiring a powered-down rank) takes the same bounce; the
            // command stream and the energy totals are pinned on it.
            let at = self.commit(c, r, PowerState::Standby, now)?;
            self.commit(c, r, PowerState::Mpsm, at)?;
        }
        if parked {
            self.state.stats.groups_powered_down += 1;
        }
        Ok(())
    }

    /// Wakes one rank per channel so its capacity can be allocated:
    /// a powered-down rank (an MPSM exit) where there is one, else a
    /// draining power-down victim, which needs no DRAM command — but never
    /// a retiring rank (it is leaving service for good).
    ///
    /// # Errors
    ///
    /// [`DtlError::OutOfCapacity`] if no channel has a rank to wake.
    pub(crate) fn wake_for_capacity(&mut self, now: Picos) -> Result<(), DtlError> {
        let mut woken = Vec::new();
        for c in 0..self.state.geo.channels {
            let ranks = self.state.channel(c);
            let parked = ranks.iter().position(|e| e.lifecycle == RankPdState::PoweredDown);
            let wake = parked.or_else(|| {
                ranks.iter().position(|e| e.lifecycle == RankPdState::Draining && !e.retiring)
            });
            woken.extend(wake.map(|r| (c, r as u32, parked.is_some())));
        }
        if woken.is_empty() {
            let free = self.alloc.free_active_total();
            return Err(DtlError::OutOfCapacity { requested: 0, free });
        }
        self.state.stats.groups_woken += 1;
        for (c, r, parked) in woken {
            self.state.entry(c, r).owner = None;
            self.set_lifecycle(c, r, RankPdState::Active);
            if parked {
                self.commit(c, r, PowerState::Standby, now)?;
            }
        }
        self.stats.capacity_wakes += 1;
        Ok(())
    }

    /// Permanently retires a rank: cancels or re-aims the migrations
    /// touching it, wakes it out of self-refresh, and drains it like a
    /// power-down victim whose terminal state is `Retired`, waking
    /// powered-down groups while the channel lacks the room.
    ///
    /// # Errors
    ///
    /// * [`DtlError::OutOfCapacity`] when even with every group awake the
    ///   channel cannot absorb the rank's live segments (nothing changed:
    ///   every cancelled job is back in the queue);
    /// * [`DtlError::Internal`] when the rank is already retired.
    pub(crate) fn retire(&mut self, channel: u32, rank: u32, now: Picos) -> Result<(), DtlError> {
        match self.state.lifecycle(channel, rank) {
            RankPdState::Retired => {
                return Err(DtlError::Internal {
                    reason: format!("rank ch{channel}/rk{rank} is already retired"),
                });
            }
            RankPdState::Draining => {
                // Already draining for power-down: ride the drain and make
                // its terminal state Retired.
                self.state.entry(channel, rank).retiring = true;
                return Ok(());
            }
            RankPdState::PoweredDown | RankPdState::Active => {}
        }
        // Cancel or re-aim migrations touching the rank. Drain copies
        // *into* the retiring rank still have live sources elsewhere —
        // they are re-aimed at fresh destinations; drain copies *out of*
        // this rank cannot exist here (the rank is not Draining);
        // hotness jobs unwind exactly as on VM deallocation.
        let involved = self.migrate.jobs_involving_rank(channel, rank);
        let ids: Vec<u64> = involved.iter().map(|j| j.id).collect();
        let mut pending = self.migrate.cancel_ids(&ids).into_iter();
        while let Some(job) = pending.next() {
            let reaim = match (self.origins.get(job.id), job.kind) {
                (Some(JobOrigin::Drain { group }), MigrationKind::Copy { src, dst }) => {
                    let from = self.state.geo.location(src);
                    let elsewhere = (from.channel, from.rank) != (channel, rank);
                    (elsewhere && self.tables.reverse(src).is_some()).then_some((src, dst, group))
                }
                _ => None,
            };
            let Some((src, dst, group)) = reaim else {
                self.job_cancelled(job.id, job.kind, now)?;
                continue;
            };
            // Find a destination off the retiring rank (migrations are
            // intra-channel), waking powered-down groups for capacity
            // exactly like the planning loop below.
            let new_dst = loop {
                let dst = self.pick_destination(channel, Some(rank));
                if dst.is_some() {
                    break dst;
                }
                match self.wake_for_capacity(now) {
                    Ok(()) => {}
                    Err(DtlError::OutOfCapacity { .. }) => break None,
                    Err(e) => return Err(e),
                }
            };
            let Some(new_dst) = new_dst else {
                // Genuinely no spare capacity: refuse the retirement
                // atomically by restoring this and every remaining
                // cancelled job before surfacing the refusal.
                self.restore_job(&job, now)?;
                for j in pending {
                    self.restore_job(&j, now)?;
                }
                return Err(DtlError::OutOfCapacity {
                    requested: self.alloc.allocated_in_rank(channel, rank),
                    free: 0,
                });
            };
            self.origins.remove(job.id);
            self.alloc.free_segments(&[dst])?;
            self.enqueue_drain(src, self.state.geo.dsn(new_dst), group, now)?;
        }
        // A self-refreshing victim must wake (and the hotness engine must
        // forget it) before its data can move.
        if self.backend.rank_state(channel, rank) == PowerState::SelfRefresh {
            self.commit(channel, rank, PowerState::Standby, now)?;
        }
        let victim = [(channel, rank)];
        if self.state.lifecycle(channel, rank) == RankPdState::PoweredDown {
            // Nothing stored there: straight to the terminal state.
            // `ranks_retired` counts this case here and again in
            // `finalize`, as it always has; the fault campaigns' results
            // are pinned on the sum.
            self.state.stats.ranks_retired += 1;
            self.state.entry(channel, rank).retiring = true;
            return self.finalize(&victim, now);
        }
        // The channel's other active ranks must absorb the rank's live
        // segments, and one of them must stay: wake groups until both
        // hold. With nothing left to wake the retirement is impossible,
        // and the wake's refusal is the answer.
        let live = self.alloc.allocated_in_rank(channel, rank);
        while self.state.active_ranks(channel) < 2
            || self.alloc.free_in_channel_active(channel) - self.alloc.free_in_rank(channel, rank)
                < live
        {
            self.wake_for_capacity(now)?;
        }
        let copies = self.plan_drain(&victim, true);
        self.launch(&victim, &copies, now)
    }

    /// Re-enqueues a cancelled migration job unchanged (refused
    /// retirements must leave migration state exactly as found). The job
    /// restarts from scratch under a fresh id, which takes over the origin;
    /// pre-commit copy work is idempotent, so nothing is lost.
    fn restore_job(&mut self, job: &MigrationJob, now: Picos) -> Result<(), DtlError> {
        let new_id = match job.kind {
            MigrationKind::Copy { src, dst } => self.migrate.enqueue_copy(src, dst, now)?,
            MigrationKind::Swap { a, b } => self.migrate.enqueue_swap(a, b, now)?,
        };
        if let Some(origin) = self.origins.remove(job.id) {
            self.origins.insert(new_id, origin);
        }
        Ok(())
    }

    /// A migration job was cancelled (a segment was deallocated under it,
    /// or a retiring rank was an endpoint) or rolled back for good. A
    /// cancelled *copy* still holds its destination reservation — never part
    /// of an AU, so never the segment freed under it — which is released.
    pub(crate) fn job_cancelled(
        &mut self,
        id: u64,
        kind: MigrationKind,
        now: Picos,
    ) -> Result<(), DtlError> {
        let Some(origin) = self.origins.remove(id) else { return Ok(()) };
        if let MigrationKind::Copy { dst, .. } = kind {
            self.alloc.free_segments(&[dst])?;
        }
        self.job_settled(origin, now)
    }

    /// A migration job was rolled back after an interruption exhausted its
    /// retry budget. A drain copy whose source is still live restarts from
    /// scratch under a fresh id — the rank must still empty; anything else
    /// (an abandoned consolidation move, a drain whose source was
    /// deallocated) is gone for good.
    pub(crate) fn job_rolled_back(
        &mut self,
        job: MigrationJob,
        now: Picos,
    ) -> Result<(), DtlError> {
        match (self.origins.get(job.id), job.kind) {
            (Some(JobOrigin::Drain { .. }), MigrationKind::Swap { .. }) => {
                Err(DtlError::Internal { reason: "drain job must be a copy".into() })
            }
            (Some(JobOrigin::Drain { group }), MigrationKind::Copy { src, dst })
                if self.tables.reverse(src).is_some() =>
            {
                self.origins.remove(job.id);
                self.enqueue_drain(src, dst, group, now)
            }
            _ => self.job_cancelled(job.id, job.kind, now),
        }
    }

    /// What a migration job that is gone for good — finished, cancelled or
    /// abandoned — means for the ranks it was planned for.
    pub(crate) fn job_settled(&mut self, origin: JobOrigin, now: Picos) -> Result<(), DtlError> {
        match origin {
            JobOrigin::Drain { group } => self.drain_job_settled(group, now),
            JobOrigin::Hotness { channel } => self.consolidation_job_settled(channel, now),
        }
    }

    /// One drain copy of `group` has settled; the group's last one takes
    /// the ranks it still owns to their terminal state.
    fn drain_job_settled(&mut self, group: u32, now: Picos) -> Result<(), DtlError> {
        let slot = &mut self.state.groups[group as usize];
        let Some(left) = slot.pending_jobs.checked_sub(1) else {
            return Err(DtlError::Internal {
                reason: format!("drain job settled in group {group}, which waits for none"),
            });
        };
        slot.pending_jobs = left;
        if left > 0 {
            return Ok(());
        }
        let mut ranks = std::mem::take(&mut slot.ranks);
        // A rank reactivated for capacity (and possibly re-drained by a
        // newer plan) is no longer this group's to finalize.
        ranks.retain(|&(c, r)| self.state.ranks[self.state.index(c, r)].owner == Some(group));
        self.finalize(&ranks, now)?;
        // A drain that ends in retirement is a health event as well; a
        // healthy rank's power-down is not.
        for &(c, r) in &ranks {
            if self.state.lifecycle(c, r) == RankPdState::Retired {
                let from = self.health.health(c, r, RankPdState::Draining);
                self.health.transition((c, r), (from, RankHealth::Retired), now);
            }
        }
        // The slot keeps the vector for the group that reuses it.
        ranks.clear();
        self.state.groups[group as usize].ranks = ranks;
        Ok(())
    }

    /// Advances the hotness state machine and hands every consolidation
    /// plan it finished to the migration engine — the pairs that are still
    /// worth moving, counted per channel; a plan with none parks its victim
    /// at once.
    pub(crate) fn consolidate(&mut self, now: Picos) -> Result<(), DtlError> {
        let (state, geo) = (&*self.state, self.state.geo);
        let plans = self.hotness.pump(now, |c, r| state.lifecycle(c, r) == RankPdState::Active);
        for plan in plans {
            let mut jobs = 0u64;
            for (v_loc, t_loc) in &plan.swaps {
                let (a, b) = (geo.dsn(*v_loc), geo.dsn(*t_loc));
                if self.migrate.involves(a) || self.migrate.involves(b) {
                    continue;
                }
                // The TSP may have claimed a slot in a rank that has since
                // been selected for power-down (or drained): moving live
                // data there would end up in MPSM.
                if self.state.lifecycle(t_loc.channel, t_loc.rank) != RankPdState::Active {
                    continue;
                }
                // The victim slot must still hold live, mapped data — a
                // deallocation since planning leaves stale pairs.
                if !self.alloc.is_allocated(*v_loc) || self.tables.reverse(a).is_none() {
                    continue;
                }
                // The counterpart is either live+mapped (full swap), free
                // (one-way copy whose destination must be reserved *now*,
                // or a concurrent drain could claim it), or an unmapped
                // reservation of another migration (skip).
                let id = if self.alloc.is_allocated(*t_loc) {
                    if self.tables.reverse(b).is_none() {
                        continue; // someone else's reservation
                    }
                    self.migrate.enqueue_swap(a, b, now)?
                } else {
                    if !self.alloc.reserve_slot(*t_loc) {
                        continue; // raced with another reservation
                    }
                    self.migrate.enqueue_copy(a, b, now)?
                };
                self.origins.insert(id, JobOrigin::Hotness { channel: plan.channel });
                jobs += 1;
            }
            if jobs == 0 {
                self.consolidated(plan.channel, 0, now)?;
            } else {
                self.state.consolidating[plan.channel as usize] = Some((jobs, jobs));
            }
        }
        Ok(())
    }

    /// One job of `channel`'s consolidation plan has settled; the plan's
    /// last one parks the victim.
    fn consolidation_job_settled(&mut self, channel: u32, now: Picos) -> Result<(), DtlError> {
        let slot = &mut self.state.consolidating[channel as usize];
        let Some((left, total)) = slot else {
            return Err(DtlError::Internal {
                reason: format!("hotness job finished with no pending plan on ch{channel}"),
            });
        };
        *left -= 1;
        if *left > 0 {
            return Ok(());
        }
        let total = *total;
        *slot = None;
        self.consolidated(channel, total, now)
    }

    /// `channel`'s consolidation plan has nothing left to move: its victim
    /// enters self-refresh along legal edges only. From standby that is one
    /// hop; a rank the power policy already demoted walks the remaining
    /// rungs of the ladder.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] when the victim is in MPSM — a data-losing
    /// state nothing may silently refresh out of.
    fn consolidated(&mut self, channel: u32, swaps: u64, now: Picos) -> Result<(), DtlError> {
        let victim = self.hotness.on_plan_migrated(channel, now);
        if self.backend.rank_state(channel, victim) == PowerState::Mpsm {
            return Err(DtlError::Internal {
                reason: format!("ch{channel}/rk{victim}: cannot self-refresh out of MPSM"),
            });
        }
        self.commit(channel, victim, PowerState::SelfRefresh, now)?;
        self.telemetry
            .emit(now.as_ps(), EventKind::SelfRefreshSwap { channel, victim, swaps: swaps as u32 });
        Ok(())
    }

    /// Walks every rank one policy step: [`RankPower::demotable`] ranks
    /// whose idle clock has passed the policy's threshold demote one rung
    /// down the retention ladder.
    pub(crate) fn pump(&mut self, now: Picos) -> Result<(), DtlError> {
        for (c, r) in self.state.ladder_ranks() {
            let Some(state) = self.state.demotable(&*self.backend, &*self.migrate, c, r) else {
                continue;
            };
            let idle = now.saturating_sub(self.state.last_access[self.state.index(c, r)]);
            if let Some(next) = self.state.policy.demote(c, r, state, idle) {
                debug_assert!(
                    next.retains_data(),
                    "policy {:?} proposed {state:?} -> {next:?}",
                    self.state.policy.kind()
                );
                self.commit(c, r, next, now)?;
                self.state.demotions += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl RankPower {
    /// Hand mutation for the sweep's self-tests: the rank's lifecycle and
    /// the job count of drain group 0 (opened if there is none).
    pub(crate) fn corrupt_for_test(
        &mut self,
        channel: u32,
        rank: u32,
    ) -> (&mut RankPdState, &mut u64) {
        if self.groups.is_empty() {
            self.groups.push(DrainGroup::default());
        }
        let idx = self.index(channel, rank);
        (&mut self.ranks[idx].lifecycle, &mut self.groups[0].pending_jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::{DtlConfig, DtlDevice, HostId};

    type Dev = DtlDevice<AnalyticBackend>;
    type Ctl<'a> = PowerCtl<'a, AnalyticBackend>;

    const T: Picos = Picos::from_us(1);

    fn geo() -> SegmentGeometry {
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 }
    }

    /// The module's parts, as a device holds them. The tests below work on
    /// the allocator directly, eight segments an AU.
    fn setup() -> Dev {
        DtlDevice::with_analytic_geometry(DtlConfig::tiny(), 2, 4, 16)
    }

    struct Plan {
        group: Vec<(u32, u32)>,
        copies: Vec<(Dsn, Dsn)>,
    }

    /// The two planning steps of `plan_power_down`, stopped before launch.
    fn plan(pd: &mut Ctl<'_>) -> Option<Plan> {
        let group = pd.pick_victims()?;
        let copies = pd.plan_drain(&group, false);
        Some(Plan { group, copies })
    }

    fn launch(pd: &mut Ctl<'_>, plan: &Plan) {
        pd.launch(&plan.group, &plan.copies, T).unwrap();
    }

    /// The drain group that owns the plan's ranks.
    fn group_of(pd: &Ctl<'_>, plan: &Plan) -> u32 {
        let (c, r) = plan.group[0];
        pd.state.ranks[pd.state.index(c, r)].owner.expect("copies to wait for")
    }

    fn settle_all(pd: &mut Ctl<'_>, plan: &Plan) {
        let group = group_of(pd, plan);
        for _ in &plan.copies {
            pd.job_settled(JobOrigin::Drain { group }, T).unwrap();
        }
    }

    fn ranks_where(pd: &Ctl<'_>, hit: impl Fn(&Ctl<'_>, u32, u32) -> bool) -> Vec<(u32, u32)> {
        let g = geo();
        (0..g.channels)
            .flat_map(|c| (0..g.ranks_per_channel).map(move |r| (c, r)))
            .filter(|&(c, r)| hit(pd, c, r))
            .collect()
    }

    fn in_mpsm(pd: &Ctl<'_>) -> Vec<(u32, u32)> {
        ranks_where(pd, |pd, c, r| pd.backend.rank_state(c, r) == PowerState::Mpsm)
    }

    fn active(pd: &Ctl<'_>) -> Vec<(u32, u32)> {
        ranks_where(pd, |pd, c, r| pd.state.lifecycle(c, r) == RankPdState::Active)
    }

    #[test]
    fn empty_device_plans_trivial_power_down() {
        let mut dev = setup();
        let mut pd = dev.power();
        let plan = plan(&mut pd).expect("all free: must plan");
        assert_eq!(plan.group.len(), 2, "one victim per channel");
        assert!(plan.copies.is_empty(), "nothing to drain");
        launch(&mut pd, &plan);
        assert_eq!(in_mpsm(&pd), plan.group, "the whole group parks at once");
        for (c, r) in plan.group {
            assert_eq!(pd.state.lifecycle(c, r), RankPdState::PoweredDown);
            assert!(!pd.alloc.is_rank_active(c, r));
        }
        assert_eq!(pd.state.stats().groups_powered_down, 1);
    }

    #[test]
    fn victim_with_live_data_produces_copies() {
        let mut dev = setup();
        let mut pd = dev.power();
        // Five AUs: the first four fill one rank per channel (16 segments),
        // the fifth spills into a second rank. Deallocating three of the
        // packed AUs leaves two partially-loaded active ranks after the two
        // empty ranks power down — forcing a victim with live data.
        let aus: Vec<Vec<Dsn>> = (0..5).map(|_| pd.alloc.allocate_au(8).unwrap()).collect();
        for au in &aus[1..4] {
            pd.alloc.free_segments(au).unwrap();
        }
        for _ in 0..2 {
            let plan = plan(&mut pd).unwrap();
            assert!(plan.copies.is_empty(), "empty ranks drain for free");
            launch(&mut pd, &plan);
        }
        // Two active ranks per channel, 4 live segments each; the plan must
        // drain one of them: 4 segments per channel = 8 copies.
        let plan = plan(&mut pd).unwrap();
        assert_eq!(plan.copies.len(), 8, "all live segments must move");
        for (c, r) in &plan.group {
            assert_eq!(pd.state.lifecycle(*c, *r), RankPdState::Draining);
        }
        // Copies must leave the victim and land in the surviving rank.
        let g = geo();
        for (src, dst) in &plan.copies {
            let (s, d) = (g.location(*src), g.location(*dst));
            assert_eq!(s.channel, d.channel, "drain stays in its channel");
            assert!(plan.group.contains(&(s.channel, s.rank)));
            assert!(!plan.group.contains(&(d.channel, d.rank)));
        }
        // Complete via migration notifications.
        launch(&mut pd, &plan);
        assert_eq!(in_mpsm(&pd).len(), 4);
        settle_all(&mut pd, &plan);
        assert_eq!(in_mpsm(&pd).len(), 6);
        pd.alloc.check_consistency().unwrap();
    }

    #[test]
    fn no_plan_when_capacity_tight() {
        let mut dev = setup();
        let mut pd = dev.power();
        // Fill 7 of 8 rank-capacities: 16 segs/rank * 4 ranks * 2 ch = 128;
        // allocate 14 AUs of 8 = 112 segments, leaving 16 free (1 rank per
        // channel would need 16 per channel; we have 8 per channel).
        for _ in 0..14 {
            pd.alloc.allocate_au(8).unwrap();
        }
        assert!(plan(&mut pd).is_none());
    }

    #[test]
    fn keeps_at_least_one_active_rank() {
        let mut dev = setup();
        let mut pd = dev.power();
        for _ in 0..3 {
            let plan = plan(&mut pd).unwrap();
            launch(&mut pd, &plan);
        }
        // 3 of 4 ranks down; a 4th plan would leave zero active.
        assert!(plan(&mut pd).is_none());
        assert_eq!(pd.state.active_ranks(0), 1);
        let parked = ranks_where(&pd, |pd, c, r| {
            c == 0 && pd.state.lifecycle(c, r) == RankPdState::PoweredDown
        });
        assert_eq!(parked.len(), 3);
    }

    #[test]
    fn wake_restores_capacity() {
        let mut dev = setup();
        let mut pd = dev.power();
        for _ in 0..3 {
            let plan = plan(&mut pd).unwrap();
            launch(&mut pd, &plan);
        }
        let free_before = pd.alloc.free_active_total();
        pd.wake_for_capacity(T).unwrap();
        assert_eq!(in_mpsm(&pd).len(), 6 - 2, "one MPSM exit per channel");
        assert!(pd.alloc.free_active_total() > free_before);
        assert_eq!(pd.state.stats().groups_woken, 1);
        assert_eq!(pd.stats.capacity_wakes, 1);
        assert_eq!(pd.state.active_ranks(0), 2);
    }

    #[test]
    fn repeated_power_down_cycles_the_same_group() {
        let mut dev = setup();
        let mut pd = dev.power();
        // Empty device: the first plan picks the least-allocated rank of
        // each channel and powers it down with zero copies.
        let plan1 = plan(&mut pd).expect("first group");
        let first = plan1.group.clone();
        launch(&mut pd, &plan1);
        for &(c, r) in &first {
            assert_eq!(pd.state.lifecycle(c, r), RankPdState::PoweredDown);
        }
        // Planning again must select a *different* group — a powered-down
        // rank is not active and cannot be re-victimized.
        let plan2 = plan(&mut pd).expect("second group");
        for (a, b) in plan2.group.iter().zip(&first) {
            assert_ne!(a, b, "powered-down rank re-selected");
        }
        launch(&mut pd, &plan2);
        // Third group still leaves >= 1 active rank; the fourth attempt
        // must refuse (each channel needs two active ranks to plan).
        let plan3 = plan(&mut pd).expect("third group");
        launch(&mut pd, &plan3);
        assert_eq!(pd.state.active_ranks(0), 1);
        assert!(plan(&mut pd).is_none(), "last active rank protected");
        assert_eq!(pd.state.stats().groups_powered_down, 3);
        // Wake one group and power it straight back down: the same ranks
        // cycle Active -> PoweredDown repeatedly without residue.
        let before = active(&pd);
        pd.wake_for_capacity(T).expect("a group to wake");
        let woken: Vec<(u32, u32)> =
            active(&pd).into_iter().filter(|rank| !before.contains(rank)).collect();
        assert_eq!(woken.len(), 2);
        for &(c, r) in &woken {
            assert_eq!(pd.backend.rank_state(c, r), PowerState::Standby);
            assert!(pd.alloc.is_rank_active(c, r));
        }
        let again = plan(&mut pd).expect("re-plan after wake");
        assert_eq!(again.group, woken, "the woken group is the least-allocated victim again");
        launch(&mut pd, &again);
        for &(c, r) in &woken {
            assert_eq!(pd.state.lifecycle(c, r), RankPdState::PoweredDown);
            assert!(!pd.alloc.is_rank_active(c, r));
        }
        assert_eq!(pd.state.stats().groups_powered_down, 4);
        assert_eq!(pd.state.stats().groups_woken, 1);
        pd.alloc.check_consistency().unwrap();
    }

    #[test]
    fn draining_group_is_not_revictimized() {
        let mut dev = setup();
        let mut pd = dev.power();
        // Load one rank per channel so the victim has live data to drain.
        let aus: Vec<Vec<Dsn>> = (0..5).map(|_| pd.alloc.allocate_au(8).unwrap()).collect();
        for au in &aus[1..4] {
            pd.alloc.free_segments(au).unwrap();
        }
        // The two empty rank groups power down immediately; the third plan
        // must drain a rank that still holds live segments.
        for _ in 0..2 {
            let p = plan(&mut pd).expect("empty group");
            assert!(p.copies.is_empty());
            launch(&mut pd, &p);
        }
        let plan3 = plan(&mut pd).expect("plan with live data");
        assert!(!plan3.copies.is_empty());
        launch(&mut pd, &plan3);
        for &(c, r) in &plan3.group {
            assert_eq!(pd.state.lifecycle(c, r), RankPdState::Draining);
        }
        // While the drain is in flight, a new plan must not pick the same
        // ranks (they are mid-drain) — and completing the jobs finalizes
        // the group exactly once.
        if let Some(p2) = plan(&mut pd) {
            for (a, b) in p2.group.iter().zip(&plan3.group) {
                assert_ne!(a, b, "draining rank re-selected");
            }
        }
        settle_all(&mut pd, &plan3);
        for &(c, r) in &plan3.group {
            assert_eq!(pd.state.lifecycle(c, r), RankPdState::PoweredDown);
            assert_eq!(pd.backend.rank_state(c, r), PowerState::Mpsm);
        }
        assert_eq!(pd.state.stats().groups_powered_down, 3);
        // One job more than the group waited for is a bug, not a second
        // finalize.
        let group = JobOrigin::Drain { group: 0 };
        assert!(matches!(pd.job_settled(group, T), Err(DtlError::Internal { .. })));
    }

    /// 1 000 plan → drain → wake cycles through the public calls: the group
    /// table holds the live groups, not every group there ever was.
    #[test]
    fn a_finished_group_frees_its_slot() {
        let cfg = DtlConfig::tiny();
        let mut dev: Dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.set_hotness_enabled(false);
        dev.register_host(HostId(0)).unwrap();
        let mut now = T;
        // Half a rank group resident, everything else parked.
        dev.alloc_vm(HostId(0), cfg.au_bytes, now).unwrap();
        dev.request_power_down(now).unwrap();
        assert_eq!(dev.active_ranks(0), 1);
        for _ in 0..1000 {
            // One VM fills the group, the next needs a second one woken;
            // freeing the first leaves room to drain one group into the
            // other.
            let fill = dev.alloc_vm(HostId(0), cfg.au_bytes, now).unwrap();
            let spill = dev.alloc_vm(HostId(0), cfg.au_bytes, now).unwrap();
            assert_eq!(dev.active_ranks(0), 2);
            dev.dealloc_vm(fill.handle, now).unwrap();
            assert_eq!(dev.migrations_pending(), 32, "a loaded group drains");
            while let Some(at) = dev.next_activity_at() {
                now = now.max(at);
                dev.tick(now).unwrap();
            }
            assert_eq!(dev.active_ranks(0), 1);
            dev.dealloc_vm(spill.handle, now).unwrap();
        }
        assert_eq!(dev.powerdown_stats().segments_drained, 32_000);
        assert_eq!(dev.power().state.groups.len(), 1, "one live group at a time needs one slot");
        dev.check_invariants().unwrap();
    }

    #[test]
    fn wake_with_nothing_down_errors() {
        assert!(setup().power().wake_for_capacity(T).is_err());
    }

    #[test]
    fn reactivated_draining_rank_does_not_power_down() {
        let mut dev = setup();
        let mut pd = dev.power();
        let aus: Vec<Vec<Dsn>> = (0..5).map(|_| pd.alloc.allocate_au(8).unwrap()).collect();
        for au in &aus[1..4] {
            pd.alloc.free_segments(au).unwrap();
        }
        for _ in 0..2 {
            let plan = plan(&mut pd).unwrap();
            launch(&mut pd, &plan);
        }
        let plan = plan(&mut pd).unwrap();
        assert!(!plan.copies.is_empty());
        launch(&mut pd, &plan);
        // Capacity crunch: wake everything. Powered-down groups go first
        // (they need MPSM exits); the draining group reactivates last and
        // needs no DRAM command.
        for left in [2, 0] {
            pd.wake_for_capacity(T).unwrap();
            assert_eq!(in_mpsm(&pd).len(), left, "powered-down ranks need MPSM exits");
        }
        pd.backend.drain_power_events();
        pd.wake_for_capacity(T).unwrap();
        let exits = pd.backend.drain_power_events();
        assert!(exits.is_empty(), "draining ranks reactivate without MPSM exit");
        // Migrations finish, but the group must NOT power down.
        let group = pd.state.groups.iter().position(|g| g.pending_jobs > 0).unwrap() as u32;
        for _ in &plan.copies {
            pd.job_settled(JobOrigin::Drain { group }, T).unwrap();
        }
        assert!(in_mpsm(&pd).is_empty());
        assert_eq!(pd.state.active_ranks(0), 4, "everything woke back up");
    }
}
