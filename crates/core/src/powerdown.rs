//! Rank-level power-down (paper §3.3): at VM deallocation, when the active
//! ranks hold at least one rank-group's worth of free capacity, drain the
//! least-allocated rank of every channel into the remaining active ranks
//! and put the (virtual) rank group into maximum power saving mode.
//!
//! Because hotness migration can leave different rank indices idle in
//! different channels, the group is *virtual* (§4.3): one rank per channel,
//! indices independent.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, SegmentGeometry, SegmentLocation};
use crate::alloc::SegmentAllocator;
use crate::error::DtlError;

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

/// A planned power-down: the victim rank per channel and the copy jobs that
/// drain them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerDownPlan {
    /// One `(channel, rank)` victim per channel — a virtual rank group.
    pub group: Vec<(u32, u32)>,
    /// `(src, dst)` segment copies needed to drain the group.
    pub copies: Vec<(Dsn, Dsn)>,
}

/// Counters of the engine's activity.
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

/// "`pending_jobs` copies left, then these ranks power down." A slot whose
/// count has reached zero is free: every live drain job is counted in the
/// group its origin names, so no job can still name it.
#[derive(Debug, Clone, Default)]
struct DrainGroup {
    ranks: Vec<(u32, u32)>,
    pending_jobs: u64,
    /// Per-rank terminal state: `Retired` instead of `PoweredDown`.
    retire: Vec<bool>,
}

/// The rank-level power-down engine.
#[derive(Debug)]
pub struct PowerDownEngine {
    geo: SegmentGeometry,
    state: Vec<Vec<RankPdState>>,
    /// The live drain groups and the free slots between them.
    draining: Vec<DrainGroup>,
    /// Which group currently owns a Draining rank. A rank can be
    /// reactivated for capacity and later drained again by a *newer* plan;
    /// only the owning group may finalize it.
    rank_owner: HashMap<(u32, u32), usize>,
    stats: PowerDownStats,
}

impl PowerDownEngine {
    /// A fresh engine with every rank active.
    pub fn new(geo: SegmentGeometry) -> Self {
        PowerDownEngine {
            geo,
            state: (0..geo.channels)
                .map(|_| vec![RankPdState::Active; geo.ranks_per_channel as usize])
                .collect(),
            draining: Vec::new(),
            rank_owner: HashMap::new(),
            stats: PowerDownStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PowerDownStats {
        self.stats
    }

    /// Lifecycle state of a rank.
    pub fn rank_state(&self, channel: u32, rank: u32) -> RankPdState {
        self.state[channel as usize][rank as usize]
    }

    /// Ranks of a channel currently active (serving allocations).
    pub fn active_ranks(&self, channel: u32) -> u32 {
        self.state[channel as usize].iter().filter(|s| **s == RankPdState::Active).count() as u32
    }

    /// Attempts to plan a rank-group power-down (call at VM deallocation),
    /// never selecting a rank for which `excluded(channel, rank)` is true —
    /// the device excludes ranks that in-flight migrations are still
    /// writing into.
    ///
    /// A plan exists when every channel keeps at least two active ranks and
    /// the active ranks of every channel hold at least one rank of free
    /// capacity. On success, the victims are marked `Draining`, removed
    /// from the allocator's active set, and destination slots are reserved.
    ///
    /// Returns `None` when the condition does not hold (nothing mutated).
    pub fn plan_power_down<F>(
        &mut self,
        alloc: &mut SegmentAllocator,
        excluded: F,
    ) -> Option<PowerDownPlan>
    where
        F: Fn(u32, u32) -> bool,
    {
        // Feasibility across all channels first.
        let mut victims = Vec::with_capacity(self.geo.channels as usize);
        for c in 0..self.geo.channels {
            if self.active_ranks(c) < 2 {
                return None;
            }
            if alloc.free_in_channel_active(c) < self.geo.segs_per_rank {
                return None;
            }
            let skip: Vec<u32> =
                (0..self.geo.ranks_per_channel).filter(|r| excluded(c, *r)).collect();
            let victim = alloc.least_allocated_active_rank(c, &skip)?;
            // The other active ranks must absorb the victim's live data.
            let spare = alloc.free_in_channel_active(c) - alloc.free_in_rank(c, victim);
            if spare < alloc.allocated_in_rank(c, victim) {
                return None;
            }
            victims.push((c, victim));
        }
        Some(self.plan_drain(alloc, victims))
    }

    /// Commits a drain of `victims`, whose channels were verified to have
    /// the spare capacity: marks them draining and reserves a destination
    /// for every live segment.
    fn plan_drain(
        &mut self,
        alloc: &mut SegmentAllocator,
        victims: Vec<(u32, u32)>,
    ) -> PowerDownPlan {
        let mut copies = Vec::new();
        for &(c, victim) in &victims {
            self.state[c as usize][victim as usize] = RankPdState::Draining;
            alloc.set_rank_active(c, victim, false);
            let live: Vec<u64> = alloc.allocated_slots(c, victim).collect();
            for within in live {
                let src = self.geo.dsn(SegmentLocation { channel: c, rank: victim, within });
                let dst_loc =
                    self.pick_destination(alloc, c, None).expect("spare capacity verified");
                copies.push((src, self.geo.dsn(dst_loc)));
            }
        }
        self.stats.segments_drained += copies.len() as u64;
        PowerDownPlan { group: victims, copies }
    }

    /// Picks a drain destination in channel `c`, outside rank `exclude`:
    /// the most utilized active rank with free space (the allocator's
    /// packing preference).
    pub fn pick_destination(
        &self,
        alloc: &mut SegmentAllocator,
        c: u32,
        exclude: Option<u32>,
    ) -> Option<SegmentLocation> {
        let rank = (0..self.geo.ranks_per_channel)
            .filter(|r| {
                Some(*r) != exclude
                    && self.state[c as usize][*r as usize] == RankPdState::Active
                    && alloc.free_in_rank(c, *r) > 0
            })
            .max_by_key(|r| (alloc.allocated_in_rank(c, *r), u32::MAX - *r))?;
        alloc.take_free_in_rank(c, rank)
    }

    /// Opens the drain group of `plan`, whose ranks end up retired rather
    /// than powered down if `retire`, and returns the slot its copies are
    /// to be counted in. `None` when there is nothing to drain: the plan's
    /// ranks are in their terminal state already and can enter MPSM now.
    pub fn open_group(&mut self, plan: &PowerDownPlan, retire: bool) -> Option<u32> {
        if plan.copies.is_empty() {
            let terminal = if retire { RankPdState::Retired } else { RankPdState::PoweredDown };
            for &(c, r) in &plan.group {
                self.state[c as usize][r as usize] = terminal;
            }
            if retire {
                self.stats.ranks_retired += plan.group.len() as u64;
            } else {
                self.stats.groups_powered_down += 1;
            }
            return None;
        }
        let idx = self.draining.iter().position(|g| g.pending_jobs == 0).unwrap_or_else(|| {
            self.draining.push(DrainGroup::default());
            self.draining.len() - 1
        });
        let group = &mut self.draining[idx];
        group.ranks.clone_from(&plan.group);
        group.pending_jobs = plan.copies.len() as u64;
        group.retire.clear();
        group.retire.resize(plan.group.len(), retire);
        for &(c, r) in &plan.group {
            self.rank_owner.insert((c, r), idx);
        }
        Some(idx as u32)
    }

    /// Converts an in-progress drain of `(channel, rank)` into a
    /// retirement: when its group finishes draining, this rank lands in
    /// [`RankPdState::Retired`] instead of [`RankPdState::PoweredDown`].
    /// Returns whether the rank was found draining.
    pub fn convert_drain_to_retirement(&mut self, channel: u32, rank: u32) -> bool {
        let Some(&idx) = self.rank_owner.get(&(channel, rank)) else {
            return false;
        };
        let group = &mut self.draining[idx];
        for (i, (c, r)) in group.ranks.iter().enumerate() {
            if *c == channel && *r == rank {
                group.retire[i] = true;
                return self.state[channel as usize][rank as usize] == RankPdState::Draining;
            }
        }
        false
    }

    /// Plans the permanent retirement of one rank (the reliability
    /// extension of the paper's §9: a rank showing correctable-error storms
    /// can be vacated online, transparently to every host). The rank's
    /// live segments are drained exactly like a power-down victim's; the
    /// terminal state is [`RankPdState::Retired`] and the rank is never
    /// woken for capacity again.
    ///
    /// An already powered-down rank retires immediately (it holds no data).
    ///
    /// # Errors
    ///
    /// * [`DtlError::OutOfCapacity`] when the channel's other active ranks
    ///   cannot absorb the rank's live segments (wake a group and retry);
    /// * [`DtlError::Internal`] when the rank is already retiring/retired
    ///   or is the channel's last active rank.
    pub fn plan_retirement(
        &mut self,
        alloc: &mut SegmentAllocator,
        channel: u32,
        rank: u32,
    ) -> Result<PowerDownPlan, DtlError> {
        let state = self.state[channel as usize][rank as usize];
        match state {
            RankPdState::Retired | RankPdState::Draining => {
                return Err(DtlError::Internal {
                    reason: format!("rank ch{channel}/rk{rank} is already {state:?}"),
                });
            }
            RankPdState::PoweredDown => {
                // Nothing stored there; flip the state.
                self.state[channel as usize][rank as usize] = RankPdState::Retired;
                self.stats.ranks_retired += 1;
                return Ok(PowerDownPlan { group: vec![(channel, rank)], copies: Vec::new() });
            }
            RankPdState::Active => {}
        }
        if self.active_ranks(channel) < 2 {
            // The caller may wake a powered-down group and retry; with
            // nothing to wake, the retirement is genuinely impossible.
            return Err(DtlError::OutOfCapacity {
                requested: alloc.allocated_in_rank(channel, rank),
                free: 0,
            });
        }
        let live = alloc.allocated_in_rank(channel, rank);
        let spare = alloc.free_in_channel_active(channel) - alloc.free_in_rank(channel, rank);
        if spare < live {
            return Err(DtlError::OutOfCapacity { requested: live, free: spare });
        }
        Ok(self.plan_drain(alloc, vec![(channel, rank)]))
    }

    /// Notifies that a drain copy counted in `group` has settled —
    /// finished, or cancelled for good. Returns the ranks to put into MPSM
    /// when that was the group's last.
    pub fn on_job_settled(&mut self, group: u32) -> Vec<(u32, u32)> {
        let group_idx = group as usize;
        let group = &mut self.draining[group_idx];
        group.pending_jobs = group.pending_jobs.saturating_sub(1);
        if group.pending_jobs > 0 {
            return Vec::new();
        }
        let ranks = std::mem::take(&mut group.ranks);
        let retire = std::mem::take(&mut group.retire);
        let mut out = Vec::new();
        let mut any_powerdown = false;
        for (i, &(c, r)) in ranks.iter().enumerate() {
            // The rank may have been reactivated for capacity (and possibly
            // re-drained by a newer plan): only the owning group finalizes.
            let owned = self.rank_owner.get(&(c, r)) == Some(&group_idx);
            if owned && self.state[c as usize][r as usize] == RankPdState::Draining {
                if retire[i] {
                    self.state[c as usize][r as usize] = RankPdState::Retired;
                    self.stats.ranks_retired += 1;
                } else {
                    self.state[c as usize][r as usize] = RankPdState::PoweredDown;
                    any_powerdown = true;
                }
                self.rank_owner.remove(&(c, r));
                out.push((c, r));
            }
        }
        // The slot keeps its vectors for the group that reuses it.
        let group = &mut self.draining[group_idx];
        (group.ranks, group.retire) = (ranks, retire);
        if any_powerdown {
            self.stats.groups_powered_down += 1;
        }
        out
    }

    /// Wakes one rank per channel to regain capacity (call when allocation
    /// fails). Prefers `PoweredDown` ranks; falls back to reactivating
    /// `Draining` victims. Returns the ranks that need an MPSM exit
    /// (powered-down ones) — reactivated draining ranks need no DRAM
    /// command.
    ///
    /// # Errors
    ///
    /// [`DtlError::OutOfCapacity`] if no channel has a rank to wake.
    pub fn wake_one_group(
        &mut self,
        alloc: &mut SegmentAllocator,
    ) -> Result<Vec<(u32, u32)>, DtlError> {
        let mut mpsm_exits = Vec::new();
        let mut woke_any = false;
        for c in 0..self.geo.channels {
            let states = &mut self.state[c as usize];
            if let Some(r) = states.iter().position(|s| *s == RankPdState::PoweredDown) {
                states[r] = RankPdState::Active;
                alloc.set_rank_active(c, r as u32, true);
                mpsm_exits.push((c, r as u32));
                woke_any = true;
            } else {
                // Reactivate a draining power-down victim — but never a
                // retiring rank (it is leaving service for good).
                let retiring: Vec<u32> = self
                    .draining
                    .iter()
                    .filter(|g| g.pending_jobs > 0)
                    .flat_map(|g| {
                        g.ranks
                            .iter()
                            .zip(g.retire.iter())
                            .filter(|(_, retire)| **retire)
                            .map(|((gc, gr), _)| (*gc, *gr))
                            .collect::<Vec<_>>()
                    })
                    .filter(|(gc, _)| *gc == c)
                    .map(|(_, r)| r)
                    .collect();
                if let Some(r) = states.iter().enumerate().position(|(i, s)| {
                    *s == RankPdState::Draining && !retiring.contains(&(i as u32))
                }) {
                    states[r] = RankPdState::Active;
                    alloc.set_rank_active(c, r as u32, true);
                    self.rank_owner.remove(&(c, r as u32));
                    woke_any = true;
                }
            }
        }
        if !woke_any {
            return Err(DtlError::OutOfCapacity { requested: 0, free: alloc.free_active_total() });
        }
        self.stats.groups_woken += 1;
        Ok(mpsm_exits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> SegmentGeometry {
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 }
    }

    fn setup() -> (PowerDownEngine, SegmentAllocator) {
        (PowerDownEngine::new(geo()), SegmentAllocator::new(geo()))
    }

    #[test]
    fn empty_device_plans_trivial_power_down() {
        let (mut pd, mut alloc) = setup();
        let plan = pd.plan_power_down(&mut alloc, |_, _| false).expect("all free: must plan");
        assert_eq!(plan.group.len(), 2, "one victim per channel");
        assert!(plan.copies.is_empty(), "nothing to drain");
        assert_eq!(pd.open_group(&plan, false), None, "the whole group can park at once");
        for (c, r) in plan.group {
            assert_eq!(pd.rank_state(c, r), RankPdState::PoweredDown);
            assert!(!alloc.is_rank_active(c, r));
        }
        assert_eq!(pd.stats().groups_powered_down, 1);
    }

    #[test]
    fn victim_with_live_data_produces_copies() {
        let (mut pd, mut alloc) = setup();
        // Five AUs: the first four fill one rank per channel (16 segments),
        // the fifth spills into a second rank. Deallocating three of the
        // packed AUs leaves two partially-loaded active ranks after the two
        // empty ranks power down — forcing a victim with live data.
        let aus: Vec<Vec<Dsn>> = (0..5).map(|_| alloc.allocate_au(8).unwrap()).collect();
        for au in &aus[1..4] {
            alloc.free_segments(au).unwrap();
        }
        for _ in 0..2 {
            let plan = pd.plan_power_down(&mut alloc, |_, _| false).unwrap();
            assert!(plan.copies.is_empty(), "empty ranks drain for free");
            pd.open_group(&plan, false);
        }
        // Two active ranks per channel, 4 live segments each; the plan must
        // drain one of them: 4 segments per channel = 8 copies.
        let plan = pd.plan_power_down(&mut alloc, |_, _| false).unwrap();
        assert_eq!(plan.copies.len(), 8, "all live segments must move");
        for (c, r) in &plan.group {
            assert_eq!(pd.rank_state(*c, *r), RankPdState::Draining);
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
        let group = pd.open_group(&plan, false).expect("copies to wait for");
        let mut downed = Vec::new();
        for _ in &plan.copies {
            downed.extend(pd.on_job_settled(group));
        }
        assert_eq!(downed.len(), 2);
        alloc.check_consistency().unwrap();
    }

    #[test]
    fn no_plan_when_capacity_tight() {
        let (mut pd, mut alloc) = setup();
        // Fill 7 of 8 rank-capacities: 16 segs/rank * 4 ranks * 2 ch = 128;
        // allocate 14 AUs of 8 = 112 segments, leaving 16 free (1 rank per
        // channel would need 16 per channel; we have 8 per channel).
        for _ in 0..14 {
            alloc.allocate_au(8).unwrap();
        }
        assert!(pd.plan_power_down(&mut alloc, |_, _| false).is_none());
    }

    #[test]
    fn keeps_at_least_one_active_rank() {
        let (mut pd, mut alloc) = setup();
        for _ in 0..3 {
            let plan = pd.plan_power_down(&mut alloc, |_, _| false).unwrap();
            pd.open_group(&plan, false);
        }
        // 3 of 4 ranks down; a 4th plan would leave zero active.
        assert!(pd.plan_power_down(&mut alloc, |_, _| false).is_none());
        assert_eq!(pd.active_ranks(0), 1);
        let parked = (0..4).filter(|r| pd.rank_state(0, *r) == RankPdState::PoweredDown).count();
        assert_eq!(parked, 3);
    }

    #[test]
    fn wake_restores_capacity() {
        let (mut pd, mut alloc) = setup();
        for _ in 0..3 {
            let plan = pd.plan_power_down(&mut alloc, |_, _| false).unwrap();
            pd.open_group(&plan, false);
        }
        let free_before = alloc.free_active_total();
        let exits = pd.wake_one_group(&mut alloc).unwrap();
        assert_eq!(exits.len(), 2, "one MPSM exit per channel");
        assert!(alloc.free_active_total() > free_before);
        assert_eq!(pd.stats().groups_woken, 1);
        assert_eq!(pd.active_ranks(0), 2);
    }

    #[test]
    fn repeated_power_down_cycles_the_same_group() {
        let (mut pd, mut alloc) = setup();
        // Empty device: the first plan picks the least-allocated rank of
        // each channel and powers it down with zero copies.
        let plan1 = pd.plan_power_down(&mut alloc, |_, _| false).expect("first group");
        let first = plan1.group.clone();
        pd.open_group(&plan1, false);
        for &(c, r) in &first {
            assert_eq!(pd.rank_state(c, r), RankPdState::PoweredDown);
        }
        // Planning again must select a *different* group — a powered-down
        // rank is not active and cannot be re-victimized.
        let plan2 = pd.plan_power_down(&mut alloc, |_, _| false).expect("second group");
        for (a, b) in plan2.group.iter().zip(&first) {
            assert_ne!(a, b, "powered-down rank re-selected");
        }
        pd.open_group(&plan2, false);
        // Third group still leaves >= 1 active rank; the fourth attempt
        // must refuse (each channel needs two active ranks to plan).
        let plan3 = pd.plan_power_down(&mut alloc, |_, _| false).expect("third group");
        pd.open_group(&plan3, false);
        assert_eq!(pd.active_ranks(0), 1);
        assert!(
            pd.plan_power_down(&mut alloc, |_, _| false).is_none(),
            "last active rank protected"
        );
        assert_eq!(pd.stats().groups_powered_down, 3);
        // Wake one group and power it straight back down: the same ranks
        // cycle Active -> PoweredDown repeatedly without residue.
        let woken = pd.wake_one_group(&mut alloc).expect("a group to wake");
        assert_eq!(woken.len(), 2);
        for &(c, r) in &woken {
            assert_eq!(pd.rank_state(c, r), RankPdState::Active);
            assert!(alloc.is_rank_active(c, r));
        }
        let again = pd.plan_power_down(&mut alloc, |_, _| false).expect("re-plan after wake");
        assert_eq!(again.group, woken, "the woken group is the least-allocated victim again");
        pd.open_group(&again, false);
        for &(c, r) in &woken {
            assert_eq!(pd.rank_state(c, r), RankPdState::PoweredDown);
            assert!(!alloc.is_rank_active(c, r));
        }
        assert_eq!(pd.stats().groups_powered_down, 4);
        assert_eq!(pd.stats().groups_woken, 1);
        alloc.check_consistency().unwrap();
    }

    #[test]
    fn draining_group_is_not_revictimized() {
        let (mut pd, mut alloc) = setup();
        // Load one rank per channel so the victim has live data to drain.
        let aus: Vec<Vec<Dsn>> = (0..5).map(|_| alloc.allocate_au(8).unwrap()).collect();
        for au in &aus[1..4] {
            alloc.free_segments(au).unwrap();
        }
        // The two empty rank groups power down immediately; the third plan
        // must drain a rank that still holds live segments.
        for _ in 0..2 {
            let p = pd.plan_power_down(&mut alloc, |_, _| false).expect("empty group");
            assert!(p.copies.is_empty());
            pd.open_group(&p, false);
        }
        let plan = pd.plan_power_down(&mut alloc, |_, _| false).expect("plan with live data");
        assert!(!plan.copies.is_empty());
        let group = pd.open_group(&plan, false).expect("copies to wait for");
        for &(c, r) in &plan.group {
            assert_eq!(pd.rank_state(c, r), RankPdState::Draining);
        }
        // While the drain is in flight, a new plan must not pick the same
        // ranks (they are mid-drain) — and completing the jobs finalizes
        // the group exactly once.
        if let Some(p2) = pd.plan_power_down(&mut alloc, |_, _| false) {
            for (a, b) in p2.group.iter().zip(&plan.group) {
                assert_ne!(a, b, "draining rank re-selected");
            }
        }
        let mut downed = Vec::new();
        for _ in &plan.copies {
            downed.extend(pd.on_job_settled(group));
        }
        assert_eq!(downed, plan.group);
        for &(c, r) in &plan.group {
            assert_eq!(pd.rank_state(c, r), RankPdState::PoweredDown);
        }
    }

    #[test]
    fn a_finished_group_frees_its_slot() {
        let (mut pd, mut alloc) = setup();
        // Three of a rank group's four AUs live, everything else parked.
        let mut resident: Vec<Vec<Dsn>> = (0..3).map(|_| alloc.allocate_au(8).unwrap()).collect();
        while let Some(plan) = pd.plan_power_down(&mut alloc, |_, _| false) {
            assert_eq!(pd.open_group(&plan, false), None, "empty ranks park at once");
        }
        for _ in 0..1000 {
            // One AU fills the group, the next needs a second one woken;
            // freeing the first leaves room to drain the second back.
            resident.push(alloc.allocate_au(8).unwrap());
            assert!(alloc.allocate_au(8).is_err());
            pd.wake_one_group(&mut alloc).unwrap();
            let spilled = alloc.allocate_au(8).unwrap();
            alloc.free_segments(&resident.remove(0)).unwrap();
            let plan = pd.plan_power_down(&mut alloc, |_, _| false).expect("a group's worth free");
            let mut srcs: Vec<Dsn> = plan.copies.iter().map(|(src, _)| *src).collect();
            srcs.sort_unstable();
            assert_eq!(srcs, spilled, "the woken group drains back");
            let group = pd.open_group(&plan, false).expect("copies to wait for");
            for (src, _) in &plan.copies {
                alloc.complete_move(geo().location(*src)).unwrap();
                pd.on_job_settled(group);
            }
            resident.push(plan.copies.iter().map(|(_, dst)| *dst).collect());
            alloc.free_segments(&resident.remove(0)).unwrap();
            assert_eq!(pd.active_ranks(0), 1);
        }
        assert_eq!(pd.stats().segments_drained, 8000);
        assert_eq!(pd.draining.len(), 1, "one live group at a time needs one slot");
        alloc.check_consistency().unwrap();
    }

    #[test]
    fn wake_with_nothing_down_errors() {
        let (mut pd, mut alloc) = setup();
        assert!(pd.wake_one_group(&mut alloc).is_err());
    }

    #[test]
    fn reactivated_draining_rank_does_not_power_down() {
        let (mut pd, mut alloc) = setup();
        let aus: Vec<Vec<Dsn>> = (0..5).map(|_| alloc.allocate_au(8).unwrap()).collect();
        for au in &aus[1..4] {
            alloc.free_segments(au).unwrap();
        }
        for _ in 0..2 {
            let plan = pd.plan_power_down(&mut alloc, |_, _| false).unwrap();
            pd.open_group(&plan, false);
        }
        let plan = pd.plan_power_down(&mut alloc, |_, _| false).unwrap();
        assert!(!plan.copies.is_empty());
        let group = pd.open_group(&plan, false).expect("copies to wait for");
        // Capacity crunch: wake everything. Powered-down groups go first
        // (they need MPSM exits); the draining group reactivates last and
        // needs no DRAM command.
        for _ in 0..2 {
            let exits = pd.wake_one_group(&mut alloc).unwrap();
            assert_eq!(exits.len(), 2, "powered-down ranks need MPSM exits");
        }
        let exits = pd.wake_one_group(&mut alloc).unwrap();
        assert!(exits.is_empty(), "draining ranks reactivate without MPSM exit");
        // Migrations finish, but the group must NOT power down.
        let mut downed = Vec::new();
        for _ in &plan.copies {
            downed.extend(pd.on_job_settled(group));
        }
        assert!(downed.is_empty());
        assert_eq!(pd.active_ranks(0), 4, "everything woke back up");
    }
}
