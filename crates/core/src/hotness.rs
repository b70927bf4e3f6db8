//! Hotness-aware self-refresh (paper §3.4, Figure 8).
//!
//! Per channel, the engine cycles through four phases:
//!
//! 1. **Sampling** — count per-rank accesses over a 0.5 ms window and pick
//!    the least-accessed active rank as the *victim*;
//! 2. **Planning** — maintain the *migration table* (one entry per segment
//!    slot: access bit + planned location). Accesses to segments whose
//!    planned location is in the victim rank trigger CLOCK-style swaps via
//!    the target segment pointer (TSP), and reset the idle timer. When the
//!    *hypothetical* victim rank stays untouched for the profiling
//!    threshold (50 ms), the plan is frozen;
//! 3. **Migrating** — the device executes the planned swaps;
//! 4. **Idle** — the victim rank sits in self-refresh until an access wakes
//!    it, which restarts sampling.

use dtl_dram::Picos;
use dtl_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::{SegmentGeometry, SegmentLocation};

/// Tunables of the hotness engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotnessParams {
    /// Victim-selection sampling window (paper: 0.5 ms).
    pub window: Picos,
    /// Idle threshold of the hypothetical victim before migrating
    /// (paper: 50 ms).
    pub threshold: Picos,
    /// Maximum migration-table entries the TSP scans per search before the
    /// 40 ns timeout fires (roughly one entry per controller cycle).
    pub tsp_max_steps: u32,
}

impl HotnessParams {
    /// The paper's parameters.
    pub fn paper() -> Self {
        HotnessParams {
            window: Picos::from_us(500),
            threshold: Picos::from_ms(50),
            tsp_max_steps: 60,
        }
    }
}

/// Role a rank currently plays in the hotness engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HotnessRole {
    /// Not involved.
    None,
    /// Selected as the channel's victim (planning or migrating).
    Victim,
    /// Parked in self-refresh.
    SelfRefreshing,
}

/// Phase of one channel's hotness state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HotnessPhase {
    /// Counting per-rank accesses to choose a victim.
    Sampling,
    /// Victim chosen; migration table live; waiting for the idle threshold.
    Planning,
    /// Swap jobs handed to the migration engine.
    Migrating,
    /// Victim rank in self-refresh.
    Idle,
}

/// A frozen migration plan for one channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotnessPlan {
    /// The channel this plan belongs to.
    pub channel: u32,
    /// The victim rank that will enter self-refresh.
    pub victim: u32,
    /// Segment swaps (victim slot, target slot) to execute.
    pub swaps: Vec<(SegmentLocation, SegmentLocation)>,
}

/// Counters of the engine's activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotnessStats {
    /// Swaps planned in migration tables (including later undone ones).
    pub swaps_planned: u64,
    /// Fig. 8(c) restores (planned-cold segments that turned hot).
    pub restores: u64,
    /// TSP searches that hit the timeout.
    pub tsp_timeouts: u64,
    /// Plans frozen and handed out for migration.
    pub plans_frozen: u64,
    /// Self-refresh entries commanded.
    pub sr_entries: u64,
    /// Self-refresh exits observed.
    pub sr_exits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    access: bool,
    planned: (u32, u64), // (rank, within)
}

#[derive(Debug, Clone)]
struct ChannelState {
    phase: HotnessPhase,
    /// Migration table: `[rank][within]`. Empty until the channel first
    /// plans ([`ChannelState::start_planning`]): outside the Planning phase
    /// every entry is the identity, and a device that never consolidates —
    /// hotness switched off, or nothing but schedule replay — has no reason
    /// to build 24 bytes per segment it will not read.
    table: Vec<Vec<Entry>>,
    /// Per-rank access counts in the current sampling window.
    counts: Vec<u64>,
    window_start: Picos,
    victim: Option<u32>,
    /// Last access to the hypothetical victim rank.
    last_victim_touch: Picos,
    /// TSP position per rank.
    tsp: Vec<u64>,
    /// Round-robin target rank pointer.
    target: u32,
    /// Rank currently in self-refresh.
    sr_rank: Option<u32>,
}

impl ChannelState {
    fn new(ranks: u32) -> Self {
        ChannelState {
            phase: HotnessPhase::Sampling,
            table: Vec::new(),
            counts: vec![0; ranks as usize],
            window_start: Picos::ZERO,
            victim: None,
            last_victim_touch: Picos::ZERO,
            tsp: vec![0; ranks as usize],
            target: 0,
            sr_rank: None,
        }
    }

    /// Enters the Planning phase with `victim`, over an identity table
    /// (built now if this is the channel's first plan; otherwise reset when
    /// the last plan ended).
    fn start_planning(&mut self, victim: u32, geo: &SegmentGeometry, now: Picos) {
        if self.table.is_empty() {
            self.table = (0..geo.ranks_per_channel)
                .map(|r| {
                    (0..geo.segs_per_rank)
                        .map(|w| Entry { access: false, planned: (r, w) })
                        .collect()
                })
                .collect();
        }
        self.victim = Some(victim);
        self.phase = HotnessPhase::Planning;
        self.last_victim_touch = now;
        self.target = (victim + 1) % geo.ranks_per_channel;
    }

    fn reset_table(&mut self) {
        for (r, rank_entries) in self.table.iter_mut().enumerate() {
            for (w, e) in rank_entries.iter_mut().enumerate() {
                e.access = false;
                e.planned = (r as u32, w as u64);
            }
        }
    }
}

/// The hotness-aware self-refresh engine (all channels).
///
/// # Examples
///
/// ```
/// use dtl_core::{HotnessEngine, HotnessParams, HotnessPhase, SegmentGeometry};
/// use dtl_dram::Picos;
///
/// let geo = SegmentGeometry { channels: 1, ranks_per_channel: 4, segs_per_rank: 8 };
/// let mut eng = HotnessEngine::new(geo, HotnessParams::paper());
/// // After the sampling window, a victim rank is selected.
/// let plans = eng.pump(Picos::from_ms(1), |_, _| true);
/// assert!(plans.is_empty());
/// assert_eq!(eng.phase(0), HotnessPhase::Planning);
/// assert!(eng.victim(0).is_some());
/// ```
#[derive(Debug)]
pub struct HotnessEngine {
    geo: SegmentGeometry,
    params: HotnessParams,
    channels: Vec<ChannelState>,
    stats: HotnessStats,
    telemetry: Telemetry,
}

impl HotnessEngine {
    /// A fresh engine, sampling from time zero.
    pub fn new(geo: SegmentGeometry, params: HotnessParams) -> Self {
        HotnessEngine {
            geo,
            params,
            channels: (0..geo.channels).map(|_| ChannelState::new(geo.ranks_per_channel)).collect(),
            stats: HotnessStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; every TSP search emits a `TspAdvance`
    /// event recording whether it found a cold entry or timed out.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Statistics so far.
    pub fn stats(&self) -> HotnessStats {
        self.stats
    }

    /// Current phase of a channel.
    pub fn phase(&self, channel: u32) -> HotnessPhase {
        self.channels[channel as usize].phase
    }

    /// The role `rank` plays on its channel right now.
    pub fn role(&self, channel: u32, rank: u32) -> HotnessRole {
        let ch = &self.channels[channel as usize];
        if ch.sr_rank == Some(rank) {
            HotnessRole::SelfRefreshing
        } else if ch.victim == Some(rank) {
            HotnessRole::Victim
        } else {
            HotnessRole::None
        }
    }

    /// The victim rank of a channel, if one is selected.
    pub fn victim(&self, channel: u32) -> Option<u32> {
        self.channels[channel as usize].victim
    }

    /// The rank currently in self-refresh on a channel.
    pub fn sr_rank(&self, channel: u32) -> Option<u32> {
        self.channels[channel as usize].sr_rank
    }

    /// Feeds one foreground access at its physical location.
    pub fn on_access(&mut self, loc: SegmentLocation, now: Picos) {
        let params = self.params;
        let ch = &mut self.channels[loc.channel as usize];
        ch.counts[loc.rank as usize] += 1;
        if ch.phase != HotnessPhase::Planning {
            return;
        }
        let victim = ch.victim.expect("planning implies a victim");
        let entry = ch.table[loc.rank as usize][loc.within as usize];
        let planned_in_victim = entry.planned.0 == victim;
        if !planned_in_victim {
            ch.table[loc.rank as usize][loc.within as usize].access = true;
            return;
        }
        // The hypothetical victim was touched: reset the idle timer.
        ch.last_victim_touch = now;
        ch.table[loc.rank as usize][loc.within as usize].access = true;
        let ctx = (&self.telemetry, loc.channel, now);
        if loc.rank != victim {
            // Fig. 8(c): a segment planned INTO the victim turned hot.
            // Restore both sides, then re-pair the victim slot with a new
            // cold entry.
            let (vr, vw) = entry.planned;
            debug_assert_eq!(vr, victim);
            let partner = ch.table[vr as usize][vw as usize].planned;
            debug_assert_eq!(partner, (loc.rank, loc.within), "pairing must be symmetric");
            ch.table[loc.rank as usize][loc.within as usize].planned = (loc.rank, loc.within);
            ch.table[vr as usize][vw as usize].planned = (vr, vw);
            self.stats.restores += 1;
            Self::tsp_swap(ch, &self.geo, &params, victim, vw, &mut self.stats, ctx);
        } else {
            // Fig. 8(b): a segment physically in the victim rank is hot.
            // Only meaningful if it is still planned to stay (identity).
            Self::tsp_swap(ch, &self.geo, &params, victim, loc.within, &mut self.stats, ctx);
        }
    }

    /// CLOCK search: find a cold entry in the target ranks and swap its
    /// planned location with victim slot `vw`. `ctx` carries the telemetry
    /// handle, the channel index and the current time for event emission.
    fn tsp_swap(
        ch: &mut ChannelState,
        geo: &SegmentGeometry,
        params: &HotnessParams,
        victim: u32,
        vw: u64,
        stats: &mut HotnessStats,
        ctx: (&Telemetry, u32, Picos),
    ) {
        let (telemetry, channel, now) = ctx;
        let ranks = geo.ranks_per_channel;
        let mut steps = 0u32;
        // Ensure the round-robin pointer is a valid target.
        if ch.target == victim {
            ch.target = (ch.target + 1) % ranks;
        }
        loop {
            if steps >= params.tsp_max_steps {
                stats.tsp_timeouts += 1;
                telemetry
                    .emit(now.as_ps(), EventKind::TspAdvance { channel, victim, timeout: true });
                // Timeout: move to the next target rank (round robin).
                ch.target = (ch.target + 1) % ranks;
                if ch.target == victim {
                    ch.target = (ch.target + 1) % ranks;
                }
                return;
            }
            let t = ch.target as usize;
            let pos = ch.tsp[t] % geo.segs_per_rank;
            ch.tsp[t] = (pos + 1) % geo.segs_per_rank;
            steps += 1;
            let e = ch.table[t][pos as usize];
            if e.planned.0 == victim {
                continue; // already claimed by another victim slot
            }
            if e.access {
                ch.table[t][pos as usize].access = false; // CLOCK second chance
                continue;
            }
            // Found a cold entry: exchange planned locations, then move the
            // target pointer round-robin so cold candidates are collected
            // from *all* target ranks (§3.4), not just the nearest one.
            let v_planned = ch.table[victim as usize][vw as usize].planned;
            debug_assert_eq!(v_planned, (victim, vw), "victim slot must be unswapped");
            ch.table[victim as usize][vw as usize].planned = e.planned;
            ch.table[t][pos as usize].planned = (victim, vw);
            stats.swaps_planned += 1;
            telemetry.emit(now.as_ps(), EventKind::TspAdvance { channel, victim, timeout: false });
            ch.target = (ch.target + 1) % ranks;
            if ch.target == victim {
                ch.target = (ch.target + 1) % ranks;
            }
            return;
        }
    }

    /// Advances phase machines. `rank_active(channel, rank)` must return
    /// whether a rank is available (standby and not draining/powered-down).
    /// Returns frozen plans ready for migration.
    pub fn pump<F>(&mut self, now: Picos, rank_active: F) -> Vec<HotnessPlan>
    where
        F: Fn(u32, u32) -> bool,
    {
        let mut plans = Vec::new();
        for c in 0..self.geo.channels {
            let params = self.params;
            let ch = &mut self.channels[c as usize];
            match ch.phase {
                HotnessPhase::Sampling => {
                    if now < ch.window_start + params.window {
                        continue;
                    }
                    // Pick the least-accessed active rank as victim.
                    let victim = (0..self.geo.ranks_per_channel)
                        .filter(|r| rank_active(c, *r) && ch.sr_rank != Some(*r))
                        .min_by_key(|r| (ch.counts[*r as usize], *r));
                    let actives = (0..self.geo.ranks_per_channel)
                        .filter(|r| rank_active(c, *r) && ch.sr_rank != Some(*r))
                        .count();
                    ch.counts.iter_mut().for_each(|x| *x = 0);
                    ch.window_start = now;
                    // Need at least two active ranks: one victim, one target.
                    let Some(victim) = victim else { continue };
                    if actives < 2 {
                        continue;
                    }
                    ch.start_planning(victim, &self.geo, now);
                }
                HotnessPhase::Planning => {
                    let victim = ch.victim.expect("planning implies a victim");
                    if !rank_active(c, victim) {
                        // The victim got drained/powered down underneath us:
                        // abandon and resample.
                        ch.reset_table();
                        ch.victim = None;
                        ch.phase = HotnessPhase::Sampling;
                        ch.window_start = now;
                        continue;
                    }
                    if now < ch.last_victim_touch + params.threshold {
                        continue;
                    }
                    // Freeze the plan.
                    let mut swaps = Vec::new();
                    for vw in 0..self.geo.segs_per_rank {
                        let planned = ch.table[victim as usize][vw as usize].planned;
                        if planned == (victim, vw) {
                            continue;
                        }
                        let v_loc = SegmentLocation { channel: c, rank: victim, within: vw };
                        let t_loc =
                            SegmentLocation { channel: c, rank: planned.0, within: planned.1 };
                        swaps.push((v_loc, t_loc));
                    }
                    ch.phase = HotnessPhase::Migrating;
                    self.stats.plans_frozen += 1;
                    plans.push(HotnessPlan { channel: c, victim, swaps });
                }
                HotnessPhase::Migrating | HotnessPhase::Idle => {}
            }
        }
        plans
    }

    /// The next phase-machine deadline across all channels, for
    /// event-driven callers: a Sampling channel acts at the end of its
    /// window, a Planning channel freezes its plan once the victim has
    /// been idle for the threshold (an access to the victim pushes the
    /// deadline out — re-query after foreground accesses). Migrating and
    /// Idle channels advance only on completion/exit notifications, never
    /// on time, so they contribute nothing. `None` means no pump is needed
    /// until an access or notification arrives.
    pub fn next_deadline(&self) -> Option<Picos> {
        self.channels
            .iter()
            .filter_map(|ch| match ch.phase {
                HotnessPhase::Sampling => Some(ch.window_start + self.params.window),
                HotnessPhase::Planning => Some(ch.last_victim_touch + self.params.threshold),
                HotnessPhase::Migrating | HotnessPhase::Idle => None,
            })
            .min()
    }

    /// Notifies that a channel's planned swaps all completed; the engine
    /// resets the migration table and reports the victim rank to put into
    /// self-refresh.
    pub(crate) fn on_plan_migrated(&mut self, channel: u32, now: Picos) -> u32 {
        let ch = &mut self.channels[channel as usize];
        debug_assert_eq!(ch.phase, HotnessPhase::Migrating);
        let victim = ch.victim.take().expect("migrating implies a victim");
        ch.reset_table();
        ch.phase = HotnessPhase::Idle;
        ch.sr_rank = Some(victim);
        ch.window_start = now;
        self.stats.sr_entries += 1;
        victim
    }

    /// Notifies that the self-refresh rank was woken by an access; sampling
    /// restarts.
    pub(crate) fn on_sr_exit(&mut self, channel: u32, rank: u32, now: Picos) {
        let ch = &mut self.channels[channel as usize];
        if ch.sr_rank == Some(rank) {
            ch.sr_rank = None;
            ch.phase = HotnessPhase::Sampling;
            ch.window_start = now;
            ch.counts.iter_mut().for_each(|x| *x = 0);
            self.stats.sr_exits += 1;
        }
    }

    /// The planned location of a physical slot (test/diagnostic hook).
    pub fn planned_of(&self, loc: SegmentLocation) -> SegmentLocation {
        let table = &self.channels[loc.channel as usize].table;
        // A channel that has not planned yet keeps every slot where it is.
        let planned = table
            .get(loc.rank as usize)
            .map_or((loc.rank, loc.within), |rank| rank[loc.within as usize].planned);
        SegmentLocation { channel: loc.channel, rank: planned.0, within: planned.1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> SegmentGeometry {
        SegmentGeometry { channels: 1, ranks_per_channel: 4, segs_per_rank: 8 }
    }

    fn params() -> HotnessParams {
        HotnessParams {
            window: Picos::from_us(100),
            threshold: Picos::from_us(1000),
            tsp_max_steps: 16,
        }
    }

    fn loc(rank: u32, within: u64) -> SegmentLocation {
        SegmentLocation { channel: 0, rank, within }
    }

    /// Drives the engine into Planning with rank `victim` as victim by
    /// making all other ranks hot during sampling.
    fn enter_planning(eng: &mut HotnessEngine, victim: u32) -> Picos {
        let t0 = Picos::from_us(10);
        for r in 0..4u32 {
            if r != victim {
                for w in 0..4 {
                    eng.on_access(loc(r, w), t0);
                }
            }
        }
        let t1 = Picos::from_us(150);
        let plans = eng.pump(t1, |_, _| true);
        assert!(plans.is_empty());
        assert_eq!(eng.phase(0), HotnessPhase::Planning);
        assert_eq!(eng.victim(0), Some(victim));
        t1
    }

    #[test]
    fn sampling_selects_least_accessed_rank() {
        let mut eng = HotnessEngine::new(geo(), params());
        enter_planning(&mut eng, 0);
        // rank 0 untouched -> victim 0 (ties break to lowest index).
        assert_eq!(eng.victim(0), Some(0));
    }

    #[test]
    fn the_migration_table_is_built_at_the_first_plan_and_kept() {
        let mut eng = HotnessEngine::new(geo(), params());
        assert!(eng.channels[0].table.is_empty(), "sampling needs no table");
        assert_eq!(eng.planned_of(loc(2, 3)), loc(2, 3), "no table reads as the identity");
        let t1 = enter_planning(&mut eng, 0);
        let g = geo();
        let table = &eng.channels[0].table;
        assert_eq!(table.len(), g.ranks_per_channel as usize);
        for (r, rank) in table.iter().enumerate() {
            assert_eq!(rank.len() as u64, g.segs_per_rank);
            for (w, e) in rank.iter().enumerate() {
                assert_eq!(*e, Entry { access: false, planned: (r as u32, w as u64) });
            }
        }
        // The plan ends: the table is reset in place, not dropped.
        eng.pump(t1 + Picos::from_us(1100), |_, _| true);
        eng.on_plan_migrated(0, t1 + Picos::from_us(1200));
        assert_eq!(eng.channels[0].table.len(), g.ranks_per_channel as usize);
        assert_eq!(eng.planned_of(loc(2, 3)), loc(2, 3));
    }

    #[test]
    fn a_rank_plays_one_role_at_a_time() {
        let mut eng = HotnessEngine::new(geo(), params());
        let roles = |eng: &HotnessEngine| [0, 1, 2, 3].map(|r| eng.role(0, r));
        assert_eq!(roles(&eng), [HotnessRole::None; 4]);
        let t1 = enter_planning(&mut eng, 2);
        assert_eq!(roles(&eng)[2], HotnessRole::Victim);
        eng.pump(t1 + Picos::from_us(1100), |_, _| true);
        assert_eq!(roles(&eng)[2], HotnessRole::Victim, "while its plan migrates");
        eng.on_plan_migrated(0, t1 + Picos::from_us(1200));
        use HotnessRole::{None, SelfRefreshing};
        assert_eq!(roles(&eng), [None, None, SelfRefreshing, None]);
    }

    #[test]
    fn next_deadline_follows_phase_machine() {
        let mut eng = HotnessEngine::new(geo(), params());
        // Sampling from t=0: deadline is the end of the window.
        assert_eq!(eng.next_deadline(), Some(params().window));
        let t1 = enter_planning(&mut eng, 0);
        // Planning: victim idle threshold from the moment planning began.
        assert_eq!(eng.next_deadline(), Some(t1 + params().threshold));
        // Touching the victim pushes the deadline out.
        let touch = t1 + Picos::from_us(40);
        eng.on_access(loc(0, 0), touch);
        assert_eq!(eng.next_deadline(), Some(touch + params().threshold));
        // Pumping at the deadline freezes the plan; Migrating has no
        // time-based deadline (it advances on completion notifications).
        let freeze = touch + params().threshold;
        let plans = eng.pump(freeze, |_, _| true);
        assert_eq!(plans.len(), 1);
        assert_eq!(eng.phase(0), HotnessPhase::Migrating);
        assert_eq!(eng.next_deadline(), None);
        // Idle after migration likewise waits on the self-refresh exit.
        eng.on_plan_migrated(0, freeze);
        assert_eq!(eng.phase(0), HotnessPhase::Idle);
        assert_eq!(eng.next_deadline(), None);
        // The SR exit restarts sampling and with it the window deadline.
        let exit = freeze + Picos::from_us(500);
        eng.on_sr_exit(0, 0, exit);
        assert_eq!(eng.next_deadline(), Some(exit + params().window));
    }

    #[test]
    fn idle_victim_freezes_empty_plan_after_threshold() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        // No victim touches: the threshold passes.
        let plans = eng.pump(t1 + Picos::from_us(1100), |_, _| true);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].victim, 0);
        assert!(plans[0].swaps.is_empty(), "nothing was hot in the victim");
        assert_eq!(eng.phase(0), HotnessPhase::Migrating);
        let v = eng.on_plan_migrated(0, t1 + Picos::from_us(1200));
        assert_eq!(v, 0);
        assert_eq!(eng.phase(0), HotnessPhase::Idle);
        assert_eq!(eng.sr_rank(0), Some(0));
        assert_eq!(eng.stats().sr_entries, 1);
    }

    #[test]
    fn hot_victim_segment_is_swapped_out_fig8b() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        // Access victim slot 3: it must be planned out of the victim.
        eng.on_access(loc(0, 3), t1 + Picos::from_us(10));
        let p = eng.planned_of(loc(0, 3));
        assert_ne!(p.rank, 0, "hot victim segment must leave the victim");
        // And its partner must be planned into the victim.
        let partner = eng.planned_of(p);
        assert_eq!((partner.rank, partner.within), (0, 3));
        assert_eq!(eng.stats().swaps_planned, 1);
    }

    #[test]
    fn victim_touch_resets_idle_timer() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        // Touch the victim at t1+900us; threshold (1 ms) measured from there.
        eng.on_access(loc(0, 1), t1 + Picos::from_us(900));
        let plans = eng.pump(t1 + Picos::from_us(1100), |_, _| true);
        assert!(plans.is_empty(), "timer was reset");
        let plans = eng.pump(t1 + Picos::from_us(2000), |_, _| true);
        assert_eq!(plans.len(), 1);
    }

    #[test]
    fn planned_cold_segment_turning_hot_is_restored_fig8c() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        // Plan: victim slot 3 swaps with some target entry.
        eng.on_access(loc(0, 3), t1 + Picos::from_us(10));
        let cold = eng.planned_of(loc(0, 3)); // the target slot planned into victim
                                              // That target slot gets accessed: Fig 8c restore + re-pair.
        eng.on_access(cold, t1 + Picos::from_us(20));
        assert_eq!(eng.stats().restores, 1);
        let restored = eng.planned_of(cold);
        assert_eq!(restored, cold, "hot segment restored to identity");
        // Victim slot 3 must be re-paired with a different cold entry.
        let p2 = eng.planned_of(loc(0, 3));
        assert_ne!(p2.rank, 0);
        assert_ne!(p2, cold);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        // All rank-1 entries got their access bits set during sampling...
        // (sampling set counts, not bits — bits are only set in Planning).
        // Heat rank 1 entries now, in Planning:
        for w in 0..8 {
            eng.on_access(loc(1, w), t1 + Picos::from_us(5));
        }
        // Swap search starts at target = victim+1 = rank 1; all its entries
        // have access=1, so CLOCK clears them (second chance), wraps, and
        // takes the first now-cold entry.
        eng.on_access(loc(0, 0), t1 + Picos::from_us(10));
        let p = eng.planned_of(loc(0, 0));
        assert_eq!((p.rank, p.within), (1, 0), "second chance: wrap then take entry 0");
        assert_eq!(eng.planned_of(p), loc(0, 0), "pairing is symmetric");
        assert_eq!(eng.stats().swaps_planned, 1);
    }

    #[test]
    fn tsp_timeout_advances_target_rank() {
        let mut eng = HotnessEngine::new(geo(), HotnessParams { tsp_max_steps: 4, ..params() });
        let t1 = enter_planning(&mut eng, 0);
        // Heat all of rank 1 so the 4-step search times out inside it.
        for w in 0..8 {
            eng.on_access(loc(1, w), t1 + Picos::from_us(5));
        }
        eng.on_access(loc(0, 0), t1 + Picos::from_us(10));
        assert!(eng.stats().tsp_timeouts >= 1);
        // No swap happened for this access.
        assert_eq!(eng.planned_of(loc(0, 0)), loc(0, 0));
        // The next search starts in the advanced target rank and succeeds.
        eng.on_access(loc(0, 0), t1 + Picos::from_us(20));
        assert_ne!(eng.planned_of(loc(0, 0)).rank, 0);
    }

    #[test]
    fn full_cycle_with_sr_exit() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        eng.on_access(loc(0, 3), t1 + Picos::from_us(10));
        let plans = eng.pump(t1 + Picos::from_us(1200), |_, _| true);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].swaps.len(), 1);
        let victim = eng.on_plan_migrated(0, t1 + Picos::from_us(1300));
        assert_eq!(eng.sr_rank(0), Some(victim));
        // Table reset after migration.
        assert_eq!(eng.planned_of(loc(0, 3)), loc(0, 3));
        // Wake it.
        eng.on_sr_exit(0, victim, t1 + Picos::from_us(5000));
        assert_eq!(eng.sr_rank(0), None);
        assert_eq!(eng.phase(0), HotnessPhase::Sampling);
        assert_eq!(eng.stats().sr_exits, 1);
    }

    #[test]
    fn sr_exit_of_other_rank_ignored() {
        let mut eng = HotnessEngine::new(geo(), params());
        eng.on_sr_exit(0, 2, Picos::from_us(10));
        assert_eq!(eng.stats().sr_exits, 0);
    }

    #[test]
    fn inactive_victim_abandons_planning() {
        let mut eng = HotnessEngine::new(geo(), params());
        let t1 = enter_planning(&mut eng, 0);
        eng.on_access(loc(0, 3), t1 + Picos::from_us(10));
        // Rank 0 becomes inactive (drained by power-down).
        let plans = eng.pump(t1 + Picos::from_us(2000), |_, r| r != 0);
        assert!(plans.is_empty());
        assert_eq!(eng.phase(0), HotnessPhase::Sampling);
        assert_eq!(eng.planned_of(loc(0, 3)), loc(0, 3), "table reset");
    }

    #[test]
    fn channels_run_independent_state_machines() {
        let geo2 = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 8 };
        let mut eng = HotnessEngine::new(geo2, params());
        // Heat channel 0's ranks 1-3 during sampling; leave channel 1
        // completely idle.
        for r in 1..4u32 {
            for w in 0..4 {
                eng.on_access(
                    SegmentLocation { channel: 0, rank: r, within: w },
                    Picos::from_us(10),
                );
            }
        }
        let plans = eng.pump(Picos::from_us(150), |_, _| true);
        assert!(plans.is_empty());
        assert_eq!(eng.phase(0), HotnessPhase::Planning);
        assert_eq!(eng.phase(1), HotnessPhase::Planning);
        assert_eq!(eng.victim(0), Some(0), "least accessed on channel 0");
        assert_eq!(eng.victim(1), Some(0), "idle channel ties to rank 0");
        // Channel 0's victim gets touched (timer resets); channel 1's plan
        // freezes alone.
        eng.on_access(SegmentLocation { channel: 0, rank: 0, within: 1 }, Picos::from_us(1000));
        let plans = eng.pump(Picos::from_us(1200), |_, _| true);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].channel, 1);
        assert_eq!(eng.phase(0), HotnessPhase::Planning, "channel 0 still waiting");
        assert_eq!(eng.phase(1), HotnessPhase::Migrating);
        // Completing channel 1's plan parks its victim without touching
        // channel 0.
        let v = eng.on_plan_migrated(1, Picos::from_us(1300));
        assert_eq!(eng.sr_rank(1), Some(v));
        assert_eq!(eng.sr_rank(0), None);
    }

    #[test]
    fn needs_two_active_ranks_to_plan() {
        let mut eng = HotnessEngine::new(geo(), params());
        let plans = eng.pump(Picos::from_us(200), |_, r| r == 3);
        assert!(plans.is_empty());
        assert_eq!(eng.phase(0), HotnessPhase::Sampling);
    }
}
