//! The power-policy zoo: a legal-transition graph over the rank low-power
//! ladder and the [`PolicyEngine`] with its three built-in kinds.
//!
//! The paper's engine is a fixed binary scheme — MPSM at deallocation and
//! self-refresh behind a hard-coded 50 ms idle threshold. This module
//! generalizes it into a policy space ([`PowerPolicyKind`]):
//!
//! * `FixedThreshold` — the paper's scheme. The ladder pump is inert; the
//!   deallocation-time MPSM parking and the hotness-driven self-refresh
//!   (both outside this module) implement the policy, bit-compatible with
//!   the pre-policy behavior.
//! * `AdaptiveDemotion` — multi-state demotion down the data-retaining
//!   ladder (standby → active power-down → precharge power-down →
//!   self-refresh) with per-rank idle-history thresholds (an EWMA of
//!   observed idle gaps scales the rungs).
//! * `RefreshAware` — treats refresh as schedulable maintenance: fast
//!   demotion to precharge power-down while postponing refreshes within the
//!   DDR4 budget of eight tREFI intervals, committing to self-refresh
//!   (internal refresh) once the budget is exhausted during an idle spell.
//!
//! The **legal-transition graph** ([`transition_is_legal`]) is the single
//! source of truth shared by the rank state machine, the analytic backend,
//! and the dtl-check oracle:
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            ▼                                            │
//!        Standby ──► ActivePowerDown ──► PrechargePowerDown ──► SelfRefresh
//!          │ ▲ ▲          │                     │                  │
//!          │ │ └──────────┘                     │                  │
//!          │ └──────────────────────────────────┴──────────────────┘
//!          └──► Mpsm ──► Standby          (every state exits to Standby)
//! ```
//!
//! Demotions step one rung at a time; `Mpsm` (no data retention) is off the
//! ladder and reachable only from `Standby` — the parking engine's domain.

use serde::{Deserialize, Serialize};

use crate::power::PowerState;
use crate::time::Picos;

/// DDR4 average refresh interval (tREFI, 7.8 µs), the unit of the
/// refresh-postpone budget tracked by [`PowerPolicyKind::RefreshAware`].
pub const TREFI: Picos = Picos::from_ns(7800);

/// Refreshes DDR4 allows to be postponed before a catch-up burst is due.
pub const REFRESH_POSTPONE_BUDGET: u8 = 8;

/// Whether `from -> to` is a legal rank power transition.
///
/// The graph: `Standby` enters any low-power state; every state exits to
/// `Standby`; demotions walk the data-retaining ladder one rung at a time
/// (`ActivePowerDown -> PrechargePowerDown -> SelfRefresh`, precharging on
/// the way down). `Mpsm` has no demotion edges in either direction — it
/// loses data, so only the parking engine enters it, from `Standby`.
/// Same-state "transitions" are legal no-ops.
#[inline]
pub fn transition_is_legal(from: PowerState, to: PowerState) -> bool {
    use PowerState::{ActivePowerDown, PrechargePowerDown, SelfRefresh, Standby};
    from == to
        || matches!(
            (from, to),
            (Standby, _)
                | (_, Standby)
                | (ActivePowerDown, PrechargePowerDown)
                | (PrechargePowerDown, SelfRefresh)
        )
}

/// The next rung down the data-retaining low-power ladder, or `None` at the
/// bottom. `Mpsm` is excluded: it loses data and is only ever entered by
/// the deallocation-time parking engine, from `Standby`.
#[inline]
pub fn ladder_next_down(state: PowerState) -> Option<PowerState> {
    match state {
        PowerState::Standby => Some(PowerState::ActivePowerDown),
        PowerState::ActivePowerDown => Some(PowerState::PrechargePowerDown),
        PowerState::PrechargePowerDown => Some(PowerState::SelfRefresh),
        PowerState::SelfRefresh | PowerState::Mpsm => None,
    }
}

/// Depth of a state on the retention ladder (0 = standby), or `None` for
/// `Mpsm`, which is off the ladder.
#[inline]
pub fn ladder_depth(state: PowerState) -> Option<usize> {
    match state {
        PowerState::Standby => Some(0),
        PowerState::ActivePowerDown => Some(1),
        PowerState::PrechargePowerDown => Some(2),
        PowerState::SelfRefresh => Some(3),
        PowerState::Mpsm => None,
    }
}

/// Selects one of the built-in policies of a [`PolicyEngine`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerPolicyKind {
    /// The paper's fixed 50 ms scheme (bit-compatible with the pre-trait
    /// engine; the ladder pump is inert).
    #[default]
    FixedThreshold,
    /// Multi-state ladder demotion with per-rank idle-history thresholds.
    AdaptiveDemotion,
    /// Refresh postponement with commitment to self-refresh on budget
    /// exhaustion.
    RefreshAware,
}

impl PowerPolicyKind {
    /// Every built-in policy, in ablation-matrix order.
    pub const ALL: [PowerPolicyKind; 3] = [
        PowerPolicyKind::FixedThreshold,
        PowerPolicyKind::AdaptiveDemotion,
        PowerPolicyKind::RefreshAware,
    ];

    /// Stable display name (used in ablation tables and CI drift gates).
    pub fn name(self) -> &'static str {
        match self {
            PowerPolicyKind::FixedThreshold => "FixedThreshold",
            PowerPolicyKind::AdaptiveDemotion => "AdaptiveDemotion",
            PowerPolicyKind::RefreshAware => "RefreshAware",
        }
    }

    /// Maps an arbitrary byte onto a policy (for fuzz-op generation).
    pub fn from_index(i: u8) -> Self {
        Self::ALL[usize::from(i) % Self::ALL.len()]
    }
}

/// Per-rank history of the ladder policies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RankHistory {
    /// The last access [`PowerPolicyKind::AdaptiveDemotion`] saw, from which
    /// it measures the next idle gap. Not the host's idle clock, and not to
    /// be folded into it: a policy installed mid-run starts from a cold
    /// history, so its first gap is measured from time zero while the
    /// host's clock — the `idle` and `last_access` it passes in — keeps
    /// running across the switch.
    last_access: Picos,
    /// `AdaptiveDemotion`: EWMA of observed idle gaps in picoseconds
    /// (integer arithmetic for deterministic replay), zero until the first
    /// gap is observed.
    ewma_gap_ps: u64,
    /// `RefreshAware`: refreshes postponed since the last access or
    /// self-refresh entry.
    postponed: u8,
}

/// A rank power-management policy: one of the [`PowerPolicyKind`]s over a
/// rank geometry.
///
/// The host (a DTL device) owns the rank state machine and calls the policy
/// as an advisor: it reports accesses, asks for demotions of idle ranks,
/// and schedules the policy's next deadline on its event spine. The policy
/// never touches rank state itself, so a buggy policy can at worst propose
/// an illegal transition — which the state machine rejects and the
/// dtl-check oracle flags.
///
/// * [`PowerPolicyKind::FixedThreshold`] — the paper's fixed 50 ms scheme
///   as the identity policy: no ladder demotions, so deallocation-time MPSM
///   parking and hotness-driven self-refresh behave exactly as they did
///   before there were policies.
/// * [`PowerPolicyKind::AdaptiveDemotion`] — walks the retention ladder one
///   rung at a time, with per-rank thresholds scaled by an EWMA of the
///   rank's observed idle gaps: ranks with long gaps demote aggressively,
///   busy ranks hold back ("Rank-Aware Dynamic Migrations and Adaptive
///   Demotions", PAPERS.md).
/// * [`PowerPolicyKind::RefreshAware`] — ("Self-Managing DRAM", PAPERS.md)
///   demotes quickly to precharge power-down — where the external refresh
///   clock still runs and refreshes can be postponed — and spends the DDR4
///   postpone budget of [`REFRESH_POSTPONE_BUDGET`] tREFI before committing
///   the rank to self-refresh, whose internal refresh clears the debt. An
///   access resets the budget (the catch-up burst is issued at wake).
///
/// Contract:
/// * Every state returned by [`PolicyEngine::demote`] is one legal step
///   from the rank's current state per [`transition_is_legal`], and retains
///   data ([`PowerState::retains_data`]).
/// * Decisions are deterministic functions of the observed access history
///   (replay and `--jobs` determinism depend on it).
/// * [`PolicyEngine::deadline`] is not later than the first instant at
///   which [`PolicyEngine::demote`] would return `Some` — the host may
///   sleep until the deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyEngine {
    kind: PowerPolicyKind,
    /// Scales the rungs (typically the host's profile threshold).
    base: Picos,
    ranks_per_channel: u32,
    /// Channel-major.
    ranks: Vec<RankHistory>,
    /// Refresh postponements granted (observability counter).
    pub postponements: u64,
}

impl PolicyEngine {
    /// EWMA weight: `ewma' = (3*ewma + gap) / 4`.
    const EWMA_SHIFT: u64 = 2;

    /// Builds the policy selected by `kind` over the given rank geometry,
    /// scaling thresholds from `base` (the engine's profile threshold).
    pub fn new(kind: PowerPolicyKind, channels: u32, ranks_per_channel: u32, base: Picos) -> Self {
        let ranks = vec![RankHistory::default(); (channels * ranks_per_channel) as usize];
        PolicyEngine { kind, base, ranks_per_channel, ranks, postponements: 0 }
    }

    /// Which built-in policy this is (reports, registry matrix).
    pub fn kind(&self) -> PowerPolicyKind {
        self.kind
    }

    /// Whether the ladder pump can skip this policy entirely (the
    /// fixed-threshold fast path that keeps legacy runs bit-compatible).
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.kind == PowerPolicyKind::FixedThreshold
    }

    fn idx(&self, channel: u32, rank: u32) -> usize {
        (channel * self.ranks_per_channel + rank) as usize
    }

    /// The idle threshold for demoting *out of* `state`, `None` where the
    /// policy never does.
    fn threshold(&self, channel: u32, rank: u32, state: PowerState) -> Option<Picos> {
        match self.kind {
            PowerPolicyKind::FixedThreshold => None,
            // From this rank's history: the first rung opens at an eighth
            // of the smoothed gap (clamped to `[base/64, base]`), each
            // deeper rung at 4x the previous.
            PowerPolicyKind::AdaptiveDemotion => {
                let depth = ladder_depth(state)?;
                ladder_next_down(state)?;
                let ewma = Picos::from_ps(self.ranks[self.idx(channel, rank)].ewma_gap_ps);
                let floor = Picos::from_ps((self.base.as_ps() / 64).max(1));
                let first = (ewma / 8).clamp(floor, self.base);
                Some(first * 4u64.pow(depth as u32))
            }
            // Power-down rungs open fast (base/16, then base/4); the
            // self-refresh commitment waits out the postpone budget (eight
            // tREFI) so postponed refreshes stay legal.
            PowerPolicyKind::RefreshAware => match state {
                PowerState::Standby => Some(self.base / 16),
                PowerState::ActivePowerDown => Some(self.base / 4),
                PowerState::PrechargePowerDown => Some(TREFI * u64::from(REFRESH_POSTPONE_BUDGET)),
                PowerState::SelfRefresh | PowerState::Mpsm => None,
            },
        }
    }

    /// Records an access arriving at `(channel, rank)` at `now`. Called for
    /// every foreground access and for epoch-granular bulk traffic.
    #[inline]
    pub fn note_access(&mut self, channel: u32, rank: u32, now: Picos) {
        match self.kind {
            PowerPolicyKind::FixedThreshold => {}
            PowerPolicyKind::AdaptiveDemotion => {
                let i = self.idx(channel, rank);
                let h = &mut self.ranks[i];
                let gap = now.saturating_sub(h.last_access).as_ps();
                h.ewma_gap_ps = if h.ewma_gap_ps == 0 {
                    gap
                } else {
                    h.ewma_gap_ps - (h.ewma_gap_ps >> Self::EWMA_SHIFT) + (gap >> Self::EWMA_SHIFT)
                };
                h.last_access = h.last_access.max(now);
            }
            PowerPolicyKind::RefreshAware => {
                // Wake pays the catch-up burst; the budget refills.
                let i = self.idx(channel, rank);
                self.ranks[i].postponed = 0;
            }
        }
    }

    /// The next state to demote an idle rank to, or `None` to hold.
    /// `idle` is the time since the rank's last observed access.
    pub fn demote(
        &mut self,
        channel: u32,
        rank: u32,
        state: PowerState,
        idle: Picos,
    ) -> Option<PowerState> {
        let threshold = self.threshold(channel, rank, state)?;
        if idle < threshold {
            return None;
        }
        let next = ladder_next_down(state)?;
        if next == PowerState::SelfRefresh {
            // Entering self-refresh clears the postpone debt (which only
            // `RefreshAware` ever runs up): the internal refresh engine
            // catches up.
            let i = self.idx(channel, rank);
            self.ranks[i].postponed = 0;
        }
        Some(next)
    }

    /// Earliest future instant at which [`PolicyEngine::demote`] could
    /// start returning `Some` for this rank, last accessed at
    /// `last_access`, or `None` when the policy will never act on it (used
    /// to schedule the host's next wakeup event).
    pub fn deadline(
        &self,
        channel: u32,
        rank: u32,
        state: PowerState,
        last_access: Picos,
    ) -> Option<Picos> {
        Some(last_access + self.threshold(channel, rank, state)?)
    }

    /// Attempts to postpone the next refresh of `(channel, rank)` at `now`.
    /// Returns whether the postponement was granted: only `RefreshAware`
    /// schedules refresh, and only while the rank has budget left.
    pub fn postpone_refresh(&mut self, channel: u32, rank: u32, _now: Picos) -> bool {
        if self.kind != PowerPolicyKind::RefreshAware {
            return false;
        }
        let i = self.idx(channel, rank);
        let granted = self.ranks[i].postponed < REFRESH_POSTPONE_BUDGET;
        if granted {
            self.ranks[i].postponed += 1;
            self.postponements += 1;
        }
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_matches_the_documented_edges() {
        use PowerState::*;
        // Hub edges.
        for s in PowerState::ALL {
            assert!(transition_is_legal(Standby, s), "Standby -> {s:?}");
            assert!(transition_is_legal(s, Standby), "{s:?} -> Standby");
            assert!(transition_is_legal(s, s), "{s:?} self-loop");
        }
        // Ladder demotions.
        assert!(transition_is_legal(ActivePowerDown, PrechargePowerDown));
        assert!(transition_is_legal(PrechargePowerDown, SelfRefresh));
        // Everything else is illegal — notably into and out of Mpsm.
        for s in [ActivePowerDown, PrechargePowerDown, SelfRefresh] {
            assert!(!transition_is_legal(s, Mpsm), "{s:?} -> Mpsm");
            assert!(!transition_is_legal(Mpsm, s), "Mpsm -> {s:?}");
        }
        assert!(!transition_is_legal(SelfRefresh, PrechargePowerDown));
        assert!(!transition_is_legal(SelfRefresh, ActivePowerDown));
        assert!(!transition_is_legal(PrechargePowerDown, ActivePowerDown));
        assert!(!transition_is_legal(ActivePowerDown, SelfRefresh), "no rung skipping");
    }

    #[test]
    fn ladder_walks_to_self_refresh_and_stops() {
        let mut s = PowerState::Standby;
        let mut seen = vec![s];
        while let Some(next) = ladder_next_down(s) {
            assert!(transition_is_legal(s, next) || s == PowerState::Standby);
            s = next;
            seen.push(s);
        }
        assert_eq!(
            seen,
            vec![
                PowerState::Standby,
                PowerState::ActivePowerDown,
                PowerState::PrechargePowerDown,
                PowerState::SelfRefresh
            ]
        );
        assert_eq!(ladder_next_down(PowerState::Mpsm), None);
        assert_eq!(ladder_depth(PowerState::Mpsm), None);
        // Every rung retains data.
        assert!(seen.iter().all(|s| s.retains_data()));
    }

    #[test]
    fn fixed_threshold_is_inert() {
        let mut p = PolicyEngine::new(PowerPolicyKind::FixedThreshold, 2, 4, Picos::from_ms(50));
        assert!(p.is_inert());
        p.note_access(0, 0, Picos::from_us(1));
        assert_eq!(p.demote(0, 0, PowerState::Standby, Picos::from_secs(10)), None);
        assert_eq!(p.deadline(0, 0, PowerState::Standby, Picos::ZERO), None);
        assert!(!p.postpone_refresh(0, 0, Picos::ZERO));
    }

    #[test]
    fn adaptive_demotes_down_the_ladder_and_adapts_thresholds() {
        let base = Picos::from_us(500);
        let mut p = PolicyEngine::new(PowerPolicyKind::AdaptiveDemotion, 1, 2, base);
        // No history: the first rung opens at the clamped floor.
        let floor = Picos::from_ps(base.as_ps() / 64);
        assert_eq!(p.demote(0, 0, PowerState::Standby, floor), Some(PowerState::ActivePowerDown));
        assert_eq!(p.demote(0, 0, PowerState::Standby, floor - Picos::from_ps(1)), None);
        // Deeper rungs need geometrically more idleness.
        assert_eq!(
            p.demote(0, 0, PowerState::ActivePowerDown, floor * 4),
            Some(PowerState::PrechargePowerDown)
        );
        assert_eq!(
            p.demote(0, 0, PowerState::PrechargePowerDown, floor * 16),
            Some(PowerState::SelfRefresh)
        );
        assert_eq!(p.demote(0, 0, PowerState::SelfRefresh, Picos::from_secs(100)), None);
        // A busy rank (short gaps) keeps the floor; a long observed gap
        // raises the rank's own threshold but nobody else's.
        for us in 1..50u64 {
            p.note_access(0, 1, Picos::from_us(us * 10_000));
        }
        let busy = p.threshold(0, 0, PowerState::Standby).unwrap();
        let idle_rank = p.threshold(0, 1, PowerState::Standby).unwrap();
        assert!(idle_rank > busy, "history must raise the idle rank's threshold");
        assert!(idle_rank <= base, "thresholds clamp at the base");
    }

    #[test]
    fn adaptive_deadline_is_not_later_than_the_first_demotion() {
        let p = PolicyEngine::new(PowerPolicyKind::AdaptiveDemotion, 1, 1, Picos::from_us(500));
        let last = Picos::from_us(7);
        let deadline = p.deadline(0, 0, PowerState::Standby, last).unwrap();
        let mut probe = p.clone();
        let idle = deadline.saturating_sub(last);
        assert!(probe.demote(0, 0, PowerState::Standby, idle).is_some());
        assert!(probe.demote(0, 0, PowerState::Standby, idle - Picos::from_ps(1)).is_none());
    }

    #[test]
    fn refresh_aware_budget_gates_the_self_refresh_commitment() {
        let mut p = PolicyEngine::new(PowerPolicyKind::RefreshAware, 1, 1, Picos::from_us(500));
        // The postpone budget grants exactly eight before declining.
        for i in 0..REFRESH_POSTPONE_BUDGET {
            assert!(p.postpone_refresh(0, 0, TREFI * u64::from(i)), "grant {i}");
        }
        assert!(!p.postpone_refresh(0, 0, TREFI * 9));
        assert_eq!(p.postponements, u64::from(REFRESH_POSTPONE_BUDGET));
        // An access refills the budget.
        p.note_access(0, 0, TREFI * 10);
        assert!(p.postpone_refresh(0, 0, TREFI * 11));
        // The SR commitment waits out the full budget window.
        let commit = TREFI * u64::from(REFRESH_POSTPONE_BUDGET);
        assert_eq!(
            p.demote(0, 0, PowerState::PrechargePowerDown, commit - Picos::from_ps(1)),
            None
        );
        assert_eq!(
            p.demote(0, 0, PowerState::PrechargePowerDown, commit),
            Some(PowerState::SelfRefresh)
        );
    }

    #[test]
    fn every_kind_builds_its_engine_with_a_unique_name() {
        let mut names = Vec::new();
        for kind in PowerPolicyKind::ALL {
            let engine = PolicyEngine::new(kind, 2, 4, Picos::from_ms(50));
            assert_eq!(engine.kind(), kind);
            names.push(kind.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PowerPolicyKind::ALL.len(), "display names must be unique");
        assert_eq!(PowerPolicyKind::from_index(0), PowerPolicyKind::FixedThreshold);
        assert_eq!(PowerPolicyKind::from_index(4), PowerPolicyKind::AdaptiveDemotion);
        assert_eq!(PowerPolicyKind::default(), PowerPolicyKind::FixedThreshold);
    }
}
