//! Property tests for the low-power ladder state machine (ISSUE 8):
//!
//! * the rank state machine accepts **exactly** the legal-transition graph
//!   — no illegal transition ever commits, no legal one is refused;
//! * policies never propose an illegal or data-losing transition under
//!   arbitrary access/idle sequences;
//! * exit latency is monotonically non-decreasing down the retention
//!   ladder;
//! * the per-rank residency clock conserves time: every picosecond of a
//!   run lands in exactly one power state.

use dtl_dram::{
    ladder_next_down, transition_is_legal, Geometry, Picos, PolicyEngine, PowerParams,
    PowerPolicyKind, PowerState, Rank, TimingParams,
};
use proptest::prelude::*;

fn rank() -> (Rank, TimingParams) {
    let t = TimingParams::ddr4_2933();
    (Rank::new(&Geometry::tiny(), &t, PowerParams::ddr4_128gb_dimm()), t)
}

fn arb_state() -> impl Strategy<Value = PowerState> {
    (0usize..PowerState::ALL.len()).prop_map(|i| PowerState::ALL[i])
}

proptest! {
    /// Arbitrary target-state walks: `Rank::transition` must succeed iff
    /// the legal-transition graph has the edge, and a rejected request
    /// must leave the state untouched.
    #[test]
    fn rank_accepts_exactly_the_graph(
        targets in prop::collection::vec(arb_state(), 1..64),
        gaps in prop::collection::vec(1u64..10_000, 64),
    ) {
        let (mut r, t) = rank();
        let mut now = Picos::ZERO;
        for (target, gap) in targets.iter().zip(gaps) {
            now = now.max(r.busy_until()) + Picos::from_ns(gap);
            let before = r.state();
            match r.transition(now, *target, &t) {
                Ok(at) => {
                    prop_assert!(
                        transition_is_legal(before, *target),
                        "machine accepted an edge the graph forbids: {before:?} -> {target:?}"
                    );
                    prop_assert!(at >= now);
                    prop_assert_eq!(r.state(), *target);
                }
                Err(_) => {
                    prop_assert!(
                        !transition_is_legal(before, *target),
                        "machine refused a graph edge: {before:?} -> {target:?}"
                    );
                    prop_assert_eq!(r.state(), before, "a rejected request must not commit");
                }
            }
        }
    }

    /// Under arbitrary access/idle interleavings, every demotion a policy
    /// proposes is one legal step that retains data, and the state machine
    /// accepts it.
    #[test]
    fn policies_never_propose_illegal_transitions(
        kind_i in 0u8..3,
        events in prop::collection::vec((any::<bool>(), 1u64..100_000u64), 1..200),
    ) {
        let kind = PowerPolicyKind::from_index(kind_i);
        let mut policy = PolicyEngine::new(kind, 1, 1, Picos::from_us(500));
        let (mut r, t) = rank();
        let mut now = Picos::ZERO;
        let mut last_access = Picos::ZERO;
        for (is_access, gap_ns) in events {
            now = now.max(r.busy_until()) + Picos::from_ns(gap_ns);
            if is_access {
                if r.state() != PowerState::Standby {
                    now = r.transition(now, PowerState::Standby, &t).unwrap();
                }
                policy.note_access(0, 0, now);
                last_access = now;
            } else {
                let idle = now.saturating_sub(last_access);
                if let Some(next) = policy.demote(0, 0, r.state(), idle) {
                    prop_assert!(
                        transition_is_legal(r.state(), next),
                        "{kind:?} proposed {:?} -> {next:?}", r.state()
                    );
                    prop_assert!(next.retains_data(), "{kind:?} proposed a data-losing state");
                    r.transition(now, next, &t).unwrap();
                }
            }
        }
    }

    /// Walking the ladder from any starting instant: waking from a deeper
    /// rung never costs less than waking from a shallower one.
    #[test]
    fn exit_latency_non_decreasing_down_the_ladder(start_ns in 0u64..1_000_000) {
        let ladder = [
            PowerState::ActivePowerDown,
            PowerState::PrechargePowerDown,
            PowerState::SelfRefresh,
        ];
        let mut prev_exit = Picos::ZERO;
        for target in ladder {
            let (mut r, t) = rank();
            let mut now = Picos::from_ns(start_ns);
            let mut s = PowerState::Standby;
            while s != target {
                let next = ladder_next_down(s).unwrap();
                now = r.transition(now, next, &t).unwrap();
                s = next;
            }
            let wake = now + Picos::from_us(1);
            let at = r.transition(wake, PowerState::Standby, &t).unwrap();
            let exit = at - wake;
            prop_assert!(
                exit >= prev_exit,
                "exit latency shrank down the ladder at {target:?}: {exit} < {prev_exit}"
            );
            prev_exit = exit;
        }
    }

    /// Residency conservation: after an arbitrary legal/illegal request
    /// mix, integrating to any instant past the last transition accounts
    /// every picosecond since time zero in exactly one state.
    #[test]
    fn residency_clock_conserved(
        targets in prop::collection::vec(arb_state(), 1..64),
        gaps in prop::collection::vec(1u64..10_000, 64),
    ) {
        let (mut r, t) = rank();
        let mut now = Picos::ZERO;
        for (target, gap) in targets.iter().zip(gaps) {
            now = now.max(r.busy_until()) + Picos::from_ns(gap);
            let _ = r.transition(now, *target, &t);
        }
        let end = now.max(r.busy_until()) + Picos::from_us(1);
        r.integrate_energy_to(end);
        let total: Picos = PowerState::ALL.iter().map(|s| r.energy().residency(*s)).sum();
        prop_assert_eq!(total, end, "residency must sum to the elapsed horizon");
    }
}
