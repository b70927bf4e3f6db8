//! # dtl-fault — deterministic fault injection for the DTL reproduction
//!
//! The paper's conclusion argues the DTL's indirection makes rank-level
//! *reliability* management (error-driven retirement) as transparent as its
//! power management. This crate supplies the adversary for exercising that
//! claim: seeded, fully deterministic schedules of
//!
//! * **correctable ECC errors** — per-rank Poisson background noise;
//! * **error storms** — a burst of (mostly uncorrectable) errors pinned to
//!   one victim rank, the canonical precursor of rank death;
//! * **CXL link CRC corruption** — transient flit corruption the link-level
//!   retry machinery must absorb;
//! * **migration interruptions** — an in-flight segment copy/swap cut off
//!   mid-transfer, exercising the crash-consistent replay/rollback paths.
//!
//! A [`FaultPlan`] is generated once from a [`FaultPlanConfig`] (same seed →
//! identical event list, bit-for-bit) and consumed through a
//! [`FaultInjector`], which releases events in timestamp order as simulated
//! time advances. The plan knows nothing about the device: the harness maps
//! each [`FaultKind`] onto the corresponding `DtlDevice` / `RetryEngine`
//! injection hook.
//!
//! ```
//! use dtl_dram::Picos;
//! use dtl_fault::{FaultKind, FaultPlanConfig};
//!
//! let cfg = FaultPlanConfig {
//!     correctable_per_rank_per_sec: 2.0,
//!     ..FaultPlanConfig::quiet(42, Picos::from_secs(10), 2, 4)
//! };
//! let plan = cfg.generate();
//! assert_eq!(plan, cfg.generate(), "same seed, same plan");
//! let mut inj = plan.injector();
//! let early = inj.pop_due(Picos::from_secs(5));
//! assert!(early.iter().all(|e| e.at <= Picos::from_secs(5)));
//! assert!(early.iter().all(|e| matches!(e.kind, FaultKind::CorrectableEcc { .. })));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pool;

pub use pool::{
    PoolFaultEvent, PoolFaultInjector, PoolFaultKind, PoolFaultPlan, PoolFaultPlanConfig,
};

use std::sync::Arc;

use dtl_dram::Picos;
use dtl_telemetry::{Counter, FaultKindId, MetricsRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A correctable (single-bit, ECC-fixed) DRAM error in one rank.
    CorrectableEcc {
        /// Channel of the faulting rank.
        channel: u32,
        /// Rank within the channel.
        rank: u32,
    },
    /// An uncorrectable (multi-bit) DRAM error in one rank: data in the
    /// affected segment is lost and must be reported to the host.
    UncorrectableEcc {
        /// Channel of the faulting rank.
        channel: u32,
        /// Rank within the channel.
        rank: u32,
    },
    /// CRC corruption of flits on the CXL link: the next transaction is
    /// corrupted `burst` consecutive times before transferring cleanly.
    LinkCrc {
        /// Consecutive corrupted transfer attempts.
        burst: u32,
    },
    /// The in-flight migration of one channel is cut off mid-transfer
    /// (controller reset, queue flush): partial data must be discarded and
    /// the job replayed or rolled back.
    MigrationInterrupt {
        /// Channel whose migration slot is interrupted.
        channel: u32,
    },
}

impl FaultKind {
    /// The telemetry mirror of this fault kind.
    pub fn telemetry_id(&self) -> FaultKindId {
        match self {
            FaultKind::CorrectableEcc { .. } => FaultKindId::CorrectableEcc,
            FaultKind::UncorrectableEcc { .. } => FaultKindId::UncorrectableEcc,
            FaultKind::LinkCrc { .. } => FaultKindId::LinkCrc,
            FaultKind::MigrationInterrupt { .. } => FaultKindId::MigrationInterrupt,
        }
    }

    /// Stable tie-break key for events at the same instant.
    fn sort_key(&self) -> (u8, u32, u32) {
        match *self {
            FaultKind::CorrectableEcc { channel, rank } => (0, channel, rank),
            FaultKind::UncorrectableEcc { channel, rank } => (1, channel, rank),
            FaultKind::LinkCrc { burst } => (2, burst, 0),
            FaultKind::MigrationInterrupt { channel } => (3, channel, 0),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: Picos,
    /// What happens.
    pub kind: FaultKind,
}

/// An error storm: a dense burst of errors pinned to one victim rank —
/// the classic signature of a dying rank that should drive the health
/// state machine through `Degraded → Draining → Retired`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StormConfig {
    /// Victim channel.
    pub channel: u32,
    /// Victim rank within the channel.
    pub rank: u32,
    /// When the storm starts.
    pub start: Picos,
    /// Number of error events in the storm.
    pub events: u32,
    /// Spacing between consecutive storm events.
    pub spacing: Picos,
    /// Fraction of storm events that are merely correctable (the rest are
    /// uncorrectable).
    pub correctable_ratio: f64,
}

/// Parameters of a deterministic fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Seed: same seed (and parameters), same plan.
    pub seed: u64,
    /// Plan horizon; no event is scheduled at or after this time.
    pub duration: Picos,
    /// Device channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Poisson rate of background correctable errors, per rank per second.
    pub correctable_per_rank_per_sec: f64,
    /// Poisson rate of link CRC corruption events per second.
    pub link_crc_per_sec: f64,
    /// Each link CRC event corrupts 1..=`link_crc_max_burst` consecutive
    /// transfer attempts (uniform).
    pub link_crc_max_burst: u32,
    /// Migration interruptions, uniformly spread over the horizon on
    /// uniformly random channels.
    pub migration_interrupts: u32,
    /// Optional error storm on one victim rank.
    pub storm: Option<StormConfig>,
}

impl FaultPlanConfig {
    /// A plan with every fault source switched off — the fault-free
    /// baseline, and the base to override individual knobs from.
    pub fn quiet(seed: u64, duration: Picos, channels: u32, ranks_per_channel: u32) -> Self {
        FaultPlanConfig {
            seed,
            duration,
            channels,
            ranks_per_channel,
            correctable_per_rank_per_sec: 0.0,
            link_crc_per_sec: 0.0,
            link_crc_max_burst: 1,
            migration_interrupts: 0,
            storm: None,
        }
    }

    /// Generates the plan: every fault source is expanded into a single
    /// time-sorted event list. Deterministic in `self`.
    pub fn generate(&self) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xfa17_fa17_fa17_fa17);
        let mut events: Vec<FaultEvent> = Vec::new();
        // Background correctable noise: an independent Poisson process per
        // rank (exponential inter-arrival times).
        if self.correctable_per_rank_per_sec > 0.0 {
            for channel in 0..self.channels {
                for rank in 0..self.ranks_per_channel {
                    let mut t = 0.0f64;
                    loop {
                        t += exponential(&mut rng, self.correctable_per_rank_per_sec);
                        let at = Picos::from_ps((t * 1e12) as u64);
                        if at >= self.duration {
                            break;
                        }
                        events.push(FaultEvent {
                            at,
                            kind: FaultKind::CorrectableEcc { channel, rank },
                        });
                    }
                }
            }
        }
        // Link CRC corruption: one Poisson process for the whole link.
        if self.link_crc_per_sec > 0.0 {
            let mut t = 0.0f64;
            loop {
                t += exponential(&mut rng, self.link_crc_per_sec);
                let at = Picos::from_ps((t * 1e12) as u64);
                if at >= self.duration {
                    break;
                }
                let burst = rng.gen_range(1..=self.link_crc_max_burst.max(1));
                events.push(FaultEvent { at, kind: FaultKind::LinkCrc { burst } });
            }
        }
        // Migration interruptions: uniform times, uniform channels.
        for _ in 0..self.migration_interrupts {
            let at = Picos::from_ps(rng.gen_range(0..self.duration.as_ps().max(1)));
            let channel = rng.gen_range(0..self.channels.max(1));
            events.push(FaultEvent { at, kind: FaultKind::MigrationInterrupt { channel } });
        }
        // The storm, pinned to its victim.
        if let Some(storm) = self.storm {
            for k in 0..storm.events {
                let at = storm.start + storm.spacing * u64::from(k);
                if at >= self.duration {
                    break;
                }
                let kind = if rng.gen_bool(storm.correctable_ratio.clamp(0.0, 1.0)) {
                    FaultKind::CorrectableEcc { channel: storm.channel, rank: storm.rank }
                } else {
                    FaultKind::UncorrectableEcc { channel: storm.channel, rank: storm.rank }
                };
                events.push(FaultEvent { at, kind });
            }
        }
        events.sort_by_key(|e| (e.at, e.kind.sort_key()));
        FaultPlan { events }
    }
}

/// Exponential inter-arrival time (seconds) for a Poisson process of
/// `rate` events per second.
fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
    // 1 - u in (0, 1] avoids ln(0).
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// A generated, time-sorted fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The scheduled events in timestamp order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of a given kind-predicate (convenience for assertions).
    pub fn count_where(&self, mut pred: impl FnMut(&FaultKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// A consuming cursor over the plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector { events: self.events.clone(), next: 0, released: None }
    }
}

/// Releases a [`FaultPlan`]'s events as simulated time advances.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    next: usize,
    /// Pre-resolved `fault.released.<kind>` counters, indexed by the
    /// `sort_key` discriminant; `None` until metrics are attached.
    released: Option<[Arc<Counter>; 4]>,
}

impl FaultInjector {
    /// Attaches a metrics registry: every released event bumps its
    /// `fault.released.<kind>` counter. Handles are resolved here once so
    /// [`FaultInjector::pop_due`] never touches the registry lock.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.released = Some([
            registry.counter(&format!("fault.released.{}", FaultKindId::CorrectableEcc.label())),
            registry.counter(&format!("fault.released.{}", FaultKindId::UncorrectableEcc.label())),
            registry.counter(&format!("fault.released.{}", FaultKindId::LinkCrc.label())),
            registry
                .counter(&format!("fault.released.{}", FaultKindId::MigrationInterrupt.label())),
        ]);
    }

    /// Returns (and consumes) every event scheduled at or before `now`.
    /// `now` must be monotonic across calls.
    pub fn pop_due(&mut self, now: Picos) -> Vec<FaultEvent> {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at <= now {
            self.next += 1;
        }
        if let Some(counters) = &self.released {
            for ev in &self.events[start..self.next] {
                counters[ev.kind.sort_key().0 as usize].inc();
            }
        }
        self.events[start..self.next].to_vec()
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_next_at(&self) -> Option<Picos> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Events not yet released.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn base(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig::quiet(seed, Picos::from_secs(60), 2, 4)
    }

    #[test]
    fn quiet_plan_is_empty() {
        assert!(base(1).generate().is_empty());
    }

    #[test]
    fn released_counters_track_pop_due() {
        let cfg = FaultPlanConfig {
            correctable_per_rank_per_sec: 2.0,
            link_crc_per_sec: 1.0,
            migration_interrupts: 5,
            ..base(11)
        };
        let plan = cfg.generate();
        let registry = MetricsRegistry::new();
        let mut inj = plan.injector();
        inj.set_metrics(&registry);
        // Drain in two steps to cover partial releases.
        inj.pop_due(cfg.duration / 2);
        inj.pop_due(cfg.duration);
        assert_eq!(inj.remaining(), 0);
        for kind in [
            FaultKindId::CorrectableEcc,
            FaultKindId::UncorrectableEcc,
            FaultKindId::LinkCrc,
            FaultKindId::MigrationInterrupt,
        ] {
            let counted = registry.counter(&format!("fault.released.{}", kind.label())).get();
            let planned = plan.count_where(|k| k.telemetry_id() == kind) as u64;
            assert_eq!(counted, planned, "{}", kind.label());
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultPlanConfig {
            correctable_per_rank_per_sec: 0.5,
            link_crc_per_sec: 0.2,
            link_crc_max_burst: 5,
            migration_interrupts: 7,
            storm: Some(StormConfig {
                channel: 1,
                rank: 2,
                start: Picos::from_secs(10),
                events: 20,
                spacing: Picos::from_ms(100),
                correctable_ratio: 0.3,
            }),
            ..base(99)
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let other = FaultPlanConfig { seed: 100, ..cfg };
        assert_ne!(cfg.generate(), other.generate(), "different seed diverges");
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let cfg = FaultPlanConfig {
            correctable_per_rank_per_sec: 2.0,
            link_crc_per_sec: 1.0,
            migration_interrupts: 10,
            ..base(7)
        };
        let plan = cfg.generate();
        assert!(!plan.is_empty());
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at, "sorted");
        }
        assert!(plan.events().iter().all(|e| e.at < cfg.duration));
    }

    #[test]
    fn poisson_rate_is_roughly_respected() {
        // 8 ranks x 60 s x 2/s = 960 expected events; allow wide slack.
        let cfg = FaultPlanConfig { correctable_per_rank_per_sec: 2.0, ..base(3) };
        let n = cfg.generate().len() as f64;
        assert!((700.0..1200.0).contains(&n), "got {n}");
    }

    #[test]
    fn storm_pins_victim_rank() {
        let storm = StormConfig {
            channel: 0,
            rank: 3,
            start: Picos::from_secs(5),
            events: 50,
            spacing: Picos::from_ms(10),
            correctable_ratio: 0.5,
        };
        let cfg = FaultPlanConfig { storm: Some(storm), ..base(11) };
        let plan = cfg.generate();
        assert_eq!(plan.len(), 50);
        let on_victim = plan.count_where(|k| {
            matches!(
                *k,
                FaultKind::CorrectableEcc { channel: 0, rank: 3 }
                    | FaultKind::UncorrectableEcc { channel: 0, rank: 3 }
            )
        });
        assert_eq!(on_victim, 50);
        let uncorrectable = plan.count_where(|k| matches!(k, FaultKind::UncorrectableEcc { .. }));
        assert!(uncorrectable > 0, "a mixed storm has uncorrectable events");
    }

    #[test]
    fn injector_releases_in_time_order() {
        let cfg = FaultPlanConfig { correctable_per_rank_per_sec: 1.0, ..base(5) };
        let plan = cfg.generate();
        let mut inj = plan.injector();
        let mut seen = 0;
        let mut t = Picos::ZERO;
        while t < cfg.duration {
            t += Picos::from_secs(1);
            for ev in inj.pop_due(t) {
                assert!(ev.at <= t);
                seen += 1;
            }
            if let Some(next) = inj.peek_next_at() {
                assert!(next > t);
            }
        }
        assert_eq!(seen, plan.len());
        assert_eq!(inj.remaining(), 0);
    }

    proptest! {
        #[test]
        fn any_seed_generates_a_valid_plan(seed in any::<u64>(), rate in 0.1f64..4.0) {
            let cfg = FaultPlanConfig {
                correctable_per_rank_per_sec: rate,
                link_crc_per_sec: rate / 2.0,
                link_crc_max_burst: 4,
                migration_interrupts: 5,
                ..FaultPlanConfig::quiet(seed, Picos::from_secs(20), 2, 2)
            };
            let plan = cfg.generate();
            let again = cfg.generate();
            prop_assert_eq!(plan.events(), again.events());
            for w in plan.events().windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
            for e in plan.events() {
                prop_assert!(e.at < cfg.duration);
                match e.kind {
                    FaultKind::CorrectableEcc { channel, rank }
                    | FaultKind::UncorrectableEcc { channel, rank } => {
                        prop_assert!(channel < 2 && rank < 2);
                    }
                    FaultKind::LinkCrc { burst } => prop_assert!((1..=4).contains(&burst)),
                    FaultKind::MigrationInterrupt { channel } => prop_assert!(channel < 2),
                }
            }
        }
    }
}
