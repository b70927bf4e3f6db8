//! **Ablation** — migration scheduling priority (the paper's §4.2 decision
//! that the migration queue issues only when the foreground queue is
//! empty).
//!
//! Replays a foreground stream against the cycle-accurate DRAM simulator
//! while a segment migration runs, with the migration traffic classed as
//! (a) strict-background (the paper's design) and (b) same-priority
//! foreground traffic. The foreground latency difference is the cost the
//! paper's design avoids.

use serde::{Deserialize, Serialize};

use dtl_dram::{
    AccessKind, AddressMapping, DramConfig, DramSystem, FastSet, PhysAddr, Picos, Priority,
};
use dtl_trace::{TraceGen, WorkloadKind};

/// One policy's foreground latency under a concurrent migration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriorityRow {
    /// "background (paper)" or "same-priority".
    pub policy: String,
    /// Mean foreground latency, ns.
    pub fg_mean_ns: f64,
    /// Worst foreground latency, ns.
    pub fg_max_ns: f64,
    /// Migration bytes in flight.
    pub migration_bytes: u64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriorityResult {
    /// Background-priority row first, same-priority second.
    pub rows: Vec<PriorityRow>,
}

impl PriorityResult {
    /// Mean foreground latency the paper's policy avoids, ns.
    pub fn delta_ns(&self) -> f64 {
        self.rows[1].fg_mean_ns - self.rows[0].fg_mean_ns
    }
}

fn run_one(policy_background: bool, requests: u64) -> PriorityRow {
    let mut sys = DramSystem::new(DramConfig::tiny(), AddressMapping::dtl_default()).unwrap();
    let cap = sys.config().geometry.capacity_bytes();
    let mut gen = TraceGen::new(WorkloadKind::DataServing.spec().scaled(512), 1);
    // A 256 KiB "segment migration": reads from one region, writes to
    // another, issued up front.
    let seg = 256u64 << 10;
    let mig_priority = if policy_background { Priority::Migration } else { Priority::Foreground };
    for i in 0..(seg / 64) {
        sys.submit(
            PhysAddr::new((cap / 2 + i * 64) % cap),
            AccessKind::Read,
            mig_priority,
            Picos::ZERO,
        )
        .unwrap();
        sys.submit(
            PhysAddr::new((cap / 2 + seg + i * 64) % cap),
            AccessKind::Write,
            mig_priority,
            Picos::ZERO,
        )
        .unwrap();
    }
    // Foreground stream at a moderate rate.
    let mut t = Picos::ZERO;
    let mut fg_ids = FastSet::default();
    for _ in 0..requests {
        let r = gen.next_record();
        t += Picos::from_ns(50);
        let id = sys
            .submit(
                PhysAddr::new(r.addr % (cap / 2)),
                if r.is_write { AccessKind::Write } else { AccessKind::Read },
                Priority::Foreground,
                t,
            )
            .unwrap();
        fg_ids.insert(id);
        if sys.pending() > 1024 {
            sys.advance_to(t);
        }
    }
    sys.run_until_idle(Picos::from_us(10));
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0u64;
    for c in sys.drain_completions() {
        if fg_ids.contains(&c.id) {
            let l = c.latency().as_ns_f64();
            sum += l;
            max = max.max(l);
            n += 1;
        }
    }
    PriorityRow {
        policy: if policy_background {
            "background (paper)".into()
        } else {
            "same-priority".into()
        },
        fg_mean_ns: sum / n as f64,
        fg_max_ns: max,
        migration_bytes: seg * 2,
    }
}

/// Runs the two policy replays as independent units (each owns its own
/// simulator and trace generator).
pub fn run(requests: u64, jobs: usize) -> PriorityResult {
    let rows = crate::exec::run_units(jobs, vec![true, false], |_, background| {
        run_one(background, requests)
    });
    PriorityResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_migration_protects_foreground_latency() {
        let r = run(4_000, 2);
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows[0].policy.contains("background"));
        assert!(
            r.delta_ns() > -1.0,
            "same-priority migration must not beat strict background: {:?}",
            r.rows
        );
    }
}
