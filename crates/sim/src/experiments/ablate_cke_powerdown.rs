//! **Ablation** — why not just use CKE power-down? The conventional
//! alternative to the DTL is the memory controller's own idle power-down
//! (CKE low, precharge power-down at ~35 % of standby power) — no
//! consolidation, no indirection.
//!
//! This study measures per-rank idle-gap distributions under the paper's
//! interleaved traffic with the cycle-accurate simulator, then computes
//! how much background power CKE power-down could reclaim at different
//! entry timeouts. Because fine-grained interleaving keeps *every* rank
//! lukewarm, the gaps are far shorter than any safe timeout — the
//! consolidation that the DTL's indirection enables is what unlocks the
//! savings.

use serde::{Deserialize, Serialize};

use dtl_dram::{
    AccessKind, AddressMapping, CommandSink, DramConfig, DramSystem, FastMap, Geometry,
    IssuedCommand, PhysAddr, Picos, PowerParams, PowerState, Priority,
};
use dtl_trace::{Mixer, WorkloadKind};

/// One (traffic level, timeout) cell of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CkeRow {
    /// Traffic label, e.g. "30 GB/s".
    pub utilization_label: String,
    /// CKE entry timeout, ns.
    pub timeout_ns: u64,
    /// Fraction of rank-time reclaimable at that timeout.
    pub pd_residency: f64,
    /// Background saving CKE power-down achieves.
    pub cke_background_saving: f64,
    /// The DTL's Figure 12 background saving for reference.
    pub dtl_background_saving: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CkeResult {
    /// One row per (traffic, timeout) pair.
    pub rows: Vec<CkeRow>,
}

/// Records the issue time of every command, per rank.
#[derive(Debug, Default)]
struct GapSink {
    per_rank: FastMap<(u32, u32), Vec<Picos>>,
}

impl CommandSink for GapSink {
    fn on_command(&mut self, cmd: IssuedCommand) {
        self.per_rank.entry((cmd.channel, cmd.rank)).or_default().push(cmd.at);
    }
}

fn measure(gbps: f64, requests: u64, timeouts_ns: &[u64]) -> Vec<(u64, f64)> {
    let geometry = Geometry::cxl_1tb();
    let cfg = DramConfig { geometry, ..DramConfig::cxl_1tb_ddr4_2933() };
    let mut sys = DramSystem::new(cfg, AddressMapping::RankInterleaved).unwrap();
    let specs: Vec<_> = WorkloadKind::TRACED.iter().map(|k| k.spec().scaled(64)).collect();
    let mut mix = Mixer::new(&specs, 1);
    let gap_ps = (64.0 / gbps / 1e9 * 1e12) as u64;
    let mut t = Picos::ZERO;
    let mut sink = GapSink::default();
    let space = mix.address_space_bytes().min(geometry.capacity_bytes());
    for _ in 0..requests {
        let r = mix.next_record();
        t += Picos::from_ps(gap_ps);
        sys.submit(
            PhysAddr::new(r.addr % space),
            if r.is_write { AccessKind::Write } else { AccessKind::Read },
            Priority::Foreground,
            t,
        )
        .unwrap();
        if sys.pending() > 512 {
            sys.advance_to_with_sink(t, &mut sink);
        }
    }
    let mut horizon = t + Picos::from_us(10);
    while sys.pending() > 0 {
        sys.advance_to_with_sink(horizon, &mut sink);
        horizon += Picos::from_us(10);
    }
    // For each timeout: fraction of rank-time spent in gaps longer than the
    // timeout (minus the timeout itself, which is spent waiting to enter).
    let total = t;
    let ranks = geometry.total_ranks() as u128;
    timeouts_ns
        .iter()
        .map(|&to| {
            let timeout = Picos::from_ns(to);
            let mut pd_ps: u128 = 0;
            for times in sink.per_rank.values() {
                let mut prev = Picos::ZERO;
                for &at in times {
                    let gap = at.saturating_sub(prev);
                    if gap > timeout {
                        pd_ps += u128::from((gap - timeout).as_ps());
                    }
                    prev = prev.max(at);
                }
                let tail = total.saturating_sub(prev);
                if tail > timeout {
                    pd_ps += u128::from((tail - timeout).as_ps());
                }
            }
            (to, pd_ps as f64 / (u128::from(total.as_ps()) * ranks) as f64)
        })
        .collect()
}

/// Runs the study with the three traffic levels sharded across `jobs`
/// workers (each level replays an independent mixer and simulator, so the
/// decomposition is exact).
pub fn run(requests: u64, jobs: usize) -> CkeResult {
    let p = PowerParams::ddr4_128gb_dimm();
    // 0.65 of background power is reclaimable in precharge power-down; the
    // DTL reference is Figure 12's background saving at the same occupancy.
    let pd_factor = 1.0 - p.factor(PowerState::PrechargePowerDown);
    let dtl_saving = 0.457;
    let timeouts = [100u64, 1_000, 10_000];
    let levels = [("30 GB/s", 30.0f64), ("10 GB/s", 10.0), ("3 GB/s", 3.0)];
    let per_level = crate::exec::run_units(jobs, levels.to_vec(), |_, (label, gbps)| {
        (label, measure(gbps, requests, &timeouts))
    });
    let mut rows = Vec::new();
    for (label, measured) in per_level {
        for (to, residency) in measured {
            rows.push(CkeRow {
                utilization_label: label.to_string(),
                timeout_ns: to,
                pd_residency: residency,
                cke_background_saving: residency * pd_factor,
                dtl_background_saving: dtl_saving,
            });
        }
    }
    CkeResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_starves_cke_powerdown() {
        let r = run(4_000, 2);
        assert_eq!(r.rows.len(), 9);
        for row in &r.rows {
            assert!(row.pd_residency >= 0.0 && row.pd_residency <= 1.0);
            // CKE only competes when traffic nearly stops; under busy
            // interleaved traffic it must trail DTL consolidation.
            if row.utilization_label == "30 GB/s" {
                assert!(
                    row.cke_background_saving < row.dtl_background_saving,
                    "CKE must trail DTL consolidation under load: {row:?}"
                );
            }
        }
        // Longer entry timeouts can only shrink the reclaimable residency.
        for level in r.rows.chunks(3) {
            assert!(level[0].pd_residency >= level[1].pd_residency);
            assert!(level[1].pd_residency >= level[2].pd_residency);
        }
    }
}
