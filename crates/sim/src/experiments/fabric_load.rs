//! **Fabric load** (disaggregation extension, paper §7 outlook) — sweep
//! offered load through a dual-switch CXL fabric under both topology-aware
//! placements (pack-under-one-switch vs spread-across-switches) and report
//! how port contention moves the access p99 next to the switch-port and
//! DRAM energy headlines. The tiny sweep is the CI cell; the paper sweep
//! widens the fabric to four hosts and eight devices.

use serde::{Deserialize, Serialize};

use crate::{run_fabric_cell, FabricCellResult, FabricRunConfig, Heartbeat, RunObservations};
use dtl_core::DtlError;
use dtl_pool::PlacementPolicy;
use dtl_telemetry::Telemetry;

/// The two placement variants, swept in this order. The first is the
/// headline and the only one traced.
pub const VARIANTS: [PlacementPolicy; 2] =
    [PlacementPolicy::PackForPower, PlacementPolicy::SpreadForBandwidth];

/// Tiny burst ladder (accesses per VM per window). Geometric ~4× spacing:
/// the latency histogram is log₂-bucketed, so each step must push the p99
/// past at least one bucket boundary to read as a strict increase.
pub const BURSTS_TINY: [u64; 4] = [32, 128, 512, 2048];

/// Paper-scale burst ladder.
pub const BURSTS_PAPER: [u64; 4] = [64, 256, 1024, 4096];

/// Combined result of the placement × load sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricLoadResult {
    /// One cell per (placement, burst) pair, placement-major in
    /// [`VARIANTS`] × ladder order.
    pub cells: Vec<FabricCellResult>,
}

impl FabricLoadResult {
    /// Cells of one placement variant, in ladder order.
    pub fn placement_cells(&self, placement: PlacementPolicy) -> Vec<&FabricCellResult> {
        self.cells.iter().filter(|c| c.placement == placement).collect()
    }

    /// Whether each placement's access p99 rises strictly with the ladder.
    pub fn p99_monotone(&self) -> bool {
        VARIANTS.iter().all(|&p| {
            let cells = self.placement_cells(p);
            cells.windows(2).all(|w| w[1].access_p99_ps > w[0].access_p99_ps)
        })
    }

    /// Switch-port energy advantage of packing at the lightest load:
    /// `spread - pack` in millijoules (positive means pack wins).
    pub fn pack_energy_edge_mj(&self) -> f64 {
        let pack = self.placement_cells(PlacementPolicy::PackForPower);
        let spread = self.placement_cells(PlacementPolicy::SpreadForBandwidth);
        match (pack.first(), spread.first()) {
            (Some(p), Some(s)) => s.switch_port_energy_mj - p.switch_port_energy_mj,
            _ => 0.0,
        }
    }
}

/// The swept burst ladder for a base cell configuration.
pub fn ladder(cfg: &FabricRunConfig) -> [u64; 4] {
    if cfg.paper_scale {
        BURSTS_PAPER
    } else {
        BURSTS_TINY
    }
}

/// Runs the full placement × load sweep with its cells as parallel work
/// units. Only the first (pack, lightest-load) cell records telemetry —
/// the cells are independent fabrics whose timelines would not compose
/// into one trace; per-unit buffers merge back in unit order, so the
/// emitted trace and the result are bit-identical for any `jobs`. The
/// returned [`RunObservations`] (SLO report including the fabric-queue
/// population, plus event-spine queue counters) are that **headline**
/// cell's. The heartbeat ticks once per completed cell.
///
/// # Errors
///
/// Propagates pool/device errors from any cell.
pub fn run(
    cfg: &FabricRunConfig,
    telemetry: &Telemetry,
    jobs: usize,
    heartbeat: &Heartbeat,
) -> Result<(FabricLoadResult, RunObservations), DtlError> {
    let bursts = ladder(cfg);
    let mut units = Vec::with_capacity(VARIANTS.len() * bursts.len());
    for placement in VARIANTS {
        for burst in bursts {
            units.push((placement, burst));
        }
    }
    let total_units = units.len() as u64;
    let outcomes =
        crate::exec::run_units_traced(jobs, telemetry, units, |i, (placement, burst), t| {
            let mut cell = *cfg;
            cell.placement = placement;
            cell.burst = burst;
            let untraced = Telemetry::disabled();
            let out = run_fabric_cell(&cell, if i == 0 { t } else { &untraced });
            heartbeat.tick(total_units);
            out
        });
    let (cells, obs): (Vec<_>, Vec<_>) =
        outcomes.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    Ok((FabricLoadResult { cells }, obs[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FabricRunConfig {
        let mut cfg = FabricRunConfig::tiny(7);
        cfg.windows = 6;
        cfg
    }

    #[test]
    fn tail_latency_rises_and_pack_wins_on_port_energy() {
        let (r, _) = run(&quick(), &Telemetry::disabled(), 1, &Heartbeat::disabled()).unwrap();
        assert_eq!(r.cells.len(), VARIANTS.len() * BURSTS_TINY.len());
        assert!(r.p99_monotone(), "{:#?}", r.cells);
        assert!(r.pack_energy_edge_mj() > 0.0, "{:#?}", r.cells);
    }

    #[test]
    fn jobs_do_not_change_the_result() {
        let cfg = quick();
        let (a, _) = run(&cfg, &Telemetry::disabled(), 1, &Heartbeat::disabled()).unwrap();
        let (b, _) = run(&cfg, &Telemetry::disabled(), 4, &Heartbeat::disabled()).unwrap();
        assert_eq!(a, b);
    }
}
