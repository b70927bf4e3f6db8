//! `fabric_load` — synchronized access bursts through a dual-switch CXL
//! fabric (`fabric_load`): two placements × a four-step burst ladder, each
//! cell its own pool behind its own fabric.

use dtl_core::{DtlError, HostId};
use dtl_dram::{AccessKind, Picos};
use dtl_pool::{DeviceId, PoolVmId};
use dtl_sim::experiments::fabric_load::{ladder, FabricLoadResult, VARIANTS};
use dtl_sim::{FabricCellResult, FabricRunConfig};
use dtl_telemetry::Telemetry;

use super::{err, Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, as_u64, field};
use crate::layers::event::{drive_epoch, GridClient, GridEv, Sim};
use crate::layers::pool::Pool;
use crate::layers::{fabric, Counters};
use crate::span::{harness, iteration};

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "fabric_load",
    why: "reads through a pool behind a dual-switch fabric, the only run with dtl-fabric ports \
          and routes on the hot path; measured ~1/2 pool invariant sweep (one per cell), ~1/5 \
          pool.access, ~1/6 fabric",
    op: "accesses charged through the fabric",
    exact: false,
    seeding: Seeding::Flag,
    runs: |scale| vec![RegistryRun::new("fabric_load", scale == Scale::Quick, &[])],
    ops: |_, results| {
        let cells = field(results.first()?, "cells")?.as_seq()?;
        cells.iter().map(|c| as_u64(field(c, "accesses")?)).sum()
    },
    headline: |results| {
        let cells = field(results.first()?, "cells")?.as_seq()?;
        Some(Headline {
            name: "access p99 at the heaviest packed load, ps",
            value: as_f64(field(cells.get(cells.len() / 2 - 1)?, "access_p99_ps")?)?,
            paper: None,
        })
    },
    prepare,
    prepare_with_telemetry: None,
};

fn config(scale: Scale, seed: u64) -> FabricRunConfig {
    if scale == Scale::Quick {
        FabricRunConfig::tiny(seed)
    } else {
        FabricRunConfig::paper(seed)
    }
}

/// One (placement, burst) cell past its set-up.
struct Cell {
    cfg: FabricRunConfig,
    pool: Pool,
    vms: Vec<PoolVmId>,
}

fn set_up(cfg: FabricRunConfig) -> Result<Cell, DtlError> {
    let pool_cfg = cfg.pool_config();
    let ic = fabric::switched(cfg.topology(), pool_cfg.link, pool_cfg.retry)
        .expect("generated dual-switch topologies validate");
    let mut pool = Pool::new(pool_cfg, ic)?;
    pool.set_telemetry(Telemetry::disabled());
    for i in 0..cfg.devices {
        let dev = pool.device_mut(DeviceId(i)).expect("configured device");
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(true);
    }
    for h in 0..cfg.hosts {
        pool.register_host(HostId(h))?;
    }
    // Admission interleaves hosts so pack and spread place the same
    // per-host VM counts; each VM is one allocation unit.
    let au = pool.config().dtl.au_bytes;
    for _ in 0..cfg.vms_per_host {
        for h in 0..cfg.hosts {
            pool.alloc_vm(HostId(h), au, Picos::ZERO)?;
        }
    }
    let vms = pool.vm_ids();
    Ok(Cell { cfg, pool, vms })
}

/// A window as the grid's client: one pool tick at the window boundary.
struct Window<'x>(&'x mut Pool);

impl GridClient for Window<'_> {
    type Error = DtlError;

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        Ok(self.0.tick(now)?)
    }
}

fn run_cell(cell: Cell, counters: &mut Counters) -> Result<FabricCellResult, DtlError> {
    let Cell { cfg, mut pool, vms } = cell;
    let window = Picos::from_us(cfg.window_us);
    let mut sim: Sim<GridEv> = Sim::new(Picos::ZERO);
    let lines_per_au = pool.config().dtl.au_bytes / 64;
    for w in 0..cfg.windows {
        let t0 = window * u64::from(w);
        // Every VM fires its whole burst at the window start, VMs
        // interleaved so the pile-up at shared ports alternates hosts;
        // touched lines rotate with the seed and window.
        harness(|| -> Result<(), DtlError> {
            for k in 0..cfg.burst {
                for (v, vm) in vms.iter().enumerate() {
                    let line = (cfg.seed + u64::from(w) * 97 + k + v as u64) % lines_per_au;
                    iteration(|| pool.access(*vm, line * 64, AccessKind::Read, t0))?;
                }
            }
            Ok(())
        })?;
        drive_epoch(&mut sim, &mut Window(&mut pool), t0, t0 + window, window)?;
    }
    let end = cfg.horizon();
    pool.check_invariants()?;
    let slo = pool.slo_report();
    let access = slo.access.expect("every cell drives accesses");
    let queue = slo.fabric_queue.expect("fabric-backed pool reports port waits");
    let report = fabric::report(pool.interconnect(), end).expect("fabric-backed pool");
    let (host_share_min, host_share_max) = report.share_bounds();
    let dram_energy_mj = pool.pool_energy(end).total_mj();
    pool.count_into(counters);
    sim.count_into(counters);
    Ok(FabricCellResult {
        placement: cfg.placement,
        burst: cfg.burst,
        accesses: access.count,
        access_mean_ps: access.mean_ps,
        access_p50_ps: access.p50_ps,
        access_p99_ps: access.p99_ps,
        access_p999_ps: access.p999_ps,
        queue_mean_ps: queue.mean_ps,
        queue_p99_ps: queue.p99_ps,
        max_port_utilization: report.max_utilization,
        ports_used: report.ports_used,
        switch_port_energy_mj: report.port_energy_mj,
        dram_energy_mj,
        host_share_min,
        host_share_max,
    })
}

fn prepare(scale: Scale, seed: u64) -> Result<Run, String> {
    let base = config(scale, seed);
    let mut cells = Vec::new();
    for placement in VARIANTS {
        for burst in ladder(&base) {
            let cfg: FabricRunConfig = FabricRunConfig { placement, burst, ..base };
            cells.push(set_up(cfg).map_err(err)?);
        }
    }
    Ok(Box::new(move || {
        let mut counters = Counters::default();
        let mut out = Vec::with_capacity(cells.len());
        for cell in cells {
            out.push(run_cell(cell, &mut counters).map_err(err)?);
        }
        let result = FabricLoadResult { cells: out };
        Ok(Outcome { jsons: vec![dtl_sim::to_json(&result)], counters })
    }))
}
