//! The fabric-load harness: drive synchronized access bursts from several
//! hosts through a switched CXL fabric into a [`MemoryPool`] and measure
//! what port contention does to tail latency — and what topology-aware
//! placement does to switch-port energy.
//!
//! One *cell* fixes a placement policy (pack-under-one-switch vs
//! spread-across-switches) and an offered load (accesses per VM per
//! window). Every window, each VM fires its burst at the window-start
//! instant; the fabric's FIFO ports serialize the pile-up analytically, so
//! queue wait — and hence the access p99 — grows with the burst while the
//! windows between bursts let idle ports sleep. The pool is driven on the
//! `dtl-event` spine, one tick per window.

use dtl_core::{DtlError, HostId};
use dtl_dram::{AccessKind, Picos};
use dtl_fabric::{CxlFabric, TopologyConfig};
use dtl_pool::{DeviceId, MemoryPool, PlacementPolicy, PoolConfig};
use dtl_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

use crate::scenario::Clock;
use crate::RunObservations;

/// Configuration of one fabric-load cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricRunConfig {
    /// Offset seed rotating each VM's touched cache lines across windows.
    pub seed: u64,
    /// Placement policy — the topology-aware placement axis: pack puts
    /// every VM under one switch, spread fans them across both.
    pub placement: PlacementPolicy,
    /// Accesses each VM fires at every window start (the offered load).
    pub burst: u64,
    /// Number of burst windows.
    pub windows: u32,
    /// Window length, microseconds.
    pub window_us: u64,
    /// Hosts driving traffic (each gets its own fabric up ports).
    pub hosts: u16,
    /// Pooled devices behind the fabric.
    pub devices: u16,
    /// VMs admitted per host.
    pub vms_per_host: u16,
    /// Use paper-scale device geometry instead of the tiny one.
    pub paper_scale: bool,
}

impl FabricRunConfig {
    /// The tiny cell: 2 hosts × 4 devices on a dual-switch fabric, 30
    /// one-second windows.
    pub fn tiny(seed: u64) -> Self {
        FabricRunConfig {
            seed,
            placement: PlacementPolicy::PackForPower,
            burst: 32,
            windows: 30,
            window_us: 1_000_000,
            hosts: 2,
            devices: 4,
            vms_per_host: 2,
            paper_scale: false,
        }
    }

    /// The paper-scale cell: 4 hosts × 8 devices, 60 windows.
    pub fn paper(seed: u64) -> Self {
        FabricRunConfig {
            seed,
            placement: PlacementPolicy::PackForPower,
            burst: 64,
            windows: 60,
            window_us: 1_000_000,
            hosts: 4,
            devices: 8,
            vms_per_host: 2,
            paper_scale: true,
        }
    }

    /// The derived pool configuration: fabric cells disable the power
    /// coordinator so the placement axis stays a pure topology choice
    /// (the coordinator would drain spread placements back into packs).
    pub fn pool_config(&self) -> PoolConfig {
        let mut cfg = if self.paper_scale {
            PoolConfig::paper(self.devices)
        } else {
            PoolConfig::tiny(self.devices)
        };
        cfg.policy = self.placement;
        cfg.coordinator.enabled = false;
        cfg
    }

    /// The dual-switch topology the cell runs over.
    pub fn topology(&self) -> TopologyConfig {
        TopologyConfig::dual_switch(self.hosts, self.devices)
    }

    /// The cell's horizon.
    pub fn horizon(&self) -> Picos {
        Picos::from_us(self.window_us) * u64::from(self.windows)
    }
}

/// Result of one fabric-load cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricCellResult {
    /// Placement policy of the cell.
    pub placement: PlacementPolicy,
    /// Accesses per VM per window.
    pub burst: u64,
    /// Total accesses charged through the fabric.
    pub accesses: u64,
    /// Mean end-to-end access latency, picoseconds.
    pub access_mean_ps: f64,
    /// Median access latency, picoseconds.
    pub access_p50_ps: u64,
    /// 99th-percentile access latency, picoseconds.
    pub access_p99_ps: u64,
    /// 99.9th-percentile access latency, picoseconds.
    pub access_p999_ps: u64,
    /// Mean port queue wait, picoseconds.
    pub queue_mean_ps: f64,
    /// 99th-percentile port queue wait, picoseconds.
    pub queue_p99_ps: u64,
    /// Highest per-port wire utilization, 0..=1.
    pub max_port_utilization: f64,
    /// Fabric ports that carried at least one transfer.
    pub ports_used: u64,
    /// Energy of every switch port over the horizon, millijoules.
    pub switch_port_energy_mj: f64,
    /// Pool DRAM energy over the horizon, millijoules.
    pub dram_energy_mj: f64,
    /// Smallest per-host share of fabric bytes, 0..=1.
    pub host_share_min: f64,
    /// Largest per-host share of fabric bytes, 0..=1.
    pub host_share_max: f64,
}

impl FabricCellResult {
    /// Stable placement label used in tables and CI drift gates.
    pub fn placement_label(&self) -> &'static str {
        placement_label(self.placement)
    }
}

/// Stable label of a placement variant.
pub fn placement_label(placement: PlacementPolicy) -> &'static str {
    match placement {
        PlacementPolicy::PackForPower => "pack_one_switch",
        PlacementPolicy::SpreadForBandwidth => "spread_switches",
    }
}

/// Runs one fabric-load cell. Fabric port events stream into `telemetry`;
/// beside the serialized [`FabricCellResult`] come the out-of-band
/// [`RunObservations`] (SLO report including the fabric-queue population,
/// plus event-spine counters).
///
/// # Errors
///
/// Propagates pool/device errors (the harness never over-commits the
/// pool or routes to unreachable devices).
pub fn run_fabric_cell(
    cfg: &FabricRunConfig,
    telemetry: &Telemetry,
) -> Result<(FabricCellResult, RunObservations), DtlError> {
    let pool_cfg = cfg.pool_config();
    let fabric = CxlFabric::new(cfg.topology(), pool_cfg.link, pool_cfg.retry)
        .expect("generated dual-switch topologies validate");
    let mut pool = MemoryPool::analytic_with_interconnect(pool_cfg, Box::new(fabric))?;
    pool.set_telemetry(telemetry.clone());
    for i in 0..cfg.devices {
        let dev = pool.device_mut(DeviceId(i)).expect("configured device");
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(true);
    }
    for h in 0..cfg.hosts {
        pool.register_host(HostId(h))?;
    }
    // Admission order interleaves hosts so pack and spread place the same
    // per-host VM counts; each VM is one allocation unit.
    let au = pool.config().dtl.au_bytes;
    for _ in 0..cfg.vms_per_host {
        for h in 0..cfg.hosts {
            pool.alloc_vm(HostId(h), au, Picos::ZERO)?;
        }
    }
    let vms = pool.vm_ids();
    let window = Picos::from_us(cfg.window_us);
    let mut clock = Clock::default();
    let lines_per_au = au / 64;
    for w in 0..cfg.windows {
        let t0 = window * u64::from(w);
        // Every VM fires its whole burst at the window-start instant;
        // interleaving VMs in the inner loop makes the FIFO pile-up at
        // shared ports alternate between hosts, the worst case for any
        // unfair queue. Touched lines rotate with the seed and window so
        // the SMC sees fresh offsets.
        for k in 0..cfg.burst {
            for (v, vm) in vms.iter().enumerate() {
                let line = (cfg.seed + u64::from(w) * 97 + k + v as u64) % lines_per_au;
                pool.access(*vm, line * 64, AccessKind::Read, t0)?;
            }
        }
        // One pool tick at the window boundary.
        clock.run(&mut pool, &mut (), (t0, t0 + window, window), |_, _| {})?;
    }
    let end = cfg.horizon();
    pool.check_invariants()?;
    let slo = pool.slo_report();
    let obs = RunObservations { slo, queue: clock.queue_stats() };
    let access = slo.access.expect("every cell drives accesses");
    let queue = slo.fabric_queue.expect("fabric-backed pool reports port waits");
    let report = pool.interconnect().fabric_report(end).expect("fabric-backed pool");
    let (host_share_min, host_share_max) = report.share_bounds();
    let dram_energy_mj = pool.pool_energy(end).total_mj();
    Ok((
        FabricCellResult {
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
        },
        obs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_raises_tail_latency_with_offered_load() {
        let mut cfg = FabricRunConfig::tiny(3);
        cfg.windows = 6;
        cfg.burst = 8;
        let (light, _) = run_fabric_cell(&cfg, &Telemetry::disabled()).unwrap();
        cfg.burst = 512;
        let (heavy, _) = run_fabric_cell(&cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(light.accesses, 8 * 4 * 6);
        assert!(heavy.access_p99_ps > light.access_p99_ps, "{heavy:?} vs {light:?}");
        assert!(heavy.queue_mean_ps > light.queue_mean_ps);
        assert!(heavy.max_port_utilization > light.max_port_utilization);
    }

    #[test]
    fn packing_under_one_switch_saves_port_energy() {
        let mut cfg = FabricRunConfig::tiny(3);
        cfg.windows = 6;
        let (pack, _) = run_fabric_cell(&cfg, &Telemetry::disabled()).unwrap();
        cfg.placement = PlacementPolicy::SpreadForBandwidth;
        let (spread, _) = run_fabric_cell(&cfg, &Telemetry::disabled()).unwrap();
        assert!(pack.ports_used < spread.ports_used, "{pack:?} vs {spread:?}");
        assert!(pack.switch_port_energy_mj < spread.switch_port_energy_mj);
        // Equal per-host traffic must see equal fabric shares either way.
        assert!((pack.host_share_min - pack.host_share_max).abs() < 1e-12);
        assert!((spread.host_share_min - spread.host_share_max).abs() < 1e-12);
    }

    #[test]
    fn cells_are_deterministic() {
        let mut cfg = FabricRunConfig::tiny(11);
        cfg.windows = 4;
        cfg.burst = 16;
        let (a, _) = run_fabric_cell(&cfg, &Telemetry::disabled()).unwrap();
        let (b, _) = run_fabric_cell(&cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(a, b);
    }
}
