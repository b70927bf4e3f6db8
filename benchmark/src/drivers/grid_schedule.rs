//! `grid_schedule` — the Figure 12 replay (`fig12`): a VM schedule against
//! one device, once with rank-level power-down off and once on, advanced
//! on the legacy 10 s tick grid with bulk per-epoch foreground traffic.
//!
//! Always at the registry's default seed: a few dozen large drains set
//! the cost of one six-hour schedule, which ranged from 3.5 s to 6.1 s
//! over six seeds, and the registry offers nothing between this size and
//! a 0.2 s one that varies more still.

use std::collections::HashMap;

use dtl_core::{
    AnalyticBackend, DtlConfig, DtlError, HostId, MemoryBackend, SegmentGeometry, VmHandle,
};
use dtl_dram::{Picos, PowerParams, PowerState};
use dtl_sim::experiments::fig12::{Fig12Result, Totals};
use dtl_sim::{IntervalSample, PowerDownRunConfig, PowerDownRunResult};
use dtl_telemetry::Telemetry;
use dtl_trace::{VmEventKind, VmId, VmSchedule};

use super::{err, Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, field};
use crate::layers::core::Device;
use crate::layers::event::{drive_epoch, GridClient, Sim};
use crate::layers::{trace, Counters};

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "grid_schedule",
    why: "the paper's headline experiment through the legacy tick grid: the same dtl-core \
          power-down layer as fleet_events, driven by polling instead of deadlines",
    op: "10 s grid ticks",
    exact: false,
    seeding: Seeding::Pinned(1),
    runs: |scale| vec![RegistryRun::new("fig12", scale == Scale::Quick, &[])],
    ops: |_, results| {
        let r = results.first()?;
        let intervals = field(r, "baseline")?.as_seq()?.len() + field(r, "dtl")?.as_seq()?.len();
        Some(intervals as u64 * (EPOCH_S / TICK_S))
    },
    headline: |results| {
        Some(Headline {
            name: "DRAM energy saving from rank-level power-down",
            value: as_f64(field(results.first()?, "energy_saving")?)?,
            paper: Some(0.316),
        })
    },
    prepare,
    prepare_with_telemetry: None,
};

const EPOCH_S: u64 = 300;
const TICK_S: u64 = 10;

/// The registry's execution-overhead inputs: Figure 5's CXL interleaving
/// cost plus the §6.1 translation inflation.
const EXEC_OVERHEAD: (f64, f64) = (0.014, 0.0018);

fn config(scale: Scale, seed: u64, powerdown: bool) -> PowerDownRunConfig {
    if scale == Scale::Quick {
        PowerDownRunConfig::tiny(seed, powerdown)
    } else {
        PowerDownRunConfig::paper(seed, powerdown)
    }
}

struct Replay {
    cfg: PowerDownRunConfig,
    dev: Device,
    schedule: VmSchedule,
}

fn set_up(cfg: PowerDownRunConfig, counters: &mut Counters) -> Result<Replay, DtlError> {
    let dtl = DtlConfig::paper();
    let geo = SegmentGeometry {
        channels: cfg.channels,
        ranks_per_channel: cfg.ranks_per_channel,
        segs_per_rank: cfg.segs_per_rank(dtl.segment_bytes),
    };
    let backend = AnalyticBackend::new(geo, dtl.segment_bytes, PowerParams::ddr4_128gb_dimm());
    let mut dev = Device::new(dtl, backend);
    dev.set_telemetry(Telemetry::disabled());
    dev.set_hotness_enabled(false);
    dev.set_powerdown_enabled(cfg.powerdown);
    for h in 0..cfg.hosts.max(1) {
        dev.register_host(HostId(h))?;
    }
    let schedule = trace::synthesize(cfg.seed, cfg.node, cfg.duration_min, counters);
    Ok(Replay { cfg, dev, schedule })
}

/// One epoch's tick body: advance the device, note in-flight migration.
struct DeviceEpoch<'x> {
    dev: &'x mut Device,
    migrating: &'x mut bool,
}

impl GridClient for DeviceEpoch<'_> {
    type Error = DtlError;

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        self.dev.tick(now)?;
        *self.migrating |= self.dev.migrations_pending() > 0;
        Ok(())
    }
}

/// Bulk foreground energy of one epoch, spread over the standby ranks.
fn record_epoch_traffic(dev: &mut Device, cfg: &PowerDownRunConfig, vcpus: u32, epoch: Picos) {
    let bytes = f64::from(vcpus) * cfg.per_vcpu_bw * epoch.as_secs_f64();
    let lines = (bytes / 64.0) as u64;
    let reads = (lines as f64 * cfg.read_fraction) as u64;
    let writes = lines - reads;
    let mut active: Vec<(u32, u32)> = Vec::new();
    for c in 0..cfg.channels {
        for r in 0..cfg.ranks_per_channel {
            if dev.backend().rank_state(c, r) == PowerState::Standby {
                active.push((c, r));
            }
        }
    }
    if active.is_empty() {
        return;
    }
    let per = active.len() as u64;
    for (c, r) in active {
        dev.backend_mut().0.record_foreground_bulk(c, r, reads / per, writes / per);
    }
}

fn replay(r: Replay, counters: &mut Counters) -> Result<PowerDownRunResult, DtlError> {
    let Replay { cfg, mut dev, schedule } = r;
    let mut handles: HashMap<VmId, (VmHandle, u32, u64)> = HashMap::new();
    let mut committed: u64 = 0;
    let mut vcpus_active: u32 = 0;
    let mut intervals = Vec::new();
    let mut events = schedule.events().iter().peekable();
    let mut prev_energy = 0.0f64;
    let epoch = Picos::from_secs(EPOCH_S);
    let tick_step = Picos::from_secs(TICK_S);
    let mut sim = Sim::new(Picos::ZERO);

    let mut t_min = 0u32;
    while t_min < cfg.duration_min {
        let t_start = Picos::from_secs(u64::from(t_min) * 60);
        while let Some(ev) = events.next_if(|ev| ev.at_min <= t_min) {
            match ev.kind {
                VmEventKind::Alloc(vm) => {
                    // VMs land round-robin on the compute hosts; one that
                    // AU rounding pushes past capacity goes elsewhere.
                    let host = HostId((vm.id.0 % u32::from(cfg.hosts.max(1))) as u16);
                    match dev.alloc_vm(host, vm.mem_bytes, t_start) {
                        Ok(alloc) => {
                            committed += vm.mem_bytes;
                            vcpus_active += vm.vcpus;
                            handles.insert(vm.id, (alloc.handle, vm.vcpus, vm.mem_bytes));
                        }
                        Err(DtlError::OutOfCapacity { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                VmEventKind::Dealloc(id) => {
                    if let Some((h, vcpus, bytes)) = handles.remove(&id) {
                        dev.dealloc_vm(h, t_start)?;
                        committed -= bytes;
                        vcpus_active -= vcpus;
                    }
                }
            }
        }
        record_epoch_traffic(&mut dev, &cfg, vcpus_active, epoch);
        let mut migrating = false;
        let moved_before = dev.migration_stats().bytes_moved;
        let t_end = t_start + epoch;
        let mut client = DeviceEpoch { dev: &mut dev, migrating: &mut migrating };
        drive_epoch(&mut sim, &mut client, t_start, t_end, tick_step)?;
        let migration_bytes = dev.migration_stats().bytes_moved - moved_before;
        // Energy delta [mJ] / time [s] = mW.
        let energy = dev.power_report(t_end).total.total_mj();
        let power_mw = (energy - prev_energy) / epoch.as_secs_f64();
        prev_energy = energy;
        let active_ranks: u32 = (0..cfg.channels).map(|c| dev.active_ranks(c)).sum();
        intervals.push(IntervalSample {
            t_min,
            active_ranks,
            power_mw,
            committed_bytes: committed,
            migrating: migrating || migration_bytes > 0,
            migration_bytes,
        });
        t_min += 5;
    }
    let final_t = Picos::from_secs(u64::from(cfg.duration_min) * 60);
    let report = dev.power_report(final_t);
    dev.check_invariants()?;
    dev.count_into(counters);
    sim.count_into(counters);
    let pd = dev.powerdown_stats();
    Ok(PowerDownRunResult {
        intervals,
        total_energy_mj: report.total.total_mj(),
        background_mj: report.total.background_mj,
        active_mj: report.total.active_mj(),
        segments_drained: pd.segments_drained,
        groups_powered_down: pd.groups_powered_down,
        groups_woken: pd.groups_woken,
        vms_allocated: dev.stats().vms_allocated,
    })
}

fn totals(r: &PowerDownRunResult) -> Totals {
    Totals {
        total_mj: r.total_energy_mj,
        background_mj: r.background_mj,
        active_mj: r.active_mj,
        mean_power_mw: r.mean_power_mw(),
    }
}

fn prepare(scale: Scale, seed: u64) -> Result<Run, String> {
    let mut counters = Counters::default();
    let baseline = set_up(config(scale, seed, false), &mut counters).map_err(err)?;
    let dtl = set_up(config(scale, seed, true), &mut counters).map_err(err)?;
    Ok(Box::new(move || {
        let baseline = replay(baseline, &mut counters).map_err(err)?;
        let dtl = replay(dtl, &mut counters).map_err(err)?;
        let result = Fig12Result {
            baseline_totals: totals(&baseline),
            dtl_totals: totals(&dtl),
            energy_saving: 1.0 - dtl.total_energy_mj / baseline.total_energy_mj,
            background_saving: 1.0 - dtl.background_mj / baseline.background_mj,
            power_saving: 1.0 - dtl.mean_power_mw() / baseline.mean_power_mw(),
            exec_overhead: EXEC_OVERHEAD.0 + EXEC_OVERHEAD.1,
            segments_drained: dtl.segments_drained,
            groups_powered_down: dtl.groups_powered_down,
            baseline: baseline.intervals,
            dtl: dtl.intervals,
        };
        Ok(Outcome { jsons: vec![dtl_sim::to_json(&result)], counters })
    }))
}
