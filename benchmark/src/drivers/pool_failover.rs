//! `pool_failover` — seeded device-retirement campaigns (`pool_failover`):
//! the VM schedule against a four-device pool over point-to-point links
//! while a fault plan fires ECC noise, link CRC bursts and whole-device
//! retirements at exact instants; a reachability sweep after every
//! retirement counts lost allocation units.
//!
//! Always at the registry's default seed: an invariant sweep after every
//! injected fault is nearly all of the cost, so it follows the fault
//! count of the plan, which moved the wall by a fifth over ten seeds.

use std::collections::HashMap;

use dtl_core::{DtlError, HostId, MemoryBackend};
use dtl_dram::{AccessKind, Picos};
use dtl_fault::{FaultKind, PoolFaultInjector, PoolFaultKind};
use dtl_pool::{DeviceId, PoolError, PoolVmId};
use dtl_sim::exec::derive_seed;
use dtl_sim::experiments::pool_failover::{FailoverCampaign, PoolFailoverResult};
use dtl_sim::{PoolFaultRunConfig, PoolFaultRunResult, PoolRunConfig};
use dtl_telemetry::Telemetry;
use dtl_trace::{VmEvent, VmEventKind, VmId};

use super::{err, Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, field};
use crate::layers::event::{drive_epoch, GridClient, GridEv, Sim};
use crate::layers::pool::Pool;
use crate::layers::{fabric, fault, trace, Counters};

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "pool_failover",
    why: "a dtl-fault plan against a 4-device pool: measured ~96 % of the wall is the pool \
          invariant sweep after every injected fault; admission, evacuation and retirement are \
          ~3 %, which wall_s cannot show",
    op: "campaign grid ticks",
    exact: false,
    seeding: Seeding::Pinned(1),
    runs: |_| {
        vec![RegistryRun::new("pool_failover", true, &["--campaigns", &CAMPAIGNS.to_string()])]
    },
    ops: |_, _| {
        let minutes = u64::from(PoolRunConfig::tiny(0).duration_min);
        Some(CAMPAIGNS * minutes * 60 / TICK_S)
    },
    headline: |results| {
        Some(Headline {
            name: "allocation units lost across retirements",
            value: as_f64(field(results.first()?, "total_lost_aus")?)?,
            paper: None,
        })
    },
    prepare,
    prepare_with_telemetry: None,
};

const EPOCH_S: u64 = 300;
const TICK_S: u64 = 10;

/// One tiny campaign replays for about three seconds, so a single one is
/// run (the issue's size was two).
const CAMPAIGNS: u64 = 1;

/// One campaign past its set-up.
struct Campaign {
    seed: u64,
    retirements: u16,
    cfg: PoolRunConfig,
    pool: Pool,
    events: Vec<VmEvent>,
    injector: PoolFaultInjector,
}

fn set_up(base: &PoolRunConfig, index: u64, counters: &mut Counters) -> Result<Campaign, DtlError> {
    let seed = derive_seed(base.seed, index);
    let retirements = 1 + (index % 2) as u16;
    let cfg = PoolRunConfig { seed, ..*base };
    let faulted = PoolFaultRunConfig::retirement_campaign(seed, cfg, retirements);
    let injector = fault::plan(&faulted.faults);
    let pool_cfg = cfg.pool_config();
    let wires = fabric::point_to_point(pool_cfg.link, pool_cfg.retry, pool_cfg.devices);
    let mut pool = Pool::new(pool_cfg, wires)?;
    pool.set_telemetry(Telemetry::disabled());
    for i in 0..cfg.devices {
        let dev = pool.device_mut(DeviceId(i)).expect("configured device");
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(true);
    }
    for h in 0..cfg.hosts.max(1) {
        pool.register_host(HostId(h))?;
    }
    let schedule = trace::synthesize(cfg.seed, cfg.node, cfg.duration_min, counters);
    Ok(Campaign { seed, retirements, cfg, pool, events: schedule.events().to_vec(), injector })
}

/// Counts allocation units no access can reach.
fn count_unreachable(pool: &mut Pool, now: Picos) -> u64 {
    let au = pool.config().dtl.au_bytes;
    let mut lost = 0u64;
    for vm in pool.vm_ids() {
        let bytes = pool.vm_bytes(vm).expect("listed VM is live");
        for i in 0..(bytes / au) {
            if pool.access(vm, i * au, AccessKind::Read, now).is_err() {
                lost += 1;
            }
        }
    }
    lost
}

/// One epoch's grid client: ticks advance the pool, the side lane
/// releases the plan's faults at their exact instants.
struct PoolEpoch<'x> {
    pool: &'x mut Pool,
    injector: &'x mut PoolFaultInjector,
    faults_injected: &'x mut u64,
    lost_aus: &'x mut u64,
}

impl PoolEpoch<'_> {
    fn apply(&mut self, kind: PoolFaultKind, now: Picos) -> Result<(), DtlError> {
        match kind {
            PoolFaultKind::Device { device, kind } => {
                let id = DeviceId(device);
                let missing = || DtlError::Internal { reason: format!("no device {device}") };
                match kind {
                    FaultKind::CorrectableEcc { channel, rank } => {
                        self.pool
                            .device_mut(id)
                            .ok_or_else(missing)?
                            .inject_correctable_error(channel, rank, now)?;
                    }
                    FaultKind::UncorrectableEcc { channel, rank } => {
                        self.pool
                            .device_mut(id)
                            .ok_or_else(missing)?
                            .inject_uncorrectable_error(channel, rank, now)?;
                    }
                    FaultKind::LinkCrc { burst } => self.pool.inject_crc_burst(id, burst)?,
                    FaultKind::MigrationInterrupt { channel } => {
                        self.pool
                            .device_mut(id)
                            .ok_or_else(missing)?
                            .inject_migration_interrupt(channel, now)?;
                    }
                }
            }
            PoolFaultKind::RetireDevice { device } => {
                self.pool.retire_device(DeviceId(device), now)?;
                // Every shard must stay reachable through the retirement:
                // sweep while evacuations are still in flight.
                *self.lost_aus += count_unreachable(self.pool, now);
            }
        }
        Ok(())
    }
}

impl GridClient for PoolEpoch<'_> {
    type Error = DtlError;

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        Ok(self.pool.tick(now)?)
    }

    fn side_deadline(&mut self) -> Option<Picos> {
        self.injector.peek_next_at()
    }

    fn side_fire(&mut self, now: Picos) -> Result<(), DtlError> {
        for fault in self.injector.pop_due(now) {
            self.apply(fault.kind, now)?;
            *self.faults_injected += 1;
            self.pool.check_invariants()?;
        }
        Ok(())
    }
}

/// Bulk foreground energy of one epoch, split across every data-retaining
/// rank of the pool.
fn record_epoch_traffic(
    pool: &mut Pool,
    cfg: &PoolRunConfig,
    vcpus: u32,
    epoch: Picos,
    now: Picos,
) {
    let bytes = f64::from(vcpus) * cfg.per_vcpu_bw * epoch.as_secs_f64();
    let lines = (bytes / 64.0) as u64;
    let reads = (lines as f64 * cfg.read_fraction) as u64;
    let writes = lines - reads;
    let mut active: Vec<(u16, u32, u32)> = Vec::new();
    for i in 0..cfg.devices {
        let dev = pool.device(DeviceId(i)).expect("configured device");
        for c in 0..cfg.channels {
            for r in 0..cfg.ranks_per_channel {
                if dev.backend().rank_state(c, r).retains_data() {
                    active.push((i, c, r));
                }
            }
        }
    }
    if active.is_empty() {
        return;
    }
    let per = active.len() as u64;
    for (i, c, r) in active {
        let dev = pool.device_mut(DeviceId(i)).expect("configured device");
        dev.backend_mut().0.record_foreground_bulk(c, r, reads / per, writes / per);
        dev.note_rank_traffic(c, r, now);
    }
}

fn replay(c: Campaign, counters: &mut Counters) -> Result<FailoverCampaign, DtlError> {
    let Campaign { seed, retirements, cfg, mut pool, events, mut injector } = c;
    let mut events = events.into_iter().peekable();
    let mut handles: HashMap<VmId, (PoolVmId, u32, u64)> = HashMap::new();
    let mut vcpus_active: u32 = 0;
    let (mut faults_injected, mut lost_aus) = (0u64, 0u64);
    let epoch = Picos::from_secs(EPOCH_S);
    let tick_step = Picos::from_secs(TICK_S);
    let mut sim: Sim<GridEv> = Sim::new(Picos::ZERO);
    let au = pool.config().dtl.au_bytes;

    let mut t_min = 0u32;
    while t_min < cfg.duration_min {
        let t_start = Picos::from_secs(u64::from(t_min) * 60);
        while let Some(ev) = events.next_if(|ev| ev.at_min <= t_min) {
            match ev.kind {
                VmEventKind::Alloc(vm) => {
                    let host = HostId((vm.id.0 % u32::from(cfg.hosts.max(1))) as u16);
                    match pool.alloc_vm(host, vm.mem_bytes, t_start) {
                        Ok(id) => {
                            vcpus_active += vm.vcpus;
                            handles.insert(vm.id, (id, vm.vcpus, vm.mem_bytes));
                        }
                        // AU rounding can overshoot a schedule at the
                        // capacity edge; such VMs go elsewhere.
                        Err(PoolError::NoCapacity { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                VmEventKind::Dealloc(id) => {
                    if let Some((vm, vcpus, _)) = handles.remove(&id) {
                        pool.dealloc_vm(vm, t_start)?;
                        vcpus_active -= vcpus;
                    }
                }
            }
        }
        record_epoch_traffic(&mut pool, &cfg, vcpus_active, epoch, t_start);
        // One translated read per live VM per epoch (`trickle_burst`), at a
        // rotating AU offset: keeps the links and the SMC path exercised.
        let round = u64::from(t_min) / 5;
        let burst = cfg.trickle_burst.max(1);
        for vm in pool.vm_ids() {
            let bytes = pool.vm_bytes(vm).expect("listed VM is live");
            let base = (round % (bytes / au).max(1)) * au;
            for k in 0..burst {
                pool.access(vm, base + (k * 64) % au, AccessKind::Read, t_start)?;
            }
        }
        let mut client = PoolEpoch {
            pool: &mut pool,
            injector: &mut injector,
            faults_injected: &mut faults_injected,
            lost_aus: &mut lost_aus,
        };
        drive_epoch(&mut sim, &mut client, t_start, t_start + epoch, tick_step)?;
        // The registry harness samples energy and a snapshot per epoch for
        // its interval table; the campaign result does not carry them, but
        // the energy read integrates the backends, so it is repeated.
        let _ = pool.pool_energy(t_start + epoch);
        let _ = pool.snapshot();
        t_min += 5;
    }
    let final_t = Picos::from_secs(u64::from(cfg.duration_min) * 60);
    lost_aus += count_unreachable(&mut pool, final_t);
    let energy = pool.pool_energy(final_t);
    pool.check_invariants()?;
    let snap = pool.snapshot();
    pool.count_into(counters);
    sim.count_into(counters);
    counters.add("fault.injected", faults_injected as f64);
    let result = PoolFaultRunResult {
        total_energy_mj: energy.total_mj(),
        vms_allocated: snap.stats.admitted_vms,
        faults_injected,
        devices_retired: snap.stats.devices_retired,
        failovers: snap.stats.failovers,
        evacuations_completed: snap.stats.evacuations_completed,
        segments_evacuated: snap.stats.segments_evacuated,
        lost_aus,
        errors: snap.errors,
        link: snap.link,
        stats: snap.stats,
    };
    Ok(FailoverCampaign { seed, retirements, result })
}

fn prepare(_: Scale, seed: u64) -> Result<Run, String> {
    let base = PoolRunConfig::tiny(seed);
    let mut counters = Counters::default();
    let mut campaigns_ready = Vec::new();
    for i in 0..CAMPAIGNS {
        campaigns_ready.push(set_up(&base, i, &mut counters).map_err(err)?);
    }
    Ok(Box::new(move || {
        let mut out = PoolFailoverResult {
            campaigns: Vec::new(),
            total_lost_aus: 0,
            total_devices_retired: 0,
            total_failovers: 0,
            total_evacuations: 0,
            total_segments_evacuated: 0,
        };
        for c in campaigns_ready {
            let c = replay(c, &mut counters).map_err(err)?;
            out.total_lost_aus += c.result.lost_aus;
            out.total_devices_retired += c.result.devices_retired;
            out.total_failovers += c.result.failovers;
            out.total_evacuations += c.result.evacuations_completed;
            out.total_segments_evacuated += c.result.segments_evacuated;
            out.campaigns.push(c);
        }
        Ok(Outcome { jsons: vec![dtl_sim::to_json(&out)], counters })
    }))
}
