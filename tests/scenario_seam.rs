//! The public seam of `dtl_sim::scenario`, driven from outside the crate
//! the way the perf ledger's traced drivers will: a recording [`World`]
//! around a tiny device, the test's own [`EpochHooks`], and
//! [`replay_epochs`] in between — checked against `run_schedule`, the
//! harness built on the same driver.

use dtl_core::{
    AnalyticBackend, DtlConfig, DtlDevice, DtlError, HostId, MemoryBackend, SegmentGeometry,
    VmHandle,
};
use dtl_dram::{Picos, PowerParams, PowerState};
use dtl_sim::scenario::{replay_epochs, Epoch, EpochHooks, World, EPOCH, TICK_STEP};
use dtl_sim::{run_schedule, PowerDownRunConfig};
use dtl_telemetry::Telemetry;
use dtl_trace::{VmEventKind, VmSchedule};

/// A device that logs every call the driver makes on it.
struct Recording {
    dev: DtlDevice<AnalyticBackend>,
    ticks: Vec<Picos>,
    admits: usize,
    releases: usize,
}

impl World for Recording {
    type Vm = VmHandle;

    fn admit(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<Option<VmHandle>, DtlError> {
        self.admits += 1;
        self.dev.admit(host, bytes, now)
    }

    fn release(&mut self, vm: VmHandle, now: Picos) -> Result<(), DtlError> {
        self.releases += 1;
        self.dev.release(vm, now)
    }

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        self.ticks.push(now);
        World::tick(&mut self.dev, now)
    }
}

/// The schedule replay's bulk foreground traffic, restated (the harness's
/// own hook is private), plus a log of the epochs seen.
struct Traffic {
    cfg: PowerDownRunConfig,
    epochs: Vec<Epoch>,
    ticks_seen: usize,
}

impl EpochHooks<Recording> for Traffic {
    fn begin(&mut self, world: &mut Recording, epoch: &Epoch) -> Result<(), DtlError> {
        let bytes = f64::from(epoch.vcpus) * self.cfg.per_vcpu_bw * EPOCH.as_secs_f64();
        let lines = (bytes / 64.0) as u64;
        let reads = (lines as f64 * self.cfg.read_fraction) as u64;
        let writes = lines - reads;
        let dev = &mut world.dev;
        let mut standby = Vec::new();
        for c in 0..self.cfg.channels {
            for r in 0..self.cfg.ranks_per_channel {
                if dev.backend().rank_state(c, r) == PowerState::Standby {
                    standby.push((c, r));
                }
            }
        }
        let per = standby.len() as u64;
        for (c, r) in standby {
            dev.backend_mut().record_foreground_bulk(c, r, reads / per, writes / per);
        }
        Ok(())
    }

    fn after_tick(&mut self, _: &mut Recording, _: Picos) {
        self.ticks_seen += 1;
    }

    fn end(&mut self, _: &mut Recording, epoch: &Epoch) {
        self.epochs.push(*epoch);
    }
}

#[test]
fn an_outside_world_and_hooks_reproduce_the_schedule_harness() {
    let cfg = PowerDownRunConfig::tiny(7, true);
    let dtl_cfg = DtlConfig::paper();
    let geo = SegmentGeometry {
        channels: cfg.channels,
        ranks_per_channel: cfg.ranks_per_channel,
        segs_per_rank: cfg.segs_per_rank(dtl_cfg.segment_bytes),
    };
    let backend = AnalyticBackend::new(geo, dtl_cfg.segment_bytes, PowerParams::ddr4_128gb_dimm());
    let mut dev = DtlDevice::new(dtl_cfg, backend);
    dev.set_hotness_enabled(false);
    dev.set_powerdown_enabled(cfg.powerdown);
    for h in 0..cfg.hosts {
        dev.register_host(HostId(h)).unwrap();
    }
    let mut world = Recording { dev, ticks: Vec::new(), admits: 0, releases: 0 };
    let mut hooks = Traffic { cfg, epochs: Vec::new(), ticks_seen: 0 };
    let schedule = VmSchedule::synthesize(cfg.seed, cfg.node, cfg.duration_min);
    let (tenants, queue) =
        replay_epochs(&mut world, &schedule, cfg.hosts, &mut (), &mut hooks).unwrap();

    // 30 ticks per epoch, at the instants of the legacy poll loop.
    let mut legacy = Vec::new();
    for t_min in (0..cfg.duration_min).step_by(5) {
        let mut t = Picos::from_secs(u64::from(t_min) * 60);
        let end = t + EPOCH;
        while t < end {
            t += TICK_STEP;
            legacy.push(t);
        }
    }
    assert_eq!(world.ticks, legacy);
    assert_eq!(world.ticks.len(), 30 * hooks.epochs.len());
    assert_eq!(hooks.ticks_seen, world.ticks.len());
    assert_eq!(queue.posted, queue.popped, "every epoch drains the clock");
    assert_eq!(hooks.epochs.len() as u32, cfg.duration_min / 5);
    assert!(hooks.epochs.iter().all(|e| e.end == e.start + EPOCH));

    // One admit per allocation event, one release per deallocation event
    // (events at the horizon itself belong to no epoch).
    let due = || schedule.events().iter().filter(|e| e.at_min < cfg.duration_min);
    let allocs = due().filter(|e| matches!(e.kind, VmEventKind::Alloc(_))).count();
    assert_eq!(world.admits, allocs);
    assert_eq!(tenants.rejected(), 0, "the tiny schedule fits its node");
    assert_eq!(world.releases, due().count() - allocs);
    assert_eq!(hooks.epochs.last().unwrap().committed_bytes, tenants.committed_bytes());

    // Same end state as the harness. Energy is not bitwise equal: the
    // harness samples `power_report` every epoch, which re-associates the
    // float integration.
    let plain = run_schedule(&cfg, &Telemetry::disabled()).unwrap();
    assert_eq!(world.dev.stats().vms_allocated, plain.vms_allocated);
    assert_eq!(tenants.placed(), plain.vms_allocated);
    let horizon = Picos::from_secs(u64::from(cfg.duration_min) * 60);
    let energy = world.dev.power_report(horizon).total.total_mj();
    assert!(
        (energy - plain.total_energy_mj).abs() <= 1e-9 * plain.total_energy_mj,
        "{energy} vs {}",
        plain.total_energy_mj
    );
}
