//! `fleet_events` — the event-driven fleet replay (`vm_campaign`):
//! independent hosts, each a coarse-segment device driven only by VM
//! schedule instants and the device's own deadlines.

use std::collections::HashMap;
use std::sync::Arc;

use dtl_core::{AnalyticBackend, DtlError, HostId, VmHandle};
use dtl_dram::{Picos, PowerParams};
use dtl_event::EventId;
use dtl_sim::exec::derive_seed;
use dtl_sim::{HostOutcome, VmCampaignConfig, VmCampaignResult};
use dtl_telemetry::{Telemetry, TelemetrySink, TimeSeriesSink};
use dtl_trace::{VmEvent, VmEventKind, VmId, VmSchedule};

use super::{err, Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, as_u64, field};
use crate::layers::core::Device;
use crate::layers::event::Sim;
use crate::layers::{trace, Counters};
use crate::timed::TimedSink;

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "fleet_events",
    why: "event-driven fleet replay: dtl-core admission, dealloc-driven power-down and \
          migration do nearly all the work; no per-access traffic",
    op: "simulation events processed",
    exact: true,
    seeding: Seeding::Flag,
    runs,
    ops: |_, results| as_u64(field(results.first()?, "events_processed")?),
    headline: |results| {
        Some(Headline {
            name: "fleet background saving vs always-standby",
            value: as_f64(field(results.first()?, "savings_fraction")?)?,
            paper: None,
        })
    },
    prepare: |scale, seed| prepare(scale, seed, false),
    prepare_with_telemetry: Some(|scale, seed| prepare(scale, seed, true)),
};

/// Window of the telemetry pass's time series: the registry default.
const SERIES_WIDTH_S: u64 = 300;

/// Hosts and schedule minutes per host. The two-week horizon is kept at
/// ledger scale and the fleet cut instead: hosts are independent, so a
/// host-second costs the same in a fleet of 4 as in one of 20.
fn size(scale: Scale) -> (u32, u32) {
    match scale {
        Scale::Quick => (8, 24 * 60),
        Scale::Ledger => (4, 14 * 24 * 60),
    }
}

fn runs(scale: Scale) -> Vec<RegistryRun> {
    let (hosts, minutes) = size(scale);
    vec![RegistryRun::new(
        "vm_campaign",
        true,
        &["--hosts", &hosts.to_string(), "--minutes", &minutes.to_string()],
    )]
}

fn config(scale: Scale, seed: u64) -> VmCampaignConfig {
    let (hosts, duration_min) = size(scale);
    VmCampaignConfig { hosts, duration_min, ..VmCampaignConfig::paper(seed) }
}

struct Host {
    seed: u64,
    schedule: VmSchedule,
    dev: Device,
}

fn new_device(cfg: &VmCampaignConfig) -> Device {
    let dtl = cfg.dtl_config();
    let backend =
        AnalyticBackend::new(cfg.geometry(), dtl.segment_bytes, PowerParams::ddr4_128gb_dimm());
    Device::new(dtl, backend)
}

fn prepare(scale: Scale, seed: u64, telemetry: bool) -> Result<Run, String> {
    let cfg = config(scale, seed);
    let mut counters = Counters::default();
    let mut hosts = Vec::with_capacity(cfg.hosts as usize);
    for i in 0..u64::from(cfg.hosts) {
        let seed = derive_seed(cfg.seed, i);
        let schedule = trace::synthesize(seed, cfg.node, cfg.duration_min, &mut counters);
        let mut dev = new_device(&cfg);
        dev.set_hotness_enabled(false);
        dev.register_host(HostId(0)).map_err(err)?;
        if telemetry {
            let series = Arc::new(TimeSeriesSink::new(Picos::from_secs(SERIES_WIDTH_S).as_ps()));
            let geo = cfg.geometry();
            for c in 0..geo.channels {
                for r in 0..geo.ranks_per_channel {
                    series.ensure_rank(c, r);
                }
            }
            let sink: Arc<dyn TelemetrySink> = Arc::new(TimedSink(series));
            dev.set_telemetry(Telemetry::new(sink));
        }
        hosts.push(Host { seed, schedule, dev });
    }
    Ok(Box::new(move || simulate(&cfg, hosts, counters).map_err(err)))
}

enum HostEv {
    /// The next VM schedule instant has arrived.
    Schedule,
    /// The device's next internal deadline has arrived.
    Device,
}

fn at(ev: &VmEvent) -> Picos {
    Picos::from_secs(u64::from(ev.at_min) * 60)
}

fn replay(
    cfg: &VmCampaignConfig,
    host: Host,
    counters: &mut Counters,
) -> Result<HostOutcome, DtlError> {
    let Host { seed, schedule, mut dev } = host;
    let events = schedule.events();
    let horizon = cfg.horizon();
    let mut sim: Sim<HostEv> = Sim::new(Picos::ZERO);
    let mut cursor = 0usize;
    let mut handles: HashMap<VmId, VmHandle> = HashMap::new();
    let (mut vms_placed, mut vms_rejected) = (0u64, 0u64);
    // The in-queue device deadline: a changed `next_activity_at` cancels
    // and re-posts instead of leaving stale events behind.
    let mut device_ev: Option<(Picos, EventId)> = None;
    if let Some(ev) = events.first() {
        sim.post(at(ev), HostEv::Schedule);
    }
    // Drains posted by the last deallocation complete past the horizon;
    // the books close at the horizon.
    while sim.next_at().is_some_and(|t| t <= horizon) {
        let (now, ev) = sim.pop_next().expect("an event was due");
        match ev {
            HostEv::Schedule => {
                while let Some(ev) = events.get(cursor).filter(|ev| at(ev) <= now) {
                    cursor += 1;
                    match ev.kind {
                        VmEventKind::Alloc(vm) => {
                            match dev.alloc_vm(HostId(0), vm.mem_bytes, now) {
                                Ok(alloc) => {
                                    vms_placed += 1;
                                    handles.insert(vm.id, alloc.handle);
                                }
                                // AU rounding can overshoot a schedule at
                                // the node's capacity edge.
                                Err(DtlError::OutOfCapacity { .. }) => vms_rejected += 1,
                                Err(e) => return Err(e),
                            }
                        }
                        VmEventKind::Dealloc(id) => {
                            if let Some(h) = handles.remove(&id) {
                                dev.dealloc_vm(h, now)?;
                            }
                        }
                    }
                }
                if let Some(ev) = events.get(cursor) {
                    sim.post(at(ev), HostEv::Schedule);
                }
            }
            HostEv::Device => {
                device_ev = None;
                dev.tick(now)?;
            }
        }
        let want = dev.next_activity_at().map(|t| t.max(now));
        if want != device_ev.map(|(t, _)| t) {
            if let Some((_, id)) = device_ev.take() {
                sim.cancel(id);
            }
            if let Some(t) = want {
                device_ev = Some((t, sim.post(t, HostEv::Device)));
            }
        }
    }
    // Flush the last tick's power transitions into the telemetry stream.
    let _ = dev.drain_commands();
    let report = dev.power_report(horizon);
    dev.check_invariants()?;
    dev.count_into(counters);
    sim.count_into(counters);
    let pd = dev.powerdown_stats();
    Ok(HostOutcome {
        seed,
        vms_placed,
        vms_rejected,
        groups_powered_down: pd.groups_powered_down,
        groups_woken: pd.groups_woken,
        segments_drained: pd.segments_drained,
        events_processed: sim.events_processed(),
        energy_mj: report.total.total_mj(),
        background_mj: report.total.background_mj,
    })
}

fn simulate(
    cfg: &VmCampaignConfig,
    hosts: Vec<Host>,
    mut counters: Counters,
) -> Result<Outcome, DtlError> {
    const SAMPLE_HOSTS: usize = 8;
    let mut outcomes = Vec::with_capacity(hosts.len());
    for host in hosts {
        outcomes.push(replay(cfg, host, &mut counters)?);
    }
    // One host whose ranks never leave standby: the no-DTL baseline.
    let baseline_host = new_device(cfg).power_report(cfg.horizon()).total.total_mj();
    let mut out = VmCampaignResult {
        hosts: cfg.hosts,
        duration_min: cfg.duration_min,
        vms_placed: 0,
        vms_rejected: 0,
        groups_powered_down: 0,
        groups_woken: 0,
        segments_drained: 0,
        events_processed: 0,
        total_energy_mj: 0.0,
        baseline_energy_mj: baseline_host * f64::from(cfg.hosts),
        savings_fraction: 0.0,
        sample: Vec::new(),
    };
    for h in outcomes {
        out.vms_placed += h.vms_placed;
        out.vms_rejected += h.vms_rejected;
        out.groups_powered_down += h.groups_powered_down;
        out.groups_woken += h.groups_woken;
        out.segments_drained += h.segments_drained;
        out.events_processed += h.events_processed;
        out.total_energy_mj += h.energy_mj;
        if out.sample.len() < SAMPLE_HOSTS {
            out.sample.push(h);
        }
    }
    if out.baseline_energy_mj > 0.0 {
        out.savings_fraction = 1.0 - out.total_energy_mj / out.baseline_energy_mj;
    }
    Ok(Outcome { jsons: vec![dtl_sim::to_json(&out)], counters })
}
