//! The fleet-scale VM campaign harness: a thousand independent hosts,
//! each a DTL device with coarse (AU-sized) segments, replaying a
//! multi-week synthesized VM schedule — driven purely by posted events.
//!
//! This is the first harness with **no tick grid at all**: each host owns
//! a [`Simulation`] whose queue holds exactly two kinds of deadline — the
//! next VM schedule instant and the device's own
//! [`next_activity_at`](DtlDevice::next_activity_at) (migration
//! completions and queued-drain starts). Between events the analytic
//! backend integrates rank power-state residency in closed form, so a
//! two-week horizon costs only as many steps as things actually happen:
//! idle weekends are one subtraction, not two million ticks.
//!
//! Hosts are independent work units sharded over the [`crate::exec`]
//! engine; host *i* synthesizes its own schedule from
//! `derive_seed(seed, i)` inside its worker, so the result is
//! bit-identical for any `--jobs` value.

use dtl_core::{
    AnalyticBackend, DtlConfig, DtlDevice, DtlError, HostId, SegmentGeometry, VmHandle,
};
use dtl_dram::{Picos, PowerParams};
use dtl_event::{EventId, QueueStats, Simulation};
use dtl_telemetry::{
    BacklogSummary, Histogram, LatencySummary, SloReport, Telemetry, TimeSeries, TimeSeriesSink,
};
use dtl_trace::{NodeConfig, VmSchedule};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::assert_residency_consistency;
use crate::exec::derive_seed;
use crate::scenario::Tenants;
use crate::Heartbeat;

/// Configuration of one fleet campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmCampaignConfig {
    /// Base seed; host `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
    /// Independent hosts in the fleet.
    pub hosts: u32,
    /// Schedule length in minutes per host (paper-fleet: two weeks).
    pub duration_min: u32,
    /// The node each host's schedule is synthesized for.
    pub node: NodeConfig,
    /// DRAM channels per host device.
    pub channels: u32,
    /// Ranks per channel per host device.
    pub ranks_per_channel: u32,
}

impl VmCampaignConfig {
    /// The fleet the issue tracks: 1000 paper nodes (48 vCPU / 384 GB,
    /// 4x8 ranks) over a two-week schedule.
    pub fn paper(seed: u64) -> Self {
        VmCampaignConfig {
            seed,
            hosts: 1000,
            duration_min: 14 * 24 * 60,
            node: NodeConfig::paper(),
            channels: 4,
            ranks_per_channel: 8,
        }
    }

    /// A fast variant for tests and CI smoke: 8 hosts over one day.
    pub fn tiny(seed: u64) -> Self {
        VmCampaignConfig { hosts: 8, duration_min: 24 * 60, ..Self::paper(seed) }
    }

    /// The per-host DTL configuration: paper parameters with the segment
    /// coarsened to one AU channel-stripe (2 GiB / channels — the
    /// allocator spreads every AU equally over the channels). Fleet scale
    /// does not model per-line traffic, so finer translation granularity
    /// would only multiply table walks without changing any observable.
    pub fn dtl_config(&self) -> DtlConfig {
        let mut dtl = DtlConfig::paper();
        dtl.segment_bytes = dtl.au_bytes / u64::from(self.channels);
        dtl
    }

    /// Per-host device geometry implied by node capacity.
    pub fn geometry(&self) -> SegmentGeometry {
        let dtl = self.dtl_config();
        SegmentGeometry {
            channels: self.channels,
            ranks_per_channel: self.ranks_per_channel,
            segs_per_rank: self.node.mem_bytes
                / (u64::from(self.channels) * u64::from(self.ranks_per_channel))
                / dtl.segment_bytes,
        }
    }

    /// The campaign horizon.
    ///
    /// # Panics
    ///
    /// If `duration_min` exceeds 307 445 — picosecond time would wrap.
    pub fn horizon(&self) -> Picos {
        crate::scenario::horizon(self.duration_min).expect("duration_min fits picosecond time")
    }
}

/// One host's replay outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostOutcome {
    /// Derived host seed.
    pub seed: u64,
    /// VMs placed on this host.
    pub vms_placed: u64,
    /// VM admissions rejected for capacity (AU-rounding overshoot).
    pub vms_rejected: u64,
    /// Rank groups powered down over the run.
    pub groups_powered_down: u64,
    /// Rank groups woken for capacity.
    pub groups_woken: u64,
    /// Segments drained by power-down migrations.
    pub segments_drained: u64,
    /// Events the host's simulation processed.
    pub events_processed: u64,
    /// Total DRAM energy, millijoules.
    pub energy_mj: f64,
    /// Background share of the total.
    pub background_mj: f64,
}

/// Result of one fleet campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmCampaignResult {
    /// Hosts replayed.
    pub hosts: u32,
    /// Schedule length per host, minutes.
    pub duration_min: u32,
    /// VMs placed fleet-wide.
    pub vms_placed: u64,
    /// VM admissions rejected fleet-wide.
    pub vms_rejected: u64,
    /// Rank groups powered down fleet-wide.
    pub groups_powered_down: u64,
    /// Rank groups woken fleet-wide.
    pub groups_woken: u64,
    /// Segments drained fleet-wide.
    pub segments_drained: u64,
    /// Events processed across every host simulation — the denominator of
    /// the events/sec throughput figure (wall clock is measured outside
    /// the result so the JSON stays deterministic).
    pub events_processed: u64,
    /// Total fleet DRAM energy, millijoules.
    pub total_energy_mj: f64,
    /// Energy of the same fleet with every rank held in standby.
    pub baseline_energy_mj: f64,
    /// `1 - total / baseline` — the fleet-wide background savings.
    pub savings_fraction: f64,
    /// The first few hosts, for rendering and regression eyeballs.
    pub sample: Vec<HostOutcome>,
}

/// Fleet-wide out-of-band observability, folded from per-host replays in
/// host-index order. Not serialized — the pinned [`VmCampaignResult`]
/// stays byte-stable.
#[derive(Debug, Default)]
pub struct CampaignObservations {
    /// SLO report from merged per-host histograms: admission latency and
    /// migration-drain backlog (no per-access traffic is modeled at fleet
    /// scale, so the access section is absent).
    pub slo: SloReport,
    /// Event-spine queue counters summed over every host simulation
    /// (counts sum, high-water marks take the per-host max).
    pub queue: QueueStats,
    /// Merged windowed time series when a window width was requested.
    pub series: Option<TimeSeries>,
    /// Fleet-wide per-state rank residency from the end-of-run power
    /// reports, picoseconds — the reconciliation anchor for the series. A
    /// `u128` each: one two-week paper host's 32 ranks already pass
    /// `u64::MAX` picoseconds.
    pub residency_ps: [u128; 5],
}

/// What one host replay observed about itself, beside its [`HostOutcome`].
struct HostObservations {
    series: Option<TimeSeries>,
    admission: Histogram,
    drain_age: Histogram,
    backlog_high_water: u64,
    queue: QueueStats,
    residency_ps: [u128; 5],
}

/// The two deadline kinds a host queue holds.
enum HostEv {
    /// The next VM schedule instant has arrived.
    Schedule,
    /// The device's next internal deadline (migration completion or
    /// queued-drain start) has arrived.
    Device,
}

/// The instant a schedule event is due.
fn due_at(ev: &dtl_trace::VmEvent) -> Picos {
    Picos::from_secs(u64::from(ev.at_min) * 60)
}

/// Replays one host's schedule against its device up to `horizon`: a pop
/// loop over the two deadline kinds. Returns the tenants it placed.
fn replay_host(
    sim: &mut Simulation<HostEv>,
    dev: &mut DtlDevice<AnalyticBackend>,
    events: &[dtl_trace::VmEvent],
    horizon: Picos,
) -> Result<Tenants<VmHandle>, DtlError> {
    let mut cursor = 0;
    let mut tenants = Tenants::new(1);
    // The in-queue device deadline, so a changed `next_activity_at`
    // cancels and re-posts instead of accumulating stale events.
    let mut device_ev: Option<(Picos, EventId)> = None;
    if let Some(ev) = events.first() {
        sim.post(due_at(ev), HostEv::Schedule);
    }
    // Drains posted by the final deallocation complete microseconds past
    // the horizon; cut the books at the horizon like every other harness.
    while sim.next_at().is_some_and(|t| t <= horizon) {
        let (now, event) = sim.pop_next().expect("an event was due");
        match event {
            HostEv::Schedule => {
                while let Some(ev) = events.get(cursor).filter(|ev| due_at(ev) <= now) {
                    cursor += 1;
                    tenants.apply(dev, ev, now)?;
                }
                if let Some(ev) = events.get(cursor) {
                    sim.post(due_at(ev), HostEv::Schedule);
                }
            }
            HostEv::Device => {
                device_ev = None;
                dev.tick(now)?;
            }
        }
        // Re-arm after any work: the device's current deadline.
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
    Ok(tenants)
}

/// Replays one host of the fleet, returning its outcome plus the
/// out-of-band observations. When `series_width` is set the host's device
/// streams events into its **own** [`TimeSeriesSink`] (bounded memory —
/// one aggregate per window, never a buffered event trace); per-host
/// series merge in host order afterwards.
fn run_host(
    cfg: &VmCampaignConfig,
    index: u64,
    series_width: Option<u64>,
) -> Result<(HostOutcome, HostObservations), DtlError> {
    let seed = derive_seed(cfg.seed, index);
    let schedule = VmSchedule::synthesize(seed, cfg.node, cfg.duration_min);
    let backend =
        AnalyticBackend::new(cfg.geometry(), cfg.dtl_config().segment_bytes, host_power_params());
    let mut dev = DtlDevice::new(cfg.dtl_config(), backend);
    dev.set_hotness_enabled(false);
    dev.register_host(HostId(0))?;
    let series_sink = series_width.map(|w| Arc::new(TimeSeriesSink::new(w)));
    if let Some(sink) = &series_sink {
        let geo = cfg.geometry();
        for c in 0..geo.channels {
            for r in 0..geo.ranks_per_channel {
                sink.ensure_rank(c, r);
            }
        }
        dev.set_telemetry(Telemetry::new(sink.clone() as Arc<dyn dtl_telemetry::TelemetrySink>));
    }

    let mut sim = Simulation::new(Picos::ZERO);
    let horizon = cfg.horizon();
    let tenants = replay_host(&mut sim, &mut dev, schedule.events(), horizon)?;
    let (vms_placed, vms_rejected) = (tenants.placed(), tenants.rejected());
    // Power transitions performed during the final tick sit in the backend
    // until the next drain; flush them so the telemetry stream (and the
    // windowed series folded from it) covers the whole run.
    let _ = dev.drain_commands();

    let report = dev.power_report(horizon);
    dev.check_invariants()?;
    assert_residency_consistency(&dev, &report);
    let outcome = HostOutcome {
        seed,
        vms_placed,
        vms_rejected,
        groups_powered_down: dev.powerdown_stats().groups_powered_down,
        groups_woken: dev.powerdown_stats().groups_woken,
        segments_drained: dev.powerdown_stats().segments_drained,
        events_processed: sim.events_processed(),
        energy_mj: report.total.total_mj(),
        background_mj: report.total.background_mj,
    };
    let mut residency_ps = [0u128; 5];
    for ch in &report.residency {
        for rank in ch {
            for (total, p) in residency_ps.iter_mut().zip(rank.iter()) {
                *total += u128::from(p.as_ps());
            }
        }
    }
    let obs = HostObservations {
        series: series_sink.map(|s| s.finish(horizon.as_ps())),
        admission: dev.admission_histogram().clone(),
        drain_age: dev.drain_age_histogram().clone(),
        backlog_high_water: dev.migration_backlog_high_water(),
        queue: sim.queue_stats(),
        residency_ps,
    };
    Ok((outcome, obs))
}

fn host_power_params() -> PowerParams {
    PowerParams::ddr4_128gb_dimm()
}

/// The energy of one host whose ranks never leave standby — the no-DTL
/// fleet baseline, identical for every host and computed once.
fn baseline_host_energy_mj(cfg: &VmCampaignConfig) -> f64 {
    let mut dev: DtlDevice<AnalyticBackend> = DtlDevice::new(
        cfg.dtl_config(),
        AnalyticBackend::new(cfg.geometry(), cfg.dtl_config().segment_bytes, host_power_params()),
    );
    dev.power_report(cfg.horizon()).total.total_mj()
}

/// Runs the fleet campaign with hosts as parallel work units sharded
/// across `jobs` workers.
///
/// Beside the serialized [`VmCampaignResult`] come the fleet's out-of-band
/// [`CampaignObservations`]: merged SLO histograms, summed event-spine
/// queue counters, and (when `series_width` is set) the merged windowed
/// time series. Hosts are independent replays whose results and
/// observations fold in host-index order, so every byte — including the
/// series CSV — is identical for any `jobs`. The heartbeat ticks once per
/// completed host; it is wall-clock-only stderr output and cannot perturb
/// the result.
///
/// # Errors
///
/// Propagates device errors (these indicate bugs — the harness never
/// over-commits a host).
pub fn run_campaign(
    cfg: &VmCampaignConfig,
    jobs: usize,
    series_width: Option<u64>,
    heartbeat: &Heartbeat,
) -> Result<(VmCampaignResult, CampaignObservations), DtlError> {
    const SAMPLE_HOSTS: usize = 8;
    // An error here, not a panic in every worker at `cfg.horizon()`.
    crate::scenario::horizon(cfg.duration_min)?;
    let units: Vec<u32> = (0..cfg.hosts).collect();
    let total_units = u64::from(cfg.hosts);
    let outcomes = crate::exec::run_units(jobs, units, |i, _| {
        let host = run_host(cfg, i as u64, series_width);
        heartbeat.tick(total_units);
        host
    });
    let baseline_host = baseline_host_energy_mj(cfg);
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
    let mut admission = Histogram::default();
    let mut drain_age = Histogram::default();
    let mut backlog_high_water = 0u64;
    let mut queue = QueueStats::default();
    let mut series = series_width.map(TimeSeries::new);
    let mut residency_ps = [0u128; 5];
    for outcome in outcomes {
        let (h, host_obs) = outcome?;
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
        admission.merge_from(&host_obs.admission);
        drain_age.merge_from(&host_obs.drain_age);
        backlog_high_water = backlog_high_water.max(host_obs.backlog_high_water);
        queue.merge_from(&host_obs.queue);
        if let (Some(fleet), Some(host_series)) = (&mut series, &host_obs.series) {
            fleet.merge_from(host_series);
        }
        for (total, r) in residency_ps.iter_mut().zip(host_obs.residency_ps) {
            *total += r;
        }
    }
    if out.baseline_energy_mj > 0.0 {
        out.savings_fraction = 1.0 - out.total_energy_mj / out.baseline_energy_mj;
    }
    let obs = CampaignObservations {
        slo: SloReport {
            access: None,
            admission: LatencySummary::from_histogram(&admission),
            evac_backlog: BacklogSummary::from_parts(&drain_age, backlog_high_water),
            fabric_queue: None,
        },
        queue,
        series,
        residency_ps,
    };
    Ok((out, obs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_horizon_that_wraps_picosecond_time_is_a_config_error() {
        let cfg = VmCampaignConfig { duration_min: 307_446, ..VmCampaignConfig::tiny(7) };
        let err = run_campaign(&cfg, 2, None, &Heartbeat::disabled()).unwrap_err();
        assert!(matches!(err, DtlError::InvalidConfig { .. }), "{err:?}");
        let last = VmCampaignConfig { duration_min: 307_445, ..cfg };
        assert_eq!(last.horizon(), Picos::from_secs(18_446_700));
    }

    #[test]
    fn tiny_campaign_places_and_saves() {
        let (r, _) =
            run_campaign(&VmCampaignConfig::tiny(7), 1, None, &Heartbeat::disabled()).unwrap();
        assert_eq!(r.hosts, 8);
        assert!(r.vms_placed > 100, "a day of schedule places many VMs: {}", r.vms_placed);
        assert!(r.groups_powered_down > 0, "consolidation must park rank groups");
        assert!(
            r.savings_fraction > 0.05 && r.savings_fraction < 0.90,
            "fleet savings out of range: {}",
            r.savings_fraction
        );
        assert!(r.events_processed > 0);
    }

    #[test]
    fn jobs_do_not_change_the_fleet() {
        let cfg = VmCampaignConfig::tiny(11);
        let (a, _) = run_campaign(&cfg, 1, None, &Heartbeat::disabled()).unwrap();
        let (b, _) = run_campaign(&cfg, 3, None, &Heartbeat::disabled()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn series_residency_reconciles_with_power_reports_bit_for_bit() {
        // The windowed series is folded from events; the power reports
        // integrate residency inside the backends. Summing the series'
        // per-state columns must reproduce the reports' totals exactly.
        let mut cfg = VmCampaignConfig::tiny(7);
        cfg.hosts = 2;
        let width = Picos::from_secs(3600).as_ps();
        let (r, obs) = run_campaign(&cfg, 1, Some(width), &Heartbeat::disabled()).unwrap();
        let series = obs.series.expect("a width was requested");
        assert_eq!(series.residency_totals_ps(), obs.residency_ps);
        let geo = cfg.geometry();
        let ranks = u128::from(geo.channels) * u128::from(geo.ranks_per_channel) * 2;
        // The residency clock may run ahead of the horizon by at most one
        // in-flight exit latency per rank (`residency_slack`).
        let total = series.residency_totals_ps().iter().sum::<u128>();
        let floor = u128::from(cfg.horizon().as_ps()) * ranks;
        assert!(
            total >= floor && total - floor <= ranks * u128::from(Picos::from_ns(200).as_ps()),
            "every rank accounts the full horizon: {total} vs {floor}"
        );
        assert!(r.vms_placed > 0);
    }

    #[test]
    fn series_and_slo_are_identical_for_any_job_count() {
        let cfg = VmCampaignConfig::tiny(11);
        let width = Picos::from_secs(3600).as_ps();
        let (a, obs_a) = run_campaign(&cfg, 1, Some(width), &Heartbeat::disabled()).unwrap();
        let (b, obs_b) = run_campaign(&cfg, 3, Some(width), &Heartbeat::disabled()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            obs_a.series.as_ref().unwrap().to_csv(),
            obs_b.series.as_ref().unwrap().to_csv(),
            "series CSV must be byte-identical across job counts"
        );
        assert_eq!(obs_a.slo, obs_b.slo);
        assert_eq!(obs_a.queue, obs_b.queue);
    }

    #[test]
    fn heartbeat_and_series_do_not_perturb_the_result() {
        let mut cfg = VmCampaignConfig::tiny(5);
        cfg.hosts = 2;
        let (plain, _) = run_campaign(&cfg, 1, None, &Heartbeat::disabled()).unwrap();
        let width = Picos::from_secs(3600).as_ps();
        let (observed, obs) =
            run_campaign(&cfg, 1, Some(width), &Heartbeat::new(true, "test")).unwrap();
        assert_eq!(plain, observed, "observability must never change a result byte");
        assert!(obs.slo.admission.is_some(), "fleet admissions populate the SLO");
        assert!(obs.queue.posted > 0);
    }

    #[test]
    fn event_count_scales_with_activity_not_horizon() {
        // Doubling the horizon of an otherwise-identical host roughly
        // doubles schedule activity, but the event count stays far below
        // what any 10 s tick grid would burn.
        let cfg = VmCampaignConfig { hosts: 1, ..VmCampaignConfig::tiny(3) };
        let (r, _) = run_campaign(&cfg, 1, None, &Heartbeat::disabled()).unwrap();
        let grid_ticks = u64::from(cfg.duration_min) * 6;
        assert!(
            r.events_processed < grid_ticks / 4,
            "event-driven host must beat the tick grid: {} events vs {} ticks",
            r.events_processed,
            grid_ticks
        );
    }
}
