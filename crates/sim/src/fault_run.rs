//! The fault-campaign harness: replay the Figure 12 VM schedule against a
//! DTL device while a deterministic [`FaultPlan`](dtl_fault::FaultPlan)
//! fires ECC errors, link CRC corruption, and migration interruptions into
//! the run.
//!
//! The harness maps each [`FaultKind`] onto the corresponding injection
//! hook — device ECC reports drive the per-rank health tracker (and, past
//! the retirement threshold, automatic rank retirement), link CRC bursts go
//! through a [`RetryEngine`] charging replay latency and energy to
//! foreground traffic, and migration interruptions exercise the
//! crash-consistent replay/rollback paths. After **every** injected fault
//! the device's `check_invariants` is asserted, so any fault that could
//! leave the mapping tables, allocator, or SMC inconsistent fails the run
//! immediately.

use dtl_core::{DtlDevice, DtlError, HealthStats, MemoryBackend, UncorrectableReport};
use dtl_cxl::{LinkRetryStats, RetryEngine, RetryPolicy};
use dtl_dram::Picos;
use dtl_fault::{FaultInjector, FaultKind, FaultPlanConfig, StormConfig};
use dtl_telemetry::{BacklogSummary, LatencySummary, SloReport, Telemetry};
use serde::{Deserialize, Serialize};

use crate::powerdown_run::{replay_schedule, Foreground, Replayed, ScheduleDevice};
use crate::scenario::{horizon, Lane};
use crate::{PowerDownRunConfig, RunObservations};

/// Configuration of one faulted schedule replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRunConfig {
    /// The underlying schedule replay (duration, device shape, hosts).
    pub run: PowerDownRunConfig,
    /// The fault schedule. Its `duration`, `channels` and
    /// `ranks_per_channel` must match `run`.
    pub faults: FaultPlanConfig,
}

impl FaultRunConfig {
    /// A fault-free replay (quiet plan) — the baseline to compare against.
    /// A `run.duration_min` that wraps picosecond time gets a zero-length
    /// plan here; [`run_faulted`] refuses the configuration itself.
    pub fn fault_free(seed: u64, run: PowerDownRunConfig) -> Self {
        let duration = horizon(run.duration_min).unwrap_or(Picos::ZERO);
        FaultRunConfig {
            run,
            faults: FaultPlanConfig::quiet(seed, duration, run.channels, run.ranks_per_channel),
        }
    }

    /// The tiny campaign used by tests: background correctable noise, link
    /// CRC corruption, periodic migration interruptions, and an error storm
    /// on rank (0, 1) starting 10 minutes in.
    pub fn tiny_storm(seed: u64) -> Self {
        let run = PowerDownRunConfig::tiny(seed, true);
        let mut cfg = FaultRunConfig::fault_free(seed, run);
        cfg.faults.correctable_per_rank_per_sec = 0.002;
        cfg.faults.link_crc_per_sec = 0.05;
        cfg.faults.link_crc_max_burst = 6;
        cfg.faults.migration_interrupts = 12;
        cfg.faults.storm = Some(StormConfig {
            channel: 0,
            rank: 1,
            start: Picos::from_secs(600),
            events: 30,
            spacing: Picos::from_ms(250),
            correctable_ratio: 0.8,
        });
        cfg
    }
}

/// Result of one faulted replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRunResult {
    /// Total DRAM energy, millijoules.
    pub total_energy_mj: f64,
    /// Background share of the total.
    pub background_mj: f64,
    /// Mean DRAM power, milliwatts.
    pub mean_power_mw: f64,
    /// VMs placed.
    pub vms_allocated: u64,
    /// Faults injected over the run.
    pub faults_injected: u64,
    /// Device-wide error counters.
    pub errors: HealthStats,
    /// Mapped segments that were at risk when uncorrectable errors struck
    /// (summed over events; the host-visible blast radius).
    pub segments_at_risk: u64,
    /// Ranks the health tracker retired automatically.
    pub auto_retirements: u64,
    /// Ranks retired by the end of the run.
    pub ranks_retired: u64,
    /// Capacity permanently lost to retirement, bytes.
    pub capacity_lost_bytes: u64,
    /// Migration interruptions that hit an in-flight job.
    pub migration_interrupts: u64,
    /// Interrupted migrations that exhausted their retries and rolled back.
    pub migration_rollbacks: u64,
    /// Link retry activity (CRC errors, replays, give-ups, time, energy).
    pub link: LinkRetryStats,
    /// Foreground cache lines transferred over the run.
    pub foreground_lines: u64,
    /// Mean link-retry latency added per foreground line, nanoseconds —
    /// the foreground latency penalty of CRC faults.
    pub latency_penalty_ns: f64,
}

/// Replays a VM schedule with faults injected along the way. Fault
/// strikes, health transitions, CXL retries, and power transitions stream
/// into `telemetry`'s sink; an attached metrics registry additionally
/// receives the `fault.released.*` counters and every engine's statistics.
///
/// Beside the serialized [`FaultRunResult`] (pinned by replay tooling)
/// come the out-of-band [`RunObservations`]: link-transaction latency
/// (base round trip plus any CRC retry penalty), VM admission latency, the
/// migration-drain backlog, and the event spine's queue counters.
///
/// # Errors
///
/// Propagates device errors; an invariant violation after an injected
/// fault surfaces here as [`DtlError::Internal`].
pub fn run_faulted(
    cfg: &FaultRunConfig,
    telemetry: &Telemetry,
) -> Result<(FaultRunResult, RunObservations), DtlError> {
    // Before the plan is generated: its event count grows with its span.
    let duration_s = horizon(cfg.run.duration_min)?.as_secs_f64();
    let mut injector = cfg.faults.generate().injector();
    if let Some(m) = telemetry.metrics() {
        injector.set_metrics(m);
    }
    let mut link = RetryEngine::new(RetryPolicy::default());
    // Latency observations start from the CXL round trip (Table 1: 89 ns
    // added by the link); retry backoff stacks on top. Base latency feeds
    // only the SLO histogram — the energy/retry accounting in
    // [`LinkRetryStats`] is untouched.
    link.set_base_latency(dtl_cxl::LinkModel::cxl().round_trip());
    link.set_telemetry(telemetry.clone());
    // Grid ticks ride the shared schedule replay; faults fire on its side
    // lane at their exact scheduled instants instead of being quantized
    // up to the next tick. The only epoch hook is the bulk traffic: no
    // per-epoch power sampling here (see `IntervalSampler`).
    let mut lane = FaultLane { link, injector, segments_at_risk: 0, faults_injected: 0 };
    let mut traffic = Foreground { cfg: cfg.run, lines: 0 };
    let Replayed { dev, report, queue } =
        replay_schedule(&cfg.run, telemetry, &mut lane, &mut traffic)?;
    let foreground_lines = traffic.lines;

    let obs = RunObservations {
        slo: SloReport {
            access: LatencySummary::from_histogram(lane.link.latency_histogram()),
            admission: LatencySummary::from_histogram(dev.admission_histogram()),
            evac_backlog: BacklogSummary::from_parts(
                dev.drain_age_histogram(),
                dev.migration_backlog_high_water(),
            ),
            fabric_queue: None,
        },
        queue,
    };
    if let Some(m) = telemetry.metrics() {
        crate::export_queue_metrics(m, &obs.queue);
    }

    let ranks_retired = dev.powerdown_stats().ranks_retired;
    let rank_bytes = cfg.run.segs_per_rank(dev.config().segment_bytes) * dev.config().segment_bytes;
    let link_stats = lane.link.stats();
    let latency_penalty_ns = if foreground_lines == 0 {
        0.0
    } else {
        link_stats.retry_time.as_ns_f64() / foreground_lines as f64
    };
    let result = FaultRunResult {
        total_energy_mj: report.total.total_mj(),
        background_mj: report.total.background_mj,
        mean_power_mw: report.total.total_mj() / duration_s,
        vms_allocated: dev.stats().vms_allocated,
        faults_injected: lane.faults_injected,
        errors: dev.health_stats(),
        segments_at_risk: lane.segments_at_risk,
        auto_retirements: dev.stats().auto_retirements,
        ranks_retired,
        capacity_lost_bytes: ranks_retired * rank_bytes,
        migration_interrupts: dev.stats().migration_interrupts,
        migration_rollbacks: dev.migration_stats().rollbacks,
        link: link_stats,
        foreground_lines,
        latency_penalty_ns,
    };
    Ok((result, obs))
}

/// The faulted replay's side lane: releases faults at their exact
/// scheduled instants and asserts the device invariants after each.
struct FaultLane {
    link: RetryEngine,
    injector: FaultInjector,
    segments_at_risk: u64,
    faults_injected: u64,
}

impl Lane<ScheduleDevice> for FaultLane {
    fn next_at(&self) -> Option<Picos> {
        self.injector.peek_next_at()
    }

    fn fire(&mut self, dev: &mut ScheduleDevice, now: Picos) -> Result<(), DtlError> {
        for fault in self.injector.pop_due(now) {
            match apply_device_fault(dev, fault.kind, now)? {
                AppliedFault::Device(report) => {
                    self.segments_at_risk += report.map_or(0, |r| r.segments_at_risk);
                }
                AppliedFault::LinkCrc { burst } => {
                    // The corruption rides the link's own timer queue:
                    // scheduled at its exact fault instant and released
                    // immediately (the bulk-traffic model has no
                    // per-request stream to lag it behind), so the replay
                    // cost lands in the link's retry accounting. A finer
                    // traffic model can defer `release_due` to the next
                    // in-flight request without touching this path.
                    self.link.schedule_crc_burst(now, burst);
                    self.link.release_due(now);
                    self.link.on_submit_at(now);
                }
            }
            self.faults_injected += 1;
            dev.check_invariants()?;
        }
        Ok(())
    }
}

/// What [`apply_device_fault`] did with a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedFault {
    /// Injected into the device; an uncorrectable error reports its blast
    /// radius.
    Device(Option<UncorrectableReport>),
    /// Not the device's: a CRC burst for the caller's link.
    LinkCrc {
        /// Consecutive corrupted flits.
        burst: u32,
    },
}

/// The one place a [`FaultKind`] becomes a `DtlDevice` injection. A link
/// CRC burst is handed back: each caller has a link of its own kind.
///
/// # Errors
///
/// Propagates the device's error.
pub fn apply_device_fault<B: MemoryBackend>(
    dev: &mut DtlDevice<B>,
    kind: FaultKind,
    now: Picos,
) -> Result<AppliedFault, DtlError> {
    let report = match kind {
        FaultKind::CorrectableEcc { channel, rank } => {
            dev.inject_correctable_error(channel, rank, now)?;
            None
        }
        FaultKind::UncorrectableEcc { channel, rank } => {
            Some(dev.inject_uncorrectable_error(channel, rank, now)?)
        }
        FaultKind::LinkCrc { burst } => return Ok(AppliedFault::LinkCrc { burst }),
        FaultKind::MigrationInterrupt { channel } => {
            dev.inject_migration_interrupt(channel, now)?;
            None
        }
    };
    Ok(AppliedFault::Device(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fault_kind_becomes_one_device_injection_or_comes_back_for_the_link() {
        use dtl_core::{DtlConfig, HostId};
        let mut dev = DtlDevice::with_analytic_geometry(DtlConfig::tiny(), 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev.alloc_vm(HostId(0), dev.config().au_bytes, Picos::ZERO).unwrap();
        let t = Picos::from_us(1);
        let (channel, rank) = (0, 0);
        let applied = apply_device_fault(&mut dev, FaultKind::CorrectableEcc { channel, rank }, t);
        assert_eq!(applied, Ok(AppliedFault::Device(None)));
        let applied =
            apply_device_fault(&mut dev, FaultKind::UncorrectableEcc { channel, rank }, t);
        let Ok(AppliedFault::Device(Some(report))) = applied else {
            panic!("no blast radius: {applied:?}");
        };
        assert_eq!(
            report.segments_at_risk,
            dev.config().segments_per_au() / 2,
            "one channel's half"
        );
        let applied = apply_device_fault(&mut dev, FaultKind::MigrationInterrupt { channel }, t);
        assert_eq!(applied, Ok(AppliedFault::Device(None)));
        let errors = dev.health_stats();
        assert_eq!((errors.correctable_errors, errors.uncorrectable_errors), (1, 1));
        // The device has no link: a CRC burst is the caller's.
        let applied = apply_device_fault(&mut dev, FaultKind::LinkCrc { burst: 3 }, t);
        assert_eq!(applied, Ok(AppliedFault::LinkCrc { burst: 3 }));
        let outside = FaultKind::CorrectableEcc { channel: 9, rank };
        assert!(matches!(apply_device_fault(&mut dev, outside, t), Err(DtlError::Internal { .. })));
    }

    #[test]
    fn a_horizon_that_wraps_picosecond_time_is_a_config_error() {
        let run = PowerDownRunConfig { duration_min: 307_446, ..PowerDownRunConfig::tiny(7, true) };
        let cfg = FaultRunConfig::fault_free(7, run);
        assert_eq!(cfg.faults.duration, Picos::ZERO, "no plan over a span that does not exist");
        let err = run_faulted(&cfg, &Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, DtlError::InvalidConfig { .. }), "{err:?}");
        // The same through a plan that was given a real span.
        let mut storm = FaultRunConfig::tiny_storm(7);
        storm.run.duration_min = u32::MAX;
        let err = run_faulted(&storm, &Telemetry::disabled()).unwrap_err();
        assert!(matches!(err, DtlError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn fault_free_run_matches_quiet_plan() {
        let cfg = FaultRunConfig::fault_free(7, PowerDownRunConfig::tiny(7, true));
        let (r, _) = run_faulted(&cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(r.faults_injected, 0);
        assert_eq!(r.errors, HealthStats::default());
        assert_eq!(r.ranks_retired, 0);
        assert_eq!(r.capacity_lost_bytes, 0);
        assert_eq!(r.link, LinkRetryStats::default());
        assert!(r.total_energy_mj > 0.0);
        assert!(r.foreground_lines > 0);
    }

    #[test]
    fn storm_campaign_retires_the_victim() {
        let (r, _) = run_faulted(&FaultRunConfig::tiny_storm(7), &Telemetry::disabled()).unwrap();
        assert!(r.faults_injected > 0);
        assert!(r.errors.retire_trips >= 1, "the storm trips retirement");
        assert_eq!(r.auto_retirements, 1, "one victim rank auto-retired");
        assert_eq!(r.ranks_retired, 1);
        assert!(r.capacity_lost_bytes > 0);
        assert!(r.link.crc_errors > 0, "CRC faults reach the link");
        assert!(r.latency_penalty_ns >= 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run_faulted(&FaultRunConfig::tiny_storm(11), &Telemetry::disabled()).unwrap();
        let (b, _) = run_faulted(&FaultRunConfig::tiny_storm(11), &Telemetry::disabled()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quiet_plan_replays_the_plain_schedule() {
        // The shared replay's contract: with no fault to fire, the faulted
        // harness is `run_schedule` minus the per-epoch power sampling,
        // which only re-associates the energy integration.
        for powerdown in [false, true] {
            let run = PowerDownRunConfig::tiny(7, powerdown);
            let plain = crate::run_schedule(&run, &Telemetry::disabled()).unwrap();
            let (quiet, _) =
                run_faulted(&FaultRunConfig::fault_free(7, run), &Telemetry::disabled()).unwrap();
            assert_eq!(quiet.vms_allocated, plain.vms_allocated);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
            assert!(close(quiet.total_energy_mj, plain.total_energy_mj), "{quiet:?} vs {plain:?}");
            assert!(close(quiet.background_mj, plain.background_mj), "{quiet:?} vs {plain:?}");
        }
    }

    #[test]
    fn observed_run_reports_slo_and_queue_counters() {
        let cfg = FaultRunConfig::tiny_storm(7);
        let (r, obs) = run_faulted(&cfg, &Telemetry::disabled()).unwrap();
        let base = dtl_cxl::LinkModel::cxl().round_trip().as_ps();
        let access = obs.slo.access.expect("CRC bursts drive link transactions");
        assert!(access.count >= 1);
        assert!(access.p50_ps >= base, "latency includes the base round trip");
        let admission = obs.slo.admission.expect("the schedule admits VMs");
        assert_eq!(admission.count, r.vms_allocated);
        let backlog = obs.slo.evac_backlog.expect("deallocations queue drain migrations");
        assert!(backlog.completed > 0 || backlog.peak_depth > 0);
        assert!(obs.queue.posted > 0, "epoch grid rides the event spine");
    }
}
