//! Per-rank error-health tracking: a leaky-bucket error counter per rank
//! feeding a `Healthy → Degraded → Draining → Retired` lifecycle.
//!
//! The DTL's indirection makes rank *retirement* as software-transparent as
//! rank power-down (the reliability extension the paper's conclusion points
//! to). This module supplies the trigger: ECC error reports accumulate in a
//! per-rank leaky bucket; a rank whose bucket crosses the degraded
//! threshold is flagged, and crossing the retirement threshold asks the
//! device to drain and retire the rank. The bucket leaks over time, so
//! sparse background errors (a few per hour) never trip a healthy rank,
//! while an error storm — many errors in seconds — does.
//!
//! The tracker records error arrivals and bucket levels; the *effective*
//! health of a rank is derived by combining the bucket state with the
//! rank's power-down lifecycle ([`RankPdState`]), so the two state machines
//! cannot disagree.
//!
//! The faults themselves enter through the [`PowerCtl`] entries at the end
//! of this module, one per cause — an ECC error, an explicit retirement, a
//! migration interrupt. Rank coordinates from outside the device pass one
//! bounds test (`HealthTracker::check_rank`) and every health transition is
//! reported from one place (`HealthTracker::transition`).

use dtl_dram::Picos;
use dtl_telemetry::{EventKind, FaultKindId, HealthStateId, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::SegmentGeometry;
use crate::backend::MemoryBackend;
use crate::error::DtlError;
use crate::migrate::MigrationInterrupt;
use crate::power::{PowerCtl, RankPdState};

/// Error-health lifecycle of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankHealth {
    /// No concerning error history.
    Healthy,
    /// The error bucket crossed the degraded threshold (or retirement was
    /// requested but could not proceed): the rank is suspect but still
    /// serving data.
    Degraded,
    /// Retirement triggered and live segments are migrating out.
    Draining,
    /// Permanently retired: powered down, never allocated again.
    Retired,
}

impl RankHealth {
    /// The telemetry mirror of this health state.
    pub fn telemetry_id(self) -> HealthStateId {
        match self {
            RankHealth::Healthy => HealthStateId::Healthy,
            RankHealth::Degraded => HealthStateId::Degraded,
            RankHealth::Draining => HealthStateId::Draining,
            RankHealth::Retired => HealthStateId::Retired,
        }
    }
}

/// Host-visible impact of an injected uncorrectable error
/// ([`DtlDevice::inject_uncorrectable_error`](crate::DtlDevice::inject_uncorrectable_error)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UncorrectableReport {
    /// Live (mapped) segments resident in the faulting rank when the error
    /// struck — the blast radius reported to hosts as poisoned.
    pub segments_at_risk: u64,
    /// The rank's health after recording the error.
    pub health: RankHealth,
}

/// Leaky-bucket parameters of the health tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthParams {
    /// Bucket units drained per second of error-free operation.
    pub leak_per_sec: f64,
    /// Bucket level at which a rank becomes [`RankHealth::Degraded`].
    pub degraded_threshold: f64,
    /// Bucket level at which retirement is requested.
    pub retire_threshold: f64,
    /// Bucket units added per correctable error (uncorrectable errors add
    /// [`HealthParams::uncorrectable_weight`]).
    pub correctable_weight: f64,
    /// Bucket units added per uncorrectable error.
    pub uncorrectable_weight: f64,
}

impl Default for HealthParams {
    fn default() -> Self {
        // A rank survives indefinite background noise below ~1 error/s but
        // a storm of a dozen correctable (or two uncorrectable) errors in a
        // few seconds trips retirement.
        HealthParams {
            leak_per_sec: 1.0,
            degraded_threshold: 6.0,
            retire_threshold: 12.0,
            correctable_weight: 1.0,
            uncorrectable_weight: 8.0,
        }
    }
}

/// Serializable per-rank error counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankErrorRecord {
    /// Correctable errors recorded on the rank.
    pub correctable: u64,
    /// Uncorrectable errors recorded on the rank.
    pub uncorrectable: u64,
    /// Current leaky-bucket level (as of the last recorded error).
    pub bucket: f64,
}

/// Aggregate health statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthStats {
    /// Correctable errors recorded device-wide.
    pub correctable_errors: u64,
    /// Uncorrectable errors recorded device-wide.
    pub uncorrectable_errors: u64,
    /// Ranks whose bucket crossed the retirement threshold.
    pub retire_trips: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct RankCell {
    errors: RankErrorRecord,
    last_update: Picos,
    /// Latched once the bucket crosses the degraded threshold.
    degraded: bool,
    /// Latched once the bucket crosses the retirement threshold.
    tripped: bool,
}

/// Tracks error history per rank and decides when retirement is due.
#[derive(Debug)]
pub struct HealthTracker {
    geo: SegmentGeometry,
    params: HealthParams,
    cells: Vec<RankCell>,
    stats: HealthStats,
    telemetry: Telemetry,
}

impl HealthTracker {
    /// Builds a tracker with every rank healthy.
    pub fn new(geo: SegmentGeometry, params: HealthParams) -> Self {
        let n = (geo.channels * geo.ranks_per_channel) as usize;
        HealthTracker {
            geo,
            params,
            cells: vec![RankCell::default(); n],
            stats: HealthStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle: every health transition of a rank is
    /// emitted through it as a `HealthTransition` event.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The one bounds test of rank coordinates that arrive from outside the
    /// device (`rank` = `None`: a channel alone).
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] outside the geometry.
    pub(crate) fn check_rank(&self, channel: u32, rank: Option<u32>) -> Result<(), DtlError> {
        if channel < self.geo.channels && rank.is_none_or(|r| r < self.geo.ranks_per_channel) {
            return Ok(());
        }
        let rank = rank.map_or(String::new(), |r| format!("/rk{r}"));
        Err(DtlError::Internal { reason: format!("ch{channel}{rank} outside the device geometry") })
    }

    /// The one place a rank's health transition is reported.
    pub(crate) fn transition(
        &self,
        (channel, rank): (u32, u32),
        (from, to): (RankHealth, RankHealth),
        now: Picos,
    ) {
        if from != to {
            let (from, to) = (from.telemetry_id(), to.telemetry_id());
            self.telemetry
                .emit(now.as_ps(), EventKind::HealthTransition { channel, rank, from, to });
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }

    fn idx(&self, channel: u32, rank: u32) -> usize {
        (channel * self.geo.ranks_per_channel + rank) as usize
    }

    /// Records an ECC error, correctable or not. Returns `true` when it
    /// tripped the retirement threshold for the first time.
    pub fn record(&mut self, channel: u32, rank: u32, uncorrectable: bool, now: Picos) -> bool {
        let i = self.idx(channel, rank);
        let RankCell { errors, last_update, degraded, tripped } = &mut self.cells[i];
        let weight = if uncorrectable {
            self.stats.uncorrectable_errors += 1;
            errors.uncorrectable += 1;
            self.params.uncorrectable_weight
        } else {
            self.stats.correctable_errors += 1;
            errors.correctable += 1;
            self.params.correctable_weight
        };
        // Leak since the last error, then add this one.
        let dt = now.saturating_sub(*last_update).as_secs_f64();
        errors.bucket = (errors.bucket - dt * self.params.leak_per_sec).max(0.0) + weight;
        *last_update = now;
        let degrades = errors.bucket >= self.params.degraded_threshold && !*degraded;
        let trips = errors.bucket >= self.params.retire_threshold && !*tripped;
        *degraded |= degrades;
        *tripped |= trips;
        self.stats.retire_trips += u64::from(trips);
        if degrades {
            self.transition((channel, rank), (RankHealth::Healthy, RankHealth::Degraded), now);
        }
        trips
    }

    /// The rank's error counters and bucket level.
    pub fn counters(&self, channel: u32, rank: u32) -> RankErrorRecord {
        self.cells[self.idx(channel, rank)].errors
    }

    /// The rank's effective health, derived from its error history and its
    /// power-down lifecycle:
    ///
    /// * a retired rank is [`RankHealth::Retired`] no matter why;
    /// * a tripped rank whose drain is in progress is
    ///   [`RankHealth::Draining`];
    /// * a degraded-or-tripped rank that is still serving (e.g. retirement
    ///   was refused for capacity) is [`RankHealth::Degraded`];
    /// * everything else is [`RankHealth::Healthy`].
    pub fn health(&self, channel: u32, rank: u32, lifecycle: RankPdState) -> RankHealth {
        let cell = self.cells[self.idx(channel, rank)];
        match lifecycle {
            RankPdState::Retired => RankHealth::Retired,
            RankPdState::Draining if cell.tripped => RankHealth::Draining,
            _ if cell.degraded => RankHealth::Degraded,
            _ => RankHealth::Healthy,
        }
    }
}

/// The fault entries. Everything a fault touches is in the [`PowerCtl`]
/// view, whose `retire` does the draining, so they are entries of that view
/// kept here, next to the tracker they feed.
impl<B: MemoryBackend> PowerCtl<'_, B> {
    fn injected(&self, kind: FaultKindId, channel: u32, rank: Option<u32>, now: Picos) {
        let channel = Some(channel);
        self.telemetry.emit(now.as_ps(), EventKind::FaultInjected { kind, channel, rank });
    }

    fn rank_health(&self, channel: u32, rank: u32) -> RankHealth {
        self.health.health(channel, rank, self.state.lifecycle(channel, rank))
    }

    /// An ECC error on a rank: it feeds the rank's leaky bucket, and
    /// crossing the retirement threshold retires the rank — unless the
    /// channel cannot spare it right now (last active rank, or no capacity
    /// anywhere to absorb its data): then it stays `Degraded` and serving.
    /// Reports the rank's health after the error and, for an uncorrectable
    /// one, the live segments at risk.
    pub(crate) fn ecc_error(
        &mut self,
        uncorrectable: bool,
        channel: u32,
        rank: u32,
        now: Picos,
    ) -> Result<UncorrectableReport, DtlError> {
        self.health.check_rank(channel, Some(rank))?;
        let (kind, segments_at_risk) = if uncorrectable {
            let at_risk = self.tables.mapped_in_rank(channel, rank).count() as u64;
            (FaultKindId::UncorrectableEcc, at_risk)
        } else {
            (FaultKindId::CorrectableEcc, 0)
        };
        self.injected(kind, channel, Some(rank), now);
        if self.health.record(channel, rank, uncorrectable, now) {
            match self.retire_rank(channel, rank, now) {
                Ok(()) => self.stats.auto_retirements += 1,
                Err(DtlError::OutOfCapacity { .. } | DtlError::Internal { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(UncorrectableReport { segments_at_risk, health: self.rank_health(channel, rank) })
    }

    /// Retires a rank for good ([`PowerCtl::retire`]) and reports the
    /// health transition that made.
    pub(crate) fn retire_rank(
        &mut self,
        channel: u32,
        rank: u32,
        now: Picos,
    ) -> Result<(), DtlError> {
        self.health.check_rank(channel, Some(rank))?;
        let before = self.rank_health(channel, rank);
        self.retire(channel, rank, now)?;
        let moved = (before, self.rank_health(channel, rank));
        self.health.transition((channel, rank), moved, now);
        Ok(())
    }

    /// Cuts off the channel's in-flight migration mid-transfer. A job the
    /// engine rolled back for good is the caller's to unwind.
    pub(crate) fn migration_interrupt(
        &mut self,
        channel: u32,
        now: Picos,
    ) -> Result<MigrationInterrupt, DtlError> {
        self.health.check_rank(channel, None)?;
        self.injected(FaultKindId::MigrationInterrupt, channel, None, now);
        let outcome = self.migrate.interrupt_channel(channel, now);
        self.stats.migration_interrupts += u64::from(outcome != MigrationInterrupt::Idle);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `record`'s `uncorrectable` argument.
    const CE: bool = false;
    const UE: bool = true;

    fn tracker() -> HealthTracker {
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
        HealthTracker::new(geo, HealthParams::default())
    }

    #[test]
    fn sparse_errors_leak_away() {
        let mut t = tracker();
        // One error every 10 s for a minute: bucket never accumulates.
        for k in 0..6u64 {
            let tripped = t.record(0, 0, CE, Picos::from_secs(k * 10));
            assert!(!tripped);
        }
        assert_eq!(t.health(0, 0, RankPdState::Active), RankHealth::Healthy);
        assert_eq!(t.counters(0, 0).correctable, 6);
        assert!(t.counters(0, 0).bucket <= 1.0 + 1e-9);
    }

    #[test]
    fn dense_correctable_storm_trips_retirement() {
        let mut t = tracker();
        let mut tripped = false;
        for k in 0..20u64 {
            tripped |= t.record(1, 2, CE, Picos::from_ms(k * 10));
        }
        assert!(tripped);
        // Tripping latches: a later error does not re-trip.
        assert!(!t.record(1, 2, CE, Picos::from_secs(1)));
        assert_eq!(t.stats().retire_trips, 1);
        // Other ranks are untouched.
        assert_eq!(t.health(1, 3, RankPdState::Active), RankHealth::Healthy);
    }

    #[test]
    fn uncorrectable_errors_weigh_heavier() {
        let mut t = tracker();
        assert!(!t.record(0, 1, UE, Picos::from_ms(1)));
        assert_eq!(t.health(0, 1, RankPdState::Active), RankHealth::Degraded);
        assert!(t.record(0, 1, UE, Picos::from_ms(2)), "second one trips");
    }

    #[test]
    fn health_follows_lifecycle() {
        let mut t = tracker();
        for k in 0..20u64 {
            t.record(0, 0, CE, Picos::from_ms(k));
        }
        assert_eq!(t.health(0, 0, RankPdState::Active), RankHealth::Degraded);
        assert_eq!(t.health(0, 0, RankPdState::Draining), RankHealth::Draining);
        assert_eq!(t.health(0, 0, RankPdState::Retired), RankHealth::Retired);
        // A rank draining for power-down (no error history) stays healthy.
        assert_eq!(t.health(1, 1, RankPdState::Draining), RankHealth::Healthy);
        assert_eq!(t.health(1, 1, RankPdState::Retired), RankHealth::Retired);
    }

    #[test]
    fn stats_aggregate_across_ranks() {
        let mut t = tracker();
        t.record(0, 0, CE, Picos::ZERO);
        t.record(1, 0, UE, Picos::ZERO);
        assert_eq!(t.stats().correctable_errors, 1);
        assert_eq!(t.stats().uncorrectable_errors, 1);
    }

    #[test]
    fn rank_coordinates_pass_one_bounds_test() {
        let t = tracker();
        assert!(t.check_rank(1, Some(3)).is_ok());
        assert!(t.check_rank(1, None).is_ok());
        for (channel, rank) in [(2, None), (2, Some(0)), (0, Some(4)), (u32::MAX, Some(u32::MAX))] {
            let err = t.check_rank(channel, rank).unwrap_err();
            assert!(matches!(err, DtlError::Internal { .. }), "{err}");
        }
    }

    /// Every step of a rank's way out of service is reported once, through
    /// the tracker's own handle — which new health parameters keep — and a
    /// rank outside the device is an error, not an index out of bounds.
    #[test]
    fn a_retirement_reports_each_health_transition_once() {
        use crate::{DtlConfig, DtlDevice, HostId};
        use dtl_telemetry::{RingSink, TelemetrySink};
        use std::sync::Arc;

        let mut dev = DtlDevice::with_analytic_geometry(DtlConfig::tiny(), 2, 4, 32);
        dev.set_hotness_enabled(false);
        let sink = Arc::new(RingSink::with_capacity(4096));
        dev.set_telemetry(Telemetry::new(sink.clone() as Arc<dyn TelemetrySink>));
        dev.set_health_params(HealthParams::default());
        dev.register_host(HostId(0)).unwrap();
        let vm = dev.alloc_vm(HostId(0), dev.config().au_bytes, Picos::ZERO).unwrap();
        let dsn = dev.probe_translation(HostId(0), vm.hpa_base(0, dev.config().au_bytes)).unwrap();
        let victim = dev.geometry().location(dsn);
        let (c, r) = (victim.channel, victim.rank);
        for k in 0..2 {
            dev.inject_uncorrectable_error(c, r, Picos::from_us(1 + k)).unwrap();
        }
        assert_eq!(dev.rank_health(c, r), RankHealth::Draining);
        for ms in 1..20 {
            dev.tick(Picos::from_ms(ms)).unwrap();
        }
        assert_eq!(dev.rank_health(c, r), RankHealth::Retired);
        let steps: Vec<_> = sink
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::HealthTransition { channel, rank, from, to } => {
                    assert_eq!((channel, rank), (c, r));
                    Some((from, to))
                }
                _ => None,
            })
            .collect();
        use HealthStateId::{Degraded, Draining, Healthy, Retired};
        assert_eq!(steps, [(Healthy, Degraded), (Degraded, Draining), (Draining, Retired)]);
        assert!(matches!(
            dev.retire_rank(9, 0, Picos::from_ms(20)),
            Err(DtlError::Internal { .. })
        ));
        dev.check_invariants().unwrap();
    }
}
