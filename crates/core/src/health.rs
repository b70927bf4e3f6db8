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

use dtl_dram::Picos;
use dtl_telemetry::{EventKind, HealthStateId, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::SegmentGeometry;
use crate::power::RankPdState;

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
    correctable: u64,
    uncorrectable: u64,
    bucket: f64,
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

    /// Installs a telemetry handle; the first degraded-latch flip of a rank
    /// emits a `HealthTransition` event (later lifecycle steps are emitted
    /// by the device, which owns the drain/retire machinery).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The parameters in effect.
    pub fn params(&self) -> HealthParams {
        self.params
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }

    fn idx(&self, channel: u32, rank: u32) -> usize {
        (channel * self.geo.ranks_per_channel + rank) as usize
    }

    /// Records a correctable error. Returns `true` when this error tripped
    /// the retirement threshold for the first time.
    pub fn record_correctable(&mut self, channel: u32, rank: u32, now: Picos) -> bool {
        self.stats.correctable_errors += 1;
        let w = self.params.correctable_weight;
        let i = self.idx(channel, rank);
        self.cells[i].correctable += 1;
        self.record(channel, rank, w, now)
    }

    /// Records an uncorrectable error. Returns `true` when this error
    /// tripped the retirement threshold for the first time.
    pub fn record_uncorrectable(&mut self, channel: u32, rank: u32, now: Picos) -> bool {
        self.stats.uncorrectable_errors += 1;
        let w = self.params.uncorrectable_weight;
        let i = self.idx(channel, rank);
        self.cells[i].uncorrectable += 1;
        self.record(channel, rank, w, now)
    }

    fn record(&mut self, channel: u32, rank: u32, weight: f64, now: Picos) -> bool {
        let i = self.idx(channel, rank);
        let cell = &mut self.cells[i];
        // Leak since the last error, then add this one.
        let dt = now.saturating_sub(cell.last_update).as_secs_f64();
        cell.bucket = (cell.bucket - dt * self.params.leak_per_sec).max(0.0) + weight;
        cell.last_update = now;
        if cell.bucket >= self.params.degraded_threshold && !cell.degraded {
            cell.degraded = true;
            self.telemetry.emit(
                now.as_ps(),
                EventKind::HealthTransition {
                    channel,
                    rank,
                    from: HealthStateId::Healthy,
                    to: HealthStateId::Degraded,
                },
            );
        }
        if cell.bucket >= self.params.retire_threshold && !cell.tripped {
            cell.tripped = true;
            self.stats.retire_trips += 1;
            return true;
        }
        false
    }

    /// The rank's error counters and bucket level.
    pub fn counters(&self, channel: u32, rank: u32) -> RankErrorRecord {
        let cell = self.cells[self.idx(channel, rank)];
        RankErrorRecord {
            correctable: cell.correctable,
            uncorrectable: cell.uncorrectable,
            bucket: cell.bucket,
        }
    }

    /// Whether the rank's retirement threshold has tripped.
    pub fn retire_tripped(&self, channel: u32, rank: u32) -> bool {
        self.cells[self.idx(channel, rank)].tripped
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HealthTracker {
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
        HealthTracker::new(geo, HealthParams::default())
    }

    #[test]
    fn sparse_errors_leak_away() {
        let mut t = tracker();
        // One error every 10 s for a minute: bucket never accumulates.
        for k in 0..6u64 {
            let tripped = t.record_correctable(0, 0, Picos::from_secs(k * 10));
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
            tripped |= t.record_correctable(1, 2, Picos::from_ms(k * 10));
        }
        assert!(tripped);
        assert!(t.retire_tripped(1, 2));
        // Tripping latches: a later error does not re-trip.
        assert!(!t.record_correctable(1, 2, Picos::from_secs(1)));
        assert_eq!(t.stats().retire_trips, 1);
        // Other ranks are untouched.
        assert_eq!(t.health(1, 3, RankPdState::Active), RankHealth::Healthy);
    }

    #[test]
    fn uncorrectable_errors_weigh_heavier() {
        let mut t = tracker();
        assert!(!t.record_uncorrectable(0, 1, Picos::from_ms(1)));
        assert_eq!(t.health(0, 1, RankPdState::Active), RankHealth::Degraded);
        assert!(t.record_uncorrectable(0, 1, Picos::from_ms(2)), "second one trips");
    }

    #[test]
    fn health_follows_lifecycle() {
        let mut t = tracker();
        for k in 0..20u64 {
            t.record_correctable(0, 0, Picos::from_ms(k));
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
        t.record_correctable(0, 0, Picos::ZERO);
        t.record_uncorrectable(1, 0, Picos::ZERO);
        assert_eq!(t.stats().correctable_errors, 1);
        assert_eq!(t.stats().uncorrectable_errors, 1);
    }
}
