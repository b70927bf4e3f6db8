//! SLO reporting: tail-latency and backlog summaries computed from the
//! log₂ histograms and backlog counters the engines maintain.
//!
//! The paper's headline is energy, but the reproduction's north star is
//! energy *at* SLO — a campaign that saves power by parking ranks is only
//! credible next to the latency it cost. [`SloReport`] is the typed bundle
//! every campaign experiment carries beside its energy number: access
//! latency (including CXL retry penalty), admission latency, and
//! evacuation/drain backlog age. Percentiles come straight from
//! [`Histogram::percentile`], so a report built from merged shard
//! histograms is identical to one built from a sequential run.

use serde::{Deserialize, Serialize};

use crate::metrics::Histogram;

/// Percentile summary of one latency population, picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples observed.
    pub count: u64,
    /// Mean latency, picoseconds.
    pub mean_ps: f64,
    /// Median (bucket upper bound), picoseconds.
    pub p50_ps: u64,
    /// 95th percentile, picoseconds.
    pub p95_ps: u64,
    /// 99th percentile, picoseconds.
    pub p99_ps: u64,
    /// 99.9th percentile, picoseconds.
    pub p999_ps: u64,
}

impl LatencySummary {
    /// Summarizes a histogram, or `None` when it holds no samples (so an
    /// experiment without that instrumentation point renders "-" instead
    /// of a misleading zero).
    pub fn from_histogram(hist: &Histogram) -> Option<Self> {
        let count = hist.count();
        if count == 0 {
            return None;
        }
        Some(LatencySummary {
            count,
            mean_ps: hist.mean(),
            p50_ps: hist.percentile(50.0),
            p95_ps: hist.percentile(95.0),
            p99_ps: hist.percentile(99.0),
            p999_ps: hist.percentile(99.9),
        })
    }
}

/// Summary of a work backlog (evacuations, migration drains): how deep it
/// got and how stale its oldest completed item was.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacklogSummary {
    /// Items completed over the run.
    pub completed: u64,
    /// Deepest the backlog ever got (queued + in flight).
    pub peak_depth: u64,
    /// Oldest completed item's age (completion minus enqueue), picoseconds.
    pub max_age_ps: u64,
    /// Mean completed-item age, picoseconds.
    pub mean_age_ps: f64,
}

impl BacklogSummary {
    /// Summarizes an age histogram plus an externally tracked peak depth,
    /// or `None` when nothing completed and the backlog never formed.
    pub fn from_parts(age_hist: &Histogram, peak_depth: u64) -> Option<Self> {
        let completed = age_hist.count();
        if completed == 0 && peak_depth == 0 {
            return None;
        }
        Some(BacklogSummary {
            completed,
            peak_depth,
            max_age_ps: age_hist.percentile(100.0),
            mean_age_ps: age_hist.mean(),
        })
    }
}

/// The SLO report a campaign carries beside its energy headline. Every
/// section is optional: an experiment reports the populations its harness
/// actually instruments and renders "-" for the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// End-to-end access latency (translation + link round trip + CXL
    /// retry penalty where a link is modeled).
    pub access: Option<LatencySummary>,
    /// VM admission latency (table carving plus any capacity wakes).
    pub admission: Option<LatencySummary>,
    /// Evacuation / migration-drain backlog.
    pub evac_backlog: Option<BacklogSummary>,
    /// Queue wait at fabric ports, where a switched interconnect is
    /// modeled (`None` under point-to-point links).
    pub fabric_queue: Option<LatencySummary>,
}

impl SloReport {
    /// Whether no section carries data.
    pub fn is_empty(&self) -> bool {
        self.access.is_none()
            && self.admission.is_none()
            && self.evac_backlog.is_none()
            && self.fabric_queue.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_yields_no_summary() {
        assert_eq!(LatencySummary::from_histogram(&Histogram::default()), None);
        assert_eq!(BacklogSummary::from_parts(&Histogram::default(), 0), None);
        assert!(SloReport::default().is_empty());
    }

    #[test]
    fn summary_reflects_the_histogram() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = LatencySummary::from_histogram(&h).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_ps, h.percentile(50.0));
        assert_eq!(s.p999_ps, h.percentile(99.9));
        assert!(s.p50_ps <= s.p95_ps && s.p95_ps <= s.p99_ps && s.p99_ps <= s.p999_ps);
        assert!((s.mean_ps - 500.5).abs() < 1e-9);
    }

    #[test]
    fn backlog_summary_tracks_age_and_depth() {
        let mut h = Histogram::default();
        h.observe(100);
        h.observe(300);
        let b = BacklogSummary::from_parts(&h, 7).unwrap();
        assert_eq!(b.completed, 2);
        assert_eq!(b.peak_depth, 7);
        assert!(b.max_age_ps >= 300);
        assert!((b.mean_age_ps - 200.0).abs() < 1e-9);
        // Depth without completions still reports (work piled up but never
        // finished inside the horizon).
        let empty = Histogram::default();
        let only_depth = BacklogSummary::from_parts(&empty, 3).unwrap();
        assert_eq!(only_depth.completed, 0);
        assert_eq!(only_depth.peak_depth, 3);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut h = Histogram::default();
        h.observe(42);
        let report = SloReport {
            access: LatencySummary::from_histogram(&h),
            admission: None,
            evac_backlog: BacklogSummary::from_parts(&h, 1),
            fabric_queue: LatencySummary::from_histogram(&h),
        };
        let text = serde_json::to_string(&report).unwrap();
        let back: SloReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
    }
}
