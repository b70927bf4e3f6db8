//! Memory requests submitted to the device and their completions.

use serde::{Deserialize, Serialize};

use crate::addr::PhysAddr;
use crate::time::Picos;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// 64 B read burst.
    Read,
    /// 64 B write burst.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Scheduling class of a request (§4.2 of the paper: migration traffic must
/// never delay foreground traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Host-issued traffic; always scheduled first.
    Foreground,
    /// DTL-internal segment migration traffic; issues only while the
    /// foreground queue of the same channel holds no arrived request.
    Migration,
}

/// A 64 B memory request addressed by device physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Caller-chosen identifier, echoed in the completion.
    pub id: u64,
    /// Device physical address (line-aligned internally).
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Arrival time at the device controller.
    pub arrival: Picos,
    /// Scheduling class.
    pub priority: Priority,
}

/// Completion record for a finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// The identifier from the originating [`MemRequest`].
    pub id: u64,
    /// Time the data burst finished on the channel.
    pub finished: Picos,
    /// The request's arrival time (for latency computation).
    pub arrival: Picos,
    /// Scheduling class of the originating request.
    pub priority: Priority,
}

impl Completion {
    /// Queueing + service latency of the request.
    #[inline]
    pub fn latency(&self) -> Picos {
        self.finished - self.arrival
    }
}

/// Aggregated latency statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Completed request count.
    pub count: u64,
    /// Sum of latencies (ps).
    pub sum_ps: u128,
    /// Maximum observed latency.
    pub max: Picos,
    /// Minimum observed latency ([`Picos::MAX`] until the first sample).
    pub min: Picos,
}

impl LatencyStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        LatencyStats { count: 0, sum_ps: 0, max: Picos::ZERO, min: Picos::MAX }
    }

    /// Adds one latency sample.
    pub fn record(&mut self, latency: Picos) {
        self.count += 1;
        self.sum_ps += u128::from(latency.as_ps());
        self.max = self.max.max(latency);
        self.min = self.min.min(latency);
    }

    /// Mean latency, or zero if empty.
    pub fn mean(&self) -> Picos {
        if self.count == 0 {
            Picos::ZERO
        } else {
            Picos::from_ps((self.sum_ps / u128::from(self.count)) as u64)
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency() {
        let c = Completion {
            id: 1,
            finished: Picos::from_ns(150),
            arrival: Picos::from_ns(100),
            priority: Priority::Foreground,
        };
        assert_eq!(c.latency(), Picos::from_ns(50));
    }

    #[test]
    fn latency_stats_mean_max_min() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), Picos::ZERO);
        for ns in [10, 20, 30] {
            s.record(Picos::from_ns(ns));
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.mean(), Picos::from_ns(20));
        assert_eq!(s.max, Picos::from_ns(30));
        assert_eq!(s.min, Picos::from_ns(10));
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::new();
        a.record(Picos::from_ns(10));
        let mut b = LatencyStats::new();
        b.record(Picos::from_ns(30));
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.mean(), Picos::from_ns(20));
        let empty = LatencyStats::new();
        a.merge(&empty);
        assert_eq!(a.count, 2);
    }

    #[test]
    fn access_kind_predicate() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
