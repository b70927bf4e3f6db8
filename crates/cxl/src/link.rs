//! CXL link latency model and link-level retry.
//!
//! The paper emulates CXL-attached memory by adding latency to local DRAM
//! accesses (Quartz, §5.1, Table 1): native DRAM is 121 ns and CXL memory
//! 210 ns. Quartz itself only injects delays, so a delay model reproduces
//! the paper's methodology exactly.
//!
//! CXL flits carry a CRC; a corrupted flit is replayed from the retry
//! buffer rather than surfaced to the host. [`RetryEngine`] models that
//! ack/replay loop: each corrupted transfer costs one exponentially
//! backed-off replay, and a transfer corrupted more than
//! [`RetryPolicy::max_retries`] times forces a link recovery (counted as a
//! give-up) before the request finally goes through. Retries are invisible
//! to the host except as added latency and link energy.

use std::collections::VecDeque;

use dtl_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use dtl_dram::Picos;

/// Idle (unloaded) access latency of a memory attachment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkModel {
    /// One-way request latency added by the interconnect before the request
    /// reaches the device controller.
    pub request_latency: Picos,
    /// Response latency added after the device produces data.
    pub response_latency: Picos,
}

impl LinkModel {
    /// Native (direct-attached) DRAM: the 121 ns of Table 1 comes from the
    /// DRAM itself, so the link adds nothing.
    pub fn native() -> Self {
        LinkModel { request_latency: Picos::ZERO, response_latency: Picos::ZERO }
    }

    /// CXL attachment: Table 1 measures 210 ns vs 121 ns native, i.e. the
    /// link adds 89 ns, split evenly between request and response paths.
    pub fn cxl() -> Self {
        LinkModel {
            request_latency: Picos::from_ns_f64(44.5),
            response_latency: Picos::from_ns_f64(44.5),
        }
    }

    /// A custom symmetric link adding `total_ns` round-trip.
    pub fn symmetric_ns(total_ns: f64) -> Self {
        LinkModel {
            request_latency: Picos::from_ns_f64(total_ns / 2.0),
            response_latency: Picos::from_ns_f64(total_ns / 2.0),
        }
    }

    /// Total round-trip latency added by the link.
    pub fn round_trip(&self) -> Picos {
        self.request_latency + self.response_latency
    }
}

/// Link-level retry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Replays attempted before the link declares recovery (a give-up).
    pub max_retries: u32,
    /// Backoff before the first replay; each further replay doubles it.
    pub base_backoff: Picos,
    /// Link energy charged per replayed transfer (pJ).
    pub retry_energy_pj: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // A flit replay round trip is on the order of the link latency;
        // 100 ns base backoff keeps a single CRC hit cheap (~100 ns) while
        // a pathological burst escalates fast enough to be visible.
        RetryPolicy { max_retries: 4, base_backoff: Picos::from_ns(100), retry_energy_pj: 15.0 }
    }
}

/// Accumulated retry activity on a link.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkRetryStats {
    /// CRC-corrupted transfers observed.
    pub crc_errors: u64,
    /// Replays performed.
    pub retries: u64,
    /// Transfers that exhausted [`RetryPolicy::max_retries`] and forced a
    /// link recovery. The request is still delivered afterwards.
    pub giveups: u64,
    /// Total time spent in backoff/replay.
    pub retry_time: Picos,
    /// Total link energy spent on replays (pJ).
    pub retry_energy_pj: f64,
}

impl LinkRetryStats {
    /// Folds `other` into `self` field-by-field. Pool-level reporting sums
    /// the per-device link engines with this instead of re-implementing the
    /// field list at every call site.
    pub fn merge_from(&mut self, other: &LinkRetryStats) {
        self.crc_errors += other.crc_errors;
        self.retries += other.retries;
        self.giveups += other.giveups;
        self.retry_time += other.retry_time;
        self.retry_energy_pj += other.retry_energy_pj;
    }
}

/// Outcome of pushing one request through the retry layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery {
    /// Extra latency the retry loop added to this request.
    pub delay: Picos,
    /// `false` when the transfer exhausted its retries and needed a link
    /// recovery before delivery.
    pub clean: bool,
}

/// Models the CXL link-layer CRC/ack/replay loop.
///
/// Fault injectors queue corruption bursts with
/// [`RetryEngine::inject_crc_burst`]; the next submitted request consumes
/// one burst and pays the replay cost. Requests are never lost — the link
/// layer guarantees delivery — so faults surface only as latency and
/// energy.
#[derive(Debug, Default)]
pub struct RetryEngine {
    policy: RetryPolicy,
    stats: LinkRetryStats,
    /// Corruption counts waiting to be consumed, one per upcoming request.
    pending: VecDeque<u32>,
    /// Time-keyed bursts not yet released into `pending`, sorted by
    /// (release time, insertion order) — the event-driven alternative to
    /// injecting at poll time. See [`RetryEngine::schedule_crc_burst`].
    scheduled: VecDeque<(Picos, u32)>,
    telemetry: Telemetry,
    /// Clean round-trip latency added to every submission when computing
    /// the observed-latency histogram (the attachment's link round trip).
    base_latency: Picos,
    /// Per-submission observed link latency (base + retry delay), ps. Feeds
    /// the access-latency section of SLO reports.
    latency_hist: dtl_telemetry::Histogram,
}

impl RetryEngine {
    /// Builds an engine with the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        RetryEngine {
            policy,
            stats: LinkRetryStats::default(),
            pending: VecDeque::new(),
            scheduled: VecDeque::new(),
            telemetry: Telemetry::disabled(),
            base_latency: Picos::ZERO,
            latency_hist: dtl_telemetry::Histogram::default(),
        }
    }

    /// Sets the clean link round trip folded into every observed-latency
    /// sample (defaults to zero, i.e. the histogram records retry delay
    /// only). Call once at attachment setup with the link's
    /// [`LinkModel::round_trip`].
    pub fn set_base_latency(&mut self, base: Picos) {
        self.base_latency = base;
    }

    /// The per-submission observed link latency histogram: one sample of
    /// `base latency + retry delay` per [`RetryEngine::on_submit_at`] call,
    /// clean or corrupted.
    pub fn latency_histogram(&self) -> &dtl_telemetry::Histogram {
        &self.latency_hist
    }

    /// Installs a telemetry handle; every consumed corruption burst emits a
    /// `CxlRetry` event (via [`RetryEngine::on_submit_at`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The policy in effect.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Replaces the retry policy. Accumulated statistics are kept.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Accumulated retry statistics.
    pub fn stats(&self) -> LinkRetryStats {
        self.stats
    }

    /// Queues a corruption burst: the next submitted request's transfer is
    /// corrupted `burst` times before getting through. Bursts queue FIFO,
    /// one per request.
    pub fn inject_crc_burst(&mut self, burst: u32) {
        if burst > 0 {
            self.pending.push_back(burst);
        }
    }

    /// Corruption bursts queued but not yet consumed by a request.
    pub fn pending_bursts(&self) -> usize {
        self.pending.len()
    }

    /// Schedules a corruption burst for release at time `at`: the burst
    /// stays dormant until [`RetryEngine::release_due`] moves it into the
    /// consumable queue. This is the event-driven form of
    /// [`RetryEngine::inject_crc_burst`] — a driver posts one event at
    /// [`RetryEngine::next_burst_at`] instead of polling every tick.
    /// Bursts sharing a release time keep their scheduling order (FIFO).
    pub fn schedule_crc_burst(&mut self, at: Picos, burst: u32) {
        if burst == 0 {
            return;
        }
        // Stable insert: after any entry with release time <= at.
        let idx = self.scheduled.partition_point(|&(t, _)| t <= at);
        self.scheduled.insert(idx, (at, burst));
    }

    /// Release time of the earliest scheduled (not yet released) burst —
    /// the event-driven caller's next wakeup. `None` when nothing is
    /// scheduled.
    pub fn next_burst_at(&self) -> Option<Picos> {
        self.scheduled.front().map(|&(at, _)| at)
    }

    /// Releases every scheduled burst due by `now` into the consumable
    /// queue (in release order) and returns how many were released.
    pub fn release_due(&mut self, now: Picos) -> usize {
        let mut released = 0;
        while let Some(&(at, burst)) = self.scheduled.front() {
            if at > now {
                break;
            }
            self.scheduled.pop_front();
            self.pending.push_back(burst);
            released += 1;
        }
        released
    }

    /// Passes one request through the link at instant `now`, consuming a
    /// queued corruption burst if present, and returns the latency it
    /// cost. A consumed burst additionally emits one `CxlRetry` telemetry
    /// event stamped `now`, carrying exactly the quantities added to
    /// [`LinkRetryStats`] (the invariant the `prop_link` test pins).
    pub fn on_submit_at(&mut self, now: Picos) -> LinkDelivery {
        let Some(burst) = self.pending.pop_front() else {
            self.latency_hist.observe(self.base_latency.as_ps());
            return LinkDelivery { delay: Picos::ZERO, clean: true };
        };
        self.stats.crc_errors += u64::from(burst);
        let replays = burst.min(self.policy.max_retries);
        let clean = burst <= self.policy.max_retries;
        if !clean {
            self.stats.giveups += 1;
        }
        let mut delay = Picos::ZERO;
        for k in 0..replays {
            delay += self.policy.base_backoff * (1u64 << k.min(16));
        }
        self.stats.retries += u64::from(replays);
        self.stats.retry_time += delay;
        self.stats.retry_energy_pj += f64::from(replays) * self.policy.retry_energy_pj;
        self.telemetry.emit(
            now.as_ps(),
            EventKind::CxlRetry { burst, replays, gave_up: !clean, delay_ps: delay.as_ps() },
        );
        self.latency_hist.observe((self.base_latency + delay).as_ps());
        LinkDelivery { delay, clean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cxl_adds_89ns_over_native() {
        let native = LinkModel::native();
        let cxl = LinkModel::cxl();
        assert_eq!(native.round_trip(), Picos::ZERO);
        assert_eq!(cxl.round_trip(), Picos::from_ns(89));
    }

    #[test]
    fn symmetric_splits_evenly() {
        let l = LinkModel::symmetric_ns(100.0);
        assert_eq!(l.request_latency, l.response_latency);
        assert_eq!(l.round_trip(), Picos::from_ns(100));
    }

    #[test]
    fn clean_submit_costs_nothing() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        let d = r.on_submit_at(Picos::ZERO);
        assert_eq!(d, LinkDelivery { delay: Picos::ZERO, clean: true });
        assert_eq!(r.stats(), LinkRetryStats::default());
    }

    #[test]
    fn single_crc_hit_costs_one_backoff() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        r.inject_crc_burst(1);
        let d = r.on_submit_at(Picos::ZERO);
        assert!(d.clean);
        assert_eq!(d.delay, Picos::from_ns(100));
        let s = r.stats();
        assert_eq!((s.crc_errors, s.retries, s.giveups), (1, 1, 0));
        assert_eq!(s.retry_time, Picos::from_ns(100));
        assert!((s.retry_energy_pj - 15.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_doubles_per_replay() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        r.inject_crc_burst(3);
        let d = r.on_submit_at(Picos::ZERO);
        assert!(d.clean);
        // 100 + 200 + 400 ns.
        assert_eq!(d.delay, Picos::from_ns(700));
    }

    #[test]
    fn exhausted_retries_force_recovery_but_deliver() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        r.inject_crc_burst(9);
        let d = r.on_submit_at(Picos::ZERO);
        assert!(!d.clean, "past max_retries the link recovers");
        // Capped at max_retries = 4 replays: 100 + 200 + 400 + 800 ns.
        assert_eq!(d.delay, Picos::from_ns(1500));
        let s = r.stats();
        assert_eq!((s.crc_errors, s.retries, s.giveups), (9, 4, 1));
    }

    #[test]
    fn bursts_queue_one_per_request() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        r.inject_crc_burst(1);
        r.inject_crc_burst(2);
        r.inject_crc_burst(0); // ignored
        assert_eq!(r.pending_bursts(), 2);
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::from_ns(100));
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::from_ns(300));
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::ZERO);
        assert_eq!(r.pending_bursts(), 0);
    }

    #[test]
    fn scheduled_bursts_release_at_their_time() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        r.schedule_crc_burst(Picos::from_us(10), 2);
        r.schedule_crc_burst(Picos::from_us(5), 1);
        r.schedule_crc_burst(Picos::from_us(5), 0); // ignored
        assert_eq!(r.next_burst_at(), Some(Picos::from_us(5)));
        assert_eq!(r.pending_bursts(), 0, "dormant until released");
        assert_eq!(r.release_due(Picos::from_us(5)), 1);
        assert_eq!(r.pending_bursts(), 1);
        assert_eq!(r.next_burst_at(), Some(Picos::from_us(10)));
        assert_eq!(r.release_due(Picos::from_us(7)), 0, "not due yet");
        assert_eq!(r.release_due(Picos::from_us(20)), 1);
        assert_eq!(r.next_burst_at(), None);
        // Release order is consumption order: burst 1 then burst 2.
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::from_ns(100));
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::from_ns(300));
    }

    #[test]
    fn latency_histogram_observes_clean_and_retried_submissions() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        r.set_base_latency(Picos::from_ns(89));
        r.on_submit_at(Picos::ZERO); // clean: 89 ns
        r.inject_crc_burst(1);
        r.on_submit_at(Picos::from_us(1)); // 89 + 100 ns
        let h = r.latency_histogram();
        assert_eq!(h.count(), 2, "both paths observe");
        assert_eq!(h.sum(), Picos::from_ns(89 + 189).as_ps());
        assert!(h.percentile(99.0) >= Picos::from_ns(189).as_ps());
    }

    #[test]
    fn same_time_scheduled_bursts_keep_fifo_order() {
        let mut r = RetryEngine::new(RetryPolicy::default());
        let t = Picos::from_us(1);
        r.schedule_crc_burst(t, 3);
        r.schedule_crc_burst(t, 1);
        assert_eq!(r.release_due(t), 2);
        // First scheduled (burst 3 → 700 ns) consumed first.
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::from_ns(700));
        assert_eq!(r.on_submit_at(Picos::ZERO).delay, Picos::from_ns(100));
    }
}
