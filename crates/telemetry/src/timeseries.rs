//! Streaming time-series aggregation: fold the event stream into fixed
//! sim-time windows of per-window aggregates.
//!
//! Full event traces are impractical at campaign scale (the fleet campaign
//! pops ~15M events at paper scale), so [`TimeSeriesSink`] keeps only one
//! [`WindowAggregate`] per window — memory is bounded by
//! `horizon / window width` regardless of event volume. Residency folding
//! mirrors [`PowerTimeline`](crate::PowerTimeline) exactly (every rank
//! starts `Standby` at t = 0, spans close at transition instants, the open
//! span closes at the horizon), so summing a window column across the run
//! reproduces the backends' integrated residency counters bit-for-bit.
//!
//! Every aggregate field is a `u64` and [`TimeSeries::merge_from`] is an
//! element-wise sum, so merging per-shard series is commutative and
//! associative: a `--jobs N` run that merges worker series in **any** order
//! emits the same bytes as `--jobs 1` — the same determinism contract the
//! exec engine pins for results and event traces.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind, PowerStateId};
use crate::sink::TelemetrySink;

/// Aggregates of one fixed-width sim-time window. All fields are `u64` so
/// window merges are exact commutative sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowAggregate {
    /// Per-state residency accumulated inside this window, summed over
    /// every rank, indexed like [`PowerStateId::ALL`].
    pub residency_ps: [u64; 5],
    /// Rank power-state transitions that landed in this window.
    pub power_transitions: u64,
    /// Segment migrations (copies and swaps) completed in this window.
    pub migrations: u64,
    /// Bytes moved by those migrations.
    pub migration_bytes: u64,
    /// CXL link retry episodes in this window.
    pub cxl_retries: u64,
    /// Total backoff delay those retries charged, picoseconds.
    pub cxl_retry_delay_ps: u64,
    /// VM admissions in this window.
    pub vm_allocs: u64,
    /// VM deallocations in this window.
    pub vm_deallocs: u64,
    /// Faults injected in this window.
    pub faults: u64,
    /// Rank health-state transitions in this window.
    pub health_transitions: u64,
    /// Telemetry events folded into this window (every kind).
    pub events: u64,
    /// Fabric port transfers serialized in this window.
    pub fabric_transfers: u64,
    /// Bytes those transfers pushed through fabric ports.
    pub fabric_bytes: u64,
    /// Queue wait those transfers paid at fabric ports, picoseconds.
    pub fabric_queue_ps: u64,
}

impl WindowAggregate {
    fn merge_from(&mut self, other: &WindowAggregate) {
        for (mine, theirs) in self.residency_ps.iter_mut().zip(other.residency_ps.iter()) {
            *mine += theirs;
        }
        self.power_transitions += other.power_transitions;
        self.migrations += other.migrations;
        self.migration_bytes += other.migration_bytes;
        self.cxl_retries += other.cxl_retries;
        self.cxl_retry_delay_ps += other.cxl_retry_delay_ps;
        self.vm_allocs += other.vm_allocs;
        self.vm_deallocs += other.vm_deallocs;
        self.faults += other.faults;
        self.health_transitions += other.health_transitions;
        self.events += other.events;
        self.fabric_transfers += other.fabric_transfers;
        self.fabric_bytes += other.fabric_bytes;
        self.fabric_queue_ps += other.fabric_queue_ps;
    }
}

/// The CSV header [`TimeSeries::to_csv`] emits (and CI validates).
pub const TIMESERIES_CSV_HEADER: &str = "window,start_ps,end_ps,standby_ps,active_powerdown_ps,\
     precharge_powerdown_ps,self_refresh_ps,mpsm_ps,power_transitions,migrations,migration_bytes,\
     cxl_retries,cxl_retry_delay_ps,vm_allocs,vm_deallocs,faults,health_transitions,events,\
     fabric_transfers,fabric_bytes,fabric_queue_ps";

/// A finished windowed time series: one [`WindowAggregate`] per
/// `width_ps`-wide window, dense from t = 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries {
    width_ps: u64,
    windows: Vec<WindowAggregate>,
}

impl TimeSeries {
    /// An empty series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero width.
    pub fn new(width_ps: u64) -> Self {
        assert!(width_ps > 0, "time-series window width must be positive");
        TimeSeries { width_ps, windows: Vec::new() }
    }

    /// Window width, picoseconds.
    pub fn width_ps(&self) -> u64 {
        self.width_ps
    }

    /// The windows, in time order from t = 0.
    pub fn windows(&self) -> &[WindowAggregate] {
        &self.windows
    }

    fn window_mut(&mut self, idx: usize) -> &mut WindowAggregate {
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowAggregate::default());
        }
        &mut self.windows[idx]
    }

    /// Splits the closed residency span `[start_ps, end_ps)` in `state`
    /// across window boundaries with exact integer arithmetic.
    fn add_span(&mut self, state: PowerStateId, start_ps: u64, end_ps: u64) {
        if end_ps <= start_ps {
            return;
        }
        let width = self.width_ps;
        let mut at = start_ps;
        while at < end_ps {
            let idx = at / width;
            let window_end = (idx + 1) * width;
            let stop = window_end.min(end_ps);
            self.window_mut(idx as usize).residency_ps[state.index()] += stop - at;
            at = stop;
        }
    }

    /// Guarantees windows exist through `end_ps` (so a quiet tail still
    /// renders as rows of zeros up to the horizon).
    fn cover(&mut self, end_ps: u64) {
        if end_ps > 0 {
            self.window_mut(((end_ps - 1) / self.width_ps) as usize);
        }
    }

    /// Element-wise sum of `other` into `self`. Commutative and
    /// associative, so merging shard series in any order is deterministic.
    ///
    /// # Panics
    ///
    /// Panics when the window widths differ — shards of one run must
    /// aggregate on the same grid.
    pub fn merge_from(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.width_ps, other.width_ps,
            "cannot merge time series with different window widths"
        );
        if other.windows.len() > self.windows.len() {
            self.windows.resize(other.windows.len(), WindowAggregate::default());
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows.iter()) {
            mine.merge_from(theirs);
        }
    }

    /// Total per-state residency summed over every window, indexed like
    /// [`PowerStateId::ALL`] — the reconciliation hook against the
    /// end-of-run power report. A `u128` each: a two-week horizon over 32
    /// ranks is already past `u64::MAX` picoseconds.
    pub fn residency_totals_ps(&self) -> [u128; 5] {
        let mut out = [0u128; 5];
        for w in &self.windows {
            for (total, r) in out.iter_mut().zip(w.residency_ps.iter()) {
                *total += u128::from(*r);
            }
        }
        out
    }

    /// Total events folded across every window.
    pub fn total_events(&self) -> u64 {
        self.windows.iter().map(|w| w.events).sum()
    }

    /// Renders the series as CSV with the [`TIMESERIES_CSV_HEADER`] schema,
    /// one row per window.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(TIMESERIES_CSV_HEADER);
        out.push('\n');
        for (i, w) in self.windows.iter().enumerate() {
            let start = i as u64 * self.width_ps;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                i,
                start,
                start + self.width_ps,
                w.residency_ps[0],
                w.residency_ps[1],
                w.residency_ps[2],
                w.residency_ps[3],
                w.residency_ps[4],
                w.power_transitions,
                w.migrations,
                w.migration_bytes,
                w.cxl_retries,
                w.cxl_retry_delay_ps,
                w.vm_allocs,
                w.vm_deallocs,
                w.faults,
                w.health_transitions,
                w.events,
                w.fabric_transfers,
                w.fabric_bytes,
                w.fabric_queue_ps,
            ));
        }
        out
    }

    /// Renders the series as JSON Lines: one window object per line, with
    /// explicit window index and bounds.
    pub fn to_jsonl(&self) -> String {
        #[derive(Serialize)]
        struct Row {
            window: u64,
            start_ps: u64,
            end_ps: u64,
            aggregate: WindowAggregate,
        }
        let mut out = String::new();
        for (i, w) in self.windows.iter().enumerate() {
            let start = i as u64 * self.width_ps;
            let row = Row {
                window: i as u64,
                start_ps: start,
                end_ps: start + self.width_ps,
                aggregate: *w,
            };
            out.push_str(&serde_json::to_string(&row).expect("window serialization is infallible"));
            out.push('\n');
        }
        out
    }
}

/// Per-rank open-span state, mirroring `PowerTimeline`'s `RankTrack`.
#[derive(Debug, Clone, Copy)]
struct RankCursor {
    state: PowerStateId,
    since: u64,
}

impl Default for RankCursor {
    fn default() -> Self {
        RankCursor { state: PowerStateId::Standby, since: 0 }
    }
}

#[derive(Debug)]
struct SinkState {
    series: TimeSeries,
    ranks: BTreeMap<(u32, u32), RankCursor>,
}

/// A [`TelemetrySink`] that folds the event stream into a [`TimeSeries`]
/// as events arrive — bounded memory regardless of campaign length.
///
/// Residency semantics are identical to [`PowerTimeline`](crate::PowerTimeline):
/// every rank starts `Standby` at t = 0, a transition closes the current
/// span at the event instant (ignoring events that do not advance the rank
/// clock), and [`TimeSeriesSink::finish`] closes open spans at
/// `max(horizon, last transition)` — a late transition past the horizon
/// contributes zero time in its new state.
///
/// One sink observes one monotonic event stream (one device, one host, or
/// one merged-unit replay); per-shard series merge afterwards with
/// [`TimeSeries::merge_from`].
#[derive(Debug)]
pub struct TimeSeriesSink {
    state: Mutex<SinkState>,
}

impl TimeSeriesSink {
    /// A sink aggregating into windows of `width_ps`.
    ///
    /// # Panics
    ///
    /// Panics on a zero width.
    pub fn new(width_ps: u64) -> Self {
        TimeSeriesSink {
            state: Mutex::new(SinkState {
                series: TimeSeries::new(width_ps),
                ranks: BTreeMap::new(),
            }),
        }
    }

    /// Registers a rank even if it never transitions, so a quiet rank still
    /// contributes its all-`Standby` residency to every window.
    pub fn ensure_rank(&self, channel: u32, rank: u32) {
        self.state.lock().unwrap().ranks.entry((channel, rank)).or_default();
    }

    /// Folds one event into the series (the non-trait entry point; the
    /// [`TelemetrySink`] impl forwards here).
    pub fn fold(&self, event: &Event) {
        let state = &mut *self.state.lock().unwrap();
        let idx = (event.at_ps / state.series.width_ps) as usize;
        let w = state.series.window_mut(idx);
        w.events += 1;
        match event.kind {
            EventKind::RankPowerTransition { channel, rank, to, .. } => {
                w.power_transitions += 1;
                let cursor = state.ranks.entry((channel, rank)).or_default();
                let (span_state, span_start) = (cursor.state, cursor.since);
                cursor.state = to;
                cursor.since = cursor.since.max(event.at_ps);
                state.series.add_span(span_state, span_start, event.at_ps);
            }
            EventKind::SegmentMigrated { bytes, .. } => {
                w.migrations += 1;
                w.migration_bytes += bytes;
            }
            EventKind::CxlRetry { delay_ps, .. } => {
                w.cxl_retries += 1;
                w.cxl_retry_delay_ps += delay_ps;
            }
            EventKind::VmAlloc { .. } => w.vm_allocs += 1,
            EventKind::VmDealloc { .. } => w.vm_deallocs += 1,
            EventKind::FaultInjected { .. } => w.faults += 1,
            EventKind::HealthTransition { .. } => w.health_transitions += 1,
            EventKind::FabricTransfer { bytes, queue_ps, .. } => {
                w.fabric_transfers += 1;
                w.fabric_bytes += bytes;
                w.fabric_queue_ps += queue_ps;
            }
            EventKind::TspAdvance { .. } | EventKind::SelfRefreshSwap { .. } => {}
        }
    }

    /// Closes every open residency span at `max(end_ps, last transition)`,
    /// pads windows through the horizon, and returns the finished series.
    /// Non-destructive: the sink keeps aggregating if more events arrive,
    /// and calling `finish` again at the same horizon returns the same
    /// series.
    pub fn finish(&self, end_ps: u64) -> TimeSeries {
        let state = self.state.lock().unwrap();
        let mut series = state.series.clone();
        for (_, cursor) in state.ranks.iter() {
            let end = end_ps.max(cursor.since);
            series.add_span(cursor.state, cursor.since, end);
        }
        series.cover(end_ps);
        series
    }
}

impl TelemetrySink for TimeSeriesSink {
    #[inline]
    fn record(&self, event: Event) {
        self.fold(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::PowerTimeline;

    fn transition(at: u64, channel: u32, rank: u32, to: PowerStateId) -> Event {
        Event {
            at_ps: at,
            kind: EventKind::RankPowerTransition {
                channel,
                rank,
                from: PowerStateId::Standby,
                to,
                auto_exit: false,
            },
        }
    }

    #[test]
    fn residency_splits_exactly_across_window_boundaries() {
        let sink = TimeSeriesSink::new(100);
        sink.fold(&transition(250, 0, 0, PowerStateId::SelfRefresh));
        let series = sink.finish(400);
        let w = series.windows();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].residency_ps[PowerStateId::Standby.index()], 100);
        assert_eq!(w[1].residency_ps[PowerStateId::Standby.index()], 100);
        assert_eq!(w[2].residency_ps[PowerStateId::Standby.index()], 50);
        assert_eq!(w[2].residency_ps[PowerStateId::SelfRefresh.index()], 50);
        assert_eq!(w[3].residency_ps[PowerStateId::SelfRefresh.index()], 100);
        assert_eq!(w[2].power_transitions, 1);
        assert_eq!(series.residency_totals_ps().iter().sum::<u128>(), 400);
    }

    #[test]
    fn residency_totals_match_power_timeline_bit_for_bit() {
        // A busy synthetic stream over two ranks with back-to-back and
        // past-horizon transitions — the same edge cases PowerTimeline pins.
        let events = vec![
            transition(130, 0, 0, PowerStateId::SelfRefresh),
            transition(130, 0, 1, PowerStateId::PrechargePowerDown),
            transition(470, 0, 0, PowerStateId::Standby),
            transition(470, 0, 0, PowerStateId::Mpsm),
            transition(950, 0, 1, PowerStateId::Standby),
            transition(1200, 0, 0, PowerStateId::Standby), // past the horizon
        ];
        let horizon = 1000u64;
        let timeline = PowerTimeline::from_events(events.iter(), horizon);
        let sink = TimeSeriesSink::new(64); // width not dividing the horizon
        for ev in &events {
            sink.fold(ev);
        }
        let series = sink.finish(horizon);
        let mut expected = [0u128; 5];
        for (c, r) in timeline.rank_ids() {
            for (total, res) in expected.iter_mut().zip(timeline.residency_ps(c, r).iter()) {
                *total += u128::from(*res);
            }
        }
        assert_eq!(series.residency_totals_ps(), expected);
    }

    #[test]
    fn quiet_ranks_contribute_standby_to_every_window() {
        let sink = TimeSeriesSink::new(100);
        sink.ensure_rank(0, 0);
        sink.ensure_rank(1, 3);
        let series = sink.finish(250);
        assert_eq!(series.windows().len(), 3);
        assert_eq!(series.windows()[0].residency_ps[0], 200, "two ranks x 100 ps");
        assert_eq!(series.windows()[2].residency_ps[0], 100, "partial tail window");
        assert_eq!(series.residency_totals_ps()[0], 500);
    }

    #[test]
    fn merge_is_commutative_and_width_checked() {
        let a_sink = TimeSeriesSink::new(100);
        a_sink.fold(&transition(50, 0, 0, PowerStateId::SelfRefresh));
        a_sink.fold(&Event { at_ps: 120, kind: EventKind::VmAlloc { vm: 1, segments: 8 } });
        let a = a_sink.finish(300);
        let b_sink = TimeSeriesSink::new(100);
        b_sink.fold(&Event {
            at_ps: 10,
            kind: EventKind::CxlRetry { burst: 2, replays: 2, gave_up: false, delay_ps: 77 },
        });
        let b = b_sink.finish(500);

        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "merge order must not matter");
        assert_eq!(ab.windows().len(), 5);
        assert_eq!(ab.total_events(), 3);
        assert_eq!(ab.windows()[0].cxl_retry_delay_ps, 77);
        assert_eq!(ab.windows()[1].vm_allocs, 1);
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn merging_mismatched_widths_panics() {
        let mut a = TimeSeries::new(100);
        a.merge_from(&TimeSeries::new(200));
    }

    #[test]
    fn csv_has_the_pinned_header_and_one_row_per_window() {
        let sink = TimeSeriesSink::new(1_000_000);
        sink.fold(&Event { at_ps: 42, kind: EventKind::VmAlloc { vm: 1, segments: 1 } });
        let series = sink.finish(3_000_000);
        let csv = series.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), TIMESERIES_CSV_HEADER);
        assert_eq!(lines.count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,0,1000000,"));
    }

    #[test]
    fn jsonl_rows_carry_window_bounds() {
        let sink = TimeSeriesSink::new(500);
        sink.fold(&Event { at_ps: 600, kind: EventKind::VmDealloc { vm: 3, segments: 2 } });
        let series = sink.finish(1000);
        let jsonl = series.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"start_ps\":500"));
        assert!(jsonl.lines().nth(1).unwrap().contains("\"vm_deallocs\":1"));
    }

    #[test]
    fn fabric_transfers_fold_into_their_own_columns() {
        let sink = TimeSeriesSink::new(1000);
        sink.fold(&Event {
            at_ps: 100,
            kind: EventKind::FabricTransfer { port: 2, bytes: 64, queue_ps: 0 },
        });
        sink.fold(&Event {
            at_ps: 1100,
            kind: EventKind::FabricTransfer { port: 3, bytes: 128, queue_ps: 2000 },
        });
        let series = sink.finish(2000);
        let w = series.windows();
        assert_eq!(w[0].fabric_transfers, 1);
        assert_eq!(w[0].fabric_bytes, 64);
        assert_eq!(w[1].fabric_queue_ps, 2000);
        let csv = series.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("fabric_transfers,fabric_bytes,fabric_queue_ps"));
        assert!(csv.lines().nth(2).unwrap().ends_with(",1,128,2000"));
    }

    #[test]
    fn finish_is_repeatable_and_nondestructive() {
        let sink = TimeSeriesSink::new(100);
        sink.fold(&transition(30, 0, 0, PowerStateId::SelfRefresh));
        let first = sink.finish(200);
        let second = sink.finish(200);
        assert_eq!(first, second);
    }
}
