//! The exec engine's contract, end to end: for every experiment that
//! shards work across workers, `--jobs N` output is **bit-identical** to
//! the sequential run — same JSON bytes, same telemetry event stream.
//! Determinism is what lets CI and the goldens ignore the worker count
//! entirely.

use std::sync::Arc;

use dtl_sim::experiments::{
    diff_fuzz, fault_campaign, fig12, fig14, find, pool_failover, pool_scale, RunContext,
};
use dtl_sim::{
    to_json, CheckRunConfig, FaultRunConfig, Heartbeat, HotnessRunConfig, PoolRunConfig,
    PowerDownRunConfig,
};
use dtl_telemetry::{BufferSink, Telemetry, TIMESERIES_CSV_HEADER};

/// A telemetry handle recording into a fresh unbounded buffer.
fn traced() -> (Telemetry, Arc<BufferSink>) {
    let sink = Arc::new(BufferSink::new());
    let telemetry = Telemetry::new(sink.clone() as Arc<dyn dtl_telemetry::TelemetrySink>);
    (telemetry, sink)
}

#[test]
fn fig12_jobs4_is_bit_identical_to_jobs1_including_the_trace() {
    let cfg = PowerDownRunConfig::tiny(7, true);
    let (t1, s1) = traced();
    let (t4, s4) = traced();
    let r1 = fig12::run(&cfg, (0.014, 0.0018), &t1, 1).unwrap();
    let r4 = fig12::run(&cfg, (0.014, 0.0018), &t4, 4).unwrap();
    assert_eq!(to_json(&r1), to_json(&r4), "fig12 JSON must not depend on --jobs");
    let (e1, e4) = (s1.take(), s4.take());
    assert!(!e1.is_empty(), "the treatment replay must emit events");
    assert_eq!(e1, e4, "fig12 telemetry must not depend on --jobs");
}

#[test]
fn fig14_jobs4_is_bit_identical_to_jobs1() {
    // The golden config: a scaled-down sweep over two allocation points.
    let base = HotnessRunConfig {
        accesses: 900_000,
        n_apps: 3,
        channels: 2,
        ..HotnessRunConfig::tiny(5, true)
    };
    let points = [("loose", 4u32, 0.55f64), ("tight", 4, 0.95)];
    let r1 = fig14::run(&base, &points, 1).unwrap();
    let r4 = fig14::run(&base, &points, 4).unwrap();
    assert_eq!(to_json(&r1), to_json(&r4), "fig14 JSON must not depend on --jobs");
}

#[test]
fn fault_campaign_jobs4_is_bit_identical_to_jobs1_including_the_trace() {
    let cfg = FaultRunConfig::tiny_storm(3);
    let (t1, s1) = traced();
    let (t4, s4) = traced();
    let (r1, _) = fault_campaign::run(&cfg, &t1, 1, &Heartbeat::disabled()).unwrap();
    let (r4, _) = fault_campaign::run(&cfg, &t4, 4, &Heartbeat::disabled()).unwrap();
    assert_eq!(to_json(&r1), to_json(&r4), "fault_campaign JSON must not depend on --jobs");
    assert_eq!(s1.take(), s4.take(), "fault_campaign telemetry must not depend on --jobs");
}

#[test]
fn pool_scale_jobs4_is_bit_identical_to_jobs1_including_the_trace() {
    let cfg = PoolRunConfig::tiny(7);
    let (t1, s1) = traced();
    let (t4, s4) = traced();
    let (r1, _) = pool_scale::run(&cfg, &t1, 1, &Heartbeat::disabled()).unwrap();
    let (r4, _) = pool_scale::run(&cfg, &t4, 4, &Heartbeat::disabled()).unwrap();
    assert_eq!(to_json(&r1), to_json(&r4), "pool_scale JSON must not depend on --jobs");
    let (e1, e4) = (s1.take(), s4.take());
    assert!(!e1.is_empty(), "the headline pool replay must emit events");
    assert_eq!(e1, e4, "pool_scale telemetry must not depend on --jobs");
}

#[test]
fn pool_failover_jobs4_is_bit_identical_to_jobs1() {
    let base = PoolRunConfig::tiny(3);
    let r1 = pool_failover::run(&base, 3, 1).unwrap();
    let r4 = pool_failover::run(&base, 3, 4).unwrap();
    assert_eq!(to_json(&r1), to_json(&r4), "pool_failover JSON must not depend on --jobs");
}

#[test]
fn diff_fuzz_jobs4_is_bit_identical_to_jobs1() {
    let cfg = CheckRunConfig::smoke();
    let r1 = diff_fuzz::run(&cfg, 1);
    let r4 = diff_fuzz::run(&cfg, 4);
    assert_eq!(to_json(&r1), to_json(&r4), "diff_fuzz JSON must not depend on --jobs");
}

#[test]
fn jobs_beyond_unit_count_still_match() {
    let cfg = CheckRunConfig::smoke();
    assert_eq!(to_json(&diff_fuzz::run(&cfg, 1)), to_json(&diff_fuzz::run(&cfg, 64)));
}

/// A tiny registry context with 1-hour time-series windows.
fn series_ctx(jobs: usize, args: &[&str]) -> RunContext {
    let mut ctx = RunContext::plain(true);
    ctx.jobs = jobs;
    ctx.series_width = Some(3_600_000_000_000_000);
    ctx.args = args.iter().map(|s| (*s).to_string()).collect();
    ctx
}

#[test]
fn vm_campaign_timeseries_csv_jobs4_is_byte_identical_to_jobs1() {
    let exp = find("vm_campaign").unwrap();
    let args = ["--hosts", "4"];
    let o1 = exp.run(&series_ctx(1, &args)).unwrap();
    let o4 = exp.run(&series_ctx(4, &args)).unwrap();
    assert_eq!(o1.json, o4.json, "vm_campaign JSON must not depend on --jobs");
    let csv1 = o1.timeseries.expect("a width was requested").to_csv();
    let csv4 = o4.timeseries.expect("a width was requested").to_csv();
    assert!(csv1.starts_with(TIMESERIES_CSV_HEADER));
    assert_eq!(csv1, csv4, "vm_campaign time-series CSV must not depend on --jobs");
    assert!(o1.slo.is_some_and(|s| !s.is_empty()), "the campaign reports an SLO");
}

#[test]
fn policy_ablation_timeseries_csv_jobs4_is_byte_identical_to_jobs1() {
    let exp = find("policy_ablation").unwrap();
    let o1 = exp.run(&series_ctx(1, &[])).unwrap();
    let o4 = exp.run(&series_ctx(4, &[])).unwrap();
    assert_eq!(o1.json, o4.json, "policy_ablation JSON must not depend on --jobs");
    assert!(o1.failure.is_none(), "a ladder policy must win a cell: {:?}", o1.failure);
    let s1 = o1.timeseries.expect("a width was requested");
    let s4 = o4.timeseries.expect("a width was requested");
    assert_eq!(
        s1.to_csv(),
        s4.to_csv(),
        "policy_ablation time-series CSV must not depend on --jobs"
    );
    assert!(o1.slo.is_some_and(|s| !s.is_empty()), "the matrix reports an SLO");
}

#[test]
fn pool_scale_timeseries_csv_jobs4_is_byte_identical_to_jobs1() {
    let exp = find("pool_scale").unwrap();
    let o1 = exp.run(&series_ctx(1, &[])).unwrap();
    let o4 = exp.run(&series_ctx(4, &[])).unwrap();
    assert_eq!(o1.json, o4.json, "pool_scale JSON must not depend on --jobs");
    let s1 = o1.timeseries.expect("a width was requested");
    let s4 = o4.timeseries.expect("a width was requested");
    assert_eq!(s1.to_csv(), s4.to_csv(), "pool_scale time-series CSV must not depend on --jobs");
    // Every pool rank accounts the full horizon (quiet ranks included);
    // events landing on unregistered channels would inflate this, so it
    // also pins the per-device channel-offset registration.
    let cfg = PoolRunConfig::tiny(7);
    let ranks =
        u128::from(cfg.devices) * u128::from(cfg.channels) * u128::from(cfg.ranks_per_channel);
    let horizon = u128::from(cfg.duration_min) * 60 * 1_000_000_000_000;
    let total: u128 = s1.residency_totals_ps().iter().sum();
    let floor = horizon * ranks;
    assert!(
        total >= floor && total - floor <= ranks * 200_000,
        "pool ranks account the horizon: {total} vs {floor}"
    );
}

#[test]
fn fabric_load_timeseries_csv_jobs4_is_byte_identical_to_jobs1() {
    let exp = find("fabric_load").unwrap();
    let o1 = exp.run(&series_ctx(1, &[])).unwrap();
    let o4 = exp.run(&series_ctx(4, &[])).unwrap();
    assert_eq!(o1.json, o4.json, "fabric_load JSON must not depend on --jobs");
    assert!(o1.failure.is_none(), "the sweep meets its acceptance: {:?}", o1.failure);
    let csv1 = o1.timeseries.expect("a width was requested").to_csv();
    let csv4 = o4.timeseries.expect("a width was requested").to_csv();
    assert!(csv1.starts_with(TIMESERIES_CSV_HEADER));
    assert_eq!(csv1, csv4, "fabric_load time-series CSV must not depend on --jobs");
    // The switched interconnect reports the port-queue population.
    assert!(o1.slo.is_some_and(|s| s.fabric_queue.is_some()), "fabric SLO carries queue waits");
}
