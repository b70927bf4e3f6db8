//! Smoke-level integration of every experiment module: each runs at
//! reduced scale and must satisfy its paper-shape constraint. The
//! full-scale numbers live in EXPERIMENTS.md and regenerate via
//! `dtl <experiment>`.

use dtl_sim::experiments::{
    fault_campaign, fig01, fig02, fig05, fig09, fig10, fig11, fig14, fig15, sec6_1, tab04, tab05,
    tab06,
};
use dtl_sim::{FaultRunConfig, Heartbeat, HotnessRunConfig};
use dtl_telemetry::Telemetry;
use dtl_trace::WorkloadKind;

#[test]
fn fig01_average_usage_below_half() {
    let r = fig01::run(1);
    assert!(r.average_fraction < 0.5);
    assert!(r.average_fraction > 0.2, "schedule should be realistic, not empty");
}

#[test]
fn fig02_rank_reduction_costs_single_digits() {
    let r = fig02::run(5_000, &[WorkloadKind::DataServing, WorkloadKind::MediaStreaming], 1);
    assert!(r.mean_slowdown_at_min_ranks >= 1.0);
    assert!(r.mean_slowdown_at_min_ranks < 1.06, "{}", r.mean_slowdown_at_min_ranks);
}

#[test]
fn fig05_interleaving_cost_small_and_diluted_by_cxl() {
    let r = fig05::run(5_000, &[WorkloadKind::DataServing, WorkloadKind::WebSearch], 1);
    assert!(r.local_mean() < 1.08);
    assert!(r.cxl_mean() <= r.local_mean() + 1e-9);
}

#[test]
fn fig09_mixes_dominated_by_large_strides() {
    let r = fig09::run(1, 20_000, 64, 1);
    let mix8 = r.rows.last().unwrap();
    assert!(mix8.at_least_4m > 0.75, "{}", mix8.at_least_4m);
}

#[test]
fn fig10_two_mb_colder_than_four_mb() {
    let r = fig10::run(11, 150_000, 64);
    assert!(r.rows[1].cold_fraction > r.rows[2].cold_fraction);
}

#[test]
fn fig11_power_model_shapes() {
    let r = fig11::run();
    assert!((r.background[0].normalized_power - 0.301).abs() < 0.01);
    let ratio0 = r.active[0].mw_per_gbps;
    assert!(r.active.iter().all(|p| (p.mw_per_gbps - ratio0).abs() < 1e-6));
}

#[test]
fn fig14_and_fig15_shapes() {
    let base = HotnessRunConfig {
        accesses: 900_000,
        n_apps: 3,
        channels: 2,
        ..HotnessRunConfig::tiny(5, true)
    };
    let points = [("loose", 4u32, 0.6)];
    let f14 = fig14::run(&base, &points, 1).unwrap();
    assert!(f14.rows[0].additional_saving > 0.0, "{:?}", f14.rows[0]);
    let f15 = fig15::run(&base, 8, &[("6rk", 6, 0.72)], 1).unwrap();
    let row = &f15.rows[0];
    // Two of eight ranks in MPSM: (1 - 0.068) * 2/8 = 23.3%.
    assert!((row.powerdown_saving - 0.233).abs() < 0.01);
    assert!(row.total_saving >= row.powerdown_saving - 1e-9);
}

#[test]
fn fault_campaign_reports_capacity_energy_and_latency_cost() {
    let (r, _) = fault_campaign::run(
        &FaultRunConfig::tiny_storm(7),
        &Telemetry::disabled(),
        1,
        &Heartbeat::disabled(),
    )
    .unwrap();
    // The error storm retires its victim rank; the pool loses exactly one
    // rank of capacity and reports the loss.
    assert_eq!(r.faulted.ranks_retired, 1);
    assert!(r.capacity_lost_fraction > 0.0 && r.capacity_lost_fraction < 0.5);
    // The fault-free baseline is genuinely fault-free.
    assert_eq!(r.baseline.faults_injected, 0);
    assert_eq!(r.baseline.ranks_retired, 0);
    // Link CRC faults surface as a (small) foreground latency penalty.
    assert!(r.faulted.link.crc_errors > 0);
    assert!(r.latency_penalty_ns >= 0.0);
    // The JSON report round-trips (`dtl fault_campaign` emits this).
    let json = dtl_sim::to_json(&r);
    assert!(json.contains("capacity_lost_bytes"));
    assert!(json.contains("latency_penalty_ns"));
}

#[test]
fn tables_and_amat() {
    let t4 = tab04::run(1, 20_000, 1);
    assert!(t4.max_relative_error < 0.1);
    let t5 = tab05::run();
    assert!(t5.columns[1].metadata_fraction < 1e-5);
    let t6 = tab06::run();
    assert!(t6.columns[0].total_mw < t6.columns[1].total_mw);
    let s = sec6_1::run(3, 60_000, 64).unwrap();
    assert!((s.evals[0].amat_ns - 214.2).abs() < 1.0);
}
