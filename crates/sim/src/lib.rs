//! # dtl-sim — full-system simulation and the experiment library
//!
//! Glues the substrates together and reproduces every table and figure of
//! the paper's evaluation. Each experiment lives in [`experiments`] as a
//! function returning typed rows; `dtl <experiment>` (the `dtl-bench`
//! binary) renders them.
//!
//! Every harness has exactly one public entry point (`run_schedule`,
//! `run_faulted`, `run_pool`, …) taking its instrumentation — a
//! [`Telemetry`](dtl_telemetry::Telemetry) handle, a worker count, a
//! [`Heartbeat`] — as plain parameters; callers that want none pass
//! `&Telemetry::disabled()` / `1`. The harnesses that replay a VM schedule
//! all do it through [`scenario`], the public world × lane × hooks driver.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check_run;
pub mod exec;
pub mod experiments;
mod fabric_run;
mod fault_run;
mod heartbeat;
mod hotness_run;
mod obs;
mod perf;
mod pool_run;
mod powerdown_run;
pub mod render;
mod report;
pub mod scenario;
mod vm_campaign_run;

pub use check_run::{run_checks, CheckRunConfig, CheckRunResult, SeedResult};
pub use fabric_run::{placement_label, run_fabric_cell, FabricCellResult, FabricRunConfig};
pub use fault_run::{
    apply_device_fault, run_faulted, AppliedFault, FaultRunConfig, FaultRunResult,
};
pub use heartbeat::Heartbeat;
pub use hotness_run::{
    hotness_savings, run_hotness, run_reentry, HotnessRunConfig, HotnessRunResult, ReentryResult,
};
pub use obs::{export_queue_metrics, RunObservations};
pub use perf::PerfModel;
pub use pool_run::{
    run_pool, run_pool_faulted, PoolFaultRunConfig, PoolFaultRunResult, PoolIntervalSample,
    PoolRunConfig, PoolRunResult,
};
pub use powerdown_run::{run_schedule, IntervalSample, PowerDownRunConfig, PowerDownRunResult};
pub use report::{f1, f2, f3, metrics_section, pct, to_json, Table};
pub use vm_campaign_run::{
    run_campaign, CampaignObservations, HostOutcome, VmCampaignConfig, VmCampaignResult,
};

/// Debug-build cross-check that the two residency sources agree: the
/// backend's [`PowerReport`](dtl_dram::PowerReport) and the per-rank
/// projection behind [`DeviceSnapshot`](dtl_core::DeviceSnapshot) /
/// telemetry must be the *same* numbers, because both are integrated by
/// the backend's `EnergyAccount`s. Compiled out of release runs.
pub fn assert_residency_consistency<B: dtl_core::MemoryBackend>(
    dev: &dtl_core::DtlDevice<B>,
    report: &dtl_dram::PowerReport,
) {
    if cfg!(debug_assertions) {
        for (c, ch) in report.residency.iter().enumerate() {
            for (r, rank_res) in ch.iter().enumerate() {
                let projected = dev.backend().rank_residency(c as u32, r as u32);
                assert_eq!(
                    *rank_res, projected,
                    "residency mismatch on ch{c}/rk{r}: report vs backend projection"
                );
            }
        }
    }
}
