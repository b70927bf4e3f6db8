//! The seven workloads. Each module names the registry run(s) the
//! end-to-end pass times, and restates the same scenario as a driver over
//! the layer adapters in [`crate::layers`] for the traced pass (and, with
//! the tracer off, for `setup_s`). A driver's result must reproduce the
//! registry's JSON, or the pass counts as failed.

pub mod access_path;
pub mod cycle_dram;
pub mod fabric_load;
pub mod fleet_events;
pub mod fuzz_oracle;
pub mod grid_schedule;
pub mod pool_failover;

use serde::Value;

use crate::layers::Counters;

/// How large a run is: `--quick` or the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny configurations for a smoke run of the whole suite.
    Quick,
    /// Sized so that a warm-up and at least three timed repeats fit the
    /// ten seconds one ledger run may measure.
    Ledger,
}

/// Where a workload's registry runs take their seed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeding {
    /// `--seed`, as `RunContext.seed`.
    Flag,
    /// One seed whatever `--seed` says, where a single schedule cannot
    /// average the seed out: a few large drains set its cost, which then
    /// moves by tens of percent from seed to seed and would bury any
    /// change to the code.
    Pinned(u64),
    /// The registry runs take no seed (fixed request streams, fixed seed
    /// list): every `--seed` replays the same inputs.
    Unseeded,
}

impl Seeding {
    /// The seed the workload's inputs are made from when the command line
    /// says `flag`; `None` where they are made from none.
    pub fn effective(self, flag: u64) -> Option<u64> {
        match self {
            Seeding::Flag => Some(flag),
            Seeding::Pinned(seed) => Some(seed),
            Seeding::Unseeded => None,
        }
    }
}

/// One run through `dtl_sim::experiments::find(experiment)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryRun {
    /// Registry key.
    pub experiment: &'static str,
    /// `RunContext::tiny`.
    pub tiny: bool,
    /// `RunContext::args`.
    pub args: Vec<String>,
}

impl RegistryRun {
    /// A run of `experiment` with raw `args`.
    pub fn new(experiment: &'static str, tiny: bool, args: &[&str]) -> Self {
        RegistryRun { experiment, tiny, args: args.iter().map(|a| a.to_string()).collect() }
    }
}

/// The workload's headline simulated statistic, with the paper's figure
/// where EXPERIMENTS.md records one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// What the number is.
    pub name: &'static str,
    /// The simulated value.
    pub value: f64,
    /// The paper's value for the same quantity.
    pub paper: Option<f64>,
}

/// What a driver's run phase hands back.
#[derive(Debug)]
pub struct Outcome {
    /// One result JSON per registry run, as `dtl_sim::to_json` renders it.
    pub jsons: Vec<String>,
    /// Simulated statistics and exact counts by per-layer metric name.
    pub counters: Counters,
}

/// A driver past its set-up: calling it simulates.
pub type Run = Box<dyn FnOnce() -> Result<Outcome, String>>;

/// A driver's set-up at a scale and seed.
pub type Prepare = fn(Scale, u64) -> Result<Run, String>;

/// One workload: its registry runs and its own driver.
pub struct Driver {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload is in the suite (one line).
    pub why: &'static str,
    /// What one `op` is.
    pub op: &'static str,
    /// Whether the driver must reproduce the registry result exactly
    /// (integers bit for bit, floats to 1e-12). The grid workloads, whose
    /// harness glue is private to `dtl-sim`, may fall back to 1 %.
    pub exact: bool,
    /// Where the inputs' seed comes from.
    pub seeding: Seeding,
    /// The registry runs at a scale, in order.
    pub runs: fn(Scale) -> Vec<RegistryRun>,
    /// Exact operation count of one pass over the runs, from the parsed
    /// result JSONs and the scale.
    pub ops: fn(Scale, &[Value]) -> Option<u64>,
    /// Headline statistic from the parsed result JSONs.
    pub headline: fn(&[Value]) -> Option<Headline>,
    /// Set-up: input synthesis, construction and pre-run allocation.
    pub prepare: Prepare,
    /// The same driver with a timed telemetry sink installed, where the
    /// workload has a telemetry pass.
    pub prepare_with_telemetry: Option<Prepare>,
}

/// Every workload, in suite order.
pub const ALL: [&Driver; 7] = [
    &fleet_events::DRIVER,
    &grid_schedule::DRIVER,
    &access_path::DRIVER,
    &cycle_dram::DRIVER,
    &pool_failover::DRIVER,
    &fabric_load::DRIVER,
    &fuzz_oracle::DRIVER,
];

/// Resolves a workload by name.
pub fn find(name: &str) -> Option<&'static Driver> {
    ALL.iter().copied().find(|d| d.name == name)
}

/// Any displayable error as the drivers' error type.
pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
