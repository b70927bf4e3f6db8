//! `dtl-check`: op-stream generation and the lockstep device/oracle run.

use dtl_check::{CheckFailure, CheckSetup, FuzzOp, LockstepHarness, OpStreamConfig, RunStats};

use crate::span::{span, Layer};

/// `dtl_check::generate`.
pub fn generate(stream: &OpStreamConfig) -> Vec<FuzzOp> {
    span(Layer::CheckGenerate, || dtl_check::generate(stream))
}

/// `LockstepHarness::new`: the device under test (command tap on) and
/// its oracle.
pub fn harness(setup: CheckSetup) -> LockstepHarness {
    LockstepHarness::new(setup)
}

/// `LockstepHarness::run_ops`. The harness owns a plain
/// `DtlDevice<AnalyticBackend>`, so device time cannot be split from
/// oracle time here: this span is both.
pub fn run_ops(harness: &mut LockstepHarness, ops: &[FuzzOp]) -> Result<RunStats, CheckFailure> {
    span(Layer::CheckRunOps, || harness.run_ops(ops))
}
