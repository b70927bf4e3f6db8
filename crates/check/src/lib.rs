//! # dtl-check: differential oracle and invariant harness
//!
//! Cross-checks the cycle-level DTL device (`dtl-core`) against a
//! deliberately simple reference model.
//!
//! The device chooses migration destinations internally, so a reference
//! model cannot *predict* DSNs. Instead the [`Oracle`] replays the
//! device's committed-command stream (the tap on
//! `DtlDevice::drain_commands`) into flat hash maps, independently
//! validating the stream's coherence as it goes, and the invariant suite
//! ([`check_device`]) then cross-checks three independent views of the
//! same state: the tap-built oracle, the device's reverse-table dump, and
//! side-effect-free forward probes — plus residency conservation, a power
//! ledger, power safety, and byte-shadowed segment contents.
//!
//! The [`fuzz`] entry point drives device and oracle in lockstep over a
//! seeded random op stream ([`ops::generate`]), and on failure shrinks
//! the stream with delta debugging ([`minimize::minimize`]) into a
//! replayable [`Counterexample`].

#![warn(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod minimize;
pub mod ops;
pub mod oracle;

pub use harness::{replay, CheckFailure, CheckSetup, LockstepHarness, RunStats};
pub use invariants::{check_access_rank, check_device, CheckStats};
pub use minimize::{minimize, Counterexample};
pub use ops::{generate, FuzzOp, OpStreamConfig};
pub use oracle::{Oracle, Violation};

/// Result of one fuzzing run: either clean stats or a shrunk
/// counterexample.
#[derive(Debug)]
pub enum FuzzOutcome {
    /// The stream verified clean.
    Clean(RunStats),
    /// A violation was found and minimized.
    Failed(Box<Counterexample>),
}

impl FuzzOutcome {
    /// `true` when the run verified clean.
    pub fn is_clean(&self) -> bool {
        matches!(self, FuzzOutcome::Clean(_))
    }
}

/// Generates the stream for `setup`, runs it in lockstep, and minimizes
/// any failure into a replayable counterexample.
pub fn fuzz(setup: &CheckSetup) -> FuzzOutcome {
    let ops = generate(&setup.stream);
    match replay(setup, &ops) {
        Ok(stats) => FuzzOutcome::Clean(stats),
        Err(failure) => FuzzOutcome::Failed(Box::new(minimize(setup, &ops, &failure))),
    }
}
