//! # dtl-dram — cycle-level DDR4 DRAM timing and power simulator
//!
//! This crate is the DRAM substrate of the DTL (DRAM Translation Layer)
//! reproduction. It models a CXL memory device's DRAM back end at command
//! granularity:
//!
//! * **Geometry & timing** — channels, ranks, bank groups, banks, rows and
//!   columns with a DDR4-2933 timing set ([`DramConfig`]).
//! * **Address mapping** — the conventional rank-interleaved layout and the
//!   paper's rank-MSB / channel-per-segment layout ([`AddressMapping`]).
//! * **Scheduling** — per-channel FR-FCFS with a strict-priority foreground
//!   queue and a migration queue that only steals idle bandwidth.
//! * **Power** — rank-level power states (standby, power-down, self-refresh,
//!   MPSM) with the paper's Table 2 normalized background powers, plus
//!   bandwidth-proportional event energy ([`PowerParams`]).
//!
//! ## Quick start
//!
//! ```
//! use dtl_dram::{
//!     AccessKind, AddressMapping, DramConfig, DramSystem, PhysAddr, Picos, PowerState,
//!     Priority, RankId,
//! };
//!
//! let mut dram = DramSystem::new(DramConfig::tiny(), AddressMapping::dtl_default())?;
//! // Issue a read, let the controller run, observe the completion.
//! dram.submit(PhysAddr::new(4096), AccessKind::Read, Priority::Foreground, Picos::ZERO)?;
//! dram.advance_to(Picos::from_us(1));
//! assert_eq!(dram.drain_completions().len(), 1);
//! // Put a rank into self-refresh and measure the energy difference.
//! dram.set_rank_state(RankId { channel: 0, rank: 3 }, PowerState::SelfRefresh, dram.now())?;
//! dram.advance_to(Picos::from_ms(1));
//! let report = dram.power_report(Picos::from_ms(1));
//! assert!(report.total.background_mj > 0.0);
//! # Ok::<(), dtl_dram::DramError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod bank;
mod channel;
mod command;
mod config;
mod error;
mod hash;
mod mapping;
mod policy;
mod power;
mod rank;
mod request;
mod system;
mod time;

pub use addr::{DecodedAddr, PhysAddr};
pub use bank::Bank;
pub use channel::{Channel, PowerEvent, PowerEventCause};
pub use command::{CommandKind, CommandSink, IssuedCommand, NullSink, RecordingSink};
pub use config::{DramConfig, Geometry, PagePolicy, TimingParams, LINE_BYTES};
pub use error::DramError;
pub use hash::{FastHasher, FastMap, FastSet};
pub use mapping::{AddressMapper, AddressMapping};
pub use policy::{
    ladder_depth, ladder_next_down, transition_is_legal, PolicyEngine, PowerPolicyKind,
    REFRESH_POSTPONE_BUDGET, TREFI,
};
pub use power::{EnergyAccount, PowerParams, PowerState, RankEnergy};
pub use rank::{Rank, RankCounters};
pub use request::{AccessKind, Completion, LatencyStats, MemRequest, Priority};
pub use system::{DramSystem, PowerReport, RankId};
pub use time::Picos;
