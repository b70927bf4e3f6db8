//! # dtl-core — the DRAM Translation Layer
//!
//! A from-scratch reproduction of the primary contribution of *"DRAM
//! Translation Layer: Software-Transparent DRAM Power Savings for
//! Disaggregated Memory"* (ISCA 2023): an FTL-like indirection layer inside
//! a CXL memory controller that translates host physical addresses to DRAM
//! device physical addresses at 2 MiB segment granularity and migrates
//! segments transparently, enabling
//!
//! * **rank-level power-down** ([`DtlDevice::dealloc_vm`]) — consolidate
//!   unallocated capacity at VM deallocation and put whole (virtual) rank
//!   groups into maximum power saving mode, and
//! * **hotness-aware self-refresh** ([`HotnessEngine`]) — CLOCK-style
//!   hot/cold segment separation that parks a cold victim rank per channel
//!   in self-refresh.
//!
//! The [`DtlDevice`] façade drives both over a pluggable
//! [`MemoryBackend`]: cycle-accurate ([`CycleBackend`]) or fast analytic
//! ([`AnalyticBackend`]).
//!
//! ```
//! use dtl_core::{DtlConfig, DtlDevice, HostId};
//! use dtl_dram::{AccessKind, Picos};
//!
//! let cfg = DtlConfig::tiny();
//! let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
//! dev.register_host(HostId(0))?;
//! let vm = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO)?;
//! let out = dev.access(HostId(0), vm.hpa_base(0, cfg.au_bytes), AccessKind::Read, Picos::from_us(1))?;
//! assert!(out.translation_latency > Picos::ZERO);
//! dev.dealloc_vm(vm.handle, Picos::from_us(2))?;
//! dev.check_invariants()?;
//! # Ok::<(), dtl_core::DtlError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod admission;
mod alloc;
mod backend;
mod config;
mod device;
mod error;
mod health;
mod hotness;
mod migrate;
mod origin;
mod overhead;
mod power;
mod smc;
mod tables;
mod tap;
mod translate;

pub use addr::{
    div_rem, AuId, Dsn, HostId, HostPhysAddr, Hsn, SegmentGeometry, SegmentLocation, VmHandle,
};
pub use admission::{HostSnapshot, VmAllocation};
pub use alloc::SegmentAllocator;
pub use backend::{AnalyticBackend, CycleBackend, MemoryBackend};
pub use config::DtlConfig;
pub use device::{AccessOutcome, DeviceSnapshot, DeviceStats, DtlDevice, RankSnapshot};
pub use error::DtlError;
pub use health::{
    HealthParams, HealthStats, HealthTracker, RankErrorRecord, RankHealth, UncorrectableReport,
};
pub use hotness::{
    HotnessEngine, HotnessParams, HotnessPhase, HotnessPlan, HotnessRole, HotnessStats,
};
pub use migrate::{
    CompletedMigration, MigrationEngine, MigrationInterrupt, MigrationJob, MigrationKind,
    MigrationStats, WriteRouting,
};
pub use overhead::{ControllerCost, OverheadConfig, StructureSizes};
pub use power::{PowerDownStats, RankPdState};
pub use smc::{SegmentMappingCache, SmcOutcome, SmcStats};
pub use tables::MappingTables;
pub use tap::{CommandTap, DeviceCommand};
pub use translate::{Translation, TranslationLatency, Translator};
