//! # dtl-pool — rack-scale memory-pool orchestration over DTL devices
//!
//! The paper's DRAM Translation Layer saves power *inside* one CXL memory
//! device; its target deployment is a disaggregated pool of such devices
//! serving many hosts. This crate supplies the missing layer: a
//! deterministic orchestrator ([`MemoryPool`]) that owns N
//! [`DtlDevice`](dtl_core::DtlDevice)s behind their CXL links and exposes a
//! single pool API —
//!
//! * **VM admission** with pluggable [`PlacementPolicy`]s: pack-for-power
//!   concentrates load so whole devices drain empty, spread-for-bandwidth
//!   stripes allocation units across devices;
//! * **live evacuation** — VM shards move between devices through reserved
//!   destination capacity with a modelled copy time; the source keeps
//!   serving accesses until the cutover, so no segment is ever unreachable;
//! * a **pool-wide power coordinator** that extends the paper's rank-group
//!   consolidation across device boundaries: drain the least-utilized
//!   device, let its own power-down engine MPSM the emptied rank groups,
//!   and park it until admission pressure wakes it again;
//! * **health-driven failover** — devices whose ranks trip the `dtl-core`
//!   error-health lifecycle (or that an operator retires outright) are
//!   drained onto the survivors using the same evacuation machinery.
//!
//! Everything is deterministic: identical call sequences produce identical
//! pool states, placements, and telemetry, which is what lets the
//! `pool_scale` experiment shard across threads bit-identically.
//!
//! ```
//! use dtl_dram::{AccessKind, Picos};
//! use dtl_pool::{MemoryPool, PoolConfig};
//! use dtl_core::HostId;
//!
//! let mut pool = MemoryPool::analytic(PoolConfig::tiny(3)).unwrap();
//! pool.register_host(HostId(0)).unwrap();
//! let au = pool.config().dtl.au_bytes;
//! let vm = pool.alloc_vm(HostId(0), 2 * au, Picos::ZERO).unwrap();
//! let out = pool.access(vm, 0, AccessKind::Read, Picos::from_us(1)).unwrap();
//! assert!(out.link_delay > Picos::ZERO, "pool accesses pay the CXL link");
//! pool.tick(Picos::from_ms(1)).unwrap();
//! pool.check_invariants().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod placement;
mod pool;

pub use placement::{Candidate, PlacementPolicy, Slice};
pub use pool::{
    EvacJob, MemoryPool, PoolAccessOutcome, PoolDeviceSnapshot, PoolSnapshot, PoolStats,
};

/// A pool of analytic-backend devices — the standard simulation pool type.
pub type AnalyticMemoryPool = MemoryPool<dtl_core::AnalyticBackend>;

use core::fmt;

use dtl_core::{DtlConfig, DtlError, HostId, SegmentGeometry};
use dtl_cxl::{LinkModel, RetryPolicy};
use serde::{Deserialize, Serialize};

/// Index of a member device in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u16);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Pool-scoped VM identifier, stable across evacuations (the per-device
/// `VmHandle`s underneath change as shards move).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PoolVmId(pub u64);

impl fmt::Display for PoolVmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pvm{}", self.0)
    }
}

/// Error-health lifecycle of a member device, mirroring the per-rank
/// `RankHealth` lifecycle one level up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceHealth {
    /// Serving traffic and eligible for placement.
    Healthy,
    /// Failover tripped (rank-health threshold or operator drain): existing
    /// shards are being evacuated, no new placements.
    Draining,
    /// Permanently removed from service; shards are evacuated and the
    /// device is never used again.
    Retired,
}

impl DeviceHealth {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Draining => "draining",
            DeviceHealth::Retired => "retired",
        }
    }
}

/// Power-coordinator state of a member device — the cross-device analogue
/// of the per-rank power-down lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordState {
    /// Eligible for placement and serving traffic.
    Active,
    /// Chosen as the consolidation victim: shards are draining off it.
    Draining,
    /// Fully drained; its rank groups sit in MPSM until admission pressure
    /// wakes the device.
    Parked,
}

impl CoordState {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CoordState::Active => "active",
            CoordState::Draining => "draining",
            CoordState::Parked => "parked",
        }
    }
}

/// Pool-wide power-coordinator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoordinatorConfig {
    /// Master switch; off, the pool never drains devices for power.
    pub enabled: bool,
    /// Free allocation units that must remain across the surviving active
    /// devices *after* absorbing the victim's load, or the drain is not
    /// started. Guards against park/wake ping-pong at the capacity edge.
    pub slack_aus: u32,
    /// Devices the coordinator must always leave active.
    pub min_active: u16,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig { enabled: true, slack_aus: 1, min_active: 1 }
    }
}

/// Parameters of a [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Member devices.
    pub devices: u16,
    /// Per-device DTL configuration (segment size, AU size, SMC, windows).
    pub dtl: DtlConfig,
    /// Channels per device.
    pub channels: u32,
    /// Ranks per channel per device.
    pub ranks_per_channel: u32,
    /// Segments per rank per device.
    pub segs_per_rank: u64,
    /// Placement policy for VM admission.
    pub policy: PlacementPolicy,
    /// Latency model of each device's CXL attachment.
    pub link: LinkModel,
    /// Link-layer retry policy of each device's CXL attachment.
    pub retry: RetryPolicy,
    /// Pool-wide power coordinator.
    pub coordinator: CoordinatorConfig,
    /// Modelled inter-device copy bandwidth for evacuations, bytes per
    /// second; sets how long a shard keeps being served by its source.
    pub evac_bytes_per_sec: u64,
    /// Fraction of a device's ranks in `Draining`/`Retired` health at which
    /// failover trips and the whole device is drained.
    pub failover_rank_fraction: f64,
}

impl PoolConfig {
    /// A small pool for tests: `devices` tiny devices (2 channels x 4 ranks
    /// x 32 segments of 256 KiB; 8 allocation units each), packed placement,
    /// CXL links, coordinator on.
    pub fn tiny(devices: u16) -> Self {
        PoolConfig {
            devices,
            dtl: DtlConfig::tiny(),
            channels: 2,
            ranks_per_channel: 4,
            segs_per_rank: 32,
            policy: PlacementPolicy::PackForPower,
            link: LinkModel::cxl(),
            retry: RetryPolicy::default(),
            coordinator: CoordinatorConfig::default(),
            evac_bytes_per_sec: 4 << 30,
            failover_rank_fraction: 0.25,
        }
    }

    /// Paper-scale members: each device is the Figure 12 node (4 channels x
    /// 8 ranks, 12 GiB ranks -> 384 GiB, 2 GiB allocation units).
    pub fn paper(devices: u16) -> Self {
        PoolConfig {
            devices,
            dtl: DtlConfig::paper(),
            channels: 4,
            ranks_per_channel: 8,
            segs_per_rank: (12u64 << 30) / DtlConfig::paper().segment_bytes,
            policy: PlacementPolicy::PackForPower,
            link: LinkModel::cxl(),
            retry: RetryPolicy::default(),
            coordinator: CoordinatorConfig::default(),
            evac_bytes_per_sec: 4 << 30,
            failover_rank_fraction: 0.25,
        }
    }

    /// Segments per device.
    pub fn segments_per_device(&self) -> u64 {
        u64::from(self.channels) * u64::from(self.ranks_per_channel) * self.segs_per_rank
    }

    /// Allocation units per device.
    pub fn aus_per_device(&self) -> u32 {
        (self.segments_per_device() / self.dtl.segments_per_au()) as u32
    }

    /// Bytes of memory per device.
    pub fn bytes_per_device(&self) -> u64 {
        self.segments_per_device() * self.dtl.segment_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), PoolError> {
        if self.devices == 0 {
            return Err(PoolError::InvalidConfig {
                reason: "pool needs at least one device".into(),
            });
        }
        // Before any arithmetic on the sizes: this is what rules out a zero
        // segment size and a segment count that wraps.
        let geo = SegmentGeometry {
            channels: self.channels,
            ranks_per_channel: self.ranks_per_channel,
            segs_per_rank: self.segs_per_rank,
        };
        if let Err(e) = self.dtl.validate_geometry(&geo) {
            let reason = match e {
                DtlError::InvalidConfig { reason } => reason,
                other => other.to_string(),
            };
            return Err(PoolError::InvalidConfig { reason });
        }
        if self.aus_per_device() == 0 {
            return Err(PoolError::InvalidConfig {
                reason: "device smaller than one allocation unit".into(),
            });
        }
        if self.evac_bytes_per_sec == 0 {
            return Err(PoolError::InvalidConfig {
                reason: "evacuation bandwidth must be positive".into(),
            });
        }
        if !(self.failover_rank_fraction > 0.0 && self.failover_rank_fraction <= 1.0) {
            return Err(PoolError::InvalidConfig {
                reason: "failover_rank_fraction must be in (0, 1]".into(),
            });
        }
        if u32::from(self.coordinator.min_active) == 0 {
            return Err(PoolError::InvalidConfig {
                reason: "coordinator.min_active must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Errors reported by the pool orchestrator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// Configuration failed validation.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A member device reported an error.
    Device {
        /// The reporting device.
        device: DeviceId,
        /// The device-level error.
        source: DtlError,
    },
    /// An unknown pool VM id.
    UnknownVm(PoolVmId),
    /// An unknown device index.
    UnknownDevice(DeviceId),
    /// A host that was never registered with the pool.
    UnknownHost(HostId),
    /// A host the pool's interconnect has no route for to a member device.
    UnroutableHost {
        /// The host.
        host: HostId,
        /// The lowest-id device it cannot reach.
        device: DeviceId,
    },
    /// An access beyond a VM's allocated size.
    OutOfRange {
        /// The VM.
        vm: PoolVmId,
        /// The offending byte offset.
        offset: u64,
        /// The VM's allocated bytes.
        bytes: u64,
    },
    /// Not enough placeable capacity across healthy active devices (after
    /// waking every parked one).
    NoCapacity {
        /// Allocation units requested.
        requested_aus: u32,
        /// Allocation units placeable pool-wide.
        free_aus: u64,
    },
    /// A host exceeded its pool-level capacity quota.
    QuotaExceeded {
        /// The host at its limit.
        host: HostId,
        /// AUs currently mapped pool-wide.
        mapped_aus: u32,
        /// The configured cap.
        quota_aus: u32,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::InvalidConfig { reason } => {
                write!(f, "invalid pool configuration: {reason}")
            }
            PoolError::Device { device, source } => write!(f, "{device}: {source}"),
            PoolError::UnknownVm(vm) => write!(f, "unknown pool VM {}", vm.0),
            PoolError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            PoolError::UnknownHost(h) => write!(f, "host {h} not registered with the pool"),
            PoolError::UnroutableHost { host, device } => {
                write!(f, "{host} has no route to {device} on the pool's interconnect")
            }
            PoolError::OutOfRange { vm, offset, bytes } => {
                write!(f, "offset {offset} beyond VM {}'s {bytes} bytes", vm.0)
            }
            PoolError::NoCapacity { requested_aus, free_aus } => {
                write!(f, "requested {requested_aus} AUs but only {free_aus} placeable")
            }
            PoolError::QuotaExceeded { host, mapped_aus, quota_aus } => {
                write!(f, "{host} at {mapped_aus} AUs would exceed its pool quota of {quota_aus}")
            }
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Device { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<PoolError> for DtlError {
    /// Flattens a pool error for harnesses whose error type is [`DtlError`]:
    /// device errors unwrap to their source, everything else becomes
    /// [`DtlError::Internal`].
    fn from(e: PoolError) -> Self {
        match e {
            PoolError::Device { source, .. } => source,
            other => DtlError::Internal { reason: other.to_string() },
        }
    }
}
