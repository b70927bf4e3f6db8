//! CXL fabric model: switch-hierarchy topologies, per-port FIFO contention,
//! multi-headed devices, and the [`Interconnect`] trait that pool harnesses
//! charge traffic through.
//!
//! The paper evaluates the DRAM Translation Layer on a point-to-point CXL
//! link — one host, one device, a fixed propagation round trip plus the
//! link-layer CRC retry penalty. Disaggregated deployments are not wired
//! that way: hosts reach pooled devices through a hierarchy of CXL switches
//! whose ports are finite shared resources, and a device can expose several
//! *heads* so multiple hosts reach it without crossing an extra switch tier.
//! This crate models that fabric analytically on the discrete-event spine:
//!
//! - [`TopologyConfig`] declares hosts, switches, devices, and the
//!   host-link / device-link edge lists, and validates them (every endpoint
//!   attached, no duplicate edges, full host × device reachability).
//! - A port (see [`PortReport`]) is a FIFO wire: each transfer serializes at the port's
//!   bandwidth behind earlier arrivals, so queue wait is integrated
//!   *between* events rather than cycle-stepped, and an idle timeout lets
//!   unused ports sleep (the switch-port energy headline).
//! - [`CxlFabric`] routes each access through its host's up port and the
//!   target head's down port, charges both crossings plus the propagation
//!   round trip and the per-device retry engine, and keeps a per-host
//!   fairness ledger for saturation analysis.
//! - [`Interconnect`] is the seam: the pool orchestrator charges all link
//!   traffic through it, so the same harness runs over [`PointToPoint`]
//!   (bit-identical to the pre-fabric direct wiring) or a switched fabric.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use dtl_core::HostId;
use dtl_cxl::{LinkDelivery, LinkModel, LinkRetryStats, RetryEngine, RetryPolicy};
use dtl_dram::Picos;
use dtl_telemetry::{LatencySummary, Telemetry};

mod fabric;
pub mod port;
#[cfg(test)]
mod reference;
mod topology;

pub use fabric::{CxlFabric, FabricReport, HostShare};
pub use port::PortReport;
pub use topology::{PortConfig, PortOwner, TopologyConfig};

/// Errors from fabric construction and topology validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// The declared topology cannot carry traffic as specified.
    InvalidTopology {
        /// Human-readable explanation of the failed check.
        reason: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::InvalidTopology { reason } => {
                write!(f, "invalid fabric topology: {reason}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// The path an access takes from a host to a device head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A dedicated point-to-point link; no shared ports on the path.
    Direct,
    /// Through one switch: up the host's root port, down the device head's
    /// port.
    Switched {
        /// Switch the path crosses.
        switch: u16,
        /// Global index of the host-side (up) port.
        up_port: u32,
        /// Global index of the device-side (down) port.
        down_port: u32,
    },
}

/// The interconnect between hosts and pooled devices.
///
/// `MemoryPool` charges every link interaction through this trait: demand
/// accesses ([`submit_at`](Interconnect::submit_at)), admission-control
/// round trips ([`round_trip`](Interconnect::round_trip)), and bulk
/// evacuation traffic ([`charge_bulk`](Interconnect::charge_bulk)).
/// [`PointToPoint`] reproduces the original per-device `RetryEngine` wiring
/// exactly; [`CxlFabric`] adds switch-port queueing, multi-headed routing,
/// and fairness accounting behind the same calls.
pub trait Interconnect: fmt::Debug + Send {
    /// Number of devices reachable through this interconnect.
    fn devices(&self) -> u16;

    /// The path `host` takes to `device`, or `None` when the pair is not
    /// connected.
    fn route(&self, host: HostId, device: u16) -> Option<Route>;

    /// Control-plane round-trip charge for `host` → `device` (admission
    /// latency accounting); no data serializes and no queueing accrues.
    fn round_trip(&self, host: HostId, device: u16) -> Picos;

    /// Charges one demand access of `bytes` from `host` to `device` at
    /// `now`. The returned [`LinkDelivery::delay`] is the *total* added
    /// link latency — propagation round trip, any port queue/serialization
    /// time, and the CRC retry penalty — so callers add it to the device
    /// access latency directly.
    fn submit_at(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> LinkDelivery;

    /// Charges a bulk (evacuation / migration) transfer of `bytes` at
    /// `now`, returning the added wire delay. Point-to-point links dedicate
    /// the wire and charge nothing extra; fabrics serialize the copy
    /// through its route's ports.
    fn charge_bulk(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> Picos;

    /// Releases time-scheduled link work (e.g. scheduled CRC bursts) due at
    /// or before `now`.
    fn advance_to(&mut self, now: Picos);

    /// Earliest instant at which scheduled link work becomes due, for
    /// event-driven harnesses that sleep between activity.
    fn next_activity_at(&self) -> Option<Picos>;

    /// Queues a CRC corruption burst on `device`'s link. Returns `false`
    /// when the device is out of range.
    fn inject_crc_burst(&mut self, device: u16, burst: u32) -> bool;

    /// Retry statistics for one device's link (zeroed when out of range).
    fn device_stats(&self, device: u16) -> LinkRetryStats;

    /// Installs the telemetry handle link events for `device` are emitted
    /// through.
    fn set_device_telemetry(&mut self, device: u16, telemetry: Telemetry);

    /// Summary of port queue wait, or `None` where no shared ports exist
    /// (point-to-point) or nothing was charged yet.
    fn queue_latency(&self) -> Option<LatencySummary>;

    /// End-of-run fabric report over the horizon ending at `end`, or
    /// `None` where no fabric is modeled.
    fn fabric_report(&self, end: Picos) -> Option<FabricReport>;

    /// Retry statistics merged across every device link.
    fn stats(&self) -> LinkRetryStats {
        let mut total = LinkRetryStats::default();
        for d in 0..self.devices() {
            total.merge_from(&self.device_stats(d));
        }
        total
    }
}

/// Dedicated point-to-point links: one [`RetryEngine`] per device, no
/// shared ports, no queueing — the wiring `MemoryPool` used before the
/// fabric existed, preserved bit-for-bit behind [`Interconnect`].
#[derive(Debug)]
pub struct PointToPoint {
    link: LinkModel,
    engines: Vec<RetryEngine>,
}

impl PointToPoint {
    /// One dedicated link per device, each modeled by `link` (propagation)
    /// and `retry` (CRC replay policy).
    pub fn new(link: LinkModel, retry: RetryPolicy, devices: u16) -> Self {
        let engines = (0..devices)
            .map(|_| {
                let mut e = RetryEngine::new(retry);
                e.set_base_latency(link.round_trip());
                e
            })
            .collect();
        PointToPoint { link, engines }
    }

    /// The link model shared by every device wire.
    pub fn link(&self) -> LinkModel {
        self.link
    }
}

impl Interconnect for PointToPoint {
    fn devices(&self) -> u16 {
        self.engines.len() as u16
    }

    fn route(&self, _host: HostId, device: u16) -> Option<Route> {
        (usize::from(device) < self.engines.len()).then_some(Route::Direct)
    }

    fn round_trip(&self, _host: HostId, _device: u16) -> Picos {
        self.link.round_trip()
    }

    fn submit_at(&mut self, _host: HostId, device: u16, _bytes: u64, now: Picos) -> LinkDelivery {
        let d = self.engines[usize::from(device)].on_submit_at(now);
        LinkDelivery { delay: self.link.round_trip() + d.delay, clean: d.clean }
    }

    fn charge_bulk(&mut self, _host: HostId, _device: u16, _bytes: u64, _now: Picos) -> Picos {
        // The dedicated wire absorbs background copies; matches the
        // pre-fabric pool, which charged evacuations no link time.
        Picos::ZERO
    }

    fn advance_to(&mut self, now: Picos) {
        for e in &mut self.engines {
            e.release_due(now);
        }
    }

    fn next_activity_at(&self) -> Option<Picos> {
        self.engines.iter().filter_map(RetryEngine::next_burst_at).min()
    }

    fn inject_crc_burst(&mut self, device: u16, burst: u32) -> bool {
        match self.engines.get_mut(usize::from(device)) {
            Some(e) => {
                e.inject_crc_burst(burst);
                true
            }
            None => false,
        }
    }

    fn device_stats(&self, device: u16) -> LinkRetryStats {
        self.engines.get(usize::from(device)).map(RetryEngine::stats).unwrap_or_default()
    }

    fn set_device_telemetry(&mut self, device: u16, telemetry: Telemetry) {
        if let Some(e) = self.engines.get_mut(usize::from(device)) {
            e.set_telemetry(telemetry);
        }
    }

    fn queue_latency(&self) -> Option<LatencySummary> {
        None
    }

    fn fabric_report(&self, _end: Picos) -> Option<FabricReport> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_matches_direct_engine_wiring() {
        // The Interconnect seam must reproduce the pre-fabric charge
        // exactly: round_trip + retry delay, same engine state evolution.
        let link = LinkModel::cxl();
        let policy = RetryPolicy::default();
        let mut ic = PointToPoint::new(link, policy, 2);
        let mut direct = RetryEngine::new(policy);
        direct.set_base_latency(link.round_trip());

        let now = Picos::from_us(5);
        let via = ic.submit_at(HostId(0), 0, 64, now);
        let raw = direct.on_submit_at(now);
        assert_eq!(via.delay, link.round_trip() + raw.delay);
        assert_eq!(via.clean, raw.clean);

        ic.inject_crc_burst(0, 2);
        direct.inject_crc_burst(2);
        let via = ic.submit_at(HostId(0), 0, 64, now);
        let raw = direct.on_submit_at(now);
        assert_eq!(via.delay, link.round_trip() + raw.delay);
        assert_eq!(ic.device_stats(0), direct.stats());
        assert_eq!(ic.device_stats(1), LinkRetryStats::default(), "device 1 untouched");
        assert_eq!(ic.stats(), direct.stats());
    }

    #[test]
    fn point_to_point_has_no_fabric_sections() {
        let ic = PointToPoint::new(LinkModel::cxl(), RetryPolicy::default(), 1);
        assert_eq!(ic.route(HostId(0), 0), Some(Route::Direct));
        assert_eq!(ic.route(HostId(0), 1), None);
        assert!(ic.queue_latency().is_none());
        assert!(ic.fabric_report(Picos::from_ms(1)).is_none());
        assert!(ic.next_activity_at().is_none());
        assert_eq!(ic.devices(), 1);
    }

    #[test]
    fn bulk_charge_is_free_on_dedicated_wires() {
        let mut ic = PointToPoint::new(LinkModel::cxl(), RetryPolicy::default(), 1);
        assert_eq!(ic.charge_bulk(HostId(0), 0, 1 << 30, Picos::from_us(1)), Picos::ZERO);
        assert_eq!(ic.stats(), LinkRetryStats::default());
    }
}
