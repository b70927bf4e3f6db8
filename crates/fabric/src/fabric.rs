//! The switched fabric: static routes over the validated topology, two
//! port crossings per access, per-device link-layer retry engines, and the
//! fabric-wide fairness/energy report.

use dtl_core::HostId;
use dtl_cxl::{LinkDelivery, LinkModel, LinkRetryStats, RetryEngine, RetryPolicy};
use dtl_dram::Picos;
use dtl_telemetry::{EventKind, Histogram, LatencySummary, Telemetry};
use serde::{Deserialize, Serialize};

use crate::port::{senders, HostLedger, Port, PortReport};
use crate::topology::TopologyConfig;
use crate::{FabricError, Interconnect, Route};

/// One host's slice of the fabric-wide fairness ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostShare {
    /// The host.
    pub host: u16,
    /// Bytes the fabric moved for it (each transfer counted once, not per
    /// port crossed).
    pub bytes: u64,
    /// Transfers the fabric carried for it.
    pub transfers: u64,
    /// Total port queue wait its transfers paid, picoseconds.
    pub queue_wait_ps: u64,
    /// Its fraction of all bytes the fabric moved, 0..=1.
    pub share: f64,
}

/// End-of-run summary of the fabric: per-port counters, the switch-port
/// energy headline, and the per-host fairness ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricReport {
    /// Per-port reports, in global port order (up ports first).
    pub ports: Vec<PortReport>,
    /// Ports that carried at least one transfer.
    pub ports_used: u64,
    /// Sum of every port's energy over the horizon, millijoules.
    pub port_energy_mj: f64,
    /// Highest per-port wire utilization, 0..=1.
    pub max_utilization: f64,
    /// Transfers the fabric carried (each counted once).
    pub transfers: u64,
    /// Bytes the fabric carried (each counted once).
    pub bytes: u64,
    /// Per-host fairness ledger, ascending host id.
    pub hosts: Vec<HostShare>,
}

impl FabricReport {
    /// The smallest and largest per-host byte share, 0..=1 each — equal
    /// shares mean the fabric served its hosts evenly under saturation.
    pub fn share_bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for h in &self.hosts {
            lo = lo.min(h.share);
            hi = hi.max(h.share);
        }
        if self.hosts.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }
}

/// A switch-hierarchy CXL fabric implementing [`Interconnect`].
///
/// Every access crosses two ports (the host's up port, then the target
/// head's down port), each a FIFO resource whose backlog is integrated
/// analytically (see [`crate::port`]), plus the base propagation
/// round-trip and the per-device CRC retry engine. Multi-headed devices
/// route through the lowest-id switch the host shares with any head.
#[derive(Debug)]
pub struct CxlFabric {
    topo: TopologyConfig,
    link: LinkModel,
    ports: Vec<Port>,
    /// `(switch, up port, down port)` at `host * devices + device`,
    /// resolved once at construction from the validated topology.
    routes: Vec<(u16, u32, u32)>,
    engines: Vec<RetryEngine>,
    telemetry: Vec<Telemetry>,
    queue_hist: Histogram,
    /// The fairness ledger, indexed by host id.
    hosts: Vec<HostLedger>,
}

impl CxlFabric {
    /// Builds a fabric over `topo` with per-device links modeled by `link`
    /// (propagation) and `retry` (CRC replay).
    ///
    /// # Errors
    ///
    /// [`FabricError::InvalidTopology`] when the topology fails
    /// [`TopologyConfig::validate`].
    pub fn new(
        topo: TopologyConfig,
        link: LinkModel,
        retry: RetryPolicy,
    ) -> Result<Self, FabricError> {
        topo.validate()?;
        let ports = (0..topo.ports())
            .map(|p| {
                let owner = topo.port_owner(p).expect("id in range");
                let switch = topo.port_switch(p).expect("id in range");
                Port::new(owner, switch, topo.port, topo.hosts)
            })
            .collect();
        let routes = (0..topo.hosts)
            .flat_map(|h| (0..topo.devices).map(move |d| (h, d)))
            .map(|(h, d)| topo.resolve(h, d).expect("validated topologies route every pair"))
            .collect();
        let engines = (0..topo.devices)
            .map(|_| {
                let mut e = RetryEngine::new(retry);
                e.set_base_latency(link.round_trip());
                e
            })
            .collect();
        let telemetry = vec![Telemetry::disabled(); usize::from(topo.devices)];
        let hosts = vec![HostLedger::default(); usize::from(topo.hosts)];
        Ok(CxlFabric {
            topo,
            link,
            ports,
            routes,
            engines,
            telemetry,
            queue_hist: Histogram::default(),
            hosts,
        })
    }

    /// The topology the fabric was built over.
    pub fn topology(&self) -> &TopologyConfig {
        &self.topo
    }

    /// The `(switch, up port, down port)` of `(host, device)`, or `None`
    /// when either is out of range.
    fn resolved(&self, host: HostId, device: u16) -> Option<(u16, u32, u32)> {
        (host.0 < self.topo.hosts && device < self.topo.devices).then(|| {
            self.routes[usize::from(host.0) * usize::from(self.topo.devices) + usize::from(device)]
        })
    }

    /// Pushes one transfer through both ports of its route, returning
    /// `(queue wait, total port+switch delay)`. Shared by the access and
    /// bulk paths.
    fn cross(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> (Picos, Picos) {
        let (_, up, down) = self.resolved(host, device).expect("routed pair");
        let t = &self.telemetry[usize::from(device)];
        let a = self.ports[up as usize].submit(host.0, bytes, now);
        t.emit(
            now.as_ps(),
            EventKind::FabricTransfer { port: up, bytes, queue_ps: a.wait.as_ps() },
        );
        let arrive = a.done + self.topo.switch_latency;
        let b = self.ports[down as usize].submit(host.0, bytes, arrive);
        t.emit(
            arrive.as_ps(),
            EventKind::FabricTransfer { port: down, bytes, queue_ps: b.wait.as_ps() },
        );
        let wait = a.wait + b.wait;
        // Forward path: both serializations, both waits, one switch
        // crossing; the response crosses the switch once more (its wire
        // occupancy is folded into the port serialization charge).
        let total = b.done + self.topo.switch_latency - now;
        self.hosts[usize::from(host.0)].charge(bytes, wait.as_ps());
        (wait, total)
    }
}

impl Interconnect for CxlFabric {
    fn devices(&self) -> u16 {
        self.topo.devices
    }

    fn route(&self, host: HostId, device: u16) -> Option<Route> {
        self.resolved(host, device).map(|(switch, up, down)| Route::Switched {
            switch,
            up_port: up,
            down_port: down,
        })
    }

    fn round_trip(&self, _host: HostId, _device: u16) -> Picos {
        // Control-plane charge: propagation plus two switch crossings, no
        // queueing (admission does not serialize data through the ports).
        self.link.round_trip() + self.topo.switch_latency + self.topo.switch_latency
    }

    fn submit_at(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> LinkDelivery {
        let (wait, port_delay) = self.cross(host, device, bytes, now);
        self.queue_hist.observe(wait.as_ps());
        let retry = self.engines[usize::from(device)].on_submit_at(now + port_delay);
        LinkDelivery {
            delay: self.link.round_trip() + port_delay + retry.delay,
            clean: retry.clean,
        }
    }

    fn charge_bulk(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> Picos {
        // Background copies occupy the wire and the fairness ledger but
        // skip the retry engine and the SLO queue histogram.
        let (_, port_delay) = self.cross(host, device, bytes, now);
        port_delay
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
            e.set_telemetry(telemetry.clone());
        }
        if let Some(t) = self.telemetry.get_mut(usize::from(device)) {
            *t = telemetry;
        }
    }

    fn queue_latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_histogram(&self.queue_hist)
    }

    fn fabric_report(&self, end: Picos) -> Option<FabricReport> {
        let ports: Vec<PortReport> = self.ports.iter().map(|p| p.report(end)).collect();
        let total_bytes: u64 = self.hosts.iter().map(|l| l.bytes).sum();
        let hosts = senders(&self.hosts)
            .map(|(host, l)| HostShare {
                host,
                bytes: l.bytes,
                transfers: l.transfers,
                queue_wait_ps: l.queue_wait_ps,
                share: if total_bytes == 0 { 0.0 } else { l.bytes as f64 / total_bytes as f64 },
            })
            .collect();
        Some(FabricReport {
            ports_used: ports.iter().filter(|p| p.transfers > 0).count() as u64,
            port_energy_mj: ports.iter().map(|p| p.energy_mj).sum(),
            max_utilization: ports.iter().map(|p| p.utilization).fold(0.0, f64::max),
            transfers: self.hosts.iter().map(|l| l.transfers).sum(),
            bytes: total_bytes,
            hosts,
            ports,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dtl_telemetry::BufferSink;
    use proptest::prelude::*;

    use super::*;
    use crate::reference::ReferenceFabric;

    fn fabric(hosts: u16, devices: u16) -> CxlFabric {
        CxlFabric::new(
            TopologyConfig::dual_switch(hosts, devices),
            LinkModel::cxl(),
            RetryPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn clean_submit_charges_propagation_ports_and_switches() {
        let mut f = fabric(2, 4);
        let now = Picos::from_us(3);
        let d = f.submit_at(HostId(0), 0, 64, now);
        assert!(d.clean);
        // Empty fabric: round trip + 2x64B serialization + 2x switch hop.
        let ser = Picos::from_ns(2);
        let expected =
            LinkModel::cxl().round_trip() + ser + ser + Picos::from_ns(25) + Picos::from_ns(25);
        assert_eq!(d.delay, expected);
        assert_eq!(f.queue_latency().unwrap().count, 1);
    }

    #[test]
    fn contention_on_a_shared_down_port_queues_fifo() {
        let mut f = fabric(2, 4);
        let now = Picos::from_us(1);
        let first = f.submit_at(HostId(0), 0, 64, now);
        // Host 1 hits the same device at the same instant: its up port is
        // free but device 0's down port is busy with host 0's transfer.
        let second = f.submit_at(HostId(1), 0, 64, now);
        assert!(second.delay > first.delay, "{:?} vs {:?}", second.delay, first.delay);
        let r = f.fabric_report(Picos::from_us(2)).unwrap();
        assert_eq!(r.transfers, 2);
        assert_eq!(r.bytes, 128);
        let (lo, hi) = r.share_bounds();
        assert_eq!((lo, hi), (0.5, 0.5), "equal traffic, equal shares");
    }

    #[test]
    fn per_host_ledger_conserves_bytes_against_ports() {
        let mut f = fabric(2, 4);
        for k in 0..20u64 {
            let host = HostId((k % 2) as u16);
            let dev = (k % 4) as u16;
            f.submit_at(host, dev, 64 + k, Picos::from_ns(k * 500));
        }
        f.charge_bulk(HostId(0), 1, 1 << 20, Picos::from_us(50));
        let r = f.fabric_report(Picos::from_ms(1)).unwrap();
        let host_total: u64 = r.hosts.iter().map(|h| h.bytes).sum();
        assert_eq!(host_total, r.bytes, "fairness ledger covers every byte once");
        // Each byte crosses exactly two ports.
        let port_total: u64 = r.ports.iter().map(|p| p.bytes).sum();
        assert_eq!(port_total, 2 * r.bytes);
        for p in &r.ports {
            let per_host: u64 = p.per_host_bytes.iter().map(|&(_, b)| b).sum();
            assert_eq!(per_host, p.bytes, "port ledger sums to the port total");
        }
    }

    #[test]
    fn crc_bursts_reach_the_routed_device_engine() {
        let mut f = fabric(1, 2);
        assert!(f.inject_crc_burst(1, 3));
        assert!(!f.inject_crc_burst(9, 1), "out-of-range device rejected");
        let clean = f.submit_at(HostId(0), 0, 64, Picos::from_us(1));
        let dirty = f.submit_at(HostId(0), 1, 64, Picos::from_us(1));
        assert!(clean.clean);
        assert!(dirty.delay > clean.delay, "burst charges replay backoff");
        assert_eq!(f.device_stats(1).crc_errors, 3);
        assert_eq!(f.stats().crc_errors, 3);
    }

    #[test]
    fn packing_under_one_switch_uses_fewer_ports_than_spreading() {
        let mut pack = fabric(2, 4);
        let mut spread = fabric(2, 4);
        for k in 0..8u64 {
            let host = HostId((k % 2) as u16);
            let at = Picos::from_us(10 * k);
            pack.submit_at(host, 0, 64, at);
            spread.submit_at(host, (k % 4) as u16, 64, at);
        }
        let end = Picos::from_ms(1);
        let p = pack.fabric_report(end).unwrap();
        let s = spread.fabric_report(end).unwrap();
        assert!(p.ports_used < s.ports_used, "{} vs {}", p.ports_used, s.ports_used);
        assert!(p.port_energy_mj < s.port_energy_mj, "sleeping ports save energy");
    }

    /// A topology for the lockstep stream: dual- or single-switch, 1–6
    /// hosts, 1–9 devices (dual-switch with two or more has the
    /// multi-headed device 0), and how many of the hosts send at all.
    fn topology() -> impl Strategy<Value = (TopologyConfig, u16)> {
        (any::<bool>(), 1u16..=6, 1u16..=9, 1u16..=6).prop_map(|(dual, hosts, devices, senders)| {
            let topo = if dual {
                TopologyConfig::dual_switch(hosts, devices)
            } else {
                TopologyConfig::single_switch(hosts, devices)
            };
            (topo, senders.min(hosts))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense fabric and the `BTreeMap` one it replaced answer alike
        /// over one stream of accesses (0-byte ones included), bulk copies
        /// of 1 B to 1 GiB, CRC bursts (some aimed past the last device),
        /// advances, reports and route queries (some out of range), with
        /// some hosts never sending: every delivery, bulk delay, queue
        /// summary, report and telemetry event.
        #[test]
        fn lockstep_with_the_btree_fabric(
            (topo, senders) in topology(),
            ops in prop::collection::vec(
                (0u8..16, any::<u16>(), any::<u16>(), any::<u64>(), 0u64..5_000_000),
                1..200,
            ),
        ) {
            let (hosts, devices) = (topo.hosts, topo.devices);
            let mut fast =
                CxlFabric::new(topo.clone(), LinkModel::cxl(), RetryPolicy::default()).unwrap();
            let mut reference = ReferenceFabric::new(topo, LinkModel::cxl(), RetryPolicy::default());
            let (fast_sink, ref_sink) = (Arc::new(BufferSink::new()), Arc::new(BufferSink::new()));
            for d in 0..devices {
                fast.set_device_telemetry(d, Telemetry::new(fast_sink.clone()));
                reference.set_device_telemetry(d, Telemetry::new(ref_sink.clone()));
            }
            let mut now = Picos::ZERO;
            for (kind, a, b, raw, dt) in ops {
                now += Picos::from_ps(if dt % 3 == 0 { 0 } else { dt });
                let (host, device) = (HostId(a % senders), b % devices);
                match kind {
                    0..=7 => {
                        let bytes = if raw % 8 == 0 { 0 } else { 64 * (1 + raw % 64) };
                        prop_assert_eq!(
                            fast.submit_at(host, device, bytes, now),
                            reference.submit_at(host, device, bytes, now)
                        );
                    }
                    8 | 9 => {
                        let bytes = 1 + raw % (1 << 30);
                        prop_assert_eq!(
                            fast.charge_bulk(host, device, bytes, now),
                            reference.charge_bulk(host, device, bytes, now)
                        );
                    }
                    10 => {
                        let (device, burst) = (b % (devices + 2), (raw % 6) as u32);
                        prop_assert_eq!(
                            fast.inject_crc_burst(device, burst),
                            reference.inject_crc_burst(device, burst)
                        );
                    }
                    11 => {
                        fast.advance_to(now);
                        reference.advance_to(now);
                    }
                    12 | 13 => {
                        let end = now + Picos::from_ps(raw % 1_000_000_000);
                        prop_assert_eq!(fast.fabric_report(end), reference.fabric_report(end));
                    }
                    _ => {
                        let (host, device) = (HostId(a % (hosts + 2)), b % (devices + 2));
                        prop_assert_eq!(fast.route(host, device), reference.route(host, device));
                    }
                }
                prop_assert_eq!(fast.queue_latency(), reference.queue_latency());
                prop_assert_eq!(fast.next_activity_at(), reference.next_activity_at());
            }
            for d in 0..devices + 2 {
                prop_assert_eq!(fast.device_stats(d), reference.device_stats(d));
            }
            prop_assert_eq!(fast.fabric_report(now), reference.fabric_report(now));
            prop_assert_eq!(fast_sink.take(), ref_sink.take());
        }
    }
}
