//! The fabric as it was before its per-access tables became dense: routes,
//! the fairness ledger and every port's per-host ledger in `BTreeMap`s.
//! Kept, behaviour for behaviour, as the reference the lockstep property in
//! `fabric.rs` drives [`CxlFabric`](crate::CxlFabric) against.

use std::collections::BTreeMap;

use dtl_core::HostId;
use dtl_cxl::{LinkDelivery, LinkModel, LinkRetryStats, RetryEngine, RetryPolicy};
use dtl_dram::Picos;
use dtl_telemetry::{EventKind, Histogram, LatencySummary, Telemetry};

use crate::port::{PortCharge, PortReport};
use crate::topology::{PortConfig, PortOwner, TopologyConfig};
use crate::{FabricReport, HostShare, Interconnect, Route};

/// A port whose per-host ledger is two maps keyed by host id.
#[derive(Debug)]
struct ReferencePort {
    owner: PortOwner,
    switch: u16,
    cfg: PortConfig,
    busy_until: Picos,
    awake_since: Option<Picos>,
    awake_until: Picos,
    active_ps: u64,
    busy_ps: u64,
    bytes: u64,
    transfers: u64,
    queue_wait_ps: u64,
    per_host_bytes: BTreeMap<u16, u64>,
    per_host_wait_ps: BTreeMap<u16, u64>,
}

impl ReferencePort {
    fn new(owner: PortOwner, switch: u16, cfg: PortConfig) -> Self {
        ReferencePort {
            owner,
            switch,
            cfg,
            busy_until: Picos::ZERO,
            awake_since: None,
            awake_until: Picos::ZERO,
            active_ps: 0,
            busy_ps: 0,
            bytes: 0,
            transfers: 0,
            queue_wait_ps: 0,
            per_host_bytes: BTreeMap::new(),
            per_host_wait_ps: BTreeMap::new(),
        }
    }

    fn ser_time(&self, bytes: u64) -> Picos {
        let ps = u128::from(bytes) * 1_000_000u128 / u128::from(self.cfg.bytes_per_us);
        Picos::from_ps((ps as u64).max(1))
    }

    fn submit(&mut self, host: u16, bytes: u64, arrive: Picos) -> PortCharge {
        match self.awake_since {
            None => self.awake_since = Some(arrive),
            Some(since) => {
                if arrive >= self.awake_until {
                    self.active_ps += self.awake_until.saturating_sub(since).as_ps();
                    self.awake_since = Some(arrive);
                }
            }
        }
        let ser = self.ser_time(bytes);
        let start = self.busy_until.max(arrive);
        let wait = start.saturating_sub(arrive);
        let done = start + ser;
        self.busy_until = done;
        self.awake_until = done + self.cfg.sleep_timeout;
        self.busy_ps += ser.as_ps();
        self.bytes += bytes;
        self.transfers += 1;
        self.queue_wait_ps += wait.as_ps();
        *self.per_host_bytes.entry(host).or_default() += bytes;
        *self.per_host_wait_ps.entry(host).or_default() += wait.as_ps();
        PortCharge { wait, ser, done }
    }

    fn awake_ps(&self, end: Picos) -> u64 {
        let open = self
            .awake_since
            .map(|since| self.awake_until.min(end).saturating_sub(since).as_ps())
            .unwrap_or(0);
        self.active_ps + open
    }

    fn report(&self, end: Picos) -> PortReport {
        let horizon_ps = end.as_ps().max(1);
        let awake_ps = self.awake_ps(end).min(horizon_ps);
        let awake_s = awake_ps as f64 * 1e-12;
        let asleep_s = (horizon_ps - awake_ps) as f64 * 1e-12;
        let energy_mj = self.cfg.active_mw * awake_s
            + self.cfg.sleep_mw * asleep_s
            + self.cfg.pj_per_byte * self.bytes as f64 * 1e-9;
        PortReport {
            owner: self.owner,
            switch: self.switch,
            transfers: self.transfers,
            bytes: self.bytes,
            queue_wait_ps: self.queue_wait_ps,
            utilization: self.busy_ps.min(horizon_ps) as f64 / horizon_ps as f64,
            awake_fraction: awake_ps as f64 / horizon_ps as f64,
            energy_mj,
            per_host_bytes: self.per_host_bytes.iter().map(|(&h, &b)| (h, b)).collect(),
            per_host_wait_ps: self.per_host_wait_ps.iter().map(|(&h, &w)| (h, w)).collect(),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    bytes: u64,
    transfers: u64,
    queue_wait_ps: u64,
}

/// The fabric with its route table and fairness ledger in `BTreeMap`s.
#[derive(Debug)]
pub(crate) struct ReferenceFabric {
    topo: TopologyConfig,
    link: LinkModel,
    ports: Vec<ReferencePort>,
    routes: BTreeMap<(u16, u16), (u16, u32, u32)>,
    engines: Vec<RetryEngine>,
    telemetry: Vec<Telemetry>,
    queue_hist: Histogram,
    hosts: BTreeMap<u16, Ledger>,
}

impl ReferenceFabric {
    /// Builds the reference over an already validated `topo`.
    pub(crate) fn new(topo: TopologyConfig, link: LinkModel, retry: RetryPolicy) -> Self {
        topo.validate().expect("a valid topology");
        let ports = (0..topo.ports())
            .map(|p| {
                let owner = topo.port_owner(p).expect("id in range");
                let switch = topo.port_switch(p).expect("id in range");
                ReferencePort::new(owner, switch, topo.port)
            })
            .collect();
        let mut routes = BTreeMap::new();
        for h in 0..topo.hosts {
            for d in 0..topo.devices {
                let r = topo.resolve(h, d).expect("validated topologies route every pair");
                routes.insert((h, d), r);
            }
        }
        let engines = (0..topo.devices)
            .map(|_| {
                let mut e = RetryEngine::new(retry);
                e.set_base_latency(link.round_trip());
                e
            })
            .collect();
        let telemetry = vec![Telemetry::disabled(); usize::from(topo.devices)];
        ReferenceFabric {
            topo,
            link,
            ports,
            routes,
            engines,
            telemetry,
            queue_hist: Histogram::default(),
            hosts: BTreeMap::new(),
        }
    }

    fn cross(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> (Picos, Picos) {
        let &(_, up, down) = self.routes.get(&(host.0, device)).expect("routed pair");
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
        let total = b.done + self.topo.switch_latency - now;
        let ledger = self.hosts.entry(host.0).or_default();
        ledger.bytes += bytes;
        ledger.transfers += 1;
        ledger.queue_wait_ps += wait.as_ps();
        (wait, total)
    }
}

impl Interconnect for ReferenceFabric {
    fn devices(&self) -> u16 {
        self.topo.devices
    }

    fn route(&self, host: HostId, device: u16) -> Option<Route> {
        self.routes.get(&(host.0, device)).map(|&(switch, up, down)| Route::Switched {
            switch,
            up_port: up,
            down_port: down,
        })
    }

    fn round_trip(&self, _host: HostId, _device: u16) -> Picos {
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
        let total_bytes: u64 = self.hosts.values().map(|l| l.bytes).sum();
        let hosts = self
            .hosts
            .iter()
            .map(|(&host, l)| HostShare {
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
            transfers: self.hosts.values().map(|l| l.transfers).sum(),
            bytes: total_bytes,
            hosts,
            ports,
        })
    }
}
