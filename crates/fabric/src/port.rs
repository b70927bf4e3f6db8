//! The per-port contention model: FIFO serialization with
//! utilization-dependent queueing, integrated analytically between events.
//!
//! A port is a single serializing resource. Each transfer arriving at
//! `arrive` starts at `max(arrive, busy_until)` and occupies the wire for
//! `bytes * 1e6 / bytes_per_us` picoseconds — so the queue wait a transfer
//! sees is exactly the backlog the earlier arrivals left behind, computed
//! in closed form without simulating the queue entry-by-entry. Everything
//! is integer picosecond arithmetic; the only floats are the energy
//! numbers derived at report time.
//!
//! The port also keeps the fairness ledger the QoS accounting reads:
//! bytes and queue waits attributed per host, whose sums must equal the
//! port totals (pinned by the conservation proptest). The ledger is one
//! entry per fabric host, indexed by host id; a report lists the hosts that
//! sent at least one transfer through the port.

use dtl_dram::Picos;
use serde::{Deserialize, Serialize};

use crate::topology::{PortConfig, PortOwner};

/// What one transfer paid at one port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortCharge {
    /// Time spent queued behind earlier transfers.
    pub wait: Picos,
    /// Serialization time on the wire.
    pub ser: Picos,
    /// Instant the transfer fully drained through the port.
    pub done: Picos,
}

/// One host's traffic: through one port, or across the whole fabric.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct HostLedger {
    pub bytes: u64,
    pub transfers: u64,
    pub queue_wait_ps: u64,
}

impl HostLedger {
    /// Books one transfer of `bytes` that waited `wait_ps`.
    pub(crate) fn charge(&mut self, bytes: u64, wait_ps: u64) {
        self.bytes += bytes;
        self.transfers += 1;
        self.queue_wait_ps += wait_ps;
    }
}

/// `(host id, ledger)` for every host that sent at least one transfer,
/// ascending host id.
pub(crate) fn senders(ledgers: &[HostLedger]) -> impl Iterator<Item = (u16, &HostLedger)> {
    ledgers.iter().enumerate().filter(|(_, l)| l.transfers > 0).map(|(h, l)| (h as u16, l))
}

/// One fabric port: FIFO backlog, awake/asleep windows, and the per-host
/// byte ledger.
#[derive(Debug)]
pub(crate) struct Port {
    owner: PortOwner,
    switch: u16,
    cfg: PortConfig,
    /// When the current backlog drains; arrivals before this queue.
    busy_until: Picos,
    /// Start of the open awake window, if the port ever woke.
    awake_since: Option<Picos>,
    /// When the open awake window closes absent new traffic.
    awake_until: Picos,
    /// Closed awake windows, accumulated.
    active_ps: u64,
    /// Total wire occupancy (serialization time), for utilization.
    busy_ps: u64,
    bytes: u64,
    transfers: u64,
    queue_wait_ps: u64,
    /// Indexed by host id, one entry per fabric host.
    per_host: Vec<HostLedger>,
    /// The last `(bytes, serialization time)` computed: accesses repeat
    /// one transfer size, and skip the division.
    last_ser: (u64, Picos),
}

impl Port {
    /// A port of a fabric with `hosts` hosts.
    pub(crate) fn new(owner: PortOwner, switch: u16, cfg: PortConfig, hosts: u16) -> Self {
        Port {
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
            per_host: vec![HostLedger::default(); usize::from(hosts)],
            // A 0-byte transfer still occupies the wire for 1 ps.
            last_ser: (0, Picos::from_ps(1)),
        }
    }

    /// Serialization time for `bytes` at this port's bandwidth (≥ 1 ps).
    fn ser_time(&mut self, bytes: u64) -> Picos {
        if self.last_ser.0 != bytes {
            let ps = u128::from(bytes) * 1_000_000u128 / u128::from(self.cfg.bytes_per_us);
            self.last_ser = (bytes, Picos::from_ps((ps as u64).max(1)));
        }
        self.last_ser.1
    }

    /// Charges a transfer of `bytes` for `host` arriving at `arrive`,
    /// advancing the FIFO backlog and the awake window.
    pub(crate) fn submit(&mut self, host: u16, bytes: u64, arrive: Picos) -> PortCharge {
        match self.awake_since {
            None => self.awake_since = Some(arrive),
            Some(since) => {
                if arrive >= self.awake_until {
                    // The previous awake window closed before this arrival;
                    // bank it and wake afresh.
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
        self.per_host[usize::from(host)].charge(bytes, wait.as_ps());
        PortCharge { wait, ser, done }
    }

    /// Picoseconds the port spent awake over `[0, end]`, counting the
    /// still-open window (clamped to `end`). Non-destructive.
    fn awake_ps(&self, end: Picos) -> u64 {
        let open = self
            .awake_since
            .map(|since| self.awake_until.min(end).saturating_sub(since).as_ps())
            .unwrap_or(0);
        self.active_ps + open
    }

    /// Summarizes the port over the horizon `[0, end]`.
    pub(crate) fn report(&self, end: Picos) -> PortReport {
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
            per_host_bytes: senders(&self.per_host).map(|(h, l)| (h, l.bytes)).collect(),
            per_host_wait_ps: senders(&self.per_host).map(|(h, l)| (h, l.queue_wait_ps)).collect(),
        }
    }
}

/// One port's contribution to a [`FabricReport`](crate::FabricReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortReport {
    /// The endpoint owning the port.
    pub owner: PortOwner,
    /// The switch it hangs off.
    pub switch: u16,
    /// Transfers serialized.
    pub transfers: u64,
    /// Bytes serialized.
    pub bytes: u64,
    /// Total queue wait transfers paid here, picoseconds.
    pub queue_wait_ps: u64,
    /// Wire occupancy over the horizon, 0..=1.
    pub utilization: f64,
    /// Fraction of the horizon the port was awake, 0..=1.
    pub awake_fraction: f64,
    /// Port energy over the horizon (awake/asleep power plus switching),
    /// millijoules.
    pub energy_mj: f64,
    /// Bytes attributed per host, ascending host id; sums to `bytes`.
    pub per_host_bytes: Vec<(u16, u64)>,
    /// Queue wait attributed per host, ascending host id; sums to
    /// `queue_wait_ps`.
    pub per_host_wait_ps: Vec<(u16, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> Port {
        Port::new(PortOwner::Device(0), 0, PortConfig::default(), 3)
    }

    #[test]
    fn fifo_backlog_queues_same_instant_arrivals() {
        let mut p = port();
        let now = Picos::from_us(5);
        // 64 B at 32 B/ns serializes in 2 ns.
        let a = p.submit(0, 64, now);
        assert_eq!(a.wait, Picos::ZERO);
        assert_eq!(a.ser, Picos::from_ns(2));
        let b = p.submit(1, 64, now);
        assert_eq!(b.wait, Picos::from_ns(2), "second arrival queues behind the first");
        assert_eq!(b.done, now + Picos::from_ns(4));
        // After the backlog drains the queue is empty again.
        let c = p.submit(0, 64, now + Picos::from_us(1));
        assert_eq!(c.wait, Picos::ZERO);
    }

    #[test]
    fn per_host_ledger_conserves_port_totals() {
        let mut p = port();
        for k in 0..10u64 {
            p.submit((k % 3) as u16, 64 + k, Picos::from_ns(k * 100));
        }
        let r = p.report(Picos::from_us(10));
        assert_eq!(r.per_host_bytes.iter().map(|&(_, b)| b).sum::<u64>(), r.bytes);
        assert_eq!(r.per_host_wait_ps.iter().map(|&(_, w)| w).sum::<u64>(), r.queue_wait_ps);
    }

    #[test]
    fn awake_windows_close_after_the_sleep_timeout() {
        let mut p = port();
        p.submit(0, 64, Picos::from_us(1));
        // Sparse traffic: the port sleeps between the two windows.
        p.submit(0, 64, Picos::from_us(100));
        let r = p.report(Picos::from_us(200));
        // Two ~1 µs awake windows out of 200 µs.
        assert!(r.awake_fraction > 0.005 && r.awake_fraction < 0.03, "{}", r.awake_fraction);
        let idle = port().report(Picos::from_us(200));
        assert!(idle.energy_mj < r.energy_mj, "an awake port outspends a sleeping one");
        assert_eq!(idle.awake_fraction, 0.0);
    }
}
