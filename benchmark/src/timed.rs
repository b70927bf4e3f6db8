//! The three public trait seams the traced drivers get *inside* the stack
//! through, without touching it: a [`MemoryBackend`] under every
//! `DtlDevice`, an [`Interconnect`] under every `MemoryPool`, and a
//! [`TelemetrySink`] behind a `Telemetry` handle. Each wrapper forwards
//! every call and records a span around the ones that do work; field-read
//! getters forward bare, because timing them would cost more than they do.

use std::sync::Arc;

use dtl_core::{DtlError, HostId, MemoryBackend, SegmentGeometry, SegmentLocation};
use dtl_cxl::{LinkDelivery, LinkRetryStats};
use dtl_dram::{AccessKind, Picos, PowerEvent, PowerReport, PowerState, Priority};
use dtl_fabric::{FabricReport, Interconnect, Route};
use dtl_telemetry::{Event, LatencySummary, Telemetry, TelemetrySink};

use crate::span::{span, Layer};

/// A backend or interconnect with spans around its working calls.
#[derive(Debug)]
pub struct Timed<T>(pub T);

impl<B: MemoryBackend> MemoryBackend for Timed<B> {
    fn geometry(&self) -> SegmentGeometry {
        self.0.geometry()
    }

    fn segment_bytes(&self) -> u64 {
        self.0.segment_bytes()
    }

    fn now(&self) -> Picos {
        self.0.now()
    }

    fn advance_to(&mut self, t: Picos) {
        span(Layer::CoreBackend, || self.0.advance_to(t));
    }

    fn access(
        &mut self,
        loc: SegmentLocation,
        offset: u64,
        kind: AccessKind,
        priority: Priority,
        at: Picos,
    ) -> Picos {
        span(Layer::CoreBackend, || self.0.access(loc, offset, kind, priority, at))
    }

    fn set_rank_state(
        &mut self,
        channel: u32,
        rank: u32,
        state: PowerState,
        now: Picos,
    ) -> Result<Picos, DtlError> {
        span(Layer::CoreBackend, || self.0.set_rank_state(channel, rank, state, now))
    }

    fn rank_state(&self, channel: u32, rank: u32) -> PowerState {
        self.0.rank_state(channel, rank)
    }

    fn bulk_copy(
        &mut self,
        src: SegmentLocation,
        dst: SegmentLocation,
        bytes: u64,
        at: Picos,
    ) -> Picos {
        span(Layer::CoreBackend, || self.0.bulk_copy(src, dst, bytes, at))
    }

    fn charge_migration(&mut self, src: SegmentLocation, dst: SegmentLocation, lines: u64) {
        span(Layer::CoreBackend, || self.0.charge_migration(src, dst, lines));
    }

    fn power_report(&mut self, now: Picos) -> PowerReport {
        span(Layer::CoreBackend, || self.0.power_report(now))
    }

    fn drain_power_events(&mut self) -> Vec<PowerEvent> {
        span(Layer::CoreBackend, || self.0.drain_power_events())
    }

    fn est_access_latency(&self) -> Picos {
        self.0.est_access_latency()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.0.set_telemetry(telemetry);
    }

    fn rank_residency(&self, channel: u32, rank: u32) -> [Picos; 5] {
        self.0.rank_residency(channel, rank)
    }

    fn residency_slack(&self) -> Picos {
        self.0.residency_slack()
    }
}

impl<I: Interconnect> Interconnect for Timed<I> {
    fn devices(&self) -> u16 {
        self.0.devices()
    }

    fn route(&self, host: HostId, device: u16) -> Option<Route> {
        self.0.route(host, device)
    }

    fn round_trip(&self, host: HostId, device: u16) -> Picos {
        self.0.round_trip(host, device)
    }

    fn submit_at(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> LinkDelivery {
        span(Layer::FabricSubmit, || self.0.submit_at(host, device, bytes, now))
    }

    fn charge_bulk(&mut self, host: HostId, device: u16, bytes: u64, now: Picos) -> Picos {
        span(Layer::FabricBulk, || self.0.charge_bulk(host, device, bytes, now))
    }

    fn advance_to(&mut self, now: Picos) {
        span(Layer::FabricAdvance, || self.0.advance_to(now));
    }

    fn next_activity_at(&self) -> Option<Picos> {
        self.0.next_activity_at()
    }

    fn inject_crc_burst(&mut self, device: u16, burst: u32) -> bool {
        self.0.inject_crc_burst(device, burst)
    }

    fn device_stats(&self, device: u16) -> LinkRetryStats {
        self.0.device_stats(device)
    }

    fn set_device_telemetry(&mut self, device: u16, telemetry: Telemetry) {
        self.0.set_device_telemetry(device, telemetry);
    }

    fn queue_latency(&self) -> Option<LatencySummary> {
        self.0.queue_latency()
    }

    fn fabric_report(&self, end: Picos) -> Option<FabricReport> {
        self.0.fabric_report(end)
    }

    fn stats(&self) -> LinkRetryStats {
        self.0.stats()
    }
}

/// A telemetry sink with a span around every recorded event.
#[derive(Debug)]
pub struct TimedSink(pub Arc<dyn TelemetrySink>);

impl TelemetrySink for TimedSink {
    fn record(&self, event: Event) {
        span(Layer::TelemetryRecord, || self.0.record(event));
    }

    fn enabled(&self) -> bool {
        self.0.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtl_core::{AnalyticBackend, DtlConfig, DtlDevice};
    use dtl_cxl::{LinkModel, RetryPolicy};
    use dtl_dram::PowerParams;
    use dtl_fabric::PointToPoint;

    fn tiny_backend() -> AnalyticBackend {
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 64 };
        AnalyticBackend::new(geo, DtlConfig::tiny().segment_bytes, PowerParams::ddr4_128gb_dimm())
    }

    /// A short allocate / access / tick / free run; returns the report.
    fn drive<B: MemoryBackend>(mut dev: DtlDevice<B>) -> PowerReport {
        let au = dev.config().au_bytes;
        dev.register_host(HostId(0)).unwrap();
        let a = dev.alloc_vm(HostId(0), 3 * au, Picos::ZERO).unwrap();
        let b = dev.alloc_vm(HostId(0), 2 * au, Picos::from_us(1)).unwrap();
        for i in 0..500u64 {
            let hpa = a.hpa_base((i % 3) as usize, au).offset_by((i * 4096) % au);
            dev.access(HostId(0), hpa, AccessKind::Read, Picos::from_us(2 + i)).unwrap();
        }
        dev.dealloc_vm(b.handle, Picos::from_ms(1)).unwrap();
        for ms in 2..60 {
            dev.tick(Picos::from_ms(ms)).unwrap();
        }
        dev.power_report(Picos::from_ms(60))
    }

    #[test]
    fn timed_backend_is_transparent() {
        let raw = drive(DtlDevice::new(DtlConfig::tiny(), tiny_backend()));
        crate::span::start();
        let wrapped = drive(DtlDevice::new(DtlConfig::tiny(), Timed(tiny_backend())));
        let (spans, calls) = crate::span::stop();
        assert_eq!(raw.total.total_mj().to_bits(), wrapped.total.total_mj().to_bits());
        assert_eq!(raw.residency, wrapped.residency);
        assert!(calls[Layer::CoreBackend as usize] > 500, "the wrapper saw the device's calls");
        assert_eq!(spans.len() as u64, calls[Layer::CoreBackend as usize]);
    }

    #[test]
    fn timed_interconnect_is_transparent() {
        let mut raw = PointToPoint::new(LinkModel::cxl(), RetryPolicy::default(), 2);
        let mut wrapped = Timed(PointToPoint::new(LinkModel::cxl(), RetryPolicy::default(), 2));
        raw.inject_crc_burst(1, 3);
        wrapped.inject_crc_burst(1, 3);
        for i in 0..50u64 {
            let now = Picos::from_us(i);
            let a = raw.submit_at(HostId(0), (i % 2) as u16, 64, now);
            let b = wrapped.submit_at(HostId(0), (i % 2) as u16, 64, now);
            assert_eq!((a.delay, a.clean), (b.delay, b.clean));
            assert_eq!(
                raw.charge_bulk(HostId(0), 0, 1 << 20, now),
                wrapped.charge_bulk(HostId(0), 0, 1 << 20, now)
            );
        }
        assert_eq!(raw.stats(), wrapped.stats());
        assert_eq!(raw.device_stats(1), wrapped.device_stats(1));
        assert_eq!(raw.devices(), wrapped.devices());
    }
}
