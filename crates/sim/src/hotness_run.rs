//! The hotness-aware self-refresh experiment harness (paper §5.2, Figure
//! 14): replay mixed post-cache traces against a DTL device whose
//! rank-level power-down already reduced it to N active ranks, and measure
//! the *additional* energy the self-refresh mechanism saves.
//!
//! Space and time are scaled together by `scale` (a laptop cannot replay
//! 20-billion-instruction traces against 384 GB): a 1/256-scale device
//! sweeps its working set 256× faster, so the profiling thresholds shrink
//! by the same factor and every dimensionless quantity — accesses per
//! segment per threshold window, migration time over threshold — is
//! preserved.

use dtl_core::{
    div_rem, AnalyticBackend, DtlConfig, DtlDevice, DtlError, HostId, HostPhysAddr, SegmentGeometry,
};
use dtl_dram::{AccessKind, Picos, PowerParams};
use dtl_telemetry::Telemetry;
use dtl_trace::{MixedRecord, Mixer, WorkloadKind, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::slice;

use crate::assert_residency_consistency;

/// Configuration of one hotness replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotnessRunConfig {
    /// Trace seed.
    pub seed: u64,
    /// Space/time scale versus the paper's 384 GB node (must divide the
    /// 1024-segment AU by more than the channel count: ≤ 256).
    pub scale: u64,
    /// DRAM channels (paper: 4).
    pub channels: u32,
    /// Active ranks per channel after power-down (paper: 6 or 8).
    pub active_ranks: u32,
    /// Fraction of device capacity allocated to VMs (paper Figure 14:
    /// 208/224/240 GB of 288 GB, or 304 GB of 384 GB).
    pub allocated_fraction: f64,
    /// Applications in the mix.
    pub n_apps: usize,
    /// Replay bandwidth in bytes/s (paper: > 30 GB/s).
    pub target_bw: f64,
    /// Post-cache accesses to replay.
    pub accesses: u64,
    /// Whether the hotness mechanism runs (off = baseline).
    pub hotness: bool,
}

impl HotnessRunConfig {
    /// A Figure 14-style configuration at 1/128 scale.
    pub fn paper_scaled(seed: u64, active_ranks: u32, allocated_fraction: f64) -> Self {
        HotnessRunConfig {
            seed,
            scale: 128,
            channels: 4,
            active_ranks,
            allocated_fraction,
            n_apps: 6,
            target_bw: 30.0e9,
            accesses: 6_000_000,
            hotness: true,
        }
    }

    /// A fast test configuration.
    pub fn tiny(seed: u64, hotness: bool) -> Self {
        HotnessRunConfig {
            seed,
            scale: 256,
            channels: 2,
            active_ranks: 4,
            allocated_fraction: 0.6,
            n_apps: 3,
            target_bw: 30.0e9,
            accesses: 1_200_000,
            hotness,
        }
    }

    fn segs_per_rank(&self) -> u64 {
        // Paper rank: 12 GiB (384 GB / 32 ranks) of 2 MiB segments.
        6144 / self.scale
    }

    fn capacity_bytes(&self, segment_bytes: u64) -> u64 {
        u64::from(self.channels)
            * u64::from(self.active_ranks)
            * self.segs_per_rank()
            * segment_bytes
    }

    /// The paper's DTL configuration with the AU and the profiling
    /// thresholds at `scale`.
    fn dtl_config(&self, threshold_factor: f64) -> DtlConfig {
        let mut dtl_cfg = DtlConfig::paper();
        dtl_cfg.au_bytes = (2 << 30) / self.scale;
        dtl_cfg.profile_window = Picos::from_ps(Picos::from_us(500).as_ps() / self.scale);
        dtl_cfg.profile_threshold = Picos::from_ps(
            ((Picos::from_ms(50).as_ps() / self.scale) as f64 * threshold_factor) as u64,
        );
        dtl_cfg
    }

    /// Working-set bytes of each application: equal shares adding up to the
    /// allocated fraction, AU-aligned so app-local offsets map through
    /// per-AU base addresses.
    fn per_app_bytes(&self, dtl_cfg: &DtlConfig) -> u64 {
        let allocated =
            (self.capacity_bytes(dtl_cfg.segment_bytes) as f64 * self.allocated_fraction) as u64;
        (allocated / self.n_apps as u64 / dtl_cfg.au_bytes).max(1) * dtl_cfg.au_bytes
    }

    /// The application mix. Nothing in it depends on [`Self::hotness`].
    fn mix_specs(&self) -> Vec<WorkloadSpec> {
        let per_app = self.per_app_bytes(&self.dtl_config(1.0));
        WorkloadKind::TRACED
            .iter()
            .cycle()
            .take(self.n_apps)
            .map(|k| {
                let mut s = k.spec();
                s.working_set_bytes = per_app;
                s
            })
            .collect()
    }
}

/// Result of one hotness replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotnessRunResult {
    /// Total DRAM energy over the replay, millijoules.
    pub total_energy_mj: f64,
    /// Background share.
    pub background_mj: f64,
    /// Mean DRAM power over the stable phase (final 40 % of the replay,
    /// after warmup consolidation), milliwatts.
    pub stable_power_mw: f64,
    /// Fraction of rank-time spent in self-refresh.
    pub sr_residency: f64,
    /// Time of the first self-refresh entry (warmup), if any.
    pub first_sr_entry: Option<Picos>,
    /// Self-refresh entries.
    pub sr_entries: u64,
    /// Self-refresh exits (ping-pong indicator).
    pub sr_exits: u64,
    /// Segment swaps executed.
    pub swaps_executed: u64,
    /// Replay length in simulated time.
    pub duration: Picos,
    /// Accesses replayed.
    pub accesses: u64,
}

/// One device under trace replay: a device fragmented by allocation churn,
/// the map from the mix's flat address space onto its AUs, the replay
/// clock, and what [`run_hotness`] measures along the way.
///
/// The trace is not part of it: the mix ([`HotnessRunConfig::mix_specs`])
/// never depends on [`HotnessRunConfig::hotness`], so a baseline and a
/// treatment replay are stepped from one [`Mixer`] ([`drive`]).
struct Replay {
    dev: DtlDevice<AnalyticBackend>,
    dtl_cfg: DtlConfig,
    geo: SegmentGeometry,
    /// Flat-space base of each application ([`Mixer::base_of`]).
    app_bases: Vec<u64>,
    app_au_bases: Vec<Vec<HostPhysAddr>>,
    /// Time between accesses at the target bandwidth.
    dt: Picos,
    now: Picos,
    /// Accesses the run replays ([`HotnessRunConfig::accesses`]).
    accesses: u64,
    first_sr_entry: Option<Picos>,
    /// The access index the stable phase starts at (60 % of the replay),
    /// where energy is sampled; `None` takes no sample.
    stable_from: Option<u64>,
    stable_start: Option<(Picos, f64)>,
}

impl Replay {
    /// Builds the device and lays `mix`'s applications out on it.
    fn build(
        cfg: &HotnessRunConfig,
        threshold_factor: f64,
        telemetry: &Telemetry,
        mix: &Mixer,
    ) -> Result<Self, DtlError> {
        let dtl_cfg = cfg.dtl_config(threshold_factor);
        let geo = SegmentGeometry {
            channels: cfg.channels,
            ranks_per_channel: cfg.active_ranks,
            segs_per_rank: cfg.segs_per_rank(),
        };
        let mut backend =
            AnalyticBackend::new(geo, dtl_cfg.segment_bytes, PowerParams::ddr4_128gb_dimm());
        // Migration must keep its real-time ratio to the (scaled) thresholds.
        backend.migration_bw_bytes_per_sec *= cfg.scale as f64;
        let mut dev = DtlDevice::new(dtl_cfg, backend);
        dev.set_telemetry(telemetry.clone());
        dev.set_powerdown_enabled(false);
        dev.set_hotness_enabled(cfg.hotness);
        dev.register_host(HostId(0))?;

        // Allocate one AU at a time, round-robin over the applications and
        // interleaved with filler AUs that are freed afterwards: live and
        // unallocated capacity end up *fragmented across all ranks*,
        // exactly the state a real pool reaches after allocation churn. (A
        // freshly packed device would leave whole ranks empty and make the
        // hotness mechanism's job trivial.)
        let capacity = cfg.capacity_bytes(dtl_cfg.segment_bytes);
        let per_app_aus = cfg.per_app_bytes(&dtl_cfg) / dtl_cfg.au_bytes;
        let total_aus = capacity / dtl_cfg.au_bytes;
        let filler_aus = total_aus - per_app_aus * cfg.n_apps as u64;
        let mut app_au_bases: Vec<Vec<HostPhysAddr>> = vec![Vec::new(); cfg.n_apps];
        let mut fillers = Vec::new();
        let mut filler_credit = 0.0f64;
        let filler_per_slot = filler_aus as f64 / (per_app_aus * cfg.n_apps as u64).max(1) as f64;
        for _ in 0..per_app_aus {
            for bases in app_au_bases.iter_mut() {
                let vm = dev.alloc_vm(HostId(0), dtl_cfg.au_bytes, Picos::ZERO)?;
                bases.push(vm.hpa_base(0, dtl_cfg.au_bytes));
                filler_credit += filler_per_slot;
                while filler_credit >= 1.0 {
                    filler_credit -= 1.0;
                    let f = dev.alloc_vm(HostId(0), dtl_cfg.au_bytes, Picos::ZERO)?;
                    fillers.push(f.handle);
                }
            }
        }
        for f in fillers {
            dev.dealloc_vm(f, Picos::ZERO)?;
        }
        Ok(Replay {
            dev,
            dtl_cfg,
            geo,
            app_bases: (0..mix.instances()).map(|i| mix.base_of(i)).collect(),
            app_au_bases,
            dt: Picos::from_ps((64.0 / cfg.target_bw * 1e12) as u64),
            now: Picos::from_ns(1),
            accesses: cfg.accesses,
            first_sr_entry: None,
            stable_from: Some(cfg.accesses * 6 / 10),
            stable_start: None,
        })
    }

    /// Replays record `i` of a run: issues it at `now`, advances `now` by
    /// `dt`, ticks the device on every 256th index, and samples energy at
    /// the start of the stable phase.
    fn step(&mut self, i: u64, r: MixedRecord) -> Result<(), DtlError> {
        let app = r.instance as usize;
        let (au_idx, au_off) = div_rem(r.addr - self.app_bases[app], self.dtl_cfg.au_bytes);
        let hpa = self.app_au_bases[app][au_idx as usize].offset_by(au_off);
        let kind = if r.is_write { AccessKind::Write } else { AccessKind::Read };
        self.dev.access(HostId(0), hpa, kind, self.now)?;
        self.now += self.dt;
        if i.is_multiple_of(256) {
            self.dev.tick(self.now)?;
            if self.first_sr_entry.is_none() && self.dev.hotness_stats().sr_entries > 0 {
                self.first_sr_entry = Some(self.now);
            }
        }
        if self.stable_from == Some(i) {
            let rep = self.dev.power_report(self.now);
            self.stable_start = Some((self.now, rep.total.total_mj()));
        }
        Ok(())
    }

    /// Settles the device, sweeps its invariants and folds the replay into
    /// its result.
    fn finish(mut self, telemetry: &Telemetry) -> Result<HotnessRunResult, DtlError> {
        let (dev, now) = (&mut self.dev, self.now);
        dev.tick(now)?;
        dev.check_invariants()?;
        let report = dev.power_report(now);
        assert_residency_consistency(dev, &report);
        if let Some(m) = telemetry.metrics() {
            dev.export_metrics(m);
        }
        // Self-refresh residency over all ranks.
        let mut sr_ps: u128 = 0;
        for ch in &report.residency {
            for rank_res in ch {
                sr_ps += u128::from(rank_res[3].as_ps()); // PowerState::ALL[3] = SelfRefresh
            }
        }
        let ranks = self.geo.channels * self.geo.ranks_per_channel;
        let total_ps = u128::from(now.as_ps()) * u128::from(ranks);
        let hs = dev.hotness_stats();
        let (t0, e0) = self.stable_start.expect("stable point sampled");
        let stable_power_mw = (report.total.total_mj() - e0) / (now - t0).as_secs_f64();
        Ok(HotnessRunResult {
            total_energy_mj: report.total.total_mj(),
            background_mj: report.total.background_mj,
            stable_power_mw,
            sr_residency: sr_ps as f64 / total_ps as f64,
            first_sr_entry: self.first_sr_entry,
            sr_entries: hs.sr_entries,
            sr_exits: hs.sr_exits,
            swaps_executed: dev.migration_stats().completed,
            duration: now,
            accesses: self.accesses,
        })
    }
}

/// The replay loop: the next `steps` records of `mix`, each stepped into
/// every replay in turn as record `0..steps`. The replays share nothing but
/// the trace, so each sees exactly the accesses, at exactly the instants,
/// it would see if driven alone.
fn drive(mix: &mut Mixer, replays: &mut [Replay], steps: u64) -> Result<(), DtlError> {
    for i in 0..steps {
        let r = mix.next_record();
        for replay in replays.iter_mut() {
            replay.step(i, r)?;
        }
    }
    Ok(())
}

/// Replays a mixed trace against a DTL device with only the hotness
/// mechanism active. `threshold_factor` scales the profiling idle
/// threshold relative to the paper's 50 ms default (1.0 everywhere but the
/// threshold ablation). The replay streams `SegmentMigrated` /
/// `TspAdvance` / `SelfRefreshSwap` / `RankPowerTransition` events into
/// `telemetry`'s sink and, if a metrics registry is attached, exports
/// every engine's statistics there at the end.
///
/// # Errors
///
/// Propagates device errors (which indicate harness or device bugs).
pub fn run_hotness(
    cfg: &HotnessRunConfig,
    threshold_factor: f64,
    telemetry: &Telemetry,
) -> Result<HotnessRunResult, DtlError> {
    let mut mix = Mixer::new(&cfg.mix_specs(), cfg.seed);
    let mut replay = Replay::build(cfg, threshold_factor, telemetry, &mix)?;
    drive(&mut mix, slice::from_mut(&mut replay), cfg.accesses)?;
    replay.finish(telemetry)
}

/// Runs baseline (hotness off) and treatment (hotness on) with identical
/// traffic; returns `(baseline, treatment, stable_saving_fraction)`. Each
/// result is what [`run_hotness`] returns for that configuration.
///
/// The trace is synthesised once (§5.2 replays one mixed trace against
/// both devices): the two devices are stepped in lockstep, record by
/// record, from one [`Mixer`].
///
/// The saving compares **stable-phase power** — the paper's Figure 14
/// likewise reports stable-phase savings; warmup consolidation energy
/// amortizes over the minutes-to-hours that datacenter access patterns
/// stay stable (§6.3).
///
/// # Errors
///
/// Propagates device errors from either replay. If both replays would
/// fail, the error of the lower access index is returned, the baseline's
/// first at equal indices (driven one after the other, the baseline's would
/// always win); either is a harness or device bug.
pub fn hotness_savings(
    cfg: &HotnessRunConfig,
) -> Result<(HotnessRunResult, HotnessRunResult, f64), DtlError> {
    let untraced = Telemetry::disabled();
    let mut mix = Mixer::new(&cfg.mix_specs(), cfg.seed);
    let build =
        |hotness| Replay::build(&HotnessRunConfig { hotness, ..*cfg }, 1.0, &untraced, &mix);
    let mut pair = [build(false)?, build(true)?];
    drive(&mut mix, &mut pair, cfg.accesses)?;
    let [off, on] = pair;
    let off = off.finish(&untraced)?;
    let on = on.finish(&untraced)?;
    let saving = 1.0 - on.stable_power_mw / off.stable_power_mw;
    Ok((off, on, saving))
}

/// Result of the self-refresh re-entry study (paper §3.4: "a reactivated
/// rank requires only a small amount of data migration to re-enter the
/// self-refresh mode", because most victim segments stay cold).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReentryResult {
    /// Segment migrations executed before the first self-refresh entries.
    pub initial_migrations: u64,
    /// Probes issued until one landed on a self-refreshing rank.
    pub probes_to_wake: u64,
    /// Migrations executed between the forced wake and re-entry.
    pub reentry_migrations: u64,
    /// Time from the wake to re-entry.
    pub reentry_time: Picos,
    /// Self-refresh entries observed in total.
    pub sr_entries: u64,
}

/// Runs the re-entry study: replay until the victim ranks sit in
/// self-refresh, wake one by touching its (live) contents, keep replaying,
/// and measure how much migration the re-entry needs.
///
/// # Errors
///
/// Propagates device errors; fails with [`DtlError::Internal`] if the
/// replay never reaches self-refresh or never re-enters (use a config that
/// is known to, e.g. [`HotnessRunConfig::tiny`] with a denser allocation).
pub fn run_reentry(cfg: &HotnessRunConfig) -> Result<ReentryResult, DtlError> {
    // `run_hotness`'s world at the paper's threshold, hotness forced on.
    let cfg = &HotnessRunConfig { hotness: true, ..*cfg };
    let mut mix = Mixer::new(&cfg.mix_specs(), cfg.seed);
    let mut w = Replay::build(cfg, 1.0, &Telemetry::disabled(), &mix)?;
    // Driven in chunks that restart their record index: there is no one
    // stable phase to sample.
    w.stable_from = None;

    // Phase 1: reach stable self-refresh on every channel.
    let mut budget = cfg.accesses;
    while w.dev.hotness_stats().sr_entries < u64::from(cfg.channels) && budget > 0 {
        drive(&mut mix, slice::from_mut(&mut w), 100_000.min(budget))?;
        budget = budget.saturating_sub(100_000);
    }
    if w.dev.hotness_stats().sr_entries < u64::from(cfg.channels) {
        return Err(DtlError::Internal {
            reason: "replay never reached stable self-refresh".into(),
        });
    }
    let initial_migrations = w.dev.migration_stats().completed;
    let entries_before = w.dev.hotness_stats().sr_entries;
    let exits_before = w.dev.hotness_stats().sr_exits;

    // Phase 2: probe until an access lands on a self-refreshing rank (the
    // probe itself is the wake). Walk every segment of every app.
    let mut probes = 0u64;
    'probe: for base in w.app_au_bases.iter().flatten() {
        for seg in 0..w.dtl_cfg.segments_per_au() {
            let hpa = base.offset_by(seg * w.dtl_cfg.segment_bytes);
            w.dev.access(HostId(0), hpa, AccessKind::Read, w.now)?;
            w.now += w.dt;
            probes += 1;
            w.dev.tick(w.now)?;
            if w.dev.hotness_stats().sr_exits > exits_before {
                break 'probe;
            }
        }
    }
    if w.dev.hotness_stats().sr_exits == exits_before {
        return Err(DtlError::Internal {
            reason: "no probe reached a self-refreshing rank (victims hold no live data)".into(),
        });
    }
    let wake_time = w.now;
    let migrations_at_wake = w.dev.migration_stats().completed;

    // Phase 3: keep replaying until the woken rank re-enters.
    let mut budget = cfg.accesses;
    while w.dev.hotness_stats().sr_entries == entries_before && budget > 0 {
        drive(&mut mix, slice::from_mut(&mut w), 50_000.min(budget))?;
        budget = budget.saturating_sub(50_000);
    }
    if w.dev.hotness_stats().sr_entries == entries_before {
        return Err(DtlError::Internal { reason: "woken rank never re-entered".into() });
    }
    w.dev.check_invariants()?;
    Ok(ReentryResult {
        initial_migrations,
        probes_to_wake: probes,
        reentry_migrations: w.dev.migration_stats().completed - migrations_at_wake,
        reentry_time: w.now - wake_time,
        sr_entries: w.dev.hotness_stats().sr_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotness_enters_self_refresh_and_saves_energy() {
        let (off, on, saving) = hotness_savings(&HotnessRunConfig::tiny(5, true)).unwrap();
        assert_eq!(off.sr_entries, 0, "baseline never self-refreshes");
        assert!(on.sr_entries > 0, "treatment must reach self-refresh: {on:?}");
        assert!(on.sr_residency > 0.02, "SR residency {}", on.sr_residency);
        assert!(saving > 0.0, "saving {saving}");
        assert!(on.first_sr_entry.is_some());
    }

    #[test]
    fn nearly_full_device_struggles_to_self_refresh() {
        let loose = HotnessRunConfig::tiny(5, true);
        let tight = HotnessRunConfig { allocated_fraction: 0.95, ..loose };
        let l = run_hotness(&loose, 1.0, &Telemetry::disabled()).unwrap();
        let t = run_hotness(&tight, 1.0, &Telemetry::disabled()).unwrap();
        // The paper's Figure 14 contrast: scarce unallocated capacity makes
        // cold collection harder. Our workload model includes dormant
        // (allocated-but-cold) regions, which soften the paper's cliff —
        // the tight configuration may still reach self-refresh — but it
        // must never do *better* than the loose one beyond noise.
        assert!(
            t.sr_residency <= l.sr_residency + 0.02,
            "tight {} vs loose {}",
            t.sr_residency,
            l.sr_residency
        );
        assert!(l.sr_entries > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_hotness(&HotnessRunConfig::tiny(9, true), 1.0, &Telemetry::disabled()).unwrap();
        let b = run_hotness(&HotnessRunConfig::tiny(9, true), 1.0, &Telemetry::disabled()).unwrap();
        assert_eq!(a.total_energy_mj, b.total_energy_mj);
        assert_eq!(a.sr_entries, b.sr_entries);
    }

    #[test]
    fn reentry_needs_little_migration() {
        // The §3.4 claim: after a wake, most victim segments are still
        // cold, so re-entering self-refresh is cheap.
        let cfg = HotnessRunConfig {
            allocated_fraction: 0.8,
            accesses: 2_000_000,
            ..HotnessRunConfig::tiny(5, true)
        };
        let r = run_reentry(&cfg).unwrap();
        assert!(r.sr_entries > cfg.channels as u64, "{r:?}");
        assert!(
            r.reentry_migrations <= r.initial_migrations.max(4),
            "re-entry should be no more expensive than warmup: {r:?}"
        );
        assert!(r.reentry_time > Picos::ZERO);
    }
}

#[cfg(test)]
mod drift_tests {
    use super::*;
    use dtl_core::DtlDevice;
    use dtl_trace::TraceGen;

    /// When the access pattern shifts (hot set drifts), the hotness engine
    /// adapts: the parked victim gets touched, wakes, and a new
    /// consolidation round re-establishes self-refresh.
    #[test]
    fn engine_adapts_to_pattern_drift() {
        let scale = 256u64;
        let mut dtl_cfg = DtlConfig::paper();
        dtl_cfg.au_bytes = (2u64 << 30) / scale;
        dtl_cfg.profile_window = Picos::from_ps(Picos::from_us(500).as_ps() / scale);
        dtl_cfg.profile_threshold = Picos::from_ps(Picos::from_ms(50).as_ps() / scale);
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 24 };
        let mut backend =
            AnalyticBackend::new(geo, dtl_cfg.segment_bytes, PowerParams::ddr4_128gb_dimm());
        backend.migration_bw_bytes_per_sec *= scale as f64;
        let mut dev = DtlDevice::new(dtl_cfg, backend);
        dev.set_powerdown_enabled(false);
        dev.register_host(dtl_core::HostId(0)).unwrap();
        // One app covering ~85% of capacity so victims hold live data.
        let capacity = geo.total_segments() * dtl_cfg.segment_bytes;
        let ws = (capacity * 85 / 100 / dtl_cfg.au_bytes) * dtl_cfg.au_bytes;
        let mut spec = dtl_trace::WorkloadKind::DataServing.spec();
        spec.working_set_bytes = ws;
        let mut gen = TraceGen::new(spec, 2);
        let vm = dev.alloc_vm(dtl_core::HostId(0), ws, Picos::ZERO).unwrap();
        let base = vm.hpa_base(0, dtl_cfg.au_bytes);
        let dt = Picos::from_ps((64.0 / 30.0e9 * 1e12) as u64);
        let mut now = Picos::from_ns(1);
        let replay =
            |dev: &mut DtlDevice<AnalyticBackend>, gen: &mut TraceGen, now: &mut Picos, n: u64| {
                for i in 0..n {
                    let r = gen.next_record();
                    dev.access(dtl_core::HostId(0), base.offset_by(r.addr), AccessKind::Read, *now)
                        .unwrap();
                    *now += dt;
                    if i % 256 == 0 {
                        dev.tick(*now).unwrap();
                    }
                }
            };
        // Phase 1: reach self-refresh.
        let mut budget = 3_000_000u64;
        while dev.hotness_stats().sr_entries < 2 && budget > 0 {
            replay(&mut dev, &mut gen, &mut now, 100_000);
            budget -= 100_000;
        }
        assert!(dev.hotness_stats().sr_entries >= 2, "{:?}", dev.hotness_stats());
        let entries_before = dev.hotness_stats().sr_entries;
        // Phase 2: the pattern shifts hard.
        gen.drift_hot_set(0.7);
        let mut budget = 3_000_000u64;
        while dev.hotness_stats().sr_entries <= entries_before && budget > 0 {
            replay(&mut dev, &mut gen, &mut now, 100_000);
            budget -= 100_000;
        }
        let hs = dev.hotness_stats();
        assert!(
            hs.sr_entries > entries_before,
            "the engine must re-establish self-refresh after drift: {hs:?}"
        );
        dev.check_invariants().unwrap();
    }
}
