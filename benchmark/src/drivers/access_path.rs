//! `access_path` — the Figure 14 replay (`fig14`): mixed post-cache
//! traces against a device with only the hotness mechanism on, four
//! allocation points, each once without and once with self-refresh.

use dtl_core::{AnalyticBackend, DtlConfig, DtlError, HostId, HostPhysAddr, SegmentGeometry};
use dtl_dram::{AccessKind, Picos, PowerParams};
use dtl_sim::experiments::fig14::{Fig14Result, Fig14Row, PAPER_POINTS};
use dtl_sim::{HotnessRunConfig, HotnessRunResult};
use dtl_telemetry::Telemetry;
use dtl_trace::{WorkloadKind, WorkloadSpec};

use super::{err, Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, field};
use crate::layers::core::Device;
use crate::layers::trace::Mix;
use crate::layers::Counters;
use crate::span::{harness, iteration};

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "access_path",
    why: "per-access translate + SMC + hotness + backend charge and dtl-trace record \
          generation do all the work; admission and the event queue do none",
    op: "accesses replayed",
    exact: true,
    seeding: Seeding::Flag,
    runs: |_| vec![RegistryRun::new("fig14", true, &[])],
    ops: |_, _| Some(base(0).accesses * PAPER_POINTS.len() as u64 * 2),
    headline: |results| {
        let rows = field(results.first()?, "rows")?.as_seq()?;
        Some(Headline {
            name: "additional saving from self-refresh, 208GB/6rk",
            value: as_f64(field(rows.first()?, "additional_saving")?)?,
            paper: Some(0.203),
        })
    },
    prepare,
    prepare_with_telemetry: None,
};

/// The registry's `tiny` base configuration: the paper's points at 1/256
/// scale and 1 M accesses (6 M at 1/128 without `tiny`, which a warm-up
/// and three repeats do not fit).
fn base(seed: u64) -> HotnessRunConfig {
    let mut base = HotnessRunConfig::paper_scaled(seed, 6, 208.0 / 288.0);
    base.accesses = 1_000_000;
    base.scale = 256;
    base
}

/// One replay past its set-up.
struct Replay {
    cfg: HotnessRunConfig,
    dtl: DtlConfig,
    geo: SegmentGeometry,
    dev: Device,
    mix: Mix,
    app_au_bases: Vec<Vec<HostPhysAddr>>,
}

fn set_up(cfg: HotnessRunConfig) -> Result<Replay, DtlError> {
    let mut dtl = DtlConfig::paper();
    dtl.au_bytes = (2 << 30) / cfg.scale;
    dtl.profile_window = Picos::from_ps(Picos::from_us(500).as_ps() / cfg.scale);
    dtl.profile_threshold =
        Picos::from_ps(((Picos::from_ms(50).as_ps() / cfg.scale) as f64 * 1.0) as u64);
    // Paper rank: 12 GiB (384 GB / 32 ranks) of 2 MiB segments.
    let segs_per_rank = 6144 / cfg.scale;
    let geo = SegmentGeometry {
        channels: cfg.channels,
        ranks_per_channel: cfg.active_ranks,
        segs_per_rank,
    };
    let mut backend = AnalyticBackend::new(geo, dtl.segment_bytes, PowerParams::ddr4_128gb_dimm());
    // Migration keeps its real-time ratio to the scaled thresholds.
    backend.migration_bw_bytes_per_sec *= cfg.scale as f64;
    let mut dev = Device::new(dtl, backend);
    dev.set_telemetry(Telemetry::disabled());
    dev.set_powerdown_enabled(false);
    dev.set_hotness_enabled(cfg.hotness);
    dev.register_host(HostId(0))?;

    // Equal working sets adding up to the allocated fraction, AU-aligned.
    let capacity =
        u64::from(cfg.channels) * u64::from(cfg.active_ranks) * segs_per_rank * dtl.segment_bytes;
    let allocated = (capacity as f64 * cfg.allocated_fraction) as u64;
    let per_app = (allocated / cfg.n_apps as u64 / dtl.au_bytes).max(1) * dtl.au_bytes;
    let specs: Vec<WorkloadSpec> = WorkloadKind::TRACED
        .iter()
        .cycle()
        .take(cfg.n_apps)
        .map(|k| {
            let mut s = k.spec();
            s.working_set_bytes = per_app;
            s
        })
        .collect();
    let mix = Mix::new(&specs, cfg.seed);
    // One AU at a time, round-robin over the applications, interleaved
    // with filler AUs freed afterwards: live and free capacity end up
    // fragmented across all ranks, as after allocation churn.
    let per_app_aus = per_app / dtl.au_bytes;
    let total_aus = capacity / dtl.au_bytes;
    let filler_aus = total_aus - per_app_aus * cfg.n_apps as u64;
    let mut app_au_bases: Vec<Vec<HostPhysAddr>> = vec![Vec::new(); cfg.n_apps];
    let mut fillers = Vec::new();
    let mut filler_credit = 0.0f64;
    let filler_per_slot = filler_aus as f64 / (per_app_aus * cfg.n_apps as u64).max(1) as f64;
    for _ in 0..per_app_aus {
        for bases in app_au_bases.iter_mut() {
            let vm = dev.alloc_vm(HostId(0), dtl.au_bytes, Picos::ZERO)?;
            bases.push(vm.hpa_base(0, dtl.au_bytes));
            filler_credit += filler_per_slot;
            while filler_credit >= 1.0 {
                filler_credit -= 1.0;
                fillers.push(dev.alloc_vm(HostId(0), dtl.au_bytes, Picos::ZERO)?.handle);
            }
        }
    }
    for f in fillers {
        dev.dealloc_vm(f, Picos::ZERO)?;
    }
    Ok(Replay { cfg, dtl, geo, dev, mix, app_au_bases })
}

fn replay(r: Replay, counters: &mut Counters) -> Result<HotnessRunResult, DtlError> {
    let Replay { cfg, dtl, geo, mut dev, mut mix, app_au_bases } = r;
    let dt = Picos::from_ps((64.0 / cfg.target_bw * 1e12) as u64);
    let tick_every = 256u64;
    let mut now = Picos::from_ns(1);
    let mut first_sr_entry = None;
    let stable_from = cfg.accesses * 6 / 10;
    let mut stable_start: Option<(Picos, f64)> = None;
    harness(|| -> Result<(), DtlError> {
        for i in 0..cfg.accesses {
            iteration(|| {
                let rec = mix.next_record();
                let local = rec.addr - mix.base_of(rec.instance);
                let au_idx = (local / dtl.au_bytes) as usize;
                let hpa =
                    app_au_bases[rec.instance as usize][au_idx].offset_by(local % dtl.au_bytes);
                let kind = if rec.is_write { AccessKind::Write } else { AccessKind::Read };
                dev.access(HostId(0), hpa, kind, now)
            })?;
            now += dt;
            if i % tick_every == 0 {
                dev.tick(now)?;
                if first_sr_entry.is_none() && dev.hotness_stats().sr_entries > 0 {
                    first_sr_entry = Some(now);
                }
            }
            if i == stable_from {
                let rep = dev.power_report(now);
                stable_start = Some((now, rep.total.total_mj()));
            }
        }
        Ok(())
    })?;
    dev.tick(now)?;
    dev.check_invariants()?;
    let report = dev.power_report(now);
    // PowerState::ALL[3] is self-refresh.
    let sr_ps: u128 =
        report.residency.iter().flatten().map(|rank| u128::from(rank[3].as_ps())).sum();
    let total_ps = u128::from(now.as_ps()) * u128::from(geo.channels * geo.ranks_per_channel);
    let hs = dev.hotness_stats();
    let (t0, e0) = stable_start.expect("stable point sampled");
    let stable_power_mw = (report.total.total_mj() - e0) / (now - t0).as_secs_f64();
    dev.count_into(counters);
    Ok(HotnessRunResult {
        total_energy_mj: report.total.total_mj(),
        background_mj: report.total.background_mj,
        stable_power_mw,
        sr_residency: sr_ps as f64 / total_ps as f64,
        first_sr_entry,
        sr_entries: hs.sr_entries,
        sr_exits: hs.sr_exits,
        swaps_executed: dev.migration_stats().completed,
        duration: now,
        accesses: cfg.accesses,
    })
}

fn prepare(_: Scale, seed: u64) -> Result<Run, String> {
    let base = base(seed);
    // Per point: the baseline (hotness off), then the treatment.
    let mut points = Vec::with_capacity(PAPER_POINTS.len());
    for (label, ranks, frac) in PAPER_POINTS {
        let cfg = HotnessRunConfig { active_ranks: ranks, allocated_fraction: frac, ..base };
        let off = set_up(HotnessRunConfig { hotness: false, ..cfg }).map_err(err)?;
        let on = set_up(HotnessRunConfig { hotness: true, ..cfg }).map_err(err)?;
        points.push((label, cfg, off, on));
    }
    Ok(Box::new(move || {
        let mut counters = Counters::default();
        let mut rows = Vec::with_capacity(points.len());
        for (label, cfg, off, on) in points {
            let off = replay(off, &mut counters).map_err(err)?;
            let on = replay(on, &mut counters).map_err(err)?;
            rows.push(Fig14Row {
                label: label.to_string(),
                active_ranks: cfg.active_ranks,
                allocated_fraction: cfg.allocated_fraction,
                additional_saving: 1.0 - on.stable_power_mw / off.stable_power_mw,
                sr_residency: on.sr_residency,
                warmup_s: on.first_sr_entry.map(|t| t.as_secs_f64()),
                sr_exits: on.sr_exits,
            });
        }
        let result = Fig14Result { rows, scale: base.scale };
        Ok(Outcome { jsons: vec![dtl_sim::to_json(&result)], counters })
    }))
}
