//! `cycle_dram` — the cycle-level FR-FCFS `DramSystem` under the Figure 2
//! rank-count sweep (`fig02`) and the §6.6 device-scaling comparison
//! (`sec6_6`). No DTL device is involved. Neither experiment takes a
//! seed, so every `--seed` replays the same requests.

use dtl_dram::{AccessKind, AddressMapping, DramConfig, Geometry, PhysAddr, Picos, Priority};
use dtl_sim::experiments::fig02::{Fig02Result, Fig02Row};
use dtl_sim::experiments::latency_sweep::SweepConfig;
use dtl_sim::experiments::sec6_6::{Sec66Result, Sec66Row};
use dtl_sim::PerfModel;
use dtl_trace::{WorkloadKind, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{err, Driver, Headline, Outcome, RegistryRun, Run, Scale, Seeding};
use crate::json::{as_f64, field};
use crate::layers::dram::Dram;
use crate::layers::trace::Gen;
use crate::layers::Counters;
use crate::span::{harness, iteration};

/// The workload.
pub const DRIVER: Driver = Driver {
    name: "cycle_dram",
    why: "the cycle-level FR-FCFS DramSystem dominates and the DTL device is bypassed, so \
          dtl-core changes must not move it",
    op: "DRAM requests",
    exact: true,
    seeding: Seeding::Unseeded,
    runs: |_| vec![RegistryRun::new("fig02", true, &[]), RegistryRun::new("sec6_6", true, &[])],
    ops: |_, _| {
        Some(
            FIG02_REQUESTS * (WorkloadKind::ALL.len() * FIG02_RANKS.len()) as u64
                + SEC6_6_REQUESTS * (GEOMETRIES.len() * WorkloadKind::TRACED.len() * 2) as u64,
        )
    },
    headline: |results| {
        Some(Headline {
            name: "geomean slowdown at 2 ranks/channel",
            value: as_f64(field(results.first()?, "mean_slowdown_at_min_ranks")?)?,
            paper: Some(1.007),
        })
    },
    prepare,
    prepare_with_telemetry: None,
};

/// Requests per measurement at the registry's `tiny` sizes.
const FIG02_REQUESTS: u64 = 10_000;
const SEC6_6_REQUESTS: u64 = 8_000;

const FIG02_RANKS: [u32; 3] = [8, 4, 2];

/// `sec6_6`'s device/load geometries: label, channels, ranks, cores.
const GEOMETRIES: [(&str, u32, u32, u32); 3] = [
    ("4ch x 8rk (1TB-class)", 4, 8, 28),
    ("8ch x 16rk, fixed demand", 8, 16, 28),
    ("8ch x 16rk, scaled demand", 8, 16, 56),
];

/// One latency measurement past its set-up.
struct Measurement {
    cfg: SweepConfig,
    spec: WorkloadSpec,
    dram: Dram,
    gen: Gen,
    rng: SmallRng,
}

fn set_up(cfg: SweepConfig, spec: WorkloadSpec) -> Result<Measurement, String> {
    let geometry = Geometry {
        channels: cfg.channels,
        ranks_per_channel: cfg.ranks_per_channel,
        ..Geometry::cxl_1tb()
    };
    let dram_cfg =
        DramConfig { geometry, page_policy: cfg.page_policy, ..DramConfig::cxl_1tb_ddr4_2933() };
    Ok(Measurement {
        cfg,
        spec,
        dram: Dram::new(dram_cfg, cfg.mapping).map_err(err)?,
        gen: Gen::new(spec, cfg.seed),
        rng: SmallRng::seed_from_u64(cfg.seed ^ 0x5eed),
    })
}

/// Replays the workload's post-cache stream as an open-loop arrival
/// process; returns the AMAT (mean device latency plus the link).
fn measure(m: Measurement, counters: &mut Counters) -> Result<Picos, String> {
    let Measurement { cfg, spec, mut dram, mut gen, mut rng } = m;
    let instr_per_ns = f64::from(cfg.cores) * cfg.ipc * cfg.core_ghz;
    let accesses_per_ns = instr_per_ns * spec.mapki / 1000.0;
    let mean_gap_ps = 1000.0 / accesses_per_ns;
    let mut t = Picos::ZERO;
    let footprint = cfg.footprint_bytes.min(dram.config().geometry.capacity_bytes());
    harness(|| -> Result<(), String> {
        for _ in 0..cfg.requests {
            iteration(|| {
                let r = gen.next_record();
                let addr = PhysAddr::new(r.addr % footprint).align_down_to_line();
                let kind = if r.is_write { AccessKind::Write } else { AccessKind::Read };
                let u: f64 = rng.gen_range(1e-9..1.0f64);
                t += Picos::from_ps(((-u.ln()) * mean_gap_ps).max(1.0) as u64);
                dram.submit(addr, kind, Priority::Foreground, t).map_err(err)
            })?;
            // Keep queues bounded: drain periodically.
            if dram.pending() > 512 {
                dram.advance_to(t);
            }
        }
        Ok(())
    })?;
    dram.run_until_idle(Picos::from_us(10));
    dram.count_into(counters);
    Ok(dram.foreground_stats().mean() + cfg.link_round_trip)
}

fn prepare(_: Scale, _seed: u64) -> Result<Run, String> {
    let mut fig02 = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut per_rank = Vec::new();
        for ranks in FIG02_RANKS {
            let mut cfg = SweepConfig::paper(ranks, AddressMapping::RankInterleaved, 0);
            cfg.requests = FIG02_REQUESTS;
            per_rank.push(set_up(cfg, kind.spec())?);
        }
        fig02.push((kind, per_rank));
    }
    let mut sec6_6 = Vec::new();
    for (_, channels, ranks, cores) in GEOMETRIES {
        for kind in WorkloadKind::TRACED {
            let pair =
                [AddressMapping::RankInterleaved, AddressMapping::dtl_default()].map(|mapping| {
                    let mut cfg = SweepConfig::paper(ranks, mapping, 89);
                    cfg.channels = channels;
                    cfg.cores = cores;
                    cfg.requests = SEC6_6_REQUESTS;
                    set_up(cfg, kind.spec())
                });
            let [inter, dtl] = pair;
            sec6_6.push((kind, inter?, dtl?));
        }
    }
    Ok(Box::new(move || {
        let mut counters = Counters::default();
        let perf = PerfModel::cloudsuite();

        let mut rows = Vec::new();
        for (kind, per_rank) in fig02 {
            let mapki = kind.spec().mapki;
            let mut amat_ns = Vec::new();
            for m in per_rank {
                amat_ns.push(measure(m, &mut counters)?.as_ns_f64());
            }
            let base = Picos::from_ns_f64(amat_ns[0]);
            let slowdown = amat_ns
                .iter()
                .map(|a| perf.slowdown(mapki, Picos::from_ns_f64(*a), base))
                .collect();
            rows.push(Fig02Row {
                workload: kind.name().to_string(),
                ranks: FIG02_RANKS.to_vec(),
                amat_ns,
                slowdown,
            });
        }
        let mut product = 1.0f64;
        for row in &rows {
            product *= row.slowdown[row.slowdown.len() - 1];
        }
        let mean = product.powf(1.0 / rows.len() as f64);
        let fig02 = Fig02Result { rows, mean_slowdown_at_min_ranks: mean };

        let mut slowdowns = Vec::new();
        for (kind, inter, dtl) in sec6_6 {
            let inter = measure(inter, &mut counters)?;
            let dtl = measure(dtl, &mut counters)?;
            slowdowns.push(perf.slowdown(kind.spec().mapki, dtl, inter));
        }
        let per_geometry = WorkloadKind::TRACED.len();
        let rows = GEOMETRIES
            .iter()
            .enumerate()
            .map(|(g, (label, channels, ranks, _))| {
                let mut product = 1.0f64;
                for s in &slowdowns[g * per_geometry..(g + 1) * per_geometry] {
                    product *= s;
                }
                Sec66Row {
                    label: (*label).to_string(),
                    channels: *channels,
                    ranks_per_channel: *ranks,
                    mean_slowdown: product.powf(1.0 / per_geometry as f64),
                }
            })
            .collect();
        let sec6_6 = Sec66Result { rows };
        Ok(Outcome { jsons: vec![dtl_sim::to_json(&fig02), dtl_sim::to_json(&sec6_6)], counters })
    }))
}
