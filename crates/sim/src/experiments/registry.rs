//! The experiment registry: one [`Experiment`] impl per paper artifact,
//! each a thin adapter from the uniform [`RunContext`] onto its module's
//! typed `run` function. The registry is the single source of truth
//! behind `dtl <name>`, `dtl all` and `dtl list` — adding an experiment
//! here is what makes it runnable.
//!
//! Scale defaults (paper vs `--tiny`) and the historical per-experiment
//! seeds are pinned here, so a bare `dtl <name>` reproduces exactly what
//! the pre-registry binaries produced.

use super::{
    ablate_cke_powerdown, ablate_hotness_params, ablate_migration_priority, ablate_page_policy,
    ablate_segment_size, ablate_smc, cache_pipeline, diff_fuzz, fabric_load, fault_campaign, fig01,
    fig02, fig05, fig09, fig10, fig11, fig12, fig14, fig15, loaded_latency, policy_ablation,
    pool_failover, pool_scale, sec3_4_reentry, sec6_1, sec6_6, tab04, tab05, tab06, vm_campaign,
    Experiment, RunContext, RunOutput,
};
use crate::render;
use crate::{
    to_json, CheckRunConfig, FabricRunConfig, FaultRunConfig, HotnessRunConfig, PoolRunConfig,
    PowerDownRunConfig,
};
use dtl_core::DtlError;
use dtl_trace::WorkloadKind;

/// Defines a unit struct implementing [`Experiment`] with a closure-style
/// body.
macro_rules! experiment {
    ($ty:ident, $name:literal, $summary:literal, |$ctx:ident| $body:block) => {
        struct $ty;
        impl Experiment for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn summary(&self) -> &'static str {
                $summary
            }
            fn run(&self, $ctx: &RunContext) -> Result<RunOutput, DtlError> {
                $body
            }
        }
    };
}

experiment!(Fig01, "fig01", "Figure 1: VM memory usage profiling", |ctx| {
    let r = fig01::run(ctx.seed_or(1));
    Ok(RunOutput::new(render::fig01(&r).render(), to_json(&r)))
});

experiment!(Fig02, "fig02", "Figure 2: performance vs active ranks per channel", |ctx| {
    let requests = if ctx.tiny { 10_000 } else { 60_000 };
    let r = fig02::run(requests, &WorkloadKind::ALL, ctx.jobs);
    Ok(RunOutput::new(render::fig02(&r).render(), to_json(&r)))
});

experiment!(Fig05, "fig05", "Figure 5: rank-interleaving cost, local vs CXL", |ctx| {
    let requests = if ctx.tiny { 10_000 } else { 60_000 };
    let r = fig05::run(requests, &WorkloadKind::TRACED, ctx.jobs);
    Ok(RunOutput::new(render::fig05(&r).render(), to_json(&r)))
});

experiment!(Fig09, "fig09", "Figure 9: post-cache stride distributions", |ctx| {
    let records = if ctx.tiny { 50_000 } else { 400_000 };
    let r = fig09::run(ctx.seed_or(1), records, 16, ctx.jobs);
    Ok(RunOutput::new(render::fig09(&r).render(), to_json(&r)))
});

experiment!(Fig10, "fig10", "Figure 10: cold segments vs granularity", |ctx| {
    let records = if ctx.tiny { 200_000 } else { 2_000_000 };
    let r = fig10::run(ctx.seed_or(11), records, 64);
    Ok(RunOutput::new(render::fig10(&r).render(), to_json(&r)))
});

experiment!(Fig11, "fig11", "Figure 11: the DRAM power model", |ctx| {
    let _ = ctx;
    let r = fig11::run();
    let (a, b) = render::fig11(&r);
    Ok(RunOutput::new(format!("{}\n{}", a.render(), b.render()), to_json(&r)))
});

experiment!(Fig12, "fig12", "Figures 12-13: rank-level power-down over the VM schedule", |ctx| {
    let seed = ctx.seed_or(1);
    let cfg = if ctx.tiny {
        PowerDownRunConfig::tiny(seed, true)
    } else {
        PowerDownRunConfig::paper(seed, true)
    };
    // Execution-overhead inputs: Figure 5's CXL interleaving cost plus the
    // Section 6.1 translation inflation.
    let r = fig12::run(&cfg, (0.014, 0.0018), &ctx.telemetry, ctx.jobs)?;
    let mut out = RunOutput::new(
        format!("{}\n{}", render::fig12(&r).render(), render::fig13(&r).render()),
        to_json(&r),
    );
    out.horizon_ps = Some(crate::scenario::horizon(cfg.duration_min)?.as_ps());
    Ok(out)
});

experiment!(Fig14, "fig14", "Figure 14: hotness-aware self-refresh savings", |ctx| {
    let mut base = HotnessRunConfig::paper_scaled(ctx.seed_or(1), 6, 208.0 / 288.0);
    if ctx.tiny {
        base.accesses = 1_000_000;
        base.scale = 256;
    }
    let r = fig14::run(&base, &fig14::PAPER_POINTS, ctx.jobs)?;
    let mut out = RunOutput::new(render::fig14(&r).render(), to_json(&r));
    if ctx.telemetry.enabled() {
        // One additional traced treatment replay at the first allocation
        // point: the sweep replays several independent devices whose
        // timelines would not compose into one trace.
        let (_, ranks, frac) = fig14::PAPER_POINTS[0];
        let cfg = HotnessRunConfig { active_ranks: ranks, allocated_fraction: frac, ..base };
        let traced = crate::run_hotness(&cfg, 1.0, &ctx.telemetry)?;
        out.horizon_ps = Some(traced.duration.as_ps());
    }
    Ok(out)
});

experiment!(Fig15, "fig15", "Figure 15: stacked savings from both mechanisms", |ctx| {
    let mut base = HotnessRunConfig::paper_scaled(ctx.seed_or(1), 6, 208.0 / 288.0);
    if ctx.tiny {
        base.accesses = 1_000_000;
        base.scale = 256;
    }
    let r = fig15::run(&base, 8, &fig14::PAPER_POINTS, ctx.jobs)?;
    Ok(RunOutput::new(render::fig15(&r).render(), to_json(&r)))
});

experiment!(Tab04, "tab04", "Table 4: per-workload MAPKI calibration", |ctx| {
    let r = tab04::run(ctx.seed_or(1), 100_000, ctx.jobs);
    Ok(RunOutput::new(render::tab04(&r).render(), to_json(&r)))
});

experiment!(Tab05, "tab05", "Table 5: DTL structure sizes", |ctx| {
    let _ = ctx;
    let r = tab05::run();
    Ok(RunOutput::new(render::tab05(&r).render(), to_json(&r)))
});

experiment!(Tab06, "tab06", "Table 6: controller power and area at 7nm", |ctx| {
    let _ = ctx;
    let r = tab06::run();
    Ok(RunOutput::new(render::tab06(&r).render(), to_json(&r)))
});

experiment!(Sec61, "sec6_1", "Section 6.1: AMAT under DTL translation", |ctx| {
    let accesses = if ctx.tiny { 200_000 } else { 2_000_000 };
    let r = sec6_1::run(ctx.seed_or(3), accesses, 16)?;
    Ok(RunOutput::new(render::sec6_1(&r).render(), to_json(&r)))
});

experiment!(Sec66, "sec6_6", "Section 6.6: device scaling and the mapping cost", |ctx| {
    let requests = if ctx.tiny { 8_000 } else { 40_000 };
    let r = sec6_6::run(requests, &WorkloadKind::TRACED, ctx.jobs);
    Ok(RunOutput::new(render::sec6_6(&r).render(), to_json(&r)))
});

experiment!(Sec34Reentry, "sec3_4_reentry", "Section 3.4: self-refresh exit and re-entry", |ctx| {
    let cfg = if ctx.tiny {
        sec3_4_reentry::tiny(ctx.seed_or(5))
    } else {
        sec3_4_reentry::paper(ctx.seed_or(1))
    };
    let r = sec3_4_reentry::run(&cfg)?;
    let text = format!(
        "{}\nre-entry needed {} migrations vs {} during warmup — most victim \
         segments stayed cold, as the paper claims",
        render::sec3_4_reentry(&r).render(),
        r.reentry_migrations,
        r.initial_migrations
    );
    Ok(RunOutput::new(text, to_json(&r)))
});

experiment!(
    CachePipeline,
    "cache_pipeline",
    "Section 5.2 methodology: the trace cache pipeline",
    |ctx| {
        let records = if ctx.tiny { 200_000 } else { 1_500_000 };
        let r = cache_pipeline::run(ctx.seed_or(7), records, &WorkloadKind::TRACED, ctx.jobs);
        Ok(RunOutput::new(render::cache_pipeline(&r).render(), to_json(&r)))
    }
);

experiment!(
    LoadedLatency,
    "loaded_latency",
    "Model validation: loaded latency vs cycle simulator",
    |ctx| {
        let requests = if ctx.tiny { 4_000 } else { 20_000 };
        let r = loaded_latency::run(ctx.seed_or(3), requests, ctx.jobs);
        Ok(RunOutput::new(render::loaded_latency(&r).render(), to_json(&r)))
    }
);

experiment!(
    AblateSegmentSize,
    "ablate_segment_size",
    "Ablation: translation segment size",
    |ctx| {
        let records = if ctx.tiny { 200_000 } else { 1_000_000 };
        let r = ablate_segment_size::run(ctx.seed_or(11), records);
        Ok(RunOutput::new(render::ablate_segment_size(&r).render(), to_json(&r)))
    }
);

experiment!(AblateSmc, "ablate_smc", "Ablation: segment mapping cache sizing", |ctx| {
    let accesses = if ctx.tiny { 100_000 } else { 600_000 };
    let r = ablate_smc::run(ctx.seed_or(3), accesses, ctx.jobs);
    Ok(RunOutput::new(render::ablate_smc(&r).render(), to_json(&r)))
});

experiment!(
    AblateHotnessParams,
    "ablate_hotness_params",
    "Ablation: profiling-threshold sensitivity",
    |ctx| {
        let mut base = HotnessRunConfig::paper_scaled(ctx.seed_or(1), 6, 224.0 / 288.0);
        if ctx.tiny {
            base.accesses = 1_500_000;
            base.scale = 256;
        }
        let r = ablate_hotness_params::run(&base, ctx.jobs)?;
        Ok(RunOutput::new(render::ablate_hotness_params(&r).render(), to_json(&r)))
    }
);

experiment!(
    AblateMigrationPriority,
    "ablate_migration_priority",
    "Ablation: migration scheduling priority",
    |ctx| {
        let requests = if ctx.tiny { 5_000 } else { 30_000 };
        let r = ablate_migration_priority::run(requests, ctx.jobs);
        let text = format!(
            "{}\nstrict-background migration keeps foreground latency {:.1} ns lower on average",
            render::ablate_migration_priority(&r).render(),
            r.delta_ns()
        );
        Ok(RunOutput::new(text, to_json(&r)))
    }
);

experiment!(
    AblateCkePowerdown,
    "ablate_cke_powerdown",
    "Ablation: CKE power-down vs DTL consolidation",
    |ctx| {
        let requests = if ctx.tiny { 20_000 } else { 120_000 };
        let r = ablate_cke_powerdown::run(requests, ctx.jobs);
        let text = format!(
            "{}\ninterleaving keeps every rank lukewarm: CKE power-down cannot touch\n\
         what DTL consolidation reclaims unless traffic nearly stops",
            render::ablate_cke_powerdown(&r).render()
        );
        Ok(RunOutput::new(text, to_json(&r)))
    }
);

experiment!(
    AblatePagePolicy,
    "ablate_page_policy",
    "Ablation: page policy under the DTL mapping",
    |ctx| {
        let requests = if ctx.tiny { 8_000 } else { 40_000 };
        let r = ablate_page_policy::run(requests, ctx.jobs);
        Ok(RunOutput::new(render::ablate_page_policy(&r).render(), to_json(&r)))
    }
);

experiment!(
    FaultCampaign,
    "fault_campaign",
    "Fault campaign: the schedule under a deterministic fault load",
    |ctx| {
        let seed = ctx.seed_or(1);
        let cfg =
            if ctx.tiny { FaultRunConfig::tiny_storm(seed) } else { fault_campaign::paper(seed) };
        let horizon = crate::scenario::horizon(cfg.run.duration_min)?.as_ps();
        let (telemetry, series) = ctx.series_telemetry();
        if let Some(series) = &series {
            // Quiet ranks still accrue residency in the windowed series.
            for c in 0..cfg.run.channels {
                for rank in 0..cfg.run.ranks_per_channel {
                    series.ensure_rank(c, rank);
                }
            }
        }
        let heartbeat = crate::Heartbeat::new(ctx.flag("--heartbeat"), "fault_campaign");
        let (r, obs) = fault_campaign::run(&cfg, &telemetry, ctx.jobs, &heartbeat)?;
        let text = format!("{}\n{}", render::fault_campaign(&r).render(), render::slo(&obs.slo));
        let mut out = RunOutput::new(text, to_json(&r));
        out.horizon_ps = Some(horizon);
        out.slo = Some(obs.slo);
        out.timeseries = series.map(|s| s.finish(horizon));
        Ok(out)
    }
);

experiment!(
    FabricLoad,
    "fabric_load",
    "Fabric load: tail latency vs offered load on a switched CXL fabric",
    |ctx| {
        // Default seed matches the pinned tiny golden (fabric_load_tiny.json).
        let seed = ctx.seed_or(7);
        let cfg = if ctx.tiny { FabricRunConfig::tiny(seed) } else { FabricRunConfig::paper(seed) };
        let pool_cfg = cfg.pool_config();
        let horizon = cfg.horizon().as_ps();
        let (telemetry, series) = ctx.series_telemetry();
        if let Some(series) = &series {
            // As in pool_scale: member device d streams through the
            // channel-offset shim; pre-register every rank so quiet ones
            // still accrue residency.
            for d in 0..u32::from(cfg.devices) {
                for c in 0..pool_cfg.channels {
                    for rank in 0..pool_cfg.ranks_per_channel {
                        series.ensure_rank(d * pool_cfg.channels + c, rank);
                    }
                }
            }
        }
        let heartbeat = crate::Heartbeat::new(ctx.flag("--heartbeat"), "fabric_load");
        let (r, obs) = fabric_load::run(&cfg, &telemetry, ctx.jobs, &heartbeat)?;
        let text = format!(
            "{}\npacking under one switch saves {:.3} mJ of switch-port energy at the \
             lightest load\n{}",
            render::fabric_load(&r).render(),
            r.pack_energy_edge_mj(),
            render::slo(&obs.slo)
        );
        let mut out = RunOutput::new(text, to_json(&r));
        out.horizon_ps = Some(horizon);
        out.slo = Some(obs.slo);
        out.timeseries = series.map(|s| s.finish(horizon));
        if !r.p99_monotone() {
            out.failure =
                Some("access p99 must rise monotonically with offered fabric load".into());
        } else if r.pack_energy_edge_mj() <= 0.0 {
            out.failure =
                Some("packing under one switch must save switch-port energy at low load".into());
        }
        Ok(out)
    }
);

experiment!(
    PoolScale,
    "pool_scale",
    "Pool scale: placement policy x power coordination across a device pool",
    |ctx| {
        // Default seed matches the pinned tiny golden (pool_scale_tiny.json).
        let seed = ctx.seed_or(7);
        let cfg = if ctx.tiny { PoolRunConfig::tiny(seed) } else { PoolRunConfig::paper(seed) };
        let horizon = crate::scenario::horizon(cfg.duration_min)?.as_ps();
        let (telemetry, series) = ctx.series_telemetry();
        if let Some(series) = &series {
            // Member device d streams through the channel-offset shim at
            // channels `d * channels ..`; pre-register every rank so quiet
            // ones still accrue residency.
            for d in 0..u32::from(cfg.devices) {
                for c in 0..cfg.channels {
                    for rank in 0..cfg.ranks_per_channel {
                        series.ensure_rank(d * cfg.channels + c, rank);
                    }
                }
            }
        }
        let heartbeat = crate::Heartbeat::new(ctx.flag("--heartbeat"), "pool_scale");
        let (r, obs) = pool_scale::run(&cfg, &telemetry, ctx.jobs, &heartbeat)?;
        let text = format!(
            "{}\npack+coordination saves {} pool energy over spread/no-coordination\n{}",
            render::pool_scale(&r).render(),
            crate::pct(r.savings_fraction),
            render::slo(&obs.slo)
        );
        let mut out = RunOutput::new(text, to_json(&r));
        out.horizon_ps = Some(horizon);
        out.slo = Some(obs.slo);
        out.timeseries = series.map(|s| s.finish(horizon));
        Ok(out)
    }
);

experiment!(
    PolicyAblation,
    "policy_ablation",
    "Policy ablation: power policy x workload mix x pool coordination",
    |ctx| {
        // Default seed matches the pinned tiny golden (policy_ablation_tiny.json).
        let seed = ctx.seed_or(7);
        let cfg = if ctx.tiny { PoolRunConfig::tiny(seed) } else { PoolRunConfig::paper(seed) };
        let horizon = crate::scenario::horizon(cfg.duration_min)?.as_ps();
        let (telemetry, series) = ctx.series_telemetry();
        if let Some(series) = &series {
            // As in pool_scale: member device d streams through the
            // channel-offset shim; pre-register every rank so quiet ones
            // still accrue residency.
            for d in 0..u32::from(cfg.devices) {
                for c in 0..cfg.channels {
                    for rank in 0..cfg.ranks_per_channel {
                        series.ensure_rank(d * cfg.channels + c, rank);
                    }
                }
            }
        }
        let heartbeat = crate::Heartbeat::new(ctx.flag("--heartbeat"), "policy_ablation");
        let (r, obs) = policy_ablation::run(&cfg, &telemetry, ctx.jobs, &heartbeat)?;
        let text = format!("{}\n{}", render::policy_ablation(&r).render(), render::slo(&obs.slo));
        let mut out = RunOutput::new(text, to_json(&r));
        out.horizon_ps = Some(horizon);
        out.slo = Some(obs.slo);
        out.timeseries = series.map(|s| s.finish(horizon));
        if r.headline().is_none() {
            out.failure = Some(
                "no ladder policy beat FixedThreshold on energy at equal-or-better p99".into(),
            );
        }
        Ok(out)
    }
);

experiment!(
    PoolFailover,
    "pool_failover",
    "Pool failover: seeded device-retirement campaigns, zero-loss criterion",
    |ctx| {
        let seed = ctx.seed_or(1);
        let cfg = if ctx.tiny { PoolRunConfig::tiny(seed) } else { PoolRunConfig::paper(seed) };
        let campaigns = ctx
            .value("--campaigns")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(if ctx.tiny { 6 } else { 24 });
        let r = pool_failover::run(&cfg, campaigns, ctx.jobs)?;
        let mut out = RunOutput::new(render::pool_failover(&r).render(), to_json(&r));
        if r.total_lost_aus > 0 {
            out.failure = Some(format!(
                "{} allocation units lost across {} campaigns — failover must be lossless",
                r.total_lost_aus, campaigns
            ));
        }
        Ok(out)
    }
);

experiment!(
    VmCampaign,
    "vm_campaign",
    "VM campaign: event-driven fleet replay over a multi-week horizon",
    |ctx| {
        let seed = ctx.seed_or(1);
        let mut cfg = if ctx.tiny {
            vm_campaign::VmCampaignConfig::tiny(seed)
        } else {
            vm_campaign::VmCampaignConfig::paper(seed)
        };
        if let Some(n) = ctx.value("--hosts").and_then(|v| v.parse::<u32>().ok()) {
            cfg.hosts = n;
        }
        if let Some(n) = ctx.value("--minutes").and_then(|v| v.parse::<u32>().ok()) {
            cfg.duration_min = n;
        }
        let heartbeat = crate::Heartbeat::new(ctx.flag("--heartbeat"), "vm_campaign");
        let (r, obs) = vm_campaign::run(&cfg, ctx.jobs, ctx.series_width, &heartbeat)?;
        if let Some(m) = ctx.telemetry.metrics() {
            // Hosts run their own event spines; export the fleet-merged
            // queue counters here (the per-host runs carry no registry).
            crate::export_queue_metrics(m, &obs.queue);
        }
        let text = format!(
            "{}\n{} events across {} hosts; fleet background savings {} vs always-standby\n{}",
            render::vm_campaign(&r).render(),
            r.events_processed,
            r.hosts,
            crate::pct(r.savings_fraction),
            render::slo(&obs.slo)
        );
        let mut out = RunOutput::new(text, to_json(&r));
        out.horizon_ps = Some(cfg.horizon().as_ps());
        out.slo = Some(obs.slo);
        out.timeseries = obs.series;
        Ok(out)
    }
);

experiment!(
    DiffFuzz,
    "diff_fuzz",
    "Differential fuzz: device vs reference model in lockstep",
    |ctx| {
        if let Some(json) = ctx.value("--replay") {
            return Ok(replay_counterexample(json));
        }
        let mut cfg = if ctx.tiny || ctx.flag("--smoke") {
            CheckRunConfig::smoke()
        } else {
            CheckRunConfig::acceptance()
        };
        if let Some(n) = ctx.value("--seeds").and_then(|v| v.parse::<u64>().ok()) {
            cfg.clean_seeds = (0..n).collect();
        }
        if let Some(n) = ctx.value("--ops").and_then(|v| v.parse::<usize>().ok()) {
            cfg.ops_per_seed = n;
        }
        let r = diff_fuzz::run(&cfg, ctx.jobs);
        let mut out = RunOutput::new(render::diff_fuzz(&r).render(), to_json(&r));
        if let Some(ce) = &r.first_counterexample {
            out.failure =
                Some(format!("first counterexample (replay with --replay '<json>'):\n{ce}"));
        }
        Ok(out)
    }
);

/// Re-runs a shrunk counterexample printed by a failing `diff_fuzz` run;
/// fails the driver if it still reproduces.
fn replay_counterexample(json: &str) -> RunOutput {
    let mut out = RunOutput {
        text: String::new(),
        json: None,
        horizon_ps: None,
        failure: None,
        slo: None,
        timeseries: None,
    };
    match dtl_check::Counterexample::from_json(json) {
        Err(e) => out.failure = Some(format!("parse counterexample JSON: {e}")),
        Ok(ce) => match ce.reproduce() {
            Some(failure) => out.failure = Some(format!("reproduced: {failure}")),
            None => out.text = format!("counterexample no longer fails ({} ops)", ce.ops.len()),
        },
    }
    out
}

/// Every registered experiment, in the order `dtl all` runs them.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 30] = [
        &Fig01,
        &Fig02,
        &Fig05,
        &Fig09,
        &Fig10,
        &Fig11,
        &Fig12,
        &Fig14,
        &Fig15,
        &Tab04,
        &Tab05,
        &Tab06,
        &Sec61,
        &Sec66,
        &Sec34Reentry,
        &CachePipeline,
        &AblateSegmentSize,
        &AblateSmc,
        &AblateHotnessParams,
        &AblateMigrationPriority,
        &AblateCkePowerdown,
        &AblatePagePolicy,
        &LoadedLatency,
        &FaultCampaign,
        &FabricLoad,
        &PoolScale,
        &PolicyAblation,
        &PoolFailover,
        &VmCampaign,
        &DiffFuzz,
    ];
    &REGISTRY
}

/// Resolves an experiment by its stable name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 30);
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate experiment name");
        assert!(find("fig12").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn tiny_tab05_runs_through_the_trait() {
        let out = find("tab05").unwrap().run(&RunContext::plain(true)).unwrap();
        assert!(out.text.contains("Table 5"));
        assert!(out.json.is_some());
        assert!(out.failure.is_none());
    }

    #[test]
    fn diff_fuzz_replay_flag_short_circuits() {
        let mut ctx = RunContext::plain(true);
        ctx.args = vec!["--replay".into(), "{not json".into()];
        let out = find("diff_fuzz").unwrap().run(&ctx).unwrap();
        assert!(out.failure.is_some(), "bad JSON must fail the driver");
        assert!(out.json.is_none());
    }
}
