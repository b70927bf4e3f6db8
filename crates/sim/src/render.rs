//! Renderers: experiment result types → aligned text tables.

use crate::experiments::{
    ablate_cke_powerdown as cke, ablate_hotness_params as hotness_params,
    ablate_migration_priority as migration_priority, ablate_page_policy as page_policy,
    ablate_segment_size as segment_size, ablate_smc as smc, cache_pipeline as pipeline, diff_fuzz,
    fabric_load, fault_campaign, fig01, fig02, fig05, fig09, fig10, fig11, fig12, fig14, fig15,
    loaded_latency as loaded, policy_ablation, pool_failover, pool_scale, sec6_1, sec6_6, tab04,
    tab05, tab06, vm_campaign,
};
use crate::{f1, f2, f3, pct, ReentryResult, Table};

/// Figure 1: committed-memory series summary.
pub fn fig01(r: &fig01::Fig01Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 1 - VM memory usage ({} VMs; avg {}, peak {})",
            r.vm_count,
            pct(r.average_fraction),
            pct(r.peak_fraction)
        ),
        &["t_min", "committed_gb", "vcpus", "active_vms"],
    );
    for s in &r.series {
        t.row(&[
            s.at_min.to_string(),
            f1(s.mem_bytes as f64 / (1u64 << 30) as f64),
            s.vcpus.to_string(),
            s.active_vms.to_string(),
        ]);
    }
    t
}

/// Figure 2: rank-count scaling.
pub fn fig02(r: &fig02::Fig02Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 2 - performance vs ranks/channel (mean slowdown at 2 ranks: {})",
            pct(r.mean_slowdown_at_min_ranks - 1.0)
        ),
        &["workload", "ranks", "amat_ns", "slowdown"],
    );
    for row in &r.rows {
        for i in 0..row.ranks.len() {
            t.row(&[
                row.workload.clone(),
                row.ranks[i].to_string(),
                f1(row.amat_ns[i]),
                f3(row.slowdown[i]),
            ]);
        }
    }
    t
}

/// Figure 5: rank-interleaving cost, local vs CXL.
pub fn fig05(r: &fig05::Fig05Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 5 - rank-interleaving cost (local {}, cxl {})",
            pct(r.local_mean() - 1.0),
            pct(r.cxl_mean() - 1.0)
        ),
        &["link", "workload", "interleaved_ns", "dtl_ns", "slowdown"],
    );
    for s in &r.series {
        for row in &s.rows {
            t.row(&[
                s.label.clone(),
                row.workload.clone(),
                f1(row.interleaved_amat_ns),
                f1(row.dtl_amat_ns),
                f3(row.slowdown),
            ]);
        }
    }
    t
}

/// Figure 9: stride distribution.
pub fn fig09(r: &fig09::Fig09Result) -> Table {
    let mut header: Vec<&str> = vec!["trace"];
    for l in &r.bucket_labels {
        header.push(l.as_str());
    }
    let mut t = Table::new("Figure 9 - post-cache stride distribution", &header);
    for row in &r.rows {
        let mut cells = vec![row.label.clone()];
        cells.extend(row.fractions.iter().map(|f| pct(*f)));
        t.row(&cells);
    }
    t
}

/// Figure 10: cold segments vs granularity.
pub fn fig10(r: &fig10::Fig10Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 10 - cold segments vs granularity (threshold {} instr)",
            r.threshold_instructions
        ),
        &["granularity", "touched", "cold_fraction"],
    );
    for row in &r.rows {
        t.row(&[
            format!("{}MB", row.granularity_bytes >> 20),
            row.touched.to_string(),
            pct(row.cold_fraction),
        ]);
    }
    t
}

/// Figure 11: the power model.
pub fn fig11(r: &fig11::Fig11Result) -> (Table, Table) {
    let mut a = Table::new(
        "Figure 11a - background power vs active ranks (of 8)",
        &["active_ranks", "normalized_power"],
    );
    for p in &r.background {
        a.row(&[p.active_ranks.to_string(), f3(p.normalized_power)]);
    }
    let mut b = Table::new(
        "Figure 11b - active power vs bandwidth",
        &["bandwidth_gbps", "active_mw", "mw_per_gbps"],
    );
    for p in &r.active {
        b.row(&[f1(p.bandwidth / 1e9), f1(p.active_mw), f2(p.mw_per_gbps)]);
    }
    (a, b)
}

/// Figures 12 and 13 share one run; this renders the runtime power series.
pub fn fig12(r: &fig12::Fig12Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 12 - rank-level power-down (energy saving {}, exec overhead {})",
            pct(r.energy_saving),
            pct(r.exec_overhead)
        ),
        &["t_min", "base_mw", "dtl_mw", "active_ranks", "migrated_mb"],
    );
    for (b, d) in r.baseline.iter().zip(r.dtl.iter()) {
        t.row(&[
            b.t_min.to_string(),
            f1(b.power_mw),
            f1(d.power_mw),
            d.active_ranks.to_string(),
            if d.migration_bytes > 0 {
                format!("{:.0}", d.migration_bytes as f64 / (1 << 20) as f64)
            } else {
                String::new()
            },
        ]);
    }
    t
}

/// Figure 13: the breakdown table from the same run.
pub fn fig13(r: &fig12::Fig12Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 13 - power breakdown (background saving {}, power saving {})",
            pct(r.background_saving),
            pct(r.power_saving)
        ),
        &["config", "background_mj", "active_mj", "total_mj", "mean_mw"],
    );
    for (label, x) in [("baseline", &r.baseline_totals), ("dtl", &r.dtl_totals)] {
        t.row(&[
            label.to_string(),
            f1(x.background_mj),
            f1(x.active_mj),
            f1(x.total_mj),
            f1(x.mean_power_mw),
        ]);
    }
    t
}

/// Figure 14: hotness-aware self-refresh savings.
pub fn fig14(r: &fig14::Fig14Result) -> Table {
    let mut t = Table::new(
        format!("Figure 14 - hotness-aware self-refresh (scale 1/{})", r.scale),
        &["config", "alloc_frac", "extra_saving", "sr_residency", "warmup_s", "sr_exits"],
    );
    for row in &r.rows {
        t.row(&[
            row.label.clone(),
            pct(row.allocated_fraction),
            pct(row.additional_saving),
            pct(row.sr_residency),
            row.warmup_s.map_or_else(|| "-".into(), f3),
            row.sr_exits.to_string(),
        ]);
    }
    t
}

/// Figure 15: combined savings.
pub fn fig15(r: &fig15::Fig15Result) -> Table {
    let mut t = Table::new(
        "Figure 15 - total energy savings (both mechanisms)",
        &["config", "powerdown", "hotness_extra", "total"],
    );
    for row in &r.rows {
        t.row(&[
            row.label.clone(),
            pct(row.powerdown_saving),
            pct(row.hotness_additional),
            pct(row.total_saving),
        ]);
    }
    t
}

/// Table 4: MAPKI calibration.
pub fn tab04(r: &tab04::Tab04Result) -> Table {
    let mut t = Table::new(
        format!("Table 4 - MAPKI (max relative error {})", pct(r.max_relative_error)),
        &["workload", "paper", "measured"],
    );
    for row in &r.rows {
        t.row(&[row.workload.clone(), f1(row.paper_mapki), f2(row.measured_mapki)]);
    }
    t
}

/// Table 5: structure sizes.
pub fn tab05(r: &tab05::Tab05Result) -> Table {
    let mut t = Table::new("Table 5 - DTL structure sizes", &["structure", "384GB", "4TB"]);
    let (a, b) = (&r.columns[0].sizes, &r.columns[1].sizes);
    let kb = |v: u64| {
        if v < 4096 {
            format!("{v}B")
        } else if v < 4 << 20 {
            format!("{:.1}KB", v as f64 / 1024.0)
        } else {
            format!("{:.1}MB", v as f64 / (1024.0 * 1024.0))
        }
    };
    let rows: [(&str, u64, u64); 10] = [
        ("L1 segment mapping cache", a.l1_smc_bytes, b.l1_smc_bytes),
        ("L2 segment mapping cache", a.l2_smc_bytes, b.l2_smc_bytes),
        ("Host base addr table", a.host_table_bytes, b.host_table_bytes),
        ("AU base addr table", a.au_table_bytes, b.au_table_bytes),
        ("Hot-cold migration table", a.migration_table_bytes, b.migration_table_bytes),
        ("Segment mapping table", a.segment_mapping_bytes, b.segment_mapping_bytes),
        ("Reverse mapping table", a.reverse_mapping_bytes, b.reverse_mapping_bytes),
        ("Free segment queues", a.free_queue_bytes, b.free_queue_bytes),
        ("Allocated segment queues", a.allocated_queue_bytes, b.allocated_queue_bytes),
        ("Free AU queue", a.free_au_queue_bytes, b.free_au_queue_bytes),
    ];
    for (name, x, y) in rows {
        t.row(&[name.to_string(), kb(x), kb(y)]);
    }
    t.row(&["TOTAL SRAM".into(), kb(a.sram_total()), kb(b.sram_total())]);
    t.row(&["TOTAL DRAM".into(), kb(a.dram_total()), kb(b.dram_total())]);
    t
}

/// Table 6: controller power and area.
pub fn tab06(r: &tab06::Tab06Result) -> Table {
    let mut t = Table::new(
        "Table 6 - controller power and area at 7nm",
        &["component", "384GB_mW", "4TB_mW", "384GB_mm2", "4TB_mm2"],
    );
    let (a, b) = (&r.columns[0].cost, &r.columns[1].cost);
    t.row(&[
        "Segment mapping cache".into(),
        f2(a.smc_mw),
        f2(b.smc_mw),
        f3(a.smc_mm2),
        f3(b.smc_mm2),
    ]);
    t.row(&[
        "SRAM structures".into(),
        f2(a.sram_mw),
        f2(b.sram_mw),
        f3(a.sram_mm2),
        f3(b.sram_mm2),
    ]);
    t.row(&["Microprocessor".into(), f2(a.cpu_mw), f2(b.cpu_mw), f3(a.cpu_mm2), f3(b.cpu_mm2)]);
    t.row(&[
        "Total".into(),
        f2(r.columns[0].total_mw),
        f2(r.columns[1].total_mw),
        f3(r.columns[0].total_mm2),
        f3(r.columns[1].total_mm2),
    ]);
    t
}

/// §6.1: AMAT under DTL translation.
pub fn sec6_1(r: &sec6_1::Sec61Result) -> Table {
    let mut t = Table::new(
        format!("Section 6.1 - AMAT under DTL translation ({} accesses)", r.accesses),
        &["ratios", "l1_miss", "l2_miss", "translation_ns", "amat_ns", "exec_inflation"],
    );
    for e in &r.evals {
        t.row(&[
            e.source.clone(),
            pct(e.l1_miss_ratio),
            pct(e.l2_miss_ratio),
            f1(e.translation_ns),
            f1(e.amat_ns),
            pct(e.exec_inflation),
        ]);
    }
    t
}

/// Fault campaign: what a deterministic fault load costs the pool.
pub fn fault_campaign(r: &fault_campaign::FaultCampaignResult) -> Table {
    let mut t = Table::new(
        format!(
            "Fault campaign - capacity lost {}, energy delta {}, latency penalty {} ns/line",
            pct(r.capacity_lost_fraction),
            pct(r.energy_delta_fraction),
            f3(r.latency_penalty_ns),
        ),
        &[
            "run",
            "energy_mj",
            "faults",
            "correctable",
            "uncorrectable",
            "retired_ranks",
            "capacity_lost_gb",
            "interrupts",
            "rollbacks",
            "crc_errors",
            "link_retries",
        ],
    );
    for (name, s) in [("baseline", &r.baseline), ("faulted", &r.faulted)] {
        t.row(&[
            name.to_string(),
            f1(s.total_energy_mj),
            s.faults_injected.to_string(),
            s.errors.correctable_errors.to_string(),
            s.errors.uncorrectable_errors.to_string(),
            s.ranks_retired.to_string(),
            f2(s.capacity_lost_bytes as f64 / (1u64 << 30) as f64),
            s.migration_interrupts.to_string(),
            s.migration_rollbacks.to_string(),
            s.link.crc_errors.to_string(),
            s.link.retries.to_string(),
        ]);
    }
    t
}

/// Pool scale: one row per (policy, coordinator) variant.
pub fn pool_scale(r: &pool_scale::PoolScaleResult) -> Table {
    let mut t = Table::new(
        format!(
            "Pool scale - pack+coordination saves {} over spread/no-coordination",
            pct(r.savings_fraction)
        ),
        &[
            "policy",
            "coordinator",
            "energy_mj",
            "mean_power_w",
            "mean_active_devices",
            "vms",
            "rejected",
            "drains",
            "parks",
            "evacuations",
            "segments_moved",
        ],
    );
    for v in &r.variants {
        let policy = match v.policy {
            dtl_pool::PlacementPolicy::PackForPower => "pack",
            dtl_pool::PlacementPolicy::SpreadForBandwidth => "spread",
        };
        t.row(&[
            policy.to_string(),
            if v.coordinator { "on" } else { "off" }.to_string(),
            f1(v.result.total_energy_mj),
            f2(v.result.mean_power_mw() / 1000.0),
            f2(v.result.mean_active_devices()),
            v.result.vms_allocated.to_string(),
            v.result.vms_rejected.to_string(),
            v.result.stats.drains_started.to_string(),
            v.result.stats.devices_parked.to_string(),
            v.result.stats.evacuations_completed.to_string(),
            v.result.stats.segments_evacuated.to_string(),
        ]);
    }
    t
}

/// Fabric load: one row per (placement, burst) cell of the sweep, access
/// tail latency beside the switch-port and DRAM energy headlines.
pub fn fabric_load(r: &fabric_load::FabricLoadResult) -> Table {
    let mut t = Table::new(
        "Fabric load - access tail latency and port energy vs offered load",
        &[
            "placement",
            "burst",
            "accesses",
            "p50_ns",
            "p99_ns",
            "p99.9_ns",
            "queue_mean_ns",
            "max_util",
            "ports",
            "port_mj",
            "dram_mj",
            "share_min",
            "share_max",
        ],
    );
    for c in &r.cells {
        t.row(&[
            c.placement_label().to_string(),
            c.burst.to_string(),
            c.accesses.to_string(),
            f1(c.access_p50_ps as f64 / 1000.0),
            f1(c.access_p99_ps as f64 / 1000.0),
            f1(c.access_p999_ps as f64 / 1000.0),
            f1(c.queue_mean_ps / 1000.0),
            f3(c.max_port_utilization),
            c.ports_used.to_string(),
            f3(c.switch_port_energy_mj),
            f1(c.dram_energy_mj),
            f3(c.host_share_min),
            f3(c.host_share_max),
        ]);
    }
    t
}

/// Policy ablation: one row per (policy, mix, coordinator) cell, with
/// energy savings and access-p99 delta against the fixed-threshold cell
/// of the same (mix, coordinator) pair.
pub fn policy_ablation(r: &policy_ablation::PolicyAblationResult) -> Table {
    let title = match r.headline() {
        Some(w) => format!(
            "Policy ablation - {} saves {} over FixedThreshold on {} (coordinator {}) at \
             equal-or-better p99",
            w.policy.name(),
            pct(w.savings_fraction),
            w.mix,
            if w.coordinator { "on" } else { "off" },
        ),
        None => "Policy ablation - no ladder policy beat FixedThreshold".to_string(),
    };
    let mut t = Table::new(
        title,
        &[
            "policy",
            "mix",
            "burst",
            "coordinator",
            "energy_mj",
            "savings_vs_fixed",
            "mean_power_w",
            "access_p99_ns",
            "p99_delta_ns",
            "vms",
            "parks",
        ],
    );
    for c in &r.cells {
        let (savings, delta) = match r.baseline(&c.mix, c.coordinator) {
            Some(base) if base.result.total_energy_mj > 0.0 => (
                pct(1.0 - c.result.total_energy_mj / base.result.total_energy_mj),
                f1((c.access_p99_ps as i64 - base.access_p99_ps as i64) as f64 / 1000.0),
            ),
            _ => ("-".to_string(), "-".to_string()),
        };
        t.row(&[
            c.policy.name().to_string(),
            c.mix.clone(),
            c.trickle_burst.to_string(),
            if c.coordinator { "on" } else { "off" }.to_string(),
            f1(c.result.total_energy_mj),
            savings,
            f2(c.result.mean_power_mw() / 1000.0),
            f1(c.access_p99_ps as f64 / 1000.0),
            delta,
            c.result.vms_allocated.to_string(),
            c.result.stats.devices_parked.to_string(),
        ]);
    }
    t
}

/// Pool failover: one row per retirement campaign plus the batch verdict.
pub fn pool_failover(r: &pool_failover::PoolFailoverResult) -> Table {
    let mut t = Table::new(
        format!(
            "Pool failover - {} campaigns, {} devices retired, {} AUs lost ({})",
            r.campaigns.len(),
            r.total_devices_retired,
            r.total_lost_aus,
            if r.total_lost_aus == 0 { "lossless" } else { "LOSS" },
        ),
        &[
            "seed",
            "retirements",
            "failovers",
            "faults",
            "evacuations",
            "segments_moved",
            "lost_aus",
            "vms",
            "energy_mj",
        ],
    );
    for c in &r.campaigns {
        t.row(&[
            c.seed.to_string(),
            c.retirements.to_string(),
            c.result.failovers.to_string(),
            c.result.faults_injected.to_string(),
            c.result.evacuations_completed.to_string(),
            c.result.segments_evacuated.to_string(),
            c.result.lost_aus.to_string(),
            c.result.vms_allocated.to_string(),
            f1(c.result.total_energy_mj),
        ]);
    }
    t
}

/// VM campaign: fleet aggregates plus the first sampled hosts.
pub fn vm_campaign(r: &vm_campaign::VmCampaignResult) -> Table {
    let mut t = Table::new(
        format!(
            "VM campaign - {} hosts x {} min, {} VMs, {} events, saves {} vs always-standby",
            r.hosts,
            r.duration_min,
            r.vms_placed,
            r.events_processed,
            pct(r.savings_fraction)
        ),
        &[
            "host_seed",
            "vms",
            "rejected",
            "groups_down",
            "groups_woken",
            "drains",
            "events",
            "energy_j",
            "background_j",
        ],
    );
    for h in &r.sample {
        t.row(&[
            h.seed.to_string(),
            h.vms_placed.to_string(),
            h.vms_rejected.to_string(),
            h.groups_powered_down.to_string(),
            h.groups_woken.to_string(),
            h.segments_drained.to_string(),
            h.events_processed.to_string(),
            f1(h.energy_mj / 1000.0),
            f1(h.background_mj / 1000.0),
        ]);
    }
    t
}

/// Differential fuzz: one row per seed, verdicts from the lockstep
/// cross-check.
pub fn diff_fuzz(r: &diff_fuzz::DiffFuzzResult) -> Table {
    let mut t = Table::new(
        format!(
            "Differential fuzz - {} seeds ({} faulted), {} lockstep ops, {} checks, {} violations",
            r.seeds, r.faulted_seeds, r.total_ops, r.total_checks, r.violations
        ),
        &["seed", "faulted", "ops", "accesses", "commands", "checks", "deep", "verdict"],
    );
    for s in &r.batch.seeds {
        let verdict = match &s.counterexample {
            None => "clean".to_string(),
            Some(ce) => format!("VIOLATION ({} ops shrunk)", ce.ops.len()),
        };
        t.row(&[
            s.seed.to_string(),
            s.faulted.to_string(),
            s.executed.to_string(),
            s.accesses.to_string(),
            s.commands.to_string(),
            s.full_checks.to_string(),
            s.deep_checks.to_string(),
            verdict,
        ]);
    }
    t
}

/// §6.6: device scaling and the mapping cost.
pub fn sec6_6(r: &sec6_6::Sec66Result) -> Table {
    let mut t = Table::new(
        "Section 6.6 - device scaling and the cost of the DTL mapping",
        &["device", "channels", "ranks/ch", "mean_slowdown"],
    );
    for row in &r.rows {
        t.row(&[
            row.label.clone(),
            row.channels.to_string(),
            row.ranks_per_channel.to_string(),
            pct(row.mean_slowdown - 1.0),
        ]);
    }
    t
}

/// §3.4: self-refresh exit and re-entry.
pub fn sec3_4_reentry(r: &ReentryResult) -> Table {
    let mut t = Table::new("Section 3.4 - self-refresh exit and re-entry", &["metric", "value"]);
    t.row(&["migrations before first SR entries".into(), r.initial_migrations.to_string()]);
    t.row(&["probes until a victim woke".into(), r.probes_to_wake.to_string()]);
    t.row(&["migrations to re-enter".into(), r.reentry_migrations.to_string()]);
    t.row(&["time to re-enter".into(), r.reentry_time.to_string()]);
    t.row(&["total SR entries".into(), r.sr_entries.to_string()]);
    t
}

/// Cache pipeline (§5.2 methodology validation).
pub fn cache_pipeline(r: &pipeline::CachePipelineResult) -> Table {
    let mut t = Table::new(
        "Cache pipeline (Section 5.2 methodology)",
        &[
            "workload",
            "raw_apki",
            "post_mapki",
            "l1_miss",
            "l2_miss",
            "llc_miss",
            "pre_4m",
            "post_4m",
        ],
    );
    for row in &r.rows {
        let (l1, l2, llc) = row.miss_ratios;
        t.row(&[
            row.workload.clone(),
            f1(row.raw_apki),
            f1(row.post_mapki),
            pct(l1),
            pct(l2),
            pct(llc),
            pct(row.pre_at_least_4m),
            pct(row.post_at_least_4m),
        ]);
    }
    t
}

/// Loaded latency: cycle simulator vs the M/D/1 model.
pub fn loaded_latency(r: &loaded::LoadedLatencyResult) -> Table {
    let mut t = Table::new(
        "Loaded latency - cycle simulator vs M/D/1 model (one channel)",
        &["offered_gbps", "measured_ns", "model_ns"],
    );
    for p in &r.points {
        t.row(&[
            f1(p.offered / 1e9),
            f1(p.measured_ns),
            p.predicted_ns.map_or_else(|| "-".into(), f1),
        ]);
    }
    t
}

/// Ablation: CKE idle power-down vs DTL consolidation.
pub fn ablate_cke_powerdown(r: &cke::CkeResult) -> Table {
    let mut t = Table::new(
        "Ablation: CKE idle power-down vs DTL consolidation",
        &["traffic", "timeout", "pd_residency", "cke_bg_saving", "dtl_bg_saving"],
    );
    for row in &r.rows {
        t.row(&[
            row.utilization_label.clone(),
            format!("{}ns", row.timeout_ns),
            pct(row.pd_residency),
            pct(row.cke_background_saving),
            pct(row.dtl_background_saving),
        ]);
    }
    t
}

/// Ablation: profiling-threshold sensitivity.
pub fn ablate_hotness_params(r: &hotness_params::ThresholdResult) -> Table {
    let mut t = Table::new(
        "Ablation: profiling threshold (paper default 50 ms)",
        &["threshold", "sr_entries", "sr_exits", "residency", "swaps", "stable_mw"],
    );
    for row in &r.rows {
        t.row(&[
            format!("{:.1}ms", row.threshold_ms_unscaled),
            row.sr_entries.to_string(),
            row.sr_exits.to_string(),
            pct(row.sr_residency),
            row.swaps.to_string(),
            format!("{:.0}", row.stable_power_mw),
        ]);
    }
    t
}

/// Ablation: migration priority.
pub fn ablate_migration_priority(r: &migration_priority::PriorityResult) -> Table {
    let mut t = Table::new(
        "Ablation: migration priority during a 256 KiB segment migration",
        &["policy", "fg_mean_ns", "fg_max_ns"],
    );
    for row in &r.rows {
        t.row(&[row.policy.clone(), f1(row.fg_mean_ns), f1(row.fg_max_ns)]);
    }
    t
}

/// Ablation: page policy under the DTL mapping.
pub fn ablate_page_policy(r: &page_policy::PagePolicyResult) -> Table {
    let mut t = Table::new(
        "Ablation: page policy under the DTL mapping",
        &["workload", "policy", "amat_ns", "row_hits"],
    );
    for row in &r.rows {
        t.row(&[
            row.workload.clone(),
            row.policy.clone(),
            f1(row.amat_ns),
            pct(row.row_hit_fraction),
        ]);
    }
    t
}

/// Ablation: translation segment size.
pub fn ablate_segment_size(r: &segment_size::SegmentSizeResult) -> Table {
    let mut t = Table::new(
        "Ablation: segment size (paper picks 2 MiB, Section 4.1)",
        &["segment", "cold_fraction", "sram_kb", "dram_kb", "migrate_ms/seg"],
    );
    for row in &r.rows {
        t.row(&[
            format!("{}MB", row.segment_bytes >> 20),
            pct(row.cold_fraction),
            f1(row.sram_kb),
            f1(row.dram_kb),
            format!("{:.2}", row.migration_ms_per_segment),
        ]);
    }
    t
}

/// Ablation: segment mapping cache sizing.
pub fn ablate_smc(r: &smc::SmcResult) -> Table {
    let mut t = Table::new(
        "Ablation: SMC sizing (paper: 64-entry L1, 1024-entry 4-way L2)",
        &["l1", "l2", "l1_miss", "l2_miss", "translation_ns"],
    );
    for row in &r.rows {
        t.row(&[
            row.l1_entries.to_string(),
            row.l2_entries.to_string(),
            pct(row.l1_miss),
            pct(row.l2_miss),
            f1(row.translation_ns),
        ]);
    }
    t
}

/// SLO report rendered beside an experiment's energy headline: latency
/// percentile rows (access including the CXL retry penalty, VM admission,
/// and fabric port queueing where a switched interconnect is modeled)
/// plus an evacuation-backlog summary line. Absent sections render as `-`
/// cells so the table shape is stable across campaigns.
pub fn slo(r: &dtl_telemetry::SloReport) -> String {
    let ns = |ps: u64| f1(ps as f64 / 1000.0);
    let mut t = Table::new(
        "SLO report",
        &["metric", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "p99.9_ns"],
    );
    for (name, summary) in [
        ("access+retry", &r.access),
        ("admission", &r.admission),
        ("fabric_queue", &r.fabric_queue),
    ] {
        match summary {
            Some(l) => t.row(&[
                name.to_string(),
                l.count.to_string(),
                f1(l.mean_ps / 1000.0),
                ns(l.p50_ps),
                ns(l.p95_ps),
                ns(l.p99_ps),
                ns(l.p999_ps),
            ]),
            None => t.row(&[
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        };
    }
    let backlog = match &r.evac_backlog {
        Some(b) => format!(
            "evacuation backlog: {} drains, peak depth {}, max age {}us, mean age {}us",
            b.completed,
            b.peak_depth,
            f1(b.max_age_ps as f64 / 1e6),
            f1(b.mean_age_ps / 1e6),
        ),
        None => "evacuation backlog: -".to_string(),
    };
    format!("{}{}\n", t.render(), backlog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_renders() {
        let r = fig01::run(1);
        let t = fig01(&r);
        assert!(t.render().contains("Figure 1"));
        assert_eq!(t.len(), r.series.len());
    }

    #[test]
    fn fig11_renders_both_panels() {
        let r = fig11::run();
        let (a, b) = fig11(&r);
        assert!(a.render().contains("11a"));
        assert!(b.render().contains("11b"));
    }

    #[test]
    fn tab05_and_tab06_render() {
        let t5 = tab05(&tab05::run());
        assert!(t5.render().contains("Segment mapping table"));
        assert_eq!(t5.len(), 12);
        let t6 = tab06(&tab06::run());
        assert!(t6.render().contains("Microprocessor"));
    }

    #[test]
    fn slo_renders_present_and_absent_sections() {
        let empty = dtl_telemetry::SloReport::default();
        let s = slo(&empty);
        assert!(s.contains("== SLO report =="));
        assert!(s.contains("access+retry"));
        assert!(s.contains("admission"));
        assert!(s.contains("fabric_queue"));
        assert!(s.contains("evacuation backlog: -"));
        let mut h = dtl_telemetry::Histogram::default();
        h.observe(1_000);
        h.observe(2_000);
        let full = dtl_telemetry::SloReport {
            access: dtl_telemetry::LatencySummary::from_histogram(&h),
            admission: None,
            evac_backlog: dtl_telemetry::BacklogSummary::from_parts(&h, 3),
            fabric_queue: None,
        };
        let s = slo(&full);
        assert!(s.contains("peak depth 3"));
        assert!(!s.contains("evacuation backlog: -"));
    }

    #[test]
    fn tab04_renders() {
        let t = tab04(&tab04::run(1, 20_000, 1));
        assert_eq!(t.len(), 10);
        assert!(t.render().contains("graph-analytics"));
    }
}

#[cfg(test)]
mod more_render_tests {
    use super::*;
    use crate::experiments::{fig02 as f02, fig09 as f09, fig10 as f10, sec6_1 as s61};
    use crate::{HotnessRunConfig, PowerDownRunConfig};
    use dtl_trace::WorkloadKind;

    #[test]
    fn fig09_and_fig10_render() {
        let r = f09::run(1, 5_000, 64, 1);
        let t = fig09(&r);
        assert_eq!(t.len(), 10);
        assert!(t.render().contains("mix-8"));
        let r = f10::run(1, 20_000, 64);
        let t = fig10(&r);
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("2MB"));
    }

    #[test]
    fn fig02_renders_three_rank_points_per_workload() {
        let r = f02::run(2_000, &[WorkloadKind::WebSearch], 1);
        let t = fig02(&r);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn fig12_and_fig13_render_from_one_run() {
        let r = crate::experiments::fig12::run(
            &PowerDownRunConfig::tiny(3, true),
            (0.014, 0.0018),
            &dtl_telemetry::Telemetry::disabled(),
            1,
        )
        .unwrap();
        let t12 = fig12(&r);
        assert_eq!(t12.len(), r.baseline.len());
        let t13 = fig13(&r);
        assert_eq!(t13.len(), 2);
        assert!(t13.render().contains("baseline"));
    }

    #[test]
    fn fig14_fig15_and_sec61_render() {
        let base = HotnessRunConfig {
            accesses: 400_000,
            n_apps: 2,
            channels: 2,
            ..HotnessRunConfig::tiny(5, true)
        };
        let r14 = crate::experiments::fig14::run(&base, &[("x", 4, 0.6)], 1).unwrap();
        assert_eq!(fig14(&r14).len(), 1);
        let r15 = crate::experiments::fig15::run(&base, 8, &[("x", 4, 0.6)], 1).unwrap();
        assert_eq!(fig15(&r15).len(), 1);
        let r61 = s61::run(1, 30_000, 64).unwrap();
        let t = sec6_1(&r61);
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("paper"));
    }
}
