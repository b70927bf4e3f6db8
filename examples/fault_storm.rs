//! Fault-injection walkthrough: a seeded error storm batters one rank of a
//! pooled device while migration interruptions and link CRC corruption
//! fire in the background. The health tracker walks the victim through
//! `Healthy → Degraded → Draining → Retired`, the DTL vacates its data
//! online, and the link retry machinery absorbs the CRC faults — the host
//! sees latency, never corruption.
//!
//! ```sh
//! cargo run --release --example fault_storm
//! ```

use dtl_core::{DtlConfig, DtlDevice, DtlError, HostId, RankHealth};
use dtl_cxl::{RetryEngine, RetryPolicy};
use dtl_dram::{AccessKind, Picos};
use dtl_fault::{FaultPlanConfig, StormConfig};
use dtl_sim::{apply_device_fault, AppliedFault};

fn main() -> Result<(), DtlError> {
    let cfg = DtlConfig::tiny();
    let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
    dev.set_hotness_enabled(false);
    dev.register_host(HostId(0))?;

    // A tenant with live data; find the rank backing it.
    let vm = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO)?;
    let probe = vm.hpa_base(0, cfg.au_bytes);
    let before = dev.access(HostId(0), probe, AccessKind::Read, Picos::from_us(1))?;
    let victim = dev.geometry().location(before.dsn);
    println!("tenant data lives in ch{}/rk{}", victim.channel, victim.rank);

    // A deterministic fault plan: background ECC noise everywhere, a storm
    // pinned to the victim, link CRC corruption, and two migration
    // interruptions. Same seed, same plan, same outcome — always.
    let mut plan_cfg = FaultPlanConfig::quiet(42, Picos::from_ms(60), 2, 4);
    plan_cfg.correctable_per_rank_per_sec = 20.0;
    plan_cfg.link_crc_per_sec = 100.0;
    plan_cfg.link_crc_max_burst = 5;
    plan_cfg.migration_interrupts = 2;
    plan_cfg.storm = Some(StormConfig {
        channel: victim.channel,
        rank: victim.rank,
        start: Picos::from_ms(10),
        events: 25,
        spacing: Picos::from_us(300),
        correctable_ratio: 0.8,
    });
    let plan = plan_cfg.generate();
    println!("fault plan: {} events over 60 ms", plan.len());

    let mut injector = plan.injector();
    let mut link = RetryEngine::new(RetryPolicy::default());
    let mut last_health = RankHealth::Healthy;
    let mut t = Picos::from_us(2);
    while t < Picos::from_ms(60) {
        t += Picos::from_us(250);
        for ev in injector.pop_due(t) {
            match apply_device_fault(&mut dev, ev.kind, t)? {
                AppliedFault::Device(Some(report)) => {
                    println!("  {t}: {:?} — {} segments at risk", ev.kind, report.segments_at_risk)
                }
                AppliedFault::Device(None) => {}
                AppliedFault::LinkCrc { burst } => {
                    link.inject_crc_burst(burst);
                    link.on_submit_at(t);
                }
            }
            // Crash consistency: the mapping machinery survives every fault.
            dev.check_invariants()?;
        }
        let health = dev.rank_health(victim.channel, victim.rank);
        if health != last_health {
            println!("  {t}: victim rank ch{}/rk{} -> {health:?}", victim.channel, victim.rank);
            last_health = health;
        }
        dev.tick(t)?;
    }

    let after = dev.access(HostId(0), probe, AccessKind::Read, t)?;
    let new_loc = dev.geometry().location(after.dsn);
    println!(
        "\nsame HPA {probe} now resolves to ch{}/rk{} — the storm never reached the tenant",
        new_loc.channel, new_loc.rank
    );
    assert_eq!(dev.rank_health(victim.channel, victim.rank), RankHealth::Retired);
    assert_ne!((new_loc.channel, new_loc.rank), (victim.channel, victim.rank));

    let errors = dev.health_stats();
    let retry = link.stats();
    println!(
        "errors: {} correctable, {} uncorrectable; auto-retirements: {}",
        errors.correctable_errors,
        errors.uncorrectable_errors,
        dev.stats().auto_retirements
    );
    println!(
        "link: {} CRC errors absorbed by {} replays ({} retry time, {:.0} pJ)",
        retry.crc_errors, retry.retries, retry.retry_time, retry.retry_energy_pj
    );
    println!(
        "migrations: {} interrupted, {} rolled back",
        dev.stats().migration_interrupts,
        dev.migration_stats().rollbacks
    );
    dev.check_invariants()?;
    Ok(())
}
