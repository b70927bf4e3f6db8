//! End-to-end integration: mixed CloudSuite-analog traces (dtl-trace) →
//! DTL device with hotness-aware self-refresh → stable-phase savings,
//! exercised through the dtl-sim harness exactly as the paper's Figure 14
//! experiment runs.

use dtl_sim::{hotness_savings, run_hotness, HotnessRunConfig, HotnessRunResult};
use dtl_telemetry::Telemetry;

#[test]
fn hotness_parks_a_victim_rank_per_channel() {
    let cfg = HotnessRunConfig::tiny(5, true);
    let r = run_hotness(&cfg, 1.0, &Telemetry::disabled()).unwrap();
    assert!(r.sr_entries >= u64::from(cfg.channels), "one victim per channel: {r:?}");
    // Residency approaches one rank per channel (1/ranks).
    let per_channel_cap = 1.0 / f64::from(cfg.active_ranks);
    assert!(r.sr_residency > per_channel_cap * 0.5, "residency {}", r.sr_residency);
    assert!(r.sr_residency <= per_channel_cap + 0.05);
    assert!(r.first_sr_entry.is_some());
}

#[test]
fn stable_phase_power_drops_with_hotness() {
    let (off, on, saving) = hotness_savings(&HotnessRunConfig::tiny(5, true)).unwrap();
    assert!(on.stable_power_mw < off.stable_power_mw);
    assert!(saving > 0.03, "stable saving {saving}");
    // Baseline never self-refreshes.
    assert_eq!(off.sr_entries, 0);
    assert_eq!(off.sr_residency, 0.0);
}

#[test]
fn eight_rank_configuration_still_saves() {
    // The paper's 304GB/8rk point: no power-down possible, hotness alone
    // must save (paper: 14.9%).
    let cfg = HotnessRunConfig {
        active_ranks: 8,
        allocated_fraction: 304.0 / 384.0,
        channels: 2,
        accesses: 1_000_000,
        ..HotnessRunConfig::tiny(5, true)
    };
    let (_, on, saving) = hotness_savings(&cfg).unwrap();
    assert!(on.sr_entries > 0);
    assert!(saving > 0.0, "saving {saving}");
}

#[test]
fn mechanism_is_deterministic() {
    let a = run_hotness(&HotnessRunConfig::tiny(9, true), 1.0, &Telemetry::disabled()).unwrap();
    let b = run_hotness(&HotnessRunConfig::tiny(9, true), 1.0, &Telemetry::disabled()).unwrap();
    assert_eq!(a.total_energy_mj, b.total_energy_mj);
    assert_eq!(a.sr_entries, b.sr_entries);
    assert_eq!(a.swaps_executed, b.swaps_executed);
}

/// `hotness_savings` steps its two devices in lockstep from one trace; each
/// must come out exactly as if `run_hotness` had replayed it alone.
#[test]
fn the_lockstep_pair_equals_two_separate_replays() {
    fn same(pair: &HotnessRunResult, alone: &HotnessRunResult) {
        let (p, a) = (pair, alone);
        assert_eq!(p.total_energy_mj.to_bits(), a.total_energy_mj.to_bits(), "{p:?} vs {a:?}");
        assert_eq!(p.background_mj.to_bits(), a.background_mj.to_bits(), "{p:?} vs {a:?}");
        assert_eq!(p.stable_power_mw.to_bits(), a.stable_power_mw.to_bits(), "{p:?} vs {a:?}");
        assert_eq!(p.sr_residency.to_bits(), a.sr_residency.to_bits(), "{p:?} vs {a:?}");
        assert_eq!(p.first_sr_entry, a.first_sr_entry);
        assert_eq!(p.sr_entries, a.sr_entries);
        assert_eq!(p.sr_exits, a.sr_exits);
        assert_eq!(p.swaps_executed, a.swaps_executed);
        assert_eq!(p.duration, a.duration);
        assert_eq!(p.accesses, a.accesses);
    }
    for seed in [5, 11] {
        let cfg = HotnessRunConfig::tiny(seed, true);
        let (off, on, saving) = hotness_savings(&cfg).unwrap();
        let untraced = Telemetry::disabled();
        let alone_off = run_hotness(&HotnessRunConfig { hotness: false, ..cfg }, 1.0, &untraced);
        let alone_on = run_hotness(&HotnessRunConfig { hotness: true, ..cfg }, 1.0, &untraced);
        same(&off, &alone_off.unwrap());
        same(&on, &alone_on.unwrap());
        assert_eq!(saving.to_bits(), (1.0 - on.stable_power_mw / off.stable_power_mw).to_bits());
        assert!(on.sr_entries > 0, "seed {seed}: the treatment must differ from the baseline");
    }
}
