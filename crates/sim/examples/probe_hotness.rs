use dtl_sim::{hotness_savings, HotnessRunConfig};

fn main() {
    let base = HotnessRunConfig {
        accesses: 800_000,
        n_apps: 3,
        channels: 2,
        ..HotnessRunConfig::tiny(5, true)
    };
    for (label, ranks, frac) in [("6rk", 3u32, 0.6), ("8rk", 4u32, 0.8), ("loose", 4u32, 0.55)] {
        let cfg = HotnessRunConfig { active_ranks: ranks, allocated_fraction: frac, ..base };
        let (off, on, _) = hotness_savings(&cfg).unwrap();
        println!("{label}: off stable {:.1}mW on stable {:.1}mW | on: entries {} exits {} swaps {} residency {:.3} total {:.1}/{:.1}mJ",
            off.stable_power_mw, on.stable_power_mw, on.sr_entries, on.sr_exits, on.swaps_executed, on.sr_residency,
            on.total_energy_mj, off.total_energy_mj);
    }
}
