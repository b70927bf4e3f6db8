//! Hotness-aware self-refresh in action: replay a six-application mix
//! against an active-rank device and watch the DTL collect cold segments
//! into a victim rank and park it in self-refresh.
//!
//! ```sh
//! cargo run --release --example cold_data_self_refresh
//! ```

use dtl_sim::{hotness_savings, HotnessRunConfig};

fn main() {
    let cfg = HotnessRunConfig::paper_scaled(1, 6, 208.0 / 288.0);
    println!(
        "replaying {} accesses over a {}-channel x {}-rank device (1/{} scale, {}% allocated)...",
        cfg.accesses,
        cfg.channels,
        cfg.active_ranks,
        cfg.scale,
        (cfg.allocated_fraction * 100.0) as u32
    );
    let (off, on, saving) = hotness_savings(&cfg).expect("hotness replay");
    println!("\nwithout hotness-aware self-refresh:");
    println!("  stable-phase power: {:.1} W", off.stable_power_mw / 1000.0);
    println!("\nwith hotness-aware self-refresh:");
    println!("  stable-phase power: {:.1} W", on.stable_power_mw / 1000.0);
    println!("  self-refresh residency: {:.1}%", on.sr_residency * 100.0);
    println!(
        "  warmup (first SR entry): {}",
        on.first_sr_entry.map_or_else(|| "never".to_string(), |t| t.to_string())
    );
    println!(
        "  SR entries/exits: {}/{}; segment migrations: {}",
        on.sr_entries, on.sr_exits, on.swaps_executed
    );
    println!("\nadditional stable-phase energy saving: {:.1}%", saving * 100.0);
}
