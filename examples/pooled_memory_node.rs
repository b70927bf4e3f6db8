//! A day in the life of a pooled-memory node: synthesize an Azure-like VM
//! schedule, replay it against the DTL device with and without rank-level
//! power-down, and print the runtime power trace the paper's Figure 12
//! shows.
//!
//! ```sh
//! cargo run --release --example pooled_memory_node
//! ```

use dtl_sim::{run_schedule, PowerDownRunConfig};
use dtl_telemetry::Telemetry;

fn main() {
    let seed = 7;
    let cfg = PowerDownRunConfig {
        duration_min: 120, // two hours is plenty for a demo
        ..PowerDownRunConfig::paper(seed, true)
    };
    println!("replaying a {}-minute VM schedule on a 384 GB CXL device...", cfg.duration_min);
    let baseline =
        run_schedule(&PowerDownRunConfig { powerdown: false, ..cfg }, &Telemetry::disabled())
            .expect("baseline replay");
    let dtl = run_schedule(&cfg, &Telemetry::disabled()).expect("DTL replay");

    println!("\n  t(min)  committed(GB)  ranks  baseline(W)  dtl(W)");
    for (b, d) in baseline.intervals.iter().zip(dtl.intervals.iter()) {
        println!(
            "  {:>5}  {:>12.1}  {:>5}  {:>11.1}  {:>6.1}{}",
            b.t_min,
            b.committed_bytes as f64 / (1u64 << 30) as f64,
            d.active_ranks,
            b.power_mw / 1000.0,
            d.power_mw / 1000.0,
            if d.migrating { "  <- migrating" } else { "" },
        );
    }
    let saving = 1.0 - dtl.total_energy_mj / baseline.total_energy_mj;
    println!(
        "\nDRAM energy: baseline {:.1} kJ, DTL {:.1} kJ -> {:.1}% saved \
         ({} rank groups powered down, {} segments drained, {} wakes)",
        baseline.total_energy_mj / 1e6,
        dtl.total_energy_mj / 1e6,
        saving * 100.0,
        dtl.groups_powered_down,
        dtl.segments_drained,
        dtl.groups_woken,
    );
}
