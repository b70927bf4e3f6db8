//! Telemetry in action: replay a hotness campaign with a live event sink,
//! write the Chrome/Perfetto trace (one track per rank, power-state
//! residency spans plus migration/TSP/fault markers), and print the
//! reconstructed per-rank residency table.
//!
//! ```sh
//! cargo run --release --example trace_viewer
//! # then open trace_viewer.trace.json in https://ui.perfetto.dev
//! ```

use std::sync::Arc;

use dtl_sim::{run_hotness, HotnessRunConfig};
use dtl_telemetry::{
    chrome_trace, jsonl, MetricsRegistry, PowerTimeline, RingSink, Telemetry, TelemetrySink,
};

fn main() {
    let cfg = HotnessRunConfig::tiny(1, true);
    println!(
        "replaying {} accesses over a {}-channel x {}-rank device with tracing on...",
        cfg.accesses, cfg.channels, cfg.active_ranks
    );

    let sink = Arc::new(RingSink::with_capacity(1 << 20));
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry =
        Telemetry::new(sink.clone() as Arc<dyn TelemetrySink>).with_metrics(registry.clone());
    let result = run_hotness(&cfg, 1.0, &telemetry).expect("hotness replay");

    let events = sink.drain();
    // Close the timeline at the replay's end (not the last event) so
    // trailing self-refresh residency shows, and give every rank a track
    // even if it never left Standby.
    let mut timeline = PowerTimeline::new();
    for c in 0..cfg.channels {
        for r in 0..cfg.active_ranks {
            timeline.ensure_rank(c, r);
        }
    }
    for ev in &events {
        timeline.push_event(ev);
    }
    timeline.finish(result.duration.as_ps());

    let trace_path = "trace_viewer.trace.json";
    std::fs::write(trace_path, chrome_trace(&timeline, &events)).expect("write trace");
    std::fs::write("trace_viewer.events.jsonl", jsonl(&events)).expect("write JSONL");

    println!("\n{} events captured ({} dropped)", events.len(), sink.dropped());
    println!("per-rank power-state residency reconstructed from the event stream:\n");
    print!("{}", timeline.residency_table());
    println!(
        "\nstable-phase power {:.1} W, SR residency {:.1}%, {} segment swaps",
        result.stable_power_mw / 1000.0,
        result.sr_residency * 100.0,
        result.swaps_executed
    );
    println!("\nmetrics snapshot:\n{}", registry.render_text());
    println!("[trace saved {trace_path} — open in Perfetto or chrome://tracing]");
    println!("[raw events saved trace_viewer.events.jsonl]");
}
