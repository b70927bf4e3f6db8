//! The telemetry overhead contract: disabled telemetry must add less than
//! 1 % to a fixed access loop.
//!
//! Timing assertions are meaningless in unoptimized tier-1 test runs, so the
//! guard is `#[ignore]`d there and invoked explicitly by `ci.sh`:
//!
//! ```text
//! cargo test -p dtl-telemetry --release --test overhead_guard -- --ignored
//! ```
//!
//! Methodology: a paired, alternating measurement like the perf ledger's.
//! Each trial times the baseline loop and the instrumented loop (one
//! `Telemetry::emit` per iteration against the no-op sink) back to back,
//! alternating which of the two runs first, and yields one ratio; the
//! *median* of the per-trial ratios is compared. A pair shares whatever
//! phase the shared host is in, which a minimum taken over all trials of
//! each loop separately does not, and alternating cancels whatever the
//! first loop of a pair pays for going first.

use std::hint::black_box;
use std::time::Instant;

use dtl_telemetry::{EventKind, Telemetry};

/// Ten milliseconds a loop in release mode, far above timer granularity;
/// enough pairs that the median of their ratios, which spread by several
/// percent a pair on a shared host, settles to a few tenths of one.
const ITERS: u64 = 4_000_000;
const TRIALS: usize = 301;

fn base_loop() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut sum = 0u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    black_box(sum)
}

fn instrumented_loop(tel: &Telemetry) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut sum = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
        tel.emit(i, EventKind::VmAlloc { vm: x, segments: 1 });
    }
    black_box(sum)
}

#[test]
#[ignore = "timing assertion; run in release via ci.sh"]
fn noop_sink_overhead_under_one_percent() {
    let tel = Telemetry::disabled();
    // Warm up both paths once.
    black_box(base_loop());
    black_box(instrumented_loop(&tel));

    let timed = |instrumented: bool| {
        let t0 = Instant::now();
        black_box(if instrumented { instrumented_loop(&tel) } else { base_loop() });
        t0.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..TRIALS)
        .map(|trial| {
            let instrumented_first = trial % 2 == 1;
            let first = timed(instrumented_first);
            let second = timed(!instrumented_first);
            let (base, inst) = if instrumented_first { (second, first) } else { (first, second) };
            inst / base
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let [q1, median, q3] = [1, 2, 3].map(|q| (ratios[q * TRIALS / 4] - 1.0) * 1e2);
    eprintln!(
        "overhead_guard: instrumented / base - 1 over {TRIALS} pairs: \
         q1 {q1:+.3} %, median {median:+.3} %, q3 {q3:+.3} %"
    );
    assert!(
        median < 1.0,
        "no-op telemetry added {median:.3} % (>= 1 %) to the access loop \
         (median of {TRIALS} per-pair ratios; quartiles {q1:+.3} % / {q3:+.3} %)"
    );
}
