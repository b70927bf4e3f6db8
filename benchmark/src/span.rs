//! The benchmark's own tracer: spans around every call into a layer,
//! kept in memory, turned into per-layer self time afterwards.
//!
//! A span is (layer, start, end, parent). A layer's **self time** is the
//! sum of its spans' durations minus the part their child spans cover.
//!
//! Per-access loops would drown in clock reads if every pass through the
//! loop body were timed, and a body of a hundred nanoseconds timed alone
//! reads longer than it costs inside the loop, where the processor
//! overlaps it with its neighbours. So a driver marks such a loop
//! ([`harness`]) and each pass through its body ([`iteration`]): about one
//! iteration in [`SAMPLE_EVERY`] is timed, with every span nested in it;
//! the others only count calls. The aggregate then hands the loop's
//! measured time to the layers in the proportions the timed iterations
//! show, so the parts still add up to the whole.
//!
//! The tracer is thread-local: the traced drivers are single-threaded by
//! construction, and the wrappers in [`crate::timed`] sit behind trait
//! seams (`Interconnect: Send`, `TelemetrySink: Send + Sync`) that a
//! shared handle could not cross without a lock on every call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

macro_rules! layers {
    ($($variant:ident => $key:literal,)*) => {
        /// Every span name: `<crate>.<call>`, the stem of the per-layer
        /// metrics `<stem>_s` and `<stem>_calls`. `Harness` is the
        /// driver's own loops; its time is part of the residual.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Layer { $($variant,)* }

        impl Layer {
            /// All layers, in declaration order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];

            /// The metric stem, e.g. `core.alloc_vm`.
            pub fn key(self) -> &'static str {
                match self { $(Layer::$variant => $key,)* }
            }
        }
    };
}

layers! {
    TraceVmSynth => "trace.vm_synth",
    TraceRecord => "trace.record",
    EventQueue => "event.queue",
    CoreAllocVm => "core.alloc_vm",
    CoreDeallocVm => "core.dealloc_vm",
    CoreTick => "core.tick",
    CoreNextActivity => "core.next_activity",
    CoreReport => "core.report",
    CoreAccess => "core.access",
    CoreBackend => "core.backend",
    DramSubmit => "dram.submit",
    DramAdvance => "dram.advance",
    FabricSubmit => "fabric.submit",
    FabricBulk => "fabric.bulk",
    FabricAdvance => "fabric.advance",
    PoolAllocVm => "pool.alloc_vm",
    PoolDeallocVm => "pool.dealloc_vm",
    PoolAccess => "pool.access",
    PoolTick => "pool.tick",
    PoolRetire => "pool.retire",
    PoolInvariants => "pool.invariants",
    FaultPlan => "fault.plan",
    CheckGenerate => "check.generate",
    CheckRunOps => "check.run_ops",
    TelemetryRecord => "telemetry.record",
    Harness => "sim.harness",
}

const N: usize = Layer::ALL.len();
const NONE: u32 = u32::MAX;

/// One iteration in about this many is timed.
pub const SAMPLE_EVERY: u32 = 64;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// The layer the call went into.
    pub layer: u8,
    /// Whether this is a timed [`iteration`]: one of many passes through
    /// its parent's loop body, standing for the untimed ones too.
    pub iteration: bool,
    /// Index of the enclosing span; `u32::MAX` at top level.
    pub parent: u32,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
}

/// What one span costs to record, measured by [`calibrate`] and taken
/// back out by [`aggregate`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overhead {
    /// What an empty span reports as its own duration.
    pub inner_ns: f64,
    /// What an empty span costs the code around it.
    pub outer_ns: f64,
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTotals {
    /// Self time per layer, nanoseconds, indexed by `Layer as usize`.
    pub self_ns: [f64; N],
    /// Exact call count per layer (timed or not).
    pub calls: [u64; N],
}

impl LayerTotals {
    /// Self time of one layer in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] / 1e9
    }

    /// Exact call count of one layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time summed over the stack's layers (not the harness), seconds.
    pub fn layers_s(&self) -> f64 {
        let harness = self.self_ns[Layer::Harness as usize];
        (self.self_ns.iter().sum::<f64>() - harness) / 1e9
    }
}

struct Tracer {
    /// State of the xorshift that spaces the timed iterations unevenly, so
    /// that they cannot fall in step with a period of the workload.
    stride_rng: u32,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

const STRIDE_SEED: u32 = 0x9e37_79b9;

/// Tracer off: [`span`] and [`iteration`] are plain calls.
const OFF: u8 = 0;
/// Spans are timed.
const TIMING: u8 = 1;
/// Inside an [`iteration`] that was not picked: count, do not time.
const MUTED: u8 = 2;

// What every call reads sits in plain cells, so that an untimed call costs
// a load and a branch (and, while tracing, one add): the drivers' per-access
// loops make tens of millions of them, traced or not.
thread_local! {
    static MODE: Cell<u8> = const { Cell::new(OFF) };
    /// Iterations until the next timed one.
    static UNTIL_TIMED: Cell<u32> = const { Cell::new(0) };
    /// Exact call count per layer, timed or not.
    static CALLS: [Cell<u64>; N] = const { [const { Cell::new(0) }; N] };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        stride_rng: STRIDE_SEED,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, layer: Layer, iteration: bool) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            layer: layer as u8,
            iteration,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    fn close_span(&mut self, idx: u32) {
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// The next gap between timed iterations: uniform in
    /// `SAMPLE_EVERY/2 ..= 3*SAMPLE_EVERY/2 - 1`, so `SAMPLE_EVERY` on
    /// average.
    fn next_stride(&mut self) -> u32 {
        let mut x = self.stride_rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.stride_rng = x;
        SAMPLE_EVERY / 2 + x % SAMPLE_EVERY
    }
}

/// Starts a traced pass on this thread: clears earlier spans and counts.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stride_rng = STRIDE_SEED;
        t.epoch = Instant::now();
        t.spans.clear();
        t.open.clear();
    });
    CALLS.with(|calls| calls.iter().for_each(|c| c.set(0)));
    UNTIL_TIMED.set(0);
    MODE.set(TIMING);
}

/// Ends the traced pass and returns its spans with the exact call count
/// of every layer. The tracer is off afterwards, so the same driver code
/// runs untraced.
pub fn stop() -> (Vec<SpanRec>, [u64; N]) {
    MODE.set(OFF);
    let calls = CALLS.with(|calls| std::array::from_fn(|i| calls[i].get()));
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.open.is_empty(), "every span was closed");
        (std::mem::take(&mut t.spans), calls)
    })
}

/// Runs `f` as one span of `layer`. With the tracer off this is a plain
/// call behind one thread-local branch.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let mode = MODE.get();
    if mode == OFF {
        return f();
    }
    CALLS.with(|calls| {
        let c = &calls[layer as usize];
        c.set(c.get() + 1);
    });
    if mode == MUTED {
        return f();
    }
    let idx = TRACER.with(|t| t.borrow_mut().open_span(layer, false));
    let r = f();
    TRACER.with(|t| t.borrow_mut().close_span(idx));
    r
}

/// Runs `f` — a per-access loop of the driver — as one harness span whose
/// passes through the loop body are [`iteration`]s.
pub fn harness<R>(f: impl FnOnce() -> R) -> R {
    span(Layer::Harness, f)
}

/// Runs `f` as one pass through the body of the enclosing [`harness`]
/// loop. About one pass in [`SAMPLE_EVERY`] is timed, together with the
/// spans nested in it; inside the others nested spans only count their
/// calls. Iterations do not nest.
#[inline]
pub fn iteration<R>(f: impl FnOnce() -> R) -> R {
    let mode = MODE.get();
    if mode == OFF {
        return f();
    }
    debug_assert!(mode == TIMING, "iterations do not nest");
    let left = UNTIL_TIMED.get();
    if left > 0 {
        UNTIL_TIMED.set(left - 1);
        MODE.set(MUTED);
        let r = f();
        MODE.set(TIMING);
        return r;
    }
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        UNTIL_TIMED.set(t.next_stride());
        t.open_span(Layer::Harness, true)
    });
    let r = f();
    TRACER.with(|t| t.borrow_mut().close_span(idx));
    r
}

/// Measures what recording one span costs on this host right now.
pub fn calibrate() -> Overhead {
    const BATCH: usize = 20_000;
    let mut inner = Vec::new();
    let mut outer = Vec::new();
    for _ in 0..5 {
        start();
        let t0 = Instant::now();
        for _ in 0..BATCH {
            span(Layer::Harness, || std::hint::black_box(()));
        }
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let (spans, _) = stop();
        let reported: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        inner.push(reported as f64 / BATCH as f64);
        outer.push(wall_ns / BATCH as f64);
    }
    Overhead { inner_ns: crate::stats::median(&inner), outer_ns: crate::stats::median(&outer) }
}

/// Turns one pass's spans into per-layer self time.
///
/// A span's self time is its duration minus what its children took. A
/// loop whose passes are [`iteration`]s keeps none for itself: what its
/// plainly timed children leave goes to the iterations, each timed one
/// (and every span inside it) weighted so that together they account for
/// exactly that remainder.
pub fn aggregate(spans: &[SpanRec], calls: &[u64; N], overhead: Overhead) -> LayerTotals {
    let n = spans.len();
    let work: Vec<f64> = spans
        .iter()
        .map(|s| ((s.end_ns - s.start_ns) as f64 - overhead.inner_ns).max(0.0))
        .collect();
    // Spans nested anywhere below each span (children follow parents).
    let mut nested = vec![0u32; n];
    for i in (0..n).rev() {
        if spans[i].parent != NONE {
            nested[spans[i].parent as usize] += nested[i] + 1;
        }
    }
    // What each span's direct children took from it: plainly timed ones
    // with the cost of recording them; timed iterations as a group, net
    // of the recording inside them, which untimed iterations do not pay.
    let mut plain_children = vec![0.0f64; n];
    let mut iteration_work = vec![0.0f64; n];
    let mut iterations = vec![0u32; n];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NONE {
            continue;
        }
        let p = s.parent as usize;
        if s.iteration {
            iteration_work[p] += work[i] - f64::from(nested[i]) * overhead.outer_ns;
            iterations[p] += 1;
        } else {
            plain_children[p] += work[i] + overhead.outer_ns;
        }
    }
    let mut weight = vec![1.0f64; n];
    let mut self_ns = [0.0f64; N];
    for (i, s) in spans.iter().enumerate() {
        // Parents precede their children, so their weight is known.
        weight[i] = match (s.parent, s.iteration) {
            (NONE, false) => 1.0,
            // An iteration outside any loop span: all that is known is
            // how many it stands for on average.
            (NONE, true) => f64::from(SAMPLE_EVERY),
            (p, false) => weight[p as usize],
            (p, true) => {
                let p = p as usize;
                let left =
                    work[p] - plain_children[p] - f64::from(iterations[p]) * overhead.outer_ns;
                weight[p] * (left / iteration_work[p].max(f64::MIN_POSITIVE)).max(0.0)
            }
        };
        let own = if iterations[i] > 0 { 0.0 } else { work[i] - plain_children[i] };
        self_ns[s.layer as usize] += weight[i] * own;
    }
    LayerTotals { self_ns, calls: *calls }
}

/// Writes spans as JSON lines (`layer`, `start_ns`, `end_ns`, `parent`,
/// `iteration`) — once, after the pass, never while it runs.
pub fn write_jsonl(spans: &[SpanRec], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        let parent = if s.parent == NONE { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"iteration\":{}}}",
            Layer::ALL[s.layer as usize].key(),
            s.start_ns,
            s.end_ns,
            parent,
            s.iteration
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { layer: layer as u8, iteration: false, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // pool.tick [0,100) holds core.backend [10,30) and fabric.advance
        // [40,90), which itself holds core.backend [50,60).
        let spans = [
            rec(Layer::PoolTick, NONE, 0, 100),
            rec(Layer::CoreBackend, 0, 10, 30),
            rec(Layer::FabricAdvance, 0, 40, 90),
            rec(Layer::CoreBackend, 2, 50, 60),
        ];
        let t = aggregate(&spans, &[0; N], Overhead::default());
        assert_eq!(t.self_ns[Layer::PoolTick as usize], 30.0);
        assert_eq!(t.self_ns[Layer::CoreBackend as usize], 30.0);
        assert_eq!(t.self_ns[Layer::FabricAdvance as usize], 40.0);
        // Self times partition the root span.
        assert_eq!(t.layers_s() * 1e9, 100.0);
    }

    #[test]
    fn a_loop_hands_its_time_to_its_timed_iterations() {
        // A 10 us loop with one plainly timed tick of 1 us and two timed
        // iterations of 100 ns, each 40 ns of it in the backend: the
        // other 9 us went to untimed iterations, which looked the same.
        let iteration = |start_ns| SpanRec {
            layer: Layer::Harness as u8,
            iteration: true,
            parent: 0,
            start_ns,
            end_ns: start_ns + 100,
        };
        let spans = [
            rec(Layer::Harness, NONE, 0, 10_000),
            rec(Layer::CoreTick, 0, 100, 1_100),
            iteration(2_000),
            rec(Layer::CoreBackend, 2, 2_010, 2_050),
            iteration(5_000),
            rec(Layer::CoreBackend, 4, 5_030, 5_070),
        ];
        let t = aggregate(&spans, &[0; N], Overhead::default());
        assert_eq!(t.self_ns[Layer::CoreTick as usize], 1_000.0);
        assert_eq!(t.self_ns[Layer::CoreBackend as usize], 9_000.0 * 0.4);
        assert_eq!(t.self_ns[Layer::Harness as usize], 9_000.0 * 0.6);
        assert_eq!(t.self_ns.iter().sum::<f64>(), 10_000.0, "the parts make the whole");
        assert_eq!(t.layers_s() * 1e9, 1_000.0 + 3_600.0, "harness time is not a layer's");
    }

    #[test]
    fn a_loop_adds_up_with_recording_cost_too() {
        // One timed iteration of 500 ns holding a 200 ns backend call, in
        // a 100 us loop; recording costs 30 ns inside, 100 ns outside.
        let spans = [
            rec(Layer::Harness, NONE, 0, 100_030),
            SpanRec {
                layer: Layer::Harness as u8,
                iteration: true,
                parent: 0,
                start_ns: 1_000,
                end_ns: 1_530,
            },
            rec(Layer::CoreBackend, 1, 1_100, 1_330),
        ];
        let t = aggregate(&spans, &[0; N], Overhead { inner_ns: 30.0, outer_ns: 100.0 });
        // The loop's 100 us less the timed iteration's own recording go
        // to iterations: 200 ns backend to 200 ns harness, half each.
        let left = 100_000.0 - 100.0;
        assert!((t.self_ns[Layer::CoreBackend as usize] - left / 2.0).abs() < 1e-6);
        assert!((t.self_ns[Layer::Harness as usize] - left / 2.0).abs() < 1e-6);
    }

    #[test]
    fn recording_cost_is_taken_back_out() {
        let spans = [rec(Layer::CoreTick, NONE, 0, 1000), rec(Layer::CoreBackend, 0, 100, 400)];
        let t = aggregate(&spans, &[0; N], Overhead { inner_ns: 20.0, outer_ns: 50.0 });
        assert_eq!(t.self_ns[Layer::CoreBackend as usize], 280.0);
        // 1000 - 20 own clock read - (280 child work + 50 recording).
        assert_eq!(t.self_ns[Layer::CoreTick as usize], 650.0);
    }

    #[test]
    fn live_tracer_nests_counts_and_samples() {
        start();
        span(Layer::CoreTick, || {
            span(Layer::CoreBackend, || ());
        });
        harness(|| {
            for _ in 0..6400 {
                iteration(|| span(Layer::CoreAccess, || span(Layer::CoreBackend, || ())));
            }
        });
        let (spans, calls) = stop();
        assert_eq!(calls[Layer::CoreAccess as usize], 6400, "untimed calls still count");
        assert_eq!(calls[Layer::CoreBackend as usize], 6401);
        let timed = spans.iter().filter(|s| s.iteration).count();
        assert!((6400 / 96..=6400 / 32 + 1).contains(&timed), "{timed} timed of 6400");
        // tick + child, the loop, then iteration + access + backend each.
        assert_eq!(spans.len(), 2 + 1 + 3 * timed);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[3].iteration && spans[3].parent == 2, "the first pass is timed");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let gaps: std::collections::BTreeSet<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.iteration)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        assert_eq!(gaps.len(), 1, "span indices advance by 3 per timed iteration");
        // Off again: nothing is recorded.
        span(Layer::CoreTick, || ());
        assert!(stop().0.is_empty());
    }

    #[test]
    fn timed_iterations_do_not_fall_in_step_with_the_workload() {
        // Which of 8 round-robin targets a timed iteration lands on.
        start();
        let mut hits = [0u32; 8];
        harness(|| {
            for i in 0..64_000usize {
                let before = TRACER.with(|t| t.borrow().spans.len());
                iteration(|| ());
                if TRACER.with(|t| t.borrow().spans.len()) > before {
                    hits[i % 8] += 1;
                }
            }
        });
        stop();
        assert!(hits.iter().all(|h| *h > 60), "every target is sampled: {hits:?}");
    }

    #[test]
    fn layer_keys_are_unique_metric_stems() {
        let mut keys: Vec<&str> = Layer::ALL.iter().map(|l| l.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), N);
        assert!(Layer::ALL.iter().enumerate().all(|(i, l)| *l as usize == i));
    }
}
