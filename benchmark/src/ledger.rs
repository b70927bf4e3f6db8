//! The two passes over one workload.
//!
//! The **end-to-end** pass times the registry run in-process with
//! telemetry off and `jobs = 1`: one discarded warm-up, then timed
//! repeats; it knows nothing of the stack but the registry. The
//! **traced** pass replays the same scenario through the workload's own
//! driver with spans around every layer call, checks that the driver
//! reproduces the registry result, and attributes the wall to layers.

use std::collections::BTreeMap;
use std::time::Instant;

use dtl_sim::experiments::{find, RunContext};
use serde::Value;

use crate::drivers::{Driver, Headline, Outcome, RegistryRun, Scale};
use crate::json::{self, digest};
use crate::span::{self, Layer, LayerTotals, SpanRec};
use crate::spec::{self, CALL_COUNTS, PER_LAYER};
use crate::stats::{median, Summary};

/// Fewest timed repeats a time budget may yield.
const MIN_REPEATS: usize = 3;

/// How long a pass measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Seconds of timed repeats (at least [`MIN_REPEATS`] are made).
    pub seconds: f64,
    /// A fixed repeat count instead of the time budget.
    pub repeats: Option<usize>,
}

impl Budget {
    /// Whether `done` repeats, the next of which should take `next_s`,
    /// with `elapsed_s` spent so far, complete a pass needing `min` repeats.
    fn spent(&self, done: usize, min: usize, elapsed_s: f64, next_s: f64) -> bool {
        match self.repeats {
            Some(n) => done >= n.max(1),
            None => done >= min && elapsed_s + next_s > self.seconds,
        }
    }

    /// Calls `once`, which returns the host seconds it took, until the
    /// budget is spent (at least `min` times on a time budget), and
    /// returns the times. Every call counts, whatever came of it: a pass
    /// that fails every time still ends.
    fn repeat(&self, min: usize, mut once: impl FnMut() -> f64) -> Vec<f64> {
        let mut took = Vec::new();
        let started = Instant::now();
        loop {
            took.push(once());
            if self.spent(took.len(), min, started.elapsed().as_secs_f64(), median(&took)) {
                return took;
            }
        }
    }
}

/// Checks made and failed during a pass, with the reasons.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// Runs and comparisons attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// One pass over a workload's registry runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryPass {
    /// Result JSON per run (empty string where a run produced none).
    jsons: Vec<String>,
    /// Host seconds inside `Experiment::run`, summed over the runs.
    wall_s: f64,
    /// `Err` or `RunOutput.failure` of any run.
    failure: Option<String>,
}

fn run_registry(runs: &[RegistryRun], seed: u64, jobs: usize) -> RegistryPass {
    let mut pass = RegistryPass { jsons: Vec::new(), wall_s: 0.0, failure: None };
    for run in runs {
        let Some(experiment) = find(run.experiment) else {
            pass.failure = Some(format!("`{}` is not in the registry", run.experiment));
            pass.jsons.push(String::new());
            continue;
        };
        let mut ctx = RunContext::plain(run.tiny);
        ctx.seed = Some(seed);
        ctx.jobs = jobs;
        ctx.args = run.args.clone();
        let t = Instant::now();
        let out = std::hint::black_box(experiment.run(&ctx));
        pass.wall_s += t.elapsed().as_secs_f64();
        match out {
            Err(e) => {
                pass.failure = Some(format!("{}: {e}", run.experiment));
                pass.jsons.push(String::new());
            }
            Ok(out) => {
                if let Some(f) = out.failure {
                    pass.failure = Some(format!("{}: {f}", run.experiment));
                }
                pass.jsons.push(out.json.unwrap_or_default());
            }
        }
    }
    pass
}

impl RegistryPass {
    /// This pass as a check against the reference pass `warm`.
    fn agrees_with(&self, warm: &RegistryPass) -> Result<(), String> {
        match &self.failure {
            Some(f) => Err(f.clone()),
            None if self.jsons != warm.jsons => {
                Err("result JSON differs byte-wise from the warm-up's".into())
            }
            None => Ok(()),
        }
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What the end-to-end pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Samples per end-to-end metric, in [`spec::END_TO_END`] order.
    pub metrics: [Summary; spec::END_TO_END.len()],
    /// Exact operations of one registry pass.
    pub ops: u64,
    /// Digest of the result JSON: equal across commits means equal
    /// simulated results.
    pub sim_digest: String,
    /// The workload's headline simulated statistic.
    pub headline: Option<Headline>,
    /// Runs attempted and failed.
    pub checks: Checks,
    /// The warm-up pass: the reference every repeat was held against,
    /// and the one a traced pass in the same process reuses.
    pub reference: RegistryPass,
}

/// Runs the end-to-end pass of `driver`.
pub fn end_to_end(driver: &Driver, scale: Scale, seed: u64, budget: Budget) -> EndToEnd {
    let seed = driver.seeding.effective(seed).unwrap_or(seed);
    let runs = (driver.runs)(scale);
    let mut checks = Checks::default();

    let warm = run_registry(&runs, seed, 1);
    checks.check("warm-up", warm.failure.clone().map_or(Ok(()), Err));
    let mut repeat = 0;
    let walls = budget.repeat(MIN_REPEATS, || {
        let pass = run_registry(&runs, seed, 1);
        repeat += 1;
        checks.check(&format!("repeat {repeat}"), pass.agrees_with(&warm));
        pass.wall_s
    });
    // Before anything else allocates: the high-water mark so far is the
    // registry runs' alone.
    let rss = peak_rss_mb();
    checks.check("peak RSS", rss.map(|_| ()).ok_or("no VmHWM in /proc/self/status".into()));

    let parsed: Vec<Value> =
        warm.jsons.iter().map(|j| serde_json::from_str(j).unwrap_or(Value::Null)).collect();
    let ops = (driver.ops)(scale, &parsed);
    checks.check("op count", ops.map(|_| ()).ok_or("result JSON lacks the op count".into()));
    let ops = ops.unwrap_or(0);
    let rates: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();

    // Set-up through the workload's own driver, tracer off: from a tenth
    // of a millisecond to tens, so they are timed for two seconds, however
    // many that is: the host's speed flickers faster than that, and the
    // fastest of two seconds comes nearer the floor than the fastest of a
    // few dozen milliseconds.
    let mut setups = Vec::new();
    let mut setup_outcome = Ok(());
    let started = Instant::now();
    while setups.len() < 5 || started.elapsed().as_secs_f64() < 2.0 {
        let t = Instant::now();
        let prepared = std::hint::black_box((driver.prepare)(scale, seed));
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = prepared {
            setup_outcome = Err(e);
            break;
        }
    }
    checks.check("set-up", setup_outcome);

    EndToEnd {
        // wall_s, ops_per_s, peak_rss_mb, setup_s.
        metrics: [
            Summary::of(&walls),
            Summary::of(&rates),
            Summary::single(rss.unwrap_or(0.0)),
            Summary::of(&setups),
        ],
        ops,
        sim_digest: digest(&warm.jsons.join("\n")),
        headline: (driver.headline)(&parsed),
        checks,
        reference: warm,
    }
}

/// What the traced pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Every [`spec::PER_LAYER`] metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Traced driver passes made (the metrics are those of the pass with
    /// the median wall).
    pub passes: usize,
    /// The spans of that pass.
    pub spans: Vec<SpanRec>,
    /// Runs and comparisons attempted and failed.
    pub checks: Checks,
}

/// One run of the workload's driver: set-up, then simulation.
fn drive(
    prepare: crate::drivers::Prepare,
    scale: Scale,
    seed: u64,
) -> (f64, Result<Outcome, String>) {
    let t = Instant::now();
    let outcome = prepare(scale, seed).and_then(|run| run());
    (t.elapsed().as_secs_f64(), std::hint::black_box(outcome))
}

/// Whether a driver's result reproduces the registry's: `Ok(true)` byte
/// for byte, `Ok(false)` within the workload's tolerance.
fn reproduces(driver: &Driver, registry: &[String], ours: &[String]) -> Result<bool, String> {
    if registry == ours {
        return Ok(true);
    }
    if registry.len() != ours.len() {
        return Err(format!("{} results vs {}", ours.len(), registry.len()));
    }
    let (float_tol, int_tol) = if driver.exact { (1e-12, None) } else { (0.01, Some(0.01)) };
    for (theirs, ours) in registry.iter().zip(ours) {
        let parse = |s: &str| serde_json::from_str::<Value>(s).map_err(|e| e.to_string());
        json::compare(&parse(theirs)?, &parse(ours)?, float_tol, int_tol)?;
    }
    Ok(false)
}

struct DriverPass {
    traced_wall_s: f64,
    untraced_wall_s: f64,
    totals: LayerTotals,
    outcome: Outcome,
    exact: bool,
    spans: Vec<SpanRec>,
}

/// Runs the traced pass of `driver`. `reference` is the registry pass at
/// jobs 1 for the same scale and seed, where the process has already made
/// one.
pub fn traced(
    driver: &Driver,
    scale: Scale,
    seed: u64,
    budget: Budget,
    reference: Option<RegistryPass>,
) -> Traced {
    let seed = driver.seeding.effective(seed).unwrap_or(seed);
    let runs = (driver.runs)(scale);
    let mut checks = Checks::default();
    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let listed = spec::per_layer(name).unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
        metrics.insert(listed.name, v);
    };

    // The registry at jobs 1 is the reference the driver must reproduce;
    // at jobs 2 it must give the same bytes, faster or not.
    let reference = reference.unwrap_or_else(|| run_registry(&runs, seed, 1));
    checks.check("registry run", reference.failure.clone().map_or(Ok(()), Err));
    let sharded = run_registry(&runs, seed, 2);
    checks.check("--jobs 2 vs --jobs 1", sharded.agrees_with(&reference));
    set("sim.exec_jobs2_speedup", reference.wall_s / sharded.wall_s);

    let overhead = span::calibrate();
    eprintln!(
        "span recording cost: {:.1} ns seen inside, {:.1} ns seen outside",
        overhead.inner_ns, overhead.outer_ns
    );
    let mut passes: Vec<DriverPass> = Vec::new();
    budget.repeat(1, || {
        let (untraced_wall_s, untraced) = drive(driver.prepare, scale, seed);
        checks.check(
            "untraced driver vs registry",
            untraced.and_then(|o| reproduces(driver, &reference.jsons, &o.jsons)).map(|_| ()),
        );
        span::start();
        let (traced_wall_s, outcome) = drive(driver.prepare, scale, seed);
        let (spans, calls) = span::stop();
        let verdict = outcome
            .and_then(|o| reproduces(driver, &reference.jsons, &o.jsons).map(|exact| (o, exact)));
        match verdict {
            Ok((outcome, exact)) => {
                checks.check("traced driver vs registry", Ok(()));
                let totals = span::aggregate(&spans, &calls, overhead);
                passes.push(DriverPass {
                    traced_wall_s,
                    untraced_wall_s,
                    totals,
                    outcome,
                    exact,
                    spans,
                });
            }
            Err(e) => checks.check("traced driver vs registry", Err(e)),
        }
        untraced_wall_s + traced_wall_s
    });

    // Report one whole pass — the one with the median wall — so that the
    // layers and the residual add up to its wall exactly.
    passes.sort_by(|a, b| a.traced_wall_s.total_cmp(&b.traced_wall_s));
    let n_passes = passes.len();
    let mut spans = Vec::new();
    if n_passes > 0 {
        let pass = passes.swap_remove((n_passes - 1) / 2);
        for layer in Layer::ALL.iter().filter(|l| **l != Layer::Harness) {
            set(&format!("{}_s", layer.key()), pass.totals.self_s(*layer));
        }
        for (name, layer) in CALL_COUNTS {
            set(name, pass.totals.calls(layer) as f64);
        }
        for (name, v) in pass.outcome.counters.finish() {
            set(name, v);
        }
        set("sim.traced_wall_s", pass.traced_wall_s);
        set("sim.harness_residual_s", pass.traced_wall_s - pass.totals.layers_s());
        set(
            "sim.trace_overhead_frac",
            (pass.traced_wall_s - pass.untraced_wall_s) / pass.untraced_wall_s,
        );
        set("sim.replica_exact", f64::from(u8::from(pass.exact)));
        spans = pass.spans;
    }

    // Telemetry stays off end to end; one extra pass with a timed sink
    // says what the fold costs where it is on.
    if let Some(prepare) = driver.prepare_with_telemetry {
        span::start();
        let (_, outcome) = drive(prepare, scale, seed);
        let (tspans, calls) = span::stop();
        let totals = span::aggregate(&tspans, &calls, overhead);
        checks.check(
            "telemetry-on driver vs registry",
            outcome.and_then(|o| reproduces(driver, &reference.jsons, &o.jsons)).map(|_| ()),
        );
        set("telemetry.record_s", totals.self_s(Layer::TelemetryRecord));
        set("telemetry.events", totals.calls(Layer::TelemetryRecord) as f64);
    }

    Traced { metrics, passes: n_passes, spans, checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_budget_keeps_a_floor_of_repeats() {
        let b = Budget { seconds: 10.0, repeats: None };
        assert!(!b.spent(2, 3, 50.0, 5.0), "never below the floor");
        assert!(!b.spent(3, 3, 4.0, 5.0), "the next repeat still fits");
        assert!(b.spent(3, 3, 6.0, 5.0), "the next repeat would overrun");
        let fixed = Budget { seconds: 10.0, repeats: Some(1) };
        assert!(fixed.spent(1, 3, 0.0, 0.0));
        assert!(!Budget { seconds: 0.0, repeats: Some(4) }.spent(3, 3, 99.0, 9.0));
    }

    #[test]
    fn a_pass_ends_whatever_comes_of_its_repeats() {
        // The traced pass keeps only the repeats that reproduce the
        // registry; `repeat` is not told which did, so a driver that never
        // does still ends after `repeats` calls.
        let mut calls = 0;
        let took = Budget { seconds: 10.0, repeats: Some(3) }.repeat(1, || {
            calls += 1;
            0.0
        });
        assert_eq!((took.len(), calls), (3, 3));
        let took = Budget { seconds: 1.0, repeats: None }.repeat(3, || 2.0);
        assert_eq!(took.len(), 3, "the floor, though the first repeat already overran");
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check("a", Ok(()));
        c.check("b", Err("boom".into()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, vec!["b: boom".to_string()]);
    }
}
