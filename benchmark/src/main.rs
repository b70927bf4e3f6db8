//! `perfledger` — the repository's perf ledger. `benchmark/run.sh` builds
//! and calls it; see `benchmark/README.md` for what each metric means.
//!
//! Three ways in:
//!
//! * `--workload W --trace 0|1` — one pass over one workload; the last
//!   line of standard output is the result object the driving harness
//!   reads (`correct`, `attempted`, `failed`, `metrics`).
//! * no `--trace` — the suite: one child process per workload (so peak
//!   memory is per workload), both passes each, every metric printed by
//!   name with its unit, the run written as JSON.
//! * `--compare A.json B.json` / `--stability` — verdicts on two runs.

#![warn(missing_docs)]

mod compare;
mod drivers;
mod json;
mod layers;
mod ledger;
mod span;
mod spec;
mod stats;
mod timed;

use std::process::{Command, ExitCode};

use serde::Value;

use compare::Verdict;
use drivers::{Driver, Scale, Seeding};
use json::{as_f64, as_u64, field, object};
use ledger::{Budget, Checks, EndToEnd, Traced};
use spec::{END_TO_END, PER_LAYER};
use stats::Summary;

const USAGE: &str = "\
usage: run.sh [--workload NAME]... [--seed N] [--seconds S | --repeats N]
              [--quick] [--out FILE]
       run.sh --workload NAME --trace 0|1 [--seed N] [--seconds S] [--spans-out FILE]
       run.sh --compare A.json B.json
       run.sh --stability [suite options]
       run.sh --print-benchmark-json > BENCHMARK.json";

/// Parsed command line.
struct Args {
    workloads: Vec<&'static Driver>,
    seed: u64,
    budget: Budget,
    scale: Scale,
    trace: Option<bool>,
    child: bool,
    out: String,
    spans_out: Option<String>,
    compare: Option<(String, String)>,
    stability: bool,
    print_spec: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        budget: Budget { seconds: 10.0, repeats: None },
        scale: Scale::Ledger,
        trace: None,
        child: false,
        out: "benchmark/out/latest.json".into(),
        spans_out: None,
        compare: None,
        stability: false,
        print_spec: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || drivers::ALL.map(|d| d.name).join(", ");
                args.workloads.push(
                    drivers::find(name)
                        .ok_or_else(|| format!("unknown workload `{name}` (have: {})", known()))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.budget.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeats" => {
                args.budget.repeats =
                    Some(value("a number")?.parse().map_err(|e| format!("--repeats: {e}"))?);
            }
            // Tiny configurations, and one repeat unless `--repeats` follows.
            "--quick" => {
                args.scale = Scale::Quick;
                args.budget.repeats = Some(1);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--child" => args.child = true,
            "--out" => args.out = value("a path")?.clone(),
            "--spans-out" => args.spans_out = Some(value("a path")?.clone()),
            "--compare" => {
                let a = value("two ledger files")?.clone();
                args.compare = Some((a, value("two ledger files")?.clone()));
            }
            "--stability" => args.stability = true,
            "--print-benchmark-json" => args.print_spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.budget.seconds.is_finite() || args.budget.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_spec {
        println!("{}", benchmark_json());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if args.stability {
        stability(&args)
    } else if args.trace.is_some() || args.child {
        single(&args)
    } else {
        suite(&args, &args.out).map(|ledger| failed_ops(&ledger) == 0)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- one workload in this process ----------------------------------------

/// One pass (`--trace`) or both (`--child`) over one workload.
fn single(args: &Args) -> Result<bool, String> {
    let [driver] = args.workloads[..] else {
        return Err("--trace takes exactly one --workload".into());
    };
    // End to end first: peak memory must be the registry runs' alone.
    let e2e = (args.child || args.trace == Some(false))
        .then(|| ledger::end_to_end(driver, args.scale, args.seed, args.budget));
    let traced = (args.child || args.trace == Some(true)).then(|| {
        let reference = e2e.as_ref().map(|e| e.reference.clone());
        ledger::traced(driver, args.scale, args.seed, args.budget, reference)
    });
    if let (Some(path), Some(t)) = (&args.spans_out, &traced) {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        span::write_jsonl(&t.spans, &mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if args.child {
        let (e2e, traced) = (e2e.expect("child runs both"), traced.expect("child runs both"));
        println!("{}", to_line(&workload_value(driver, args.seed, &e2e, &traced)));
        return Ok(true);
    }
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    println!("{}", seed_line(driver, args.seed));
    if let Some(e2e) = &e2e {
        print_end_to_end(driver.name, e2e);
        checks = e2e.checks.clone();
        for (m, s) in END_TO_END.iter().zip(&e2e.metrics) {
            metrics.push((m.name, s.reported(m), m.unit));
        }
    }
    if let Some(t) = &traced {
        print_per_layer(driver.name, &t.metrics);
        checks = t.checks.clone();
        for m in &PER_LAYER {
            metrics.push((m.name, t.metrics[m.name], m.unit));
        }
    }
    for f in &checks.failures {
        println!("FAILED {}: {f}", driver.name);
    }
    let result = object([
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Uint(u128::from(checks.attempted.max(1)))),
        ("failed", Value::Uint(u128::from(checks.failed))),
        (
            "metrics",
            object(metrics.into_iter().map(|(name, v, unit)| {
                (name, object([("value", Value::Float(v)), ("unit", Value::Str(unit.into()))]))
            })),
        ),
    ]);
    println!("{}", to_line(&result));
    Ok(true)
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("plain values serialize")
}

/// The seed a workload's inputs were made from, said aloud where it is
/// not `--seed` (`flag`).
fn seed_line(driver: &Driver, flag: u64) -> String {
    let seed = match driver.seeding {
        Seeding::Flag => flag.to_string(),
        Seeding::Pinned(s) => format!("{s} (pinned, whatever --seed says)"),
        Seeding::Unseeded => "none (the registry runs take no seed, whatever --seed says)".into(),
    };
    format!("{:<14} seed         {seed}", driver.name)
}

/// Everything the ledger file keeps about one workload. `flag` is `--seed`.
fn workload_value(driver: &Driver, flag: u64, e2e: &EndToEnd, traced: &Traced) -> Value {
    let mut failures = e2e.checks.failures.clone();
    failures.extend(traced.checks.failures.iter().cloned());
    let headline = e2e.headline.map_or(Value::Null, |h| {
        object([
            ("name", Value::Str(h.name.into())),
            ("value", Value::Float(h.value)),
            ("paper", h.paper.map_or(Value::Null, Value::Float)),
        ])
    });
    let seed = driver.seeding.effective(flag);
    object([
        // The seed the inputs were made from: not `--seed` where the
        // workload is pinned, null where the registry runs take none.
        ("seed", seed.map_or(Value::Null, |s| Value::Uint(u128::from(s)))),
        (
            "end_to_end",
            object(END_TO_END.iter().zip(&e2e.metrics).map(|(m, s)| (m.name, s.to_value(m)))),
        ),
        ("ops", Value::Uint(u128::from(e2e.ops))),
        ("op", Value::Str(driver.op.into())),
        ("attempted_ops", Value::Uint(u128::from(e2e.checks.attempted + traced.checks.attempted))),
        ("failed_ops", Value::Uint(u128::from(e2e.checks.failed + traced.checks.failed))),
        ("failures", Value::Seq(failures.into_iter().map(Value::Str).collect())),
        ("sim_digest", Value::Str(e2e.sim_digest.clone())),
        ("headline", headline),
        ("traced_passes", Value::Uint(traced.passes as u128)),
        (
            "per_layer",
            object(PER_LAYER.iter().map(|m| (m.name, Value::Float(traced.metrics[m.name])))),
        ),
    ])
}

fn print_end_to_end(workload: &str, e2e: &EndToEnd) {
    for (m, s) in END_TO_END.iter().zip(&e2e.metrics) {
        println!("{}", end_to_end_line(workload, m, s));
    }
    println!(
        "{workload:<14} failed_ops   {:>14} of {} attempted",
        e2e.checks.failed, e2e.checks.attempted
    );
    println!("{workload:<14} ops          {:>14}", e2e.ops);
    println!("{workload:<14} sim_digest   {:>16}", e2e.sim_digest);
    if let Some(h) = e2e.headline {
        let paper = h.paper.map_or(String::new(), |p| format!(" (paper: {p})"));
        println!("{workload:<14} headline     {:>14.6}  {}{paper}", h.value, h.name);
    }
}

/// One end-to-end metric: the reported value, then its samples.
fn end_to_end_line(workload: &str, m: &spec::EndToEnd, s: &Summary) -> String {
    format!(
        "{workload:<14} {:<12} {:>14.6} {:<4} (median {:.6}, min {:.6}, max {:.6}, n {})",
        m.name,
        s.reported(m),
        m.unit,
        s.median,
        s.min,
        s.max,
        s.n
    )
}

fn print_per_layer(workload: &str, metrics: &std::collections::BTreeMap<&'static str, f64>) {
    for m in &PER_LAYER {
        println!("{workload:<14} {:<28} {:>16.6} {}", m.name, metrics[m.name], m.unit);
    }
}

// --- the suite -------------------------------------------------------------

/// Runs the selected workloads, one child process each, prints every
/// metric and writes the ledger to `out`. Returns the ledger.
fn suite(args: &Args, out: &str) -> Result<Value, String> {
    let selected: Vec<&Driver> =
        if args.workloads.is_empty() { drivers::ALL.to_vec() } else { args.workloads.clone() };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut workloads = Vec::new();
    for driver in selected {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", driver.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.budget.seconds.to_string()]);
        if args.scale == Scale::Quick {
            cmd.arg("--quick");
        }
        if let Some(n) = args.budget.repeats {
            cmd.args(["--repeats", &n.to_string()]);
        }
        // `output` waits for the child to end.
        let output = cmd.output().map_err(|e| format!("spawn {}: {e}", driver.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().and_then(|l| serde_json::from_str::<Value>(l).ok());
        let value = match parsed {
            Some(v) if output.status.success() => v,
            _ => {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!("{} exited with {}", driver.name, output.status));
            }
        };
        println!("== {} ==\n{}", driver.name, seed_line(driver, args.seed));
        print_workload(driver.name, &value);
        workloads.push((driver.name, value));
    }
    let ledger = object([
        ("schema", Value::Uint(1)),
        ("nproc", Value::Uint(dtl_sim::exec::available_jobs() as u128)),
        ("git_rev", Value::Str(env_or_unknown("PERFLEDGER_GIT_REV"))),
        ("rustc", Value::Str(env_or_unknown("PERFLEDGER_RUSTC"))),
        ("seed", Value::Uint(u128::from(args.seed))),
        ("quick", Value::Bool(args.scale == Scale::Quick)),
        ("seconds", Value::Float(args.budget.seconds)),
        ("repeats", args.budget.repeats.map_or(Value::Null, |n| Value::Uint(n as u128))),
        ("workloads", object(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&ledger).expect("plain values serialize");
    std::fs::write(out, text + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(ledger)
}

fn env_or_unknown(name: &str) -> String {
    std::env::var(name).ok().filter(|v| !v.is_empty()).unwrap_or_else(|| "unknown".into())
}

/// Failed checks summed over a ledger's workloads.
fn failed_ops(ledger: &Value) -> u64 {
    field(ledger, "workloads")
        .and_then(Value::as_map)
        .map_or(0, |ws| ws.iter().filter_map(|(_, w)| as_u64(field(w, "failed_ops")?)).sum())
}

/// Prints one workload of a ledger: every metric by name, with unit.
fn print_workload(name: &str, w: &Value) {
    let num = |v: Option<&Value>| v.and_then(as_f64).unwrap_or(f64::NAN);
    let summary = |m: &spec::EndToEnd| {
        field(w, "end_to_end").and_then(|e| field(e, m.name)).and_then(Summary::from_value)
    };
    for m in &END_TO_END {
        if let Some(s) = summary(m) {
            println!("{}", end_to_end_line(name, m, &s));
        }
    }
    println!(
        "{name:<14} failed_ops   {:>14} of {} attempted",
        num(field(w, "failed_ops")),
        num(field(w, "attempted_ops"))
    );
    for f in field(w, "failures").and_then(Value::as_seq).unwrap_or(&[]) {
        println!("FAILED {name}: {}", f.as_str().unwrap_or("?"));
    }
    println!(
        "{name:<14} ops          {:>14} {}",
        num(field(w, "ops")),
        field(w, "op").and_then(Value::as_str).unwrap_or("")
    );
    println!(
        "{name:<14} sim_digest   {:>16}",
        field(w, "sim_digest").and_then(Value::as_str).unwrap_or("?")
    );
    if let Some(h) = field(w, "headline").filter(|h| **h != Value::Null) {
        let paper =
            field(h, "paper").and_then(as_f64).map_or(String::new(), |p| format!(" (paper: {p})"));
        println!(
            "{name:<14} headline     {:>14.6}  {}{paper}",
            num(field(h, "value")),
            field(h, "name").and_then(Value::as_str).unwrap_or("")
        );
    }
    let layer = |metric: &str| num(field(w, "per_layer").and_then(|p| field(p, metric)));
    for m in &PER_LAYER {
        println!("{name:<14} {:<28} {:>16.6} {}", m.name, layer(m.name), m.unit);
    }
    // The attribution must add up, and the traced run must still look
    // like the untraced one.
    let traced = layer("sim.traced_wall_s");
    let residual = layer("sim.harness_residual_s");
    let wall = summary(&END_TO_END[0]).map_or(f64::NAN, |s| s.median);
    println!(
        "{name:<14} traced wall {traced:.4} s = layers {:.4} s + residual {residual:.4} s; \
         {:+.1} % vs the end-to-end median {wall:.4} s",
        traced - residual,
        (traced - wall) / wall * 100.0
    );
}

// --- comparing runs ----------------------------------------------------------

fn read_ledger(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--compare A B`: fails on any regression, including a rise in failures.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare::compare(&read_ledger(a)?, &read_ledger(b)?)?;
    print!("{}", compare::render(&rows));
    let regressed = rows.iter().filter(|r| r.verdict == Verdict::Regressed).count();
    println!("{regressed} regressed of {} compared", rows.len());
    Ok(regressed == 0)
}

/// `--stability`: the suite twice on the same build; the two runs must
/// agree within the bounds in both directions, with equal digests.
fn stability(args: &Args) -> Result<bool, String> {
    let stem = args.out.trim_end_matches(".json");
    let a = suite(args, &format!("{stem}-a.json"))?;
    let b = suite(args, &format!("{stem}-b.json"))?;
    let rows = compare::compare(&a, &b)?;
    print!("{}", compare::render(&rows));
    let moved =
        rows.iter().filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Improved)).count();
    let digests = |l: &Value| -> Vec<Option<String>> {
        field(l, "workloads").and_then(Value::as_map).map_or(Vec::new(), |ws| {
            ws.iter()
                .map(|(_, w)| field(w, "sim_digest").and_then(Value::as_str).map(String::from))
                .collect()
        })
    };
    let same_results = digests(&a) == digests(&b);
    println!(
        "{moved} of {} metrics moved beyond their bound; sim_digest {}",
        rows.len(),
        if same_results { "identical" } else { "DIFFERS" }
    );
    Ok(moved == 0 && same_results && failed_ops(&a) + failed_ops(&b) == 0)
}

// --- BENCHMARK.json ------------------------------------------------------------

/// The contract file at the repository root, from the same tables the
/// ledger measures by: after a change to them, write it anew.
fn benchmark_json() -> String {
    let strings = |xs: &[&str]| Value::Seq(xs.iter().map(|x| Value::Str((*x).into())).collect());
    let v = object([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Uint(10)),
        (
            "workloads",
            Value::Seq(
                drivers::ALL
                    .iter()
                    .map(|d| {
                        object([
                            ("name", Value::Str(d.name.into())),
                            ("why", Value::Str(d.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.name().into())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.name().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&v).expect("plain values serialize")
}
