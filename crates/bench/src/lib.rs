//! # dtl-bench — the `dtl` binary and its experiment driver
//!
//! One binary drives every experiment: `dtl <experiment> [flags]` runs one
//! entry of the [`dtl_sim::experiments::registry`], `dtl all [flags]` runs
//! them all in registry order (the one-command reproduction of the paper's
//! evaluation section), and `dtl list` prints what is registered — so a
//! newly registered experiment is runnable with no list to maintain here.
//! The driver parses the shared CLI surface, runs the experiment, prints
//! the rendered tables, and drops machine-readable JSON under `results/`.
//! A command line that does not parse — an unknown experiment, a
//! non-numeric `--jobs` (or `--seeds`, `--ops`, `--campaigns`, `--hosts`),
//! a flag missing its value, a span of simulated time
//! that would wrap the picosecond clock — is reported on stderr with exit
//! code 2, never a panic.
//!
//! Shared flags (every experiment):
//!
//! * `--tiny` (alias `--quick`) — reduced scale instead of paper scale;
//! * `--seed N` — override the experiment's historical default seed;
//! * `--jobs N` — worker count for the deterministic [`dtl_sim::exec`]
//!   engine; output is bit-identical for every value (default: all cores);
//! * `--out PATH` — JSON destination (default `results/<name>.json`);
//! * `--trace-out PATH` — Chrome `trace_event` JSON (open in Perfetto or
//!   `chrome://tracing`; one track per rank showing power-state residency
//!   spans) plus the raw event stream as JSONL next to it (`PATH` with a
//!   `.jsonl` extension);
//! * `--metrics-out PATH` — the plain-text metrics dump;
//! * `--timeseries-out PATH` — the windowed time series folded from the
//!   event stream (CSV, or JSONL when `PATH` ends in `.jsonl`), for the
//!   campaign-scale experiments that produce one;
//! * `--timeseries-width-s N` — time-series window width in sim seconds
//!   (default 300; 1 to 18 446 744, where picosecond time ends);
//! * `--heartbeat` — campaign experiments print a wall-clock-throttled
//!   progress line per completed work unit to stderr.
//!
//! Experiment-specific flags (e.g. `diff_fuzz --replay`) pass through via
//! [`RunContext::args`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use dtl_sim::render;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dtl_dram::Picos;
use dtl_sim::experiments::{find, registry, Experiment, RunContext};
use dtl_telemetry::{chrome_trace, jsonl, MetricsRegistry, PowerTimeline, RingSink, Telemetry};

/// Ring capacity: a fig10/fig12-class run emits well under a million
/// events; overflow is reported, not silently truncated mid-run.
const RING_CAPACITY: usize = 1 << 20;

/// The CLI surface shared by every experiment. Parse once with
/// [`ExperimentCli::parse`], hand [`ExperimentCli::context`] to the
/// experiment, then [`ExperimentCli::finish`] the telemetry outputs.
#[derive(Debug)]
pub struct ExperimentCli {
    /// `--tiny` / `--quick`: reduced scale.
    pub tiny: bool,
    /// `--seed N` override.
    pub seed: Option<u64>,
    /// `--jobs N` worker count (defaults to all cores; output is
    /// bit-identical for every value).
    pub jobs: usize,
    /// `--out PATH` JSON destination override.
    pub out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    timeseries_out: Option<PathBuf>,
    series_width: Option<u64>,
    sink: Option<Arc<RingSink>>,
    registry: Arc<MetricsRegistry>,
    telemetry: Telemetry,
    args: Vec<String>,
}

impl ExperimentCli {
    /// Parses the flags following the experiment name.
    ///
    /// # Errors
    ///
    /// The message to print when a flag is missing its value or a numeric
    /// flag does not parse.
    pub fn parse(args: Vec<String>) -> Result<Self, String> {
        let value_of = |flag: &str| -> Result<Option<&String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => {
                    args.get(i + 1).map(Some).ok_or_else(|| format!("{flag} expects a value"))
                }
            }
        };
        let parsed = |flag: &str| -> Result<Option<u64>, String> {
            value_of(flag)?
                .map(|v| v.parse().map_err(|_| format!("{flag} expects an integer, got {v:?}")))
                .transpose()
        };
        let path_of = |flag: &str| Ok::<_, String>(value_of(flag)?.map(PathBuf::from));
        let tiny = args.iter().any(|a| a == "--tiny" || a == "--quick");
        let seed = parsed("--seed")?;
        let jobs =
            parsed("--jobs")?.map_or_else(dtl_sim::exec::available_jobs, |n| (n as usize).max(1));
        let out = path_of("--out")?;
        let trace_out = path_of("--trace-out")?;
        let metrics_out = path_of("--metrics-out")?;
        let timeseries_out = path_of("--timeseries-out")?;
        // Spans of simulated time are checked where they enter: `u64`
        // picoseconds wrap after ~213 days, silently shortening the run.
        let span = |flag: &str, unit_s: u64, min: u64| -> Result<Option<Picos>, String> {
            let Some(n) = parsed(flag)? else { return Ok(None) };
            let secs = n.checked_mul(unit_s).filter(|_| n >= min);
            secs.and_then(Picos::checked_from_secs).map(Some).ok_or_else(|| {
                let limit = Picos::MAX.as_ps() / Picos::from_secs(unit_s).as_ps();
                format!("{flag} expects {min}..={limit}, got {n}")
            })
        };
        // A zero-width window has no windows to fold events into.
        let width = span("--timeseries-width-s", 1, 1)?.unwrap_or(Picos::from_secs(300));
        let series_width = timeseries_out.as_ref().map(|_| width.as_ps());
        // `vm_campaign --minutes`: the one horizon the command line sets.
        span("--minutes", 60, 0)?;
        // The experiments read their own integer flags and fall back to a
        // default on one that does not parse: check them where they enter.
        for flag in ["--seeds", "--ops", "--campaigns", "--hosts"] {
            parsed(flag)?;
        }
        let registry = Arc::new(MetricsRegistry::new());
        let (sink, telemetry) = if trace_out.is_some() || metrics_out.is_some() {
            let sink = Arc::new(RingSink::with_capacity(RING_CAPACITY));
            let telemetry = Telemetry::new(sink.clone() as Arc<dyn dtl_telemetry::TelemetrySink>)
                .with_metrics(registry.clone());
            (Some(sink), telemetry)
        } else {
            (None, Telemetry::disabled())
        };
        Ok(ExperimentCli {
            tiny,
            seed,
            jobs,
            out,
            trace_out,
            metrics_out,
            timeseries_out,
            series_width,
            sink,
            registry,
            telemetry,
            args,
        })
    }

    /// The [`RunContext`] this invocation describes.
    pub fn context(&self) -> RunContext {
        RunContext {
            tiny: self.tiny,
            seed: self.seed,
            jobs: self.jobs,
            telemetry: self.telemetry.clone(),
            args: self.args.clone(),
            series_width: self.series_width,
        }
    }

    /// The metrics registry behind the context's telemetry handle.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether any telemetry output was requested.
    pub fn telemetry_enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The JSON destination for experiment `name`.
    fn json_path(&self, name: &str) -> PathBuf {
        self.out.clone().unwrap_or_else(|| Path::new("results").join(format!("{name}.json")))
    }

    /// Drains the sink and writes the requested telemetry outputs, closing
    /// every rank's open power-state span at `horizon_ps` when given (the
    /// replay horizon) or at the last recorded event otherwise.
    ///
    /// # Panics
    ///
    /// Panics if an output path cannot be written — a run has nothing
    /// useful to do without its output.
    pub fn finish(&self, horizon_ps: Option<u64>) {
        if let Some(sink) = &self.sink {
            // Surfaced in both places a consumer might look: the metrics
            // dump (as a counter) and stderr (loudly) — a truncated stream
            // silently passing for a complete one is how bad conclusions
            // get drawn.
            let dropped = sink.dropped();
            self.registry.counter("telemetry.dropped_events").set(dropped);
            if dropped > 0 {
                eprintln!(
                    "WARNING: telemetry ring dropped {dropped} events; \
                     the trace and every stream-derived output are incomplete"
                );
            }
        }
        if let (Some(path), Some(sink)) = (&self.trace_out, &self.sink) {
            let events = sink.drain();
            let last = events.iter().map(|e| e.at_ps).max().unwrap_or(0);
            let end_ps = horizon_ps.unwrap_or(last).max(last);
            let timeline = PowerTimeline::from_events(&events, end_ps);
            fs::write(path, chrome_trace(&timeline, &events)).expect("write Chrome trace");
            eprintln!("[trace saved {} — open in Perfetto or chrome://tracing]", path.display());
            let raw = path.with_extension("jsonl");
            fs::write(&raw, jsonl(&events)).expect("write event JSONL");
            eprintln!("[events saved {}]", raw.display());
        }
        if let Some(path) = &self.metrics_out {
            fs::write(path, self.registry.render_text()).expect("write metrics dump");
            eprintln!("[metrics saved {}]", path.display());
        }
    }
}

/// What `dtl list` prints: `name — summary` for every registered
/// experiment, one per line, in registry order.
pub fn list() -> String {
    registry().iter().map(|e| format!("{} — {}\n", e.name(), e.summary())).collect()
}

/// The experiments a `dtl` command names: the whole registry for `all`,
/// otherwise the one entry called `command`.
fn select(command: &str) -> Result<Vec<&'static dyn Experiment>, String> {
    if command == "all" {
        return Ok(registry().to_vec());
    }
    find(command).map(|exp| vec![exp]).ok_or_else(|| {
        format!("{command:?} is not a registered experiment; `dtl list` prints:\n{}", list())
    })
}

/// The entire body of the `dtl` binary, given the process arguments after
/// the program name: `<experiment> [flags]`, `all [flags]` or `list`.
/// Returns the exit code — 0 on success, 1 on a device error or an
/// acceptance failure, 2 (with the reason on stderr) for a command line
/// that does not parse.
///
/// # Panics
///
/// Panics if an output path cannot be written.
pub fn dtl(args: &[String]) -> u8 {
    let Some((command, flags)) = args.split_first() else {
        eprintln!("usage: dtl <experiment> [flags] | dtl all [flags] | dtl list");
        return 2;
    };
    if command == "list" {
        print!("{}", list());
        return 0;
    }
    let parsed = select(command)
        .and_then(|experiments| Ok((experiments, ExperimentCli::parse(flags.to_vec())?)));
    let (experiments, cli) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            // Not `eprintln!`: the long unknown-experiment message is what
            // gets piped through `head`, and a closed pipe must not panic.
            let _ = writeln!(std::io::stderr(), "{msg}");
            return 2;
        }
    };
    let sweep = command == "all";
    for exp in &experiments {
        if sweep {
            println!("\n########## {} ##########", exp.name());
        }
        if let Err(msg) = drive_experiment(*exp, &cli) {
            eprintln!("{msg}");
            if sweep {
                eprintln!("{} failed; aborting the sweep", exp.name());
            }
            return 1;
        }
    }
    if sweep {
        println!(
            "\nall {} experiments regenerated; JSON results under results/",
            experiments.len()
        );
    }
    0
}

/// Runs one registry entry under an already-parsed CLI: build the context,
/// run, print the tables, write `results/<name>.json`, flush telemetry.
/// The `Err` carries the message to report before exiting nonzero.
///
/// # Errors
///
/// Device errors and [`RunOutput::failure`](dtl_sim::experiments::RunOutput)
/// acceptance failures.
///
/// # Panics
///
/// Panics if an output path cannot be written.
pub fn drive_experiment(exp: &dyn Experiment, cli: &ExperimentCli) -> Result<(), String> {
    let ctx = cli.context();
    let out = exp.run(&ctx).map_err(|e| format!("{}: {e}", exp.name()))?;
    if !out.text.is_empty() {
        println!("{}", out.text);
    }
    if let Some(json) = &out.json {
        let path = cli.json_path(exp.name());
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create results directory");
        }
        fs::write(&path, json).expect("write results JSON");
        eprintln!("[saved {}]", path.display());
    }
    if let Some(path) = &cli.timeseries_out {
        match &out.timeseries {
            Some(series) => {
                let body = if path.extension().is_some_and(|e| e == "jsonl") {
                    series.to_jsonl()
                } else {
                    series.to_csv()
                };
                fs::write(path, body).expect("write time series");
                eprintln!(
                    "[time series saved {} — {} windows of {}s]",
                    path.display(),
                    series.windows().len(),
                    series.width_ps() / 1_000_000_000_000
                );
            }
            None => eprintln!(
                "[--timeseries-out: {} does not produce a windowed series; nothing written]",
                exp.name()
            ),
        }
    }
    cli.finish(out.horizon_ps);
    match out.failure {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    fn cli(args: &[&str]) -> ExperimentCli {
        ExperimentCli::parse(strings(args)).expect("well-formed flags")
    }

    #[test]
    fn list_prints_the_registry_names_in_order() {
        let listing = list();
        let listed: Vec<&str> =
            listing.lines().map(|l| l.split(' ').next().expect("a name")).collect();
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(listed, names);
    }

    #[test]
    fn every_listed_name_resolves_through_the_dispatch() {
        for exp in registry() {
            let selected = select(exp.name()).expect("a registered name resolves");
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].name(), exp.name());
        }
        let all: Vec<&str> = select("all").unwrap().iter().map(|e| e.name()).collect();
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(all, names, "`all` is the registry, in order");
    }

    #[test]
    fn an_unknown_experiment_is_an_error_that_lists_the_registry() {
        let msg = select("nosuch").err().expect("not registered");
        assert!(msg.contains("\"nosuch\""), "{msg}");
        assert!(msg.ends_with(&list()), "{msg}");
        assert_eq!(dtl(&strings(&["nosuch"])), 2);
        assert_eq!(dtl(&[]), 2, "no command at all is a usage error");
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        let err = |args: &[&str]| ExperimentCli::parse(strings(args)).expect_err("malformed");
        assert_eq!(err(&["--jobs", "abc"]), "--jobs expects an integer, got \"abc\"");
        assert_eq!(err(&["--seed", "x"]), "--seed expects an integer, got \"x\"");
        assert_eq!(err(&["--tiny", "--seed"]), "--seed expects a value");
        assert_eq!(err(&["--out"]), "--out expects a value");
        assert_eq!(
            err(&["--timeseries-width-s", "wide"]),
            "--timeseries-width-s expects an integer, got \"wide\""
        );
        assert_eq!(dtl(&strings(&["fig12", "--jobs", "abc"])), 2);
        assert_eq!(dtl(&strings(&["fig12", "--seed"])), 2);
    }

    #[test]
    fn spans_that_wrap_picosecond_time_are_errors_not_short_runs() {
        let err = |args: &[&str]| ExperimentCli::parse(strings(args)).expect_err("out of range");
        // 307 445 min = 18 446 700 s is the last horizon that fits a u64 of
        // picoseconds; one more minute used to wrap to a 5-VM run.
        assert_eq!(cli(&["--minutes", "307445"]).context().value("--minutes"), Some("307445"));
        assert_eq!(err(&["--minutes", "307446"]), "--minutes expects 0..=307445, got 307446");
        assert_eq!(err(&["--minutes", "400000"]), "--minutes expects 0..=307445, got 400000");
        assert!(err(&["--minutes", "18446744073709551615"]).starts_with("--minutes expects"));
        assert_eq!(err(&["--minutes", "soon"]), "--minutes expects an integer, got \"soon\"");
        assert_eq!(
            err(&["--timeseries-width-s", "18446745"]),
            "--timeseries-width-s expects 1..=18446744, got 18446745"
        );
        let widest = cli(&["--timeseries-out", "/tmp/s.csv", "--timeseries-width-s", "18446744"]);
        assert_eq!(widest.series_width, Some(18_446_744 * 1_000_000_000_000));
        assert_eq!(dtl(&strings(&["vm_campaign", "--tiny", "--minutes", "307446"])), 2);
    }

    #[test]
    fn experiment_integer_flags_are_errors_not_default_runs() {
        let err = |args: &[&str]| ExperimentCli::parse(strings(args)).expect_err("not an integer");
        for flag in ["--seeds", "--ops", "--campaigns", "--hosts"] {
            assert_eq!(err(&[flag, "abc"]), format!("{flag} expects an integer, got \"abc\""));
            assert_eq!(err(&["--tiny", flag]), format!("{flag} expects a value"));
        }
        assert_eq!(cli(&["--seeds", "2", "--ops", "30"]).context().value("--ops"), Some("30"));
        assert_eq!(dtl(&strings(&["diff_fuzz", "--smoke", "--seeds", "abc"])), 2);
    }

    #[test]
    fn a_zero_width_window_is_an_error_not_a_worker_panic() {
        let err = |args: &[&str]| ExperimentCli::parse(strings(args)).expect_err("zero width");
        let msg = "--timeseries-width-s expects 1..=18446744, got 0";
        assert_eq!(err(&["--timeseries-width-s", "0"]), msg);
        assert_eq!(err(&["--timeseries-out", "/tmp/s.csv", "--timeseries-width-s", "0"]), msg);
        let args = ["vm_campaign", "--tiny", "--timeseries-out", "/tmp/s.csv"];
        assert_eq!(dtl(&strings(&[&args[..], &["--timeseries-width-s", "0"]].concat())), 2);
    }

    #[test]
    fn experiment_specific_flags_pass_through() {
        let c = cli(&["--replay", "{\"ops\": []}", "--jobs", "2", "--campaigns", "3"]);
        let ctx = c.context();
        assert_eq!(ctx.value("--replay"), Some("{\"ops\": []}"));
        assert_eq!(ctx.value("--campaigns"), Some("3"));
        assert_eq!(ctx.jobs, 2);
    }

    #[test]
    fn parses_the_shared_surface() {
        let c = cli(&["--tiny", "--seed", "9", "--jobs", "3", "--out", "x.json"]);
        assert!(c.tiny);
        assert_eq!(c.seed, Some(9));
        assert_eq!(c.jobs, 3);
        assert_eq!(c.out.as_deref(), Some(Path::new("x.json")));
        assert!(!c.telemetry_enabled());
        assert!(!c.context().telemetry.enabled());
    }

    #[test]
    fn quick_is_a_tiny_alias_and_jobs_defaults_to_cores() {
        let c = cli(&["--quick"]);
        assert!(c.tiny);
        assert_eq!(c.jobs, dtl_sim::exec::available_jobs());
        assert_eq!(c.json_path("fig02"), Path::new("results").join("fig02.json"));
    }

    #[test]
    fn telemetry_flags_enable_the_ring_sink() {
        let c = cli(&["--trace-out", "/tmp/t.json"]);
        assert!(c.telemetry_enabled());
        assert!(c.context().telemetry.enabled());
        assert!(c.context().telemetry.metrics().is_some());
    }

    #[test]
    fn jobs_zero_is_clamped_to_one() {
        assert_eq!(cli(&["--jobs", "0"]).jobs, 1);
    }

    #[test]
    fn finish_publishes_the_dropped_event_counter() {
        let dir = std::env::temp_dir().join("dtl_bench_dropped_test");
        fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.txt");
        let c = cli(&["--metrics-out", metrics.to_str().unwrap()]);
        c.finish(None);
        let dump = fs::read_to_string(&metrics).unwrap();
        assert!(
            dump.contains("telemetry.dropped_events"),
            "the drop counter must land in the metrics dump: {dump}"
        );
    }

    #[test]
    fn timeseries_flags_set_the_window_width() {
        let c = cli(&["--timeseries-out", "/tmp/s.csv"]);
        assert_eq!(c.series_width, Some(300 * 1_000_000_000_000));
        assert_eq!(c.context().series_width, c.series_width);
        // The series does not need the ring sink.
        assert!(!c.telemetry_enabled());
        let c = cli(&["--timeseries-out", "/tmp/s.csv", "--timeseries-width-s", "60"]);
        assert_eq!(c.series_width, Some(60 * 1_000_000_000_000));
        // Width without a destination stays off.
        assert_eq!(cli(&["--timeseries-width-s", "60"]).series_width, None);
    }

    #[test]
    fn timeseries_run_writes_windowed_csv() {
        let dir = std::env::temp_dir().join("dtl_bench_series_test");
        fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("vm_campaign.csv");
        let json = dir.join("vm_campaign.json");
        let c = cli(&[
            "--tiny",
            "--jobs",
            "2",
            "--hosts",
            "2",
            "--out",
            json.to_str().unwrap(),
            "--timeseries-out",
            csv.to_str().unwrap(),
            "--timeseries-width-s",
            "3600",
        ]);
        let exp = dtl_sim::experiments::find("vm_campaign").unwrap();
        drive_experiment(exp, &c).unwrap();
        let body = fs::read_to_string(&csv).unwrap();
        assert!(body.starts_with(dtl_telemetry::TIMESERIES_CSV_HEADER));
        assert!(body.lines().count() > 1, "a day of windows follows the header");
    }
}
