//! One module per paper table/figure, each with exactly one `run`
//! function: deterministic given its parameters (bit-identical for every
//! `jobs` value where it takes one) and returning plain-data rows that
//! `dtl <experiment>` renders as text and JSON.
//!
//! | Module | Paper artifact | Headline |
//! |---|---|---|
//! | [`fig01`] | Figure 1 | Azure-like committed memory averages < 50 % |
//! | [`fig02`] | Figure 2 | 8→2 ranks/channel costs ~0.7 % |
//! | [`fig05`] | Figure 5 | no rank-interleave: −1.7 % local, −1.4 % CXL |
//! | [`fig09`] | Figure 9 | ≥4 MiB strides dominate (89.3 % mixed) |
//! | [`fig10`] | Figure 10 | 61.5 % cold @2 MiB vs 33.2 % @4 MiB |
//! | [`fig11`] | Figure 11 | background ∝ ranks; active ∝ bandwidth |
//! | [`fig12`] | Figures 12–13 | −31.6 % energy at 1.6 % slowdown |
//! | [`fig14`] | Figure 14 | self-refresh adds up to ~20 % (14.9 % @8rk) |
//! | [`fig15`] | Figure 15 | stacked savings 25.6–32.3 % |
//! | [`tab04`] | Table 4 | per-workload MAPKI calibration |
//! | [`tab05`] | Table 5 | metadata sizes 384 GB vs 4 TB |
//! | [`tab06`] | Table 6 | controller 25.7→36.2 mW, 0.165→1.1 mm² |
//! | [`sec6_1`] | §6.1 | AMAT 214.2 ns (+4.2 ns), +0.18 % runtime |
//! | [`cache_pipeline`] | §5.2 methodology | Table 3 hierarchy compresses intensity, widens strides |
//! | [`sec6_6`] | §6.6 | bigger devices lose less from the DTL mapping |
//! | [`sec3_4_reentry`] | §3.4 | self-refresh re-entry needs little migration |
//! | [`fault_campaign`] | §7 outlook | fault load → capacity / energy / latency cost |
//! | [`fabric_load`] | §7 outlook | fabric contention moves the p99; packing saves port energy |
//! | [`pool_scale`] | §7 outlook | pack+coordination beats spread/no-coordination |
//! | [`pool_failover`] | §7 outlook | device retirements evacuate with zero lost AUs |
//! | [`vm_campaign`] | §7 outlook | event-driven fleet: 1000 hosts, two weeks, minutes of wall clock |
//! | [`diff_fuzz`] | soundness | device vs reference model: zero invariant violations |
//! | [`ablate_cke_powerdown`] | ablation | CKE power-down cannot match consolidation |
//! | [`ablate_hotness_params`] | ablation | profiling-threshold sensitivity |
//! | [`ablate_migration_priority`] | ablation | background migration protects latency |
//! | [`ablate_page_policy`] | ablation | open-page keeps the Figure 6 row hits |
//! | [`ablate_segment_size`] | ablation | 2 MiB balances tables vs cold capacity |
//! | [`ablate_smc`] | ablation | SMC sizing vs translation overhead |
//!
//! Every experiment is also registered behind the [`Experiment`] trait —
//! [`registry()`] returns the full set and [`find()`] resolves one by
//! name, which is what `dtl <name>`, `dtl all` and `dtl list` consume.

pub mod ablate_cke_powerdown;
pub mod ablate_hotness_params;
pub mod ablate_migration_priority;
pub mod ablate_page_policy;
pub mod ablate_segment_size;
pub mod ablate_smc;
pub mod cache_pipeline;
pub mod diff_fuzz;
pub mod fabric_load;
pub mod fault_campaign;
pub mod fig01;
pub mod fig02;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod latency_sweep;
pub mod loaded_latency;
pub mod policy_ablation;
pub mod pool_failover;
pub mod pool_scale;
mod registry;
pub mod sec3_4_reentry;
pub mod sec6_1;
pub mod sec6_6;
pub mod tab04;
pub mod tab05;
pub mod tab06;
pub mod vm_campaign;

pub use registry::{find, registry};

use std::sync::Arc;

use dtl_core::DtlError;
use dtl_telemetry::{SloReport, TeeSink, Telemetry, TelemetrySink, TimeSeries, TimeSeriesSink};

/// Everything an [`Experiment`] needs to run: scale selection, seed and
/// worker-count overrides, the telemetry handle, and the raw argument list
/// for experiment-specific flags (`diff_fuzz --seeds`, …).
#[derive(Debug)]
pub struct RunContext {
    /// Run at reduced (`--tiny` / `--quick`) scale instead of paper scale.
    pub tiny: bool,
    /// `--seed` override; [`RunContext::seed_or`] applies the experiment's
    /// historical default when absent.
    pub seed: Option<u64>,
    /// Worker count for the [`crate::exec`] engine (`--jobs`).
    pub jobs: usize,
    /// Telemetry handle (disabled unless the driver requested tracing).
    pub telemetry: Telemetry,
    /// The raw argument list, for experiment-specific flags.
    pub args: Vec<String>,
    /// Time-series window width in picoseconds when the driver requested
    /// `--timeseries-out`; `None` disables windowed aggregation entirely.
    pub series_width: Option<u64>,
}

impl RunContext {
    /// A sequential, untraced context — what library callers and tests
    /// use.
    pub fn plain(tiny: bool) -> Self {
        RunContext {
            tiny,
            seed: None,
            jobs: 1,
            telemetry: Telemetry::disabled(),
            args: Vec::new(),
            series_width: None,
        }
    }

    /// The seed to use: the `--seed` override or the experiment's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Whether a bare flag (e.g. `--smoke`) is present in the raw args.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following a `--flag VALUE` pair in the raw args.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The telemetry handle an event-streaming experiment should install,
    /// plus the windowed aggregator behind it when [`Self::series_width`]
    /// is set.
    ///
    /// Without a series request this is just [`Self::telemetry`]. With one,
    /// the returned handle folds every event into a fresh
    /// [`TimeSeriesSink`] — teed with the driver's sink when tracing is
    /// also on, so neither output loses events. The experiment finishes the
    /// sink at its horizon and hands the series back through
    /// [`RunOutput::timeseries`].
    pub fn series_telemetry(&self) -> (Telemetry, Option<Arc<TimeSeriesSink>>) {
        let Some(width) = self.series_width else {
            return (self.telemetry.clone(), None);
        };
        let series = Arc::new(TimeSeriesSink::new(width));
        let sink: Arc<dyn TelemetrySink> = if self.telemetry.enabled() {
            Arc::new(TeeSink::new(self.telemetry.sink().clone(), series.clone()))
        } else {
            series.clone()
        };
        let mut telemetry = Telemetry::new(sink);
        if let Some(m) = self.telemetry.metrics() {
            telemetry = telemetry.with_metrics(m.clone());
        }
        (telemetry, Some(series))
    }
}

/// What an [`Experiment`] hands back to the driver.
#[derive(Debug)]
pub struct RunOutput {
    /// Rendered text (tables plus any trailing headline lines).
    pub text: String,
    /// Machine-readable JSON for `results/<name>.json`; `None` when the
    /// run produced no result artifact (e.g. a `--replay` check).
    pub json: Option<String>,
    /// Replay horizon for closing open telemetry spans, picoseconds.
    pub horizon_ps: Option<u64>,
    /// Set when the run completed but the experiment failed its acceptance
    /// condition (the driver reports it and exits nonzero).
    pub failure: Option<String>,
    /// SLO report rendered beside the energy headline by campaign-scale
    /// experiments; `None` where the harness has no latency populations.
    pub slo: Option<SloReport>,
    /// Windowed time series when the context requested one
    /// ([`RunContext::series_width`]); the driver writes it to
    /// `--timeseries-out`.
    pub timeseries: Option<TimeSeries>,
}

impl RunOutput {
    /// The common case: text plus JSON, no horizon, no failure.
    pub fn new(text: String, json: String) -> Self {
        RunOutput {
            text,
            json: Some(json),
            horizon_ps: None,
            failure: None,
            slo: None,
            timeseries: None,
        }
    }
}

/// A named, uniformly-drivable experiment: the unit the registry hands to
/// the `dtl` binary. Implementations wrap the typed `run` function of
/// their module; the trait only fixes configuration defaults (paper vs
/// tiny scale, historical seeds) and rendering.
pub trait Experiment: Sync {
    /// Stable name: `dtl <name>`, registry key, and `results/<name>.json`.
    fn name(&self) -> &'static str;

    /// One-line description for `dtl list` output and docs.
    fn summary(&self) -> &'static str;

    /// Runs the experiment under `ctx` and renders its output.
    ///
    /// # Errors
    ///
    /// Propagates device errors; acceptance failures are reported through
    /// [`RunOutput::failure`] instead.
    fn run(&self, ctx: &RunContext) -> Result<RunOutput, DtlError>;
}
