//! One adapter module per layer of the stack. Every call a traced driver
//! makes into a crate goes through the module named after it, inside a
//! span, so a later change to that crate's API (the `DtlDevice` break-up,
//! the single scenario driver) is a few lines here and nothing in the
//! drivers. The end-to-end path never comes through here: it only knows
//! the experiment registry.

pub mod check;
pub mod core;
pub mod dram;
pub mod event;
pub mod fabric;
pub mod fault;
pub mod pool;
pub mod trace;

use std::collections::BTreeMap;

/// Simulated statistics and exact counts a traced driver hands back
/// beside its result, keyed by per-layer metric name. Values add up
/// across the devices, hosts and cells of one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    sums: BTreeMap<&'static str, f64>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
}

impl Counters {
    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Raises the counter `name` to at least `v` (high-water marks).
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// Adds to the numerator and denominator of the ratio `name`, which
    /// resolves once the whole run is in (a hit ratio, a mean latency).
    pub fn add_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.ratios.entry(name).or_insert((0.0, 0.0));
        e.0 += num;
        e.1 += den;
    }

    /// The counters by metric name, ratios resolved.
    pub fn finish(mut self) -> BTreeMap<&'static str, f64> {
        for (name, (num, den)) in std::mem::take(&mut self.ratios) {
            if den > 0.0 {
                self.sums.insert(name, num / den);
            }
        }
        self.sums
    }
}
