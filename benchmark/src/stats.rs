//! Sample summaries: median with min, max and count.

use serde::Value;

use crate::json::as_f64;
use crate::spec::{Better, EndToEnd};

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What the ledger keeps of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs`; all zeros for an empty slice.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary { median: 0.0, min: 0.0, max: 0.0, n: 0 };
        }
        Summary {
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }

    /// A single measurement.
    pub fn single(x: f64) -> Summary {
        Summary { median: x, min: x, max: x, n: 1 }
    }

    /// The sample a run reports for `metric`: the best one.
    pub fn reported(&self, metric: &EndToEnd) -> f64 {
        match metric.better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }

    /// `(max - min) / median`: the metric's own spread, which the compare
    /// mode sets against its bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }

    /// The summary as a JSON object.
    pub fn to_value(self, metric: &EndToEnd) -> Value {
        Value::Map(vec![
            ("value".into(), Value::Float(self.reported(metric))),
            ("median".into(), Value::Float(self.median)),
            ("min".into(), Value::Float(self.min)),
            ("max".into(), Value::Float(self.max)),
            ("n".into(), Value::Uint(self.n as u128)),
            ("unit".into(), Value::Str(metric.unit.into())),
        ])
    }

    /// Reads back what [`Summary::to_value`] wrote.
    pub fn from_value(v: &Value) -> Option<Summary> {
        let map = v.as_map()?;
        let num = |k: &str| map.iter().find(|(n, _)| n == k).and_then(|(_, v)| as_f64(v));
        Some(Summary {
            median: num("median")?,
            min: num("min")?,
            max: num("max")?,
            n: num("n")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 5));
        assert_eq!(s.spread(), 8.0 / 5.0);
        assert_eq!(Summary::of(&[]), Summary { median: 0.0, min: 0.0, max: 0.0, n: 0 });
        assert_eq!(Summary::single(2.5).spread(), 0.0);
    }

    #[test]
    fn reported_sample_follows_the_metric() {
        let s = Summary::of(&[5.0, 1.0, 9.0]);
        let report = |name| s.reported(crate::spec::end_to_end(name).unwrap());
        assert_eq!(report("wall_s"), 1.0, "the fastest repeat");
        assert_eq!(report("ops_per_s"), 9.0, "the highest rate");
        assert_eq!(report("setup_s"), 1.0, "the fastest set-up");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.25, 1.5, 1.75]);
        let wall = crate::spec::end_to_end("wall_s").unwrap();
        assert_eq!(Summary::from_value(&s.to_value(wall)), Some(s));
    }
}
