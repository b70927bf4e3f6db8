//! Compare mode: two ledger files, one verdict per workload × end-to-end
//! metric, a failing exit on any regression.

use serde::Value;

use crate::json::{as_u64, field};
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;

/// What became of one metric between run A and run B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound, and both runs' own spread is too.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but a run's own min–max spread is wider than
    /// the bound, so "no change" cannot be told from a change.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for the report.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's reported value is than A's, as a share of A's
/// (negative: better), in the metric's own direction.
pub fn worsening(metric: &EndToEnd, a: &Summary, b: &Summary) -> f64 {
    let (a, b) = (a.reported(metric), b.reported(metric));
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict on one metric.
pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse = worsening(metric, a, b);
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else if a.spread() > metric.bound || b.spread() > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `failed_ops` for the failure count.
    pub metric: &'static str,
    /// Run A's reported value.
    pub a: f64,
    /// Run B's reported value.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A workload's failed and attempted counts in a ledger file.
fn failures(workload: &Value) -> Option<(u64, u64)> {
    Some((as_u64(field(workload, "failed_ops")?)?, as_u64(field(workload, "attempted_ops")?)?))
}

/// Compares every workload present in both ledgers.
///
/// # Errors
///
/// A ledger that lacks the `workloads` object.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = |v: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        field(v, "workloads")
            .and_then(Value::as_map)
            .map(<[(String, Value)]>::to_vec)
            .ok_or_else(|| "not a ledger file: no `workloads` object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(n, _)| n == name) else { continue };
        for metric in &END_TO_END {
            let read = |w: &Value| {
                field(w, "end_to_end")
                    .and_then(|e| field(e, metric.name))
                    .and_then(Summary::from_value)
            };
            if let (Some(sa), Some(sb)) = (read(in_a), read(in_b)) {
                rows.push(Row {
                    workload: name.clone(),
                    metric: metric.name,
                    a: sa.reported(metric),
                    b: sb.reported(metric),
                    verdict: verdict(metric, &sa, &sb),
                });
            }
        }
        if let (Some((fa, na)), Some((fb, nb))) = (failures(in_a), failures(in_b)) {
            // Any rise in the failed share of attempted runs regresses.
            let share = |f: u64, n: u64| if n == 0 { 0.0 } else { f as f64 / n as f64 };
            let verdict = match share(fb, nb).total_cmp(&share(fa, na)) {
                std::cmp::Ordering::Greater => Verdict::Regressed,
                std::cmp::Ordering::Less => Verdict::Improved,
                std::cmp::Ordering::Equal => Verdict::Unchanged,
            };
            rows.push(Row {
                workload: name.clone(),
                metric: "failed_ops",
                a: fa as f64,
                b: fb as f64,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>14} {:>14} {:>8}  {}\n",
        "workload", "metric", "A", "B", "change", "verdict"
    );
    for r in rows {
        let change = if r.a == 0.0 { 0.0 } else { (r.b - r.a) / r.a.abs() * 100.0 };
        out.push_str(&format!(
            "{:<14} {:<12} {:>14.6} {:>14.6} {:>+7.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn tight(x: f64) -> Summary {
        Summary { median: x, min: x, max: x, n: 7 }
    }

    #[test]
    fn verdicts_at_under_and_over_a_bound() {
        // 0.25 is exact in binary, so "at the bound" can be hit exactly.
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(setup.bound, 0.25);
        assert_eq!(verdict(setup, &tight(4.0), &tight(5.0)), Verdict::Unchanged, "at");
        assert_eq!(verdict(setup, &tight(4.0), &tight(3.0)), Verdict::Unchanged, "at, better");
        assert_eq!(verdict(setup, &tight(4.0), &tight(4.5)), Verdict::Unchanged, "under");
        assert_eq!(verdict(setup, &tight(4.0), &tight(5.01)), Verdict::Regressed, "over");
        assert_eq!(verdict(setup, &tight(4.0), &tight(2.99)), Verdict::Improved, "over, better");
        // Higher-is-better metrics regress downwards.
        let rate = end_to_end("ops_per_s").unwrap();
        assert_eq!(verdict(rate, &tight(100.0), &tight(70.0)), Verdict::Regressed);
        assert_eq!(verdict(rate, &tight(100.0), &tight(130.0)), Verdict::Improved);
        assert_eq!(verdict(rate, &tight(100.0), &tight(90.0)), Verdict::Unchanged);
        // Peak memory has the tighter bound.
        let rss = end_to_end("peak_rss_mb").unwrap();
        assert_eq!(verdict(rss, &tight(50.0), &tight(58.0)), Verdict::Regressed);
        assert_eq!(verdict(rss, &tight(50.0), &tight(56.0)), Verdict::Unchanged);
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let wall = end_to_end("wall_s").unwrap();
        // wall_s reports the fastest repeat: 5.8 s against 5.84 s.
        let noisy = Summary { median: 6.5, min: 5.8, max: 7.9, n: 7 };
        assert_eq!(verdict(wall, &noisy, &tight(5.9)), Verdict::Unresolved);
        assert_eq!(verdict(wall, &tight(5.9), &noisy), Verdict::Unresolved);
        // A change beyond the bound still reads as one.
        assert_eq!(verdict(wall, &noisy, &tight(9.0)), Verdict::Regressed);
    }

    fn ledger(wall: f64, failed: u64) -> Value {
        let text = format!(
            r#"{{"workloads": {{"w": {{"end_to_end": {{"wall_s":
                {{"median": {wall}, "min": {wall}, "max": {wall}, "n": 5, "unit": "s"}}}},
                "failed_ops": {failed}, "attempted_ops": 10}}}}}}"#
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn ledgers_compare_metric_by_metric_and_on_failures() {
        let rows = compare(&ledger(1.0, 0), &ledger(1.5, 1)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric, rows[0].verdict), ("wall_s", Verdict::Regressed));
        assert_eq!((rows[1].metric, rows[1].verdict), ("failed_ops", Verdict::Regressed));
        let same = compare(&ledger(1.0, 0), &ledger(1.0, 0)).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(compare(&Value::Null, &ledger(1.0, 0)).is_err());
        assert!(render(&rows).contains("regressed"));
    }
}
