//! Small helpers over the vendored `serde::Value` tree: field access,
//! a digest of result text, and a tolerant comparison of two results.

use serde::Value;

/// A struct field of a JSON object.
pub fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Any JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Uint(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// A non-negative JSON integer.
pub fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Uint(x) => u64::try_from(*x).ok(),
        _ => None,
    }
}

/// A JSON object from `(key, value)` pairs, keeping their order.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// 64-bit FNV-1a of `text` as 16 hex digits: the `sim_digest` by which
/// two commits compare their simulated results exactly. (Not the std
/// hasher, whose output may change between Rust releases.)
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compares two result trees: same shape, strings, booleans and integers
/// equal bit for bit, floats within `rel_tol` of each other. With
/// `int_tol` set, integers may differ by that relative amount too (the
/// grid workloads' fallback when their replica is not exact).
///
/// # Errors
///
/// The path and values of the first difference.
pub fn compare(a: &Value, b: &Value, rel_tol: f64, int_tol: Option<f64>) -> Result<(), String> {
    compare_at("$", a, b, rel_tol, int_tol)
}

fn compare_at(
    path: &str,
    a: &Value,
    b: &Value,
    rel_tol: f64,
    int_tol: Option<f64>,
) -> Result<(), String> {
    let close = |x: f64, y: f64, tol: f64| x == y || (x - y).abs() <= tol * x.abs().max(y.abs());
    match (a, b) {
        (Value::Map(x), Value::Map(y)) => {
            if x.len() != y.len() {
                return Err(format!("{path}: {} fields vs {}", x.len(), y.len()));
            }
            for ((ka, va), (kb, vb)) in x.iter().zip(y) {
                if ka != kb {
                    return Err(format!("{path}: field `{ka}` vs `{kb}`"));
                }
                compare_at(&format!("{path}.{ka}"), va, vb, rel_tol, int_tol)?;
            }
            Ok(())
        }
        (Value::Seq(x), Value::Seq(y)) => {
            if x.len() != y.len() {
                return Err(format!("{path}: {} elements vs {}", x.len(), y.len()));
            }
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                compare_at(&format!("{path}[{i}]"), va, vb, rel_tol, int_tol)?;
            }
            Ok(())
        }
        (Value::Float(x), Value::Float(y)) if close(*x, *y, rel_tol) => Ok(()),
        (Value::Uint(_) | Value::Int(_), Value::Uint(_) | Value::Int(_)) => {
            let (x, y) = (as_f64(a).unwrap_or(0.0), as_f64(b).unwrap_or(0.0));
            if a == b || int_tol.is_some_and(|tol| close(x, y, tol)) {
                Ok(())
            } else {
                Err(format!("{path}: {x} vs {y}"))
            }
        }
        _ if a == b => Ok(()),
        _ => Err(format!("{path}: {a:?} vs {b:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_ne!(digest("{\"x\": 1}"), digest("{\"x\": 2}"));
    }

    #[test]
    fn compare_is_exact_on_integers_and_tolerant_on_floats() {
        let a = parse(r#"{"n": 10, "e": 1.0, "rows": [{"s": "x", "ok": true}]}"#);
        assert!(compare(&a, &a, 0.0, None).is_ok());
        let drift = parse(r#"{"n": 10, "e": 1.0000000000001, "rows": [{"s": "x", "ok": true}]}"#);
        assert!(compare(&a, &drift, 1e-12, None).is_ok());
        assert!(compare(&a, &drift, 1e-15, None).unwrap_err().contains("$.e"));
        let off = parse(r#"{"n": 11, "e": 1.0, "rows": [{"s": "x", "ok": true}]}"#);
        assert!(compare(&a, &off, 1e-12, None).unwrap_err().contains("$.n"));
        assert!(compare(&a, &off, 1e-12, Some(0.2)).is_ok());
        let shape = parse(r#"{"n": 10, "e": 1.0, "rows": []}"#);
        assert!(compare(&a, &shape, 1.0, Some(1.0)).unwrap_err().contains("$.rows"));
    }
}
