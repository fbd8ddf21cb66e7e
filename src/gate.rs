//! `smoothop gate`: checks one point of a fresh `BENCH_*.json` artifact
//! against a baseline (the committed file, or a second run). A phase is
//! any number that must not grow: a timing such as `repair_ms`, or a size
//! such as `peak_rss_bytes`. Each listed phase may grow by at most the
//! tolerance; one whose baseline is under
//! [`MIN_GATED_MS`](crate::gate::MIN_GATED_MS) is only reported (a 35%
//! swing on a 10 ms phase is scheduler jitter), except `total_ms`. Each
//! exact field must read the same text at every occurrence in the point,
//! such as the per-δ fits of a plan point. A missing point or field is
//! an error.

use std::fmt::Write as _;

use so_telemetry::export::{json_escape, BenchJson, BenchObject};

/// Phases whose baseline is under this many milliseconds are
/// informational.
pub const MIN_GATED_MS: f64 = 20.0;

/// The command line `smoothop gate` takes.
pub const USAGE: &str = "usage: smoothop gate <current.json> <baseline.json> <key=value> \
                         <tolerance_pct> <phases> [exact_fields]";

/// Compares the point of `current` and `baseline` that the arguments
/// after the two paths select: `<key=value> <tolerance_pct> <phases>
/// [exact_fields]`, lists space-separated (`""` for none). The point is
/// the first whose `key` reads `value`, quoted or not.
///
/// Returns a markdown table with one row per check, phases first, each
/// marked `ok`, `info` or `FAIL`, and the number of `FAIL`s.
///
/// # Errors
///
/// A malformed argument, nothing to check, or a missing point or field.
pub fn run_gate(
    current: &BenchObject,
    baseline: &BenchObject,
    args: &[String],
) -> Result<(String, usize), String> {
    let (point, tolerance, phases, exact) = match args {
        [p, t, ph] => (p, t, ph, ""),
        [p, t, ph, ex] => (p, t, ph, ex.as_str()),
        _ => return Err(USAGE.to_string()),
    };
    let (key, value) = point
        .split_once('=')
        .ok_or_else(|| format!("point `{point}` is not `key=value`"))?;
    let tolerance: f64 = tolerance
        .parse()
        .ok()
        .filter(|t: &f64| *t >= 0.0)
        .ok_or_else(|| format!("tolerance `{tolerance}` is not a percentage"))?;
    let missing = |which| format!("the {which} artifact has no point with {point}");
    let base = select_point(baseline, key, value).ok_or_else(|| missing("baseline"))?;
    let cur = select_point(current, key, value).ok_or_else(|| missing("current"))?;

    let fields: Vec<_> = (phases.split_whitespace().map(|f| (f, true)))
        .chain(exact.split_whitespace().map(|f| (f, false)))
        .collect();
    if fields.is_empty() {
        return Err("nothing to gate: name a phase or an exact field".to_string());
    }
    let mut table =
        String::from("| Field | Baseline | Current | Δ | Status |\n|---|---:|---:|---:|---|\n");
    let mut failures = 0;
    for (field, is_phase) in fields {
        let (b, c) = (occurrences(base, field), occurrences(cur, field));
        if b.is_empty() || c.is_empty() {
            let which = if b.is_empty() { "baseline" } else { "current" };
            return Err(format!("field `{field}` is missing from the {which} point"));
        }
        let not_a_phase = || format!("phase `{field}` is not one number in both points");
        let (delta, status) = match (is_phase, &b[..], &c[..]) {
            (false, ..) => ("exact".to_string(), if b == c { "ok" } else { "FAIL" }),
            (true, [b_ms], [c_ms]) => match (b_ms.parse(), c_ms.parse()) {
                (Ok(b_ms), Ok(c_ms)) => phase_verdict(field, b_ms, c_ms, tolerance),
                _ => return Err(not_a_phase()),
            },
            (true, ..) => return Err(not_a_phase()),
        };
        failures += usize::from(status == "FAIL");
        let (b, c) = (b.join(", "), c.join(", "));
        let _ = writeln!(table, "| `{field}` | {b} | {c} | {delta} | {status} |");
    }
    Ok((table, failures))
}

/// The change and verdict of a phase that took `base` ms in the baseline
/// and `cur` ms now.
fn phase_verdict(phase: &str, base: f64, cur: f64, tolerance_pct: f64) -> (String, &'static str) {
    let status = if base < MIN_GATED_MS && phase != "total_ms" {
        "info"
    } else if cur > base * (1.0 + tolerance_pct / 100.0) {
        "FAIL"
    } else {
        "ok"
    };
    let delta = if base > 0.0 {
        (cur - base) * 100.0 / base
    } else {
        0.0
    };
    (format!("{delta:+.1}%"), status)
}

fn select_point<'a>(doc: &'a BenchObject, key: &str, value: &str) -> Option<&'a BenchObject> {
    let quoted = format!("\"{}\"", json_escape(value));
    let Some(BenchJson::Array(points)) = doc.get("points") else {
        return None;
    };
    points
        .iter()
        .find(|p| matches!(p.get(key), Some(BenchJson::Scalar(v)) if *v == value || *v == quoted))
}

/// Every scalar named `key` in `object` and the objects nested in it, in
/// document order.
fn occurrences<'a>(object: &'a BenchObject, key: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (k, v) in &object.fields {
        match v {
            BenchJson::Scalar(text) if k == key => out.push(text.as_str()),
            BenchJson::Scalar(_) => {}
            BenchJson::Object(inner) => out.extend(occurrences(inner, key)),
            BenchJson::Array(items) => items.iter().for_each(|i| out.extend(occurrences(i, key))),
        }
    }
    out
}
