//! Golden test for the `BENCH_scale.json` schema: field names, ordering
//! guarantees, and the determinism contract of the numeric fields. A
//! schema drift here must be deliberate (bump `SCALE_SCHEMA_VERSION`),
//! because CI's `smoothop gate` steps and the frozen benchmark read
//! this file by field name; `tests/bench_artifacts.rs` pins the byte
//! layout.

use smoothoperator::scale::{run_scale, ScaleConfig, ScaleWorkload, SCALE_SCHEMA_VERSION};

fn tiny_ladder() -> ScaleConfig {
    ScaleConfig {
        instances: vec![60, 120, 240],
        samples_per_trace: 42,
        step_minutes: 240,
        seed: 7,
        group_size: 12,
        swap_probes: 32,
        workload: ScaleWorkload::Diurnal,
        chunk_rows: 0,
    }
}

/// Every field the downstream tooling reads, exactly as spelled in the
/// artifact. Renaming any of these is a schema break.
const TOP_LEVEL_FIELDS: [&str; 9] = [
    "\"benchmark\": \"scale\"",
    "\"schema_version\"",
    "\"seed\"",
    "\"samples_per_trace\"",
    "\"step_minutes\"",
    "\"workload\"",
    "\"group_size\"",
    "\"swap_probes\"",
    "\"points\"",
];

const POINT_FIELDS: [&str; 13] = [
    "\"instances\"",
    "\"threads\"",
    "\"chunk_rows\"",
    "\"synth_ms\"",
    "\"row_peaks_ms\"",
    "\"quantiles_ms\"",
    "\"aggregation_ms\"",
    "\"swap_probe_ms\"",
    "\"total_ms\"",
    "\"rows_per_sec\"",
    "\"peak_rss_bytes\"",
    "\"sum_of_group_peaks\"",
    "\"checksum\"",
];

#[test]
fn artifact_carries_the_pinned_schema() {
    let report = run_scale(&tiny_ladder()).unwrap();
    let json = report.to_json();

    assert_eq!(SCALE_SCHEMA_VERSION, 4, "schema bumped: update this test");
    for field in TOP_LEVEL_FIELDS {
        assert!(json.contains(field), "missing top-level field {field}");
    }
    for field in POINT_FIELDS {
        assert_eq!(
            json.matches(field).count(),
            report.points.len(),
            "field {field} must appear once per point"
        );
    }
}

#[test]
fn points_preserve_the_requested_ladder_order() {
    let config = tiny_ladder();
    let report = run_scale(&config).unwrap();
    let counts: Vec<usize> = report.points.iter().map(|p| p.instances).collect();
    assert_eq!(counts, config.instances);
    assert!(
        counts.windows(2).all(|w| w[0] < w[1]),
        "default ladders are strictly increasing: {counts:?}"
    );
}

#[test]
fn numeric_fields_are_sane_and_deterministic() {
    let config = tiny_ladder();
    let a = run_scale(&config).unwrap();
    let b = run_scale(&config).unwrap();
    for (x, y) in a.points.iter().zip(&b.points) {
        assert!(x.total_ms >= 0.0 && x.rows_per_sec > 0.0);
        assert!(x.sum_of_group_peaks > 0.0, "groups of diurnal rows peak");
        assert!(x.checksum.is_finite());
        assert!(x.threads >= 1, "at least one lane always runs");
        assert_eq!(x.chunk_rows % config.group_size, 0, "chunks group-align");
        // Timings are machine noise; the digests are a pure function of
        // the config and must not wobble by a single bit.
        assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
        assert_eq!(
            x.sum_of_group_peaks.to_bits(),
            y.sum_of_group_peaks.to_bits()
        );
    }
    // More instances, more aggregate peak: the digest scales with the
    // ladder rather than saturating.
    let peaks: Vec<f64> = a.points.iter().map(|p| p.sum_of_group_peaks).collect();
    assert!(peaks.windows(2).all(|w| w[0] < w[1]), "{peaks:?}");
}

#[test]
fn json_numbers_parse_back() {
    // No JSON parser in-tree: strip the syntax and check every value
    // token parses as a number (the artifact must never emit NaN/inf,
    // which are invalid JSON) or is one of the schema's non-numeric
    // literals (the workload string, `null` for an absent RSS).
    let report = run_scale(&tiny_ladder()).unwrap();
    for line in report.to_json().lines() {
        let Some((_, value)) = line.split_once(": ") else {
            continue;
        };
        let value = value.trim_end_matches(',').trim();
        if value.starts_with('"') || value.starts_with('[') || value.starts_with('{') {
            continue;
        }
        if value == "null" {
            continue;
        }
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value `{value}` in line `{line}`"));
        assert!(parsed.is_finite(), "non-finite value in `{line}`");
    }
}
