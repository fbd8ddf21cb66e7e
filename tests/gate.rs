//! Verdicts of `smoothop gate` (`smoothoperator::gate::run_gate`): the
//! phase tolerance and its 20 ms floor, the always-gated `total_ms`,
//! exact fields at every occurrence, and errors for anything missing.

use smoothoperator::gate::{run_gate, MIN_GATED_MS};
use so_telemetry::export::BenchObject;

/// A two-point artifact; the second point carries a plan-style
/// `fits` array.
fn artifact(synth_ms: f64, total_ms: f64, small_ms: f64, third_fit: u64) -> BenchObject {
    let fits = [10, 20, third_fit].map(|n| BenchObject::default().raw("racks_fit", n));
    BenchObject::default().string("benchmark", "unit").array(
        "points",
        [
            BenchObject::default()
                .raw("instances", 10)
                .fixed("synth_ms", 1.0, 3)
                .fixed("checksum", 1.0, 6),
            BenchObject::default()
                .raw("instances", 100)
                .string("workload", "llm-mix")
                .fixed("synth_ms", synth_ms, 3)
                .fixed("small_ms", small_ms, 3)
                .fixed("total_ms", total_ms, 3)
                .array("fits", fits)
                .fixed("checksum", 42.5, 6),
        ],
    )
}

/// The gate's table rows (header dropped) and its failure count.
fn gate(
    cur: &BenchObject,
    base: &BenchObject,
    args: &[&str],
) -> Result<(Vec<String>, usize), String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let (table, failures) = run_gate(cur, base, &args)?;
    Ok((
        table.lines().skip(2).map(str::to_string).collect(),
        failures,
    ))
}

#[test]
fn gated_phase_fails_past_the_tolerance_and_passes_within_it() {
    let base = artifact(100.0, 500.0, 5.0, 30);
    let args = ["instances=100", "35", "synth_ms"];
    let grown = |ms| gate(&artifact(ms, 500.0, 5.0, 30), &base, &args).unwrap();
    assert_eq!(
        grown(136.0),
        (
            vec!["| `synth_ms` | 100.000 | 136.000 | +36.0% | FAIL |".to_string()],
            1
        )
    );
    assert_eq!(
        grown(134.0),
        (
            vec!["| `synth_ms` | 100.000 | 134.000 | +34.0% | ok |".to_string()],
            0
        )
    );
    // A baseline of exactly the floor is gated.
    let floor = artifact(MIN_GATED_MS, 500.0, 5.0, 30);
    let (_, failures) = gate(&artifact(27.2, 500.0, 5.0, 30), &floor, &args).unwrap();
    assert_eq!(failures, 1);
}

#[test]
fn phases_under_the_floor_are_informational_except_total() {
    let base = artifact(100.0, 10.0, 5.0, 30);
    let cur = artifact(100.0, 14.0, 50.0, 30);
    let (rows, failures) =
        gate(&cur, &base, &["instances=100", "35", "small_ms total_ms"]).unwrap();
    assert_eq!(
        rows,
        [
            "| `small_ms` | 5.000 | 50.000 | +900.0% | info |",
            "| `total_ms` | 10.000 | 14.000 | +40.0% | FAIL |",
        ]
    );
    assert_eq!(failures, 1);
}

#[test]
fn exact_fields_compare_every_occurrence() {
    let base = artifact(100.0, 500.0, 5.0, 30);
    let args = ["workload=llm-mix", "35", "", "checksum racks_fit"];
    // No phase is listed, so a slower run passes.
    let (rows, failures) = gate(&artifact(900.0, 900.0, 5.0, 30), &base, &args).unwrap();
    assert_eq!(
        rows,
        [
            "| `checksum` | 42.500000 | 42.500000 | exact | ok |",
            "| `racks_fit` | 10, 20, 30 | 10, 20, 30 | exact | ok |",
        ]
    );
    assert_eq!(failures, 0);
    // Only the third fit differs.
    let (rows, failures) = gate(&artifact(100.0, 500.0, 5.0, 31), &base, &args).unwrap();
    assert_eq!(
        rows[1],
        "| `racks_fit` | 10, 20, 30 | 10, 20, 31 | exact | FAIL |"
    );
    assert_eq!(failures, 1);
}

#[test]
fn missing_points_fields_and_malformed_arguments_are_errors() {
    let doc = artifact(100.0, 500.0, 5.0, 30);
    let bare = BenchObject::default().array(
        "points",
        [BenchObject::default()
            .raw("instances", 100)
            .fixed("synth_ms", 1.0, 3)],
    );
    let both = ["instances=100", "35", "synth_ms", "checksum"];
    let cases: [(&BenchObject, &BenchObject, &[&str]); 12] = [
        (&doc, &doc, &["instances=7", "35", "synth_ms"]),
        (&doc, &doc, &["workload=web-mix", "35", "", "checksum"]),
        (&doc, &doc, &["instances=100", "35", "query_ms"]),
        (&doc, &doc, &["instances=100", "35", "", "committed"]),
        (&doc, &doc, &["instances=10", "35", "total_ms"]),
        (&bare, &doc, &both),
        (&doc, &bare, &both),
        (&doc, &doc, &["instances=100", "35", "workload"]),
        (&doc, &doc, &["instances=100", "35", "", " "]),
        (&doc, &doc, &["instances=100", "-3", "synth_ms"]),
        (&doc, &doc, &["instances", "35", "synth_ms"]),
        (&doc, &doc, &["instances=100", "35"]),
    ];
    for (cur, base, args) in cases {
        assert!(gate(cur, base, args).is_err(), "{args:?}");
    }
}
