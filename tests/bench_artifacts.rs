//! The committed `BENCH_*.json` artifacts, read back through the shared
//! BENCH reader.
//!
//! * **Layout.** Each report emitter, fed the values of its committed
//!   artifact, must reproduce that file byte for byte — field order,
//!   decimals, indentation and all. The committed files are the
//!   reference layout: CI's `smoothop gate` steps and the frozen
//!   benchmark both read them, and fresh artifacts, as text.
//! * **Contents.** Every point of every artifact carries `instances` and
//!   `checksum`, and the committed plan keeps the §5.2.1 headline: on the
//!   LLM mix at δ = 0.05, SmoothOperator fits strictly more racks than
//!   StatProf. CI's gate then requires a fresh `smoothop plan` to match
//!   every committed fit exactly.

use std::str::FromStr;

use smoothoperator::plan::{PlanConfig, PlanFit, PlanPoint, PlanReport, PlanWorkload};
use smoothoperator::scale::{
    OnlineScaleConfig, OnlineScalePoint, OnlineScaleReport, ScaleConfig, ScalePoint, ScaleReport,
    ScaleWorkload,
};
use smoothoperator::serve::{DaemonScaleConfig, DaemonScalePoint, DaemonScaleReport};
use so_telemetry::export::{BenchJson, BenchObject};

const ARTIFACTS: [&str; 4] = [
    "BENCH_scale.json",
    "BENCH_online.json",
    "BENCH_daemon.json",
    "BENCH_plan.json",
];

/// The committed text of `name` and its parse.
fn committed(name: &str) -> (String, BenchObject) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let doc = BenchObject::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    (text, doc)
}

fn objects<'a>(doc: &'a BenchObject, key: &str) -> &'a [BenchObject] {
    match doc.get(key) {
        Some(BenchJson::Array(items)) => items,
        _ => panic!("`{key}` is not an array"),
    }
}

fn text<'a>(object: &'a BenchObject, key: &str) -> &'a str {
    match object.get(key) {
        Some(BenchJson::Scalar(text)) => text,
        _ => panic!("missing scalar `{key}`"),
    }
}

fn num<T: FromStr>(object: &BenchObject, key: &str) -> T {
    let raw = text(object, key);
    raw.parse()
        .unwrap_or_else(|_| panic!("`{key}` is not a number: `{raw}`"))
}

fn name(object: &BenchObject, key: &str) -> String {
    text(object, key).trim_matches('"').to_string()
}

fn rss(object: &BenchObject) -> Option<u64> {
    match text(object, "peak_rss_bytes") {
        "null" => None,
        raw => Some(raw.parse().expect("peak_rss_bytes is a byte count")),
    }
}

/// Asserts `render(points)` equals the committed `text`, and that with
/// the first point's RSS absent only that line turns into `null`.
fn assert_reproduces<P>(
    text: &str,
    mut points: Vec<P>,
    rss_of: fn(&mut P) -> &mut Option<u64>,
    render: impl Fn(Vec<P>) -> String,
) where
    P: Clone,
{
    let rendered = render(points.clone());
    assert_eq!(rendered, text, "emitter layout drifted from the artifact");
    let bytes = rss_of(&mut points[0])
        .take()
        .expect("committed RSS present");
    let want = text.replacen(
        &format!("\"peak_rss_bytes\": {bytes},"),
        "\"peak_rss_bytes\": null,",
        1,
    );
    assert_eq!(render(points), want);
}

#[test]
fn scale_emitter_reproduces_the_committed_artifact() {
    let (raw, doc) = committed("BENCH_scale.json");
    let config = ScaleConfig {
        seed: num(&doc, "seed"),
        samples_per_trace: num(&doc, "samples_per_trace"),
        step_minutes: num(&doc, "step_minutes"),
        workload: ScaleWorkload::parse(&name(&doc, "workload")).unwrap(),
        group_size: num(&doc, "group_size"),
        swap_probes: num(&doc, "swap_probes"),
        ..ScaleConfig::default()
    };
    let points = objects(&doc, "points")
        .iter()
        .map(|p| ScalePoint {
            instances: num(p, "instances"),
            threads: num(p, "threads"),
            chunk_rows: num(p, "chunk_rows"),
            synth_ms: num(p, "synth_ms"),
            row_peaks_ms: num(p, "row_peaks_ms"),
            quantiles_ms: num(p, "quantiles_ms"),
            aggregation_ms: num(p, "aggregation_ms"),
            swap_probe_ms: num(p, "swap_probe_ms"),
            total_ms: num(p, "total_ms"),
            rows_per_sec: num(p, "rows_per_sec"),
            peak_rss_bytes: rss(p),
            sum_of_group_peaks: num(p, "sum_of_group_peaks"),
            checksum: num(p, "checksum"),
        })
        .collect();
    assert_reproduces(
        &raw,
        points,
        |p| &mut p.peak_rss_bytes,
        |points| {
            ScaleReport {
                config: config.clone(),
                points,
            }
            .to_json()
        },
    );
}

#[test]
fn online_emitter_reproduces_the_committed_artifact() {
    let (raw, doc) = committed("BENCH_online.json");
    let config = OnlineScaleConfig {
        seed: num(&doc, "seed"),
        samples_per_trace: num(&doc, "samples_per_trace"),
        step_minutes: num(&doc, "step_minutes"),
        batches: num(&doc, "batches"),
        sample_probes: num(&doc, "sample_probes"),
        repair_budget: num(&doc, "repair_budget"),
        ..OnlineScaleConfig::default()
    };
    let points = objects(&doc, "points")
        .iter()
        .map(|p| OnlineScalePoint {
            instances: num(p, "instances"),
            threads: num(p, "threads"),
            live_instances: num(p, "live_instances"),
            committed: num(p, "committed"),
            rejected: num(p, "rejected"),
            retired: num(p, "retired"),
            repair_moves: num(p, "repair_moves"),
            arrive_ms: num(p, "arrive_ms"),
            retire_ms: num(p, "retire_ms"),
            repair_ms: num(p, "repair_ms"),
            offline_ms: num(p, "offline_ms"),
            total_ms: num(p, "total_ms"),
            rows_per_sec: num(p, "rows_per_sec"),
            peak_rss_bytes: rss(p),
            online_mean_asynchrony: num(p, "online_mean_asynchrony"),
            offline_mean_asynchrony: num(p, "offline_mean_asynchrony"),
            online_min_rack_headroom_watts: num(p, "online_min_rack_headroom_watts"),
            offline_min_rack_headroom_watts: num(p, "offline_min_rack_headroom_watts"),
            rack_fragmentation_ratio: num(p, "rack_fragmentation_ratio"),
            alerts_fired: num(p, "alerts_fired"),
            alerts_resolved: num(p, "alerts_resolved"),
            checksum: num(p, "checksum"),
        })
        .collect();
    assert_reproduces(
        &raw,
        points,
        |p| &mut p.peak_rss_bytes,
        |points| {
            OnlineScaleReport {
                config: config.clone(),
                points,
            }
            .to_json()
        },
    );
}

#[test]
fn daemon_emitter_reproduces_the_committed_artifact() {
    let (raw, doc) = committed("BENCH_daemon.json");
    let config = DaemonScaleConfig {
        seed: num(&doc, "seed"),
        samples_per_trace: num(&doc, "samples_per_trace"),
        step_minutes: num(&doc, "step_minutes"),
        sweeps: num(&doc, "sweeps"),
        batch_slots: num(&doc, "batch_slots"),
        sample_probes: num(&doc, "sample_probes"),
        repair_budget: num(&doc, "repair_budget"),
        ..DaemonScaleConfig::default()
    };
    let points = objects(&doc, "points")
        .iter()
        .map(|p| DaemonScalePoint {
            instances: num(p, "instances"),
            threads: num(p, "threads"),
            live_instances: num(p, "live_instances"),
            batches: num(p, "batches"),
            samples_ingested: num(p, "samples_ingested"),
            seed_ms: num(p, "seed_ms"),
            ingest_ms: num(p, "ingest_ms"),
            query_ms: num(p, "query_ms"),
            repair_ms: num(p, "repair_ms"),
            total_ms: num(p, "total_ms"),
            rows_per_sec: num(p, "rows_per_sec"),
            ingest_p50_us: num(p, "ingest_p50_us"),
            ingest_p99_us: num(p, "ingest_p99_us"),
            peak_rss_bytes: rss(p),
            mean_rack_asynchrony: num(p, "mean_rack_asynchrony"),
            min_rack_headroom_watts: num(p, "min_rack_headroom_watts"),
            checksum: num(p, "checksum"),
        })
        .collect();
    assert_reproduces(
        &raw,
        points,
        |p| &mut p.peak_rss_bytes,
        |points| {
            DaemonScaleReport {
                config: config.clone(),
                points,
            }
            .to_json()
        },
    );
}

#[test]
fn plan_emitter_reproduces_the_committed_artifact() {
    let (raw, doc) = committed("BENCH_plan.json");
    let config = PlanConfig {
        seed: num(&doc, "seed"),
        samples_per_trace: num(&doc, "samples_per_trace"),
        step_minutes: num(&doc, "step_minutes"),
        base_instances: num(&doc, "base_instances"),
        rack_slots: num(&doc, "rack_slots"),
        max_racks: num(&doc, "max_racks"),
        ..PlanConfig::default()
    };
    let points = objects(&doc, "points")
        .iter()
        .map(|p| PlanPoint {
            instances: num(p, "instances"),
            workload: PlanWorkload::parse(&name(p, "workload")).unwrap(),
            threads: num(p, "threads"),
            budget_watts: num(p, "budget_watts"),
            base_peak_watts: num(p, "base_peak_watts"),
            base_sum_of_peaks_watts: num(p, "base_sum_of_peaks_watts"),
            fits: objects(p, "fits")
                .iter()
                .map(|f| PlanFit {
                    delta: num(f, "delta"),
                    statprof_racks_fit: num(f, "statprof_racks_fit"),
                    statprof_stranded_watts: num(f, "statprof_stranded_watts"),
                    statprof_projected_peak_watts: num(f, "statprof_projected_peak_watts"),
                    smoothoperator_racks_fit: num(f, "smoothoperator_racks_fit"),
                    smoothoperator_stranded_watts: num(f, "smoothoperator_stranded_watts"),
                    smoothoperator_projected_peak_watts: num(
                        f,
                        "smoothoperator_projected_peak_watts",
                    ),
                })
                .collect(),
            synth_ms: num(p, "synth_ms"),
            sweep_ms: num(p, "sweep_ms"),
            total_ms: num(p, "total_ms"),
            peak_rss_bytes: rss(p),
            checksum: num(p, "checksum"),
        })
        .collect();
    assert_reproduces(
        &raw,
        points,
        |p| &mut p.peak_rss_bytes,
        |points| {
            PlanReport {
                config: config.clone(),
                points,
            }
            .to_json()
        },
    );
}

#[test]
fn every_committed_point_carries_instances_and_checksum() {
    for artifact in ARTIFACTS {
        let (_, doc) = committed(artifact);
        let points = objects(&doc, "points");
        assert!(!points.is_empty(), "{artifact} has no points");
        for p in points {
            assert!(num::<usize>(p, "instances") > 0, "{artifact}");
            assert!(num::<f64>(p, "checksum").is_finite(), "{artifact}");
        }
    }
}

#[test]
fn committed_plan_keeps_the_llm_mix_headline() {
    // At δ = 0.05 on the LLM mix, SmoothOperator provisioning fits
    // strictly more racks than StatProf (1046 vs 209 when committed).
    let (_, doc) = committed("BENCH_plan.json");
    let llm = objects(&doc, "points")
        .iter()
        .find(|p| name(p, "workload") == "llm-mix")
        .expect("committed plan covers llm-mix");
    let fit = objects(llm, "fits")
        .iter()
        .find(|f| text(f, "delta") == "0.050")
        .expect("committed plan covers δ = 0.05");
    let statprof: usize = num(fit, "statprof_racks_fit");
    let smoothoperator: usize = num(fit, "smoothoperator_racks_fit");
    assert!(
        smoothoperator > statprof,
        "llm-mix δ=0.05: smoothoperator {smoothoperator} must beat statprof {statprof}"
    );
}
