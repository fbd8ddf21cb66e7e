//! Machine-readable benchmark artifacts: `BENCH_placement.json` and
//! `BENCH_sim.json`, written to the working directory.
//!
//! Each file carries one timed end-to-end run (wall time from `Instant`)
//! together with the metric snapshot the run recorded into a
//! virtual-clock `RecordingSink` — the counters and gauges are therefore
//! bit-identical across machines and thread counts, while `wall_ms` is
//! the only machine-dependent field. CI uploads both files as workflow
//! artifacts so perf trends stay inspectable per commit.

use std::sync::Arc;
use std::time::Instant;

use so_bench::banner;
use so_core::SmoothPlacer;
use so_sim::{default_config, one_week_grid, simulate, StaticPolicy};
use so_telemetry::export::{BenchJson, BenchObject};
use so_telemetry::{MetricsRegistry, RecordingSink};
use so_workloads::{DcScenario, OfferedLoad};

fn main() {
    banner(
        "BENCH artifacts — machine-readable placement & sim benchmarks",
        "Writes BENCH_placement.json and BENCH_sim.json to the working directory.",
    );
    write_artifact("BENCH_placement.json", bench_placement());
    write_artifact("BENCH_sim.json", bench_sim());
}

fn write_artifact(path: &str, json: String) {
    std::fs::write(path, &json).expect("benchmark artifact is writable");
    println!("wrote {path} ({} bytes)", json.len());
}

/// One full DC2 placement, instrumented.
fn bench_placement() -> String {
    let fleet = DcScenario::dc2().generate_fleet(192).expect("fleet");
    let topo = so_reshape::fitting_topology(192, 12).expect("topology");

    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let start = Instant::now();
    let assignment = so_telemetry::with_sink(sink.clone(), || {
        SmoothPlacer::default().place(&fleet, &topo).expect("place")
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    render_json(
        "placement",
        &[("instances", assignment.len() as f64)],
        wall_ms,
        &sink.snapshot(),
    )
}

/// One simulated week of runtime reshaping, instrumented.
fn bench_sim() -> String {
    let load = OfferedLoad::diurnal(one_week_grid(60), 10_000.0, 0.0, 1);
    let config = default_config(96, 96, 19, 9, 120_000.0);

    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let start = Instant::now();
    let telemetry = so_telemetry::with_sink(sink.clone(), || {
        let mut policy = StaticPolicy { as_lc: true };
        simulate(&config, &load, &mut policy).expect("simulate")
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    render_json(
        "sim",
        &[("steps", telemetry.len() as f64)],
        wall_ms,
        &sink.snapshot(),
    )
}

/// The shared BENCH layout: metric keys flatten labels as
/// `name[k=v,...]`; only finite numbers are emitted.
fn render_json(
    name: &str,
    extra: &[(&str, f64)],
    wall_ms: f64,
    snapshot: &MetricsRegistry,
) -> String {
    let mut doc = BenchObject::default()
        .string("benchmark", name)
        .fixed("wall_ms", wall_ms, 3);
    for (key, value) in extra {
        doc = doc.raw(&key.to_string(), value);
    }
    let mut metrics = BenchObject::default();
    for (key, value) in snapshot.counters() {
        metrics = metrics.raw(&flat_key(key), value);
    }
    for (key, value) in snapshot.gauges().filter(|(_, v)| v.is_finite()) {
        metrics = metrics.raw(&flat_key(key), value);
    }
    for (key, hist) in snapshot.histograms() {
        let key = flat_key(key);
        metrics = metrics.raw(&format!("{key}_count"), hist.count());
        metrics = metrics.fixed(&format!("{key}_sum"), hist.sum(), 6);
    }
    doc.field("metrics", BenchJson::Object(metrics)).render()
}

fn flat_key(key: &so_telemetry::MetricKey) -> String {
    if key.labels().is_empty() {
        return key.name().to_string();
    }
    let labels: Vec<String> = key
        .labels()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("{}[{}]", key.name(), labels.join(","))
}
