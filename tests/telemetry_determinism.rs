//! Cross-crate telemetry guarantees:
//!
//! * recording metrics never changes results — a run under a
//!   `RecordingSink` produces the same placement/remap/simulation outputs
//!   as a bare run (with no sink installed, each call site is one
//!   thread-local check);
//! * metric snapshots are thread-count independent — the same work under
//!   1 lane, 8 lanes, and a serial scope yields byte-identical exports;
//! * the instrumented pipeline actually records what it claims.

use std::sync::Arc;

use smoothoperator::prelude::*;
use so_parallel::{serial_scope, set_thread_limit};
use so_telemetry::RecordingSink;

fn topology() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(8)
        .build()
        .expect("shape is valid")
}

/// One full placement + drift + remap pass; returns the final assignment.
fn pipeline() -> (PowerTopology, so_powertree::Assignment) {
    let fleet = DcScenario::dc3().generate_fleet(96).expect("fleet");
    let topo = topology();
    let mut assignment = oblivious_placement(&fleet, &topo, 0.0, 0xB4_5E).expect("fits");
    let monitor =
        so_core::DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05)
            .expect("baseline");
    monitor
        .observe(&topo, &assignment, fleet.test_traces())
        .expect("observe");
    so_core::remap(
        &fleet,
        &topo,
        &mut assignment,
        so_core::RemapConfig::default(),
    )
    .expect("remap");
    (topo, assignment)
}

#[test]
fn recording_sink_does_not_change_results() {
    let bare = pipeline().1;
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let recorded = so_telemetry::with_sink(sink.clone(), || pipeline().1);
    assert_eq!(bare, recorded, "instrumentation must be observation-only");
    assert!(
        !sink.snapshot().is_empty(),
        "the recorded run must actually have recorded something"
    );
}

#[test]
fn snapshots_are_identical_across_thread_counts() {
    let run = |lanes: Option<usize>| {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        so_telemetry::with_sink(sink.clone(), || match lanes {
            Some(n) => {
                set_thread_limit(n);
                pipeline();
            }
            None => {
                serial_scope(|| {
                    pipeline();
                });
            }
        });
        (sink.prometheus(), sink.jsonl())
    };

    let serial = run(None);
    let one = run(Some(1));
    let eight = run(Some(8));
    assert_eq!(serial.0, one.0, "serial vs 1-lane Prometheus snapshot");
    assert_eq!(one.0, eight.0, "1-lane vs 8-lane Prometheus snapshot");
    assert_eq!(serial.1, one.1, "serial vs 1-lane event log");
    assert_eq!(one.1, eight.1, "1-lane vs 8-lane event log");
}

#[test]
fn pipeline_records_the_advertised_metrics() {
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    so_telemetry::with_sink(sink.clone(), || {
        let fleet = DcScenario::dc1().generate_fleet(64).expect("fleet");
        let topo = topology();
        SmoothPlacer::default().place(&fleet, &topo).expect("place");
    });
    let snap = sink.snapshot();
    assert_eq!(snap.counter("so_placement_runs_total", &[]), 1);
    assert_eq!(snap.counter("so_placement_instances_total", &[]), 64);
    assert!(snap.counter("so_kmeans_runs_total", &[]) > 0);
    assert!(snap.counter("so_embedding_rows_total", &[]) > 0);
    for level in ["RACK", "RPP", "SB", "MSB", "SUITE", "DC"] {
        assert!(
            snap.gauge("so_placement_mean_asynchrony_score", &[("level", level)])
                .is_some(),
            "missing per-level gauge for {level}"
        );
    }
    // The span produced a start/end pair around the whole placement.
    let events = sink.events();
    assert!(events.iter().any(|e| e.path == "place"));
}

#[test]
fn sim_run_records_per_step_metrics() {
    use so_sim::{default_config, one_week_grid, simulate, StaticPolicy};
    use so_workloads::OfferedLoad;

    let load = OfferedLoad::diurnal(one_week_grid(60), 1_000.0, 0.0, 1);
    let config = default_config(10, 5, 2, 1, 10_000.0);

    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let telemetry = so_telemetry::with_sink(sink.clone(), || {
        let mut policy = StaticPolicy { as_lc: true };
        simulate(&config, &load, &mut policy).expect("simulate")
    });
    let snap = sink.snapshot();
    assert_eq!(snap.counter("so_sim_runs_total", &[]), 1);
    assert_eq!(
        snap.counter("so_sim_steps_total", &[]),
        telemetry.len() as u64
    );
    let hist = snap
        .histogram("so_sim_step_power_watts", &[])
        .expect("per-step power histogram");
    assert_eq!(hist.count(), telemetry.len() as u64);

    // The run's own metric snapshot agrees with the public accessors.
    let metrics = telemetry.metrics();
    assert_eq!(
        metrics.gauge("so_sim_peak_power_watts", &[]),
        Some(telemetry.peak_power())
    );
    assert_eq!(
        metrics.counter("so_sim_degraded_steps_total", &[]) as usize,
        telemetry.degraded_steps()
    );
}
