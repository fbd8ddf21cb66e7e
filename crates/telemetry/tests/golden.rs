//! Golden tests for the two exporters.
//!
//! Both run a fixed scenario under the deterministic virtual clock (every
//! clock reading ticks exactly once) and assert the *entire* exported
//! text, byte for byte. Any change to the JSONL or Prometheus formats —
//! field order, float rendering, bucket bounds, `# TYPE` placement — must
//! update these strings consciously.

use std::sync::Arc;

use so_telemetry::{
    counter_add, gauge_set, observe, span, with_sink, MetricsRegistry, RecordingSink,
};

#[test]
fn jsonl_export_is_bit_stable() {
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    with_sink(sink.clone(), || {
        // Clock reads: span start (0), span-start emit (1).
        let _outer = span("place");
        {
            // Clock reads: start (2), emit (3); on drop: now (4), emit (5).
            let _inner = span("embed");
        }
        // Outer drop: now (6) → duration 6, emit (7).
    });

    let expected = concat!(
        "{\"ts_ms\":1,\"kind\":\"span_start\",\"path\":\"place\"}\n",
        "{\"ts_ms\":3,\"kind\":\"span_start\",\"path\":\"place/embed\"}\n",
        "{\"ts_ms\":5,\"kind\":\"span_end\",\"path\":\"place/embed\",\"duration_ms\":2}\n",
        "{\"ts_ms\":7,\"kind\":\"span_end\",\"path\":\"place\",\"duration_ms\":6}\n",
    );
    assert_eq!(sink.jsonl(), expected);
}

#[test]
fn prometheus_export_is_bit_stable() {
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    with_sink(sink.clone(), || {
        counter_add("so_kmeans_runs_total", &[], 2);
        counter_add("so_placement_runs_total", &[], 1);
        gauge_set(
            "so_placement_mean_asynchrony_score",
            &[("level", "RPP")],
            2.0,
        );
        gauge_set(
            "so_placement_mean_asynchrony_score",
            &[("level", "RACK")],
            1.5,
        );
        observe("so_sim_step_power_watts", &[], 0.5);
        observe("so_sim_step_power_watts", &[], 120.0);
    });

    let expected = concat!(
        "# TYPE so_kmeans_runs_total counter\n",
        "so_kmeans_runs_total 2\n",
        "# TYPE so_placement_runs_total counter\n",
        "so_placement_runs_total 1\n",
        "# TYPE so_placement_mean_asynchrony_score gauge\n",
        "so_placement_mean_asynchrony_score{level=\"RACK\"} 1.5\n",
        "so_placement_mean_asynchrony_score{level=\"RPP\"} 2\n",
        "# TYPE so_sim_step_power_watts histogram\n",
        "so_sim_step_power_watts_bucket{le=\"0.000001\"} 0\n",
        "so_sim_step_power_watts_bucket{le=\"0.00001\"} 0\n",
        "so_sim_step_power_watts_bucket{le=\"0.0001\"} 0\n",
        "so_sim_step_power_watts_bucket{le=\"0.001\"} 0\n",
        "so_sim_step_power_watts_bucket{le=\"0.01\"} 0\n",
        "so_sim_step_power_watts_bucket{le=\"0.1\"} 0\n",
        "so_sim_step_power_watts_bucket{le=\"1\"} 1\n",
        "so_sim_step_power_watts_bucket{le=\"10\"} 1\n",
        "so_sim_step_power_watts_bucket{le=\"100\"} 1\n",
        "so_sim_step_power_watts_bucket{le=\"1000\"} 2\n",
        "so_sim_step_power_watts_bucket{le=\"10000\"} 2\n",
        "so_sim_step_power_watts_bucket{le=\"100000\"} 2\n",
        "so_sim_step_power_watts_bucket{le=\"1000000\"} 2\n",
        "so_sim_step_power_watts_bucket{le=\"+Inf\"} 2\n",
        "so_sim_step_power_watts_sum 120.5\n",
        "so_sim_step_power_watts_count 2\n",
    );
    assert_eq!(sink.prometheus(), expected);
}

#[test]
fn virtual_clock_runs_are_reproducible() {
    // The same scenario twice produces the same bytes — the property the
    // two goldens above rely on.
    let run = || {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(sink.clone(), || {
            let _s = span("root");
            counter_add("so_repeat_total", &[], 1);
            observe("so_repeat_hist", &[], 42.0);
        });
        (sink.jsonl(), sink.prometheus())
    };
    assert_eq!(run(), run());
}

#[test]
fn empty_registry_exports_empty_text() {
    assert_eq!(
        so_telemetry::render_report(&MetricsRegistry::new()),
        "telemetry run report: no metrics recorded\n"
    );
}
