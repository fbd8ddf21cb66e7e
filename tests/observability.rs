//! End-to-end contract of the live observability plane: the planted
//! breaker-budget anomaly path (exactly one fire, a postmortem flight
//! dump, and a flight ring that decodes to exactly the engine's events,
//! its only record of them), bit-identical
//! alert streams at any thread count, the HTTP scrape surface served
//! while a live session runs, the Prometheus/report renderers
//! carrying the online engine's labeled gauges, and the arrival search's
//! probe work counters.
//!
//! The lane budget ([`so_parallel::set_thread_limit`]) and the installed
//! telemetry sink ([`so_telemetry::install`]) belong to the calling
//! thread, so the harness may run these tests concurrently.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use smoothoperator::scale::{run_online_scale, OnlineScaleConfig};
use so_core::{EventRecord, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid};
use so_telemetry::{
    default_online_rules, render_report, FlightKind, LivePlane, MetricsServer, RecordingSink,
};

fn small_watch() -> OnlineScaleConfig {
    OnlineScaleConfig {
        instances: vec![480],
        batches: 6,
        samples_per_trace: 24,
        step_minutes: 60,
        seed: 7,
        sample_probes: 4,
        repair_budget: 2,
        plant_violation: true,
    }
}

fn watch_plane(sink: Arc<RecordingSink>) -> Arc<LivePlane> {
    Arc::new(LivePlane::new(sink, 256, default_online_rules()))
}

/// Runs one watched online point on a virtual-clock plane, returning its
/// deterministic counters, checksum bits and plane counts, and only the
/// deterministic lines (alert transitions and flight dumps — batch
/// heartbeats carry host-dependent RSS readings).
fn deterministic_lines(config: &OnlineScaleConfig) -> ([u64; 9], Vec<String>) {
    let plane = watch_plane(Arc::new(RecordingSink::with_virtual_clock()));
    let mut lines = Vec::new();
    let report = run_online_scale(config, Some(plane.clone()), |l| {
        if l.starts_with("{\"kind\":\"alert\"") || l.starts_with("{\"kind\":\"flight_dump\"") {
            lines.push(l.to_string());
        }
    })
    .unwrap();
    let p = &report.points[0];
    let outcome = [
        p.committed,
        p.rejected,
        p.retired,
        p.live_instances as u64,
        p.alerts_fired,
        p.alerts_resolved,
        p.checksum.to_bits(),
        plane.breaker_violations(),
        plane.dumps_total(),
    ];
    (outcome, lines)
}

#[test]
fn alert_stream_is_bit_identical_across_thread_counts() {
    let config = small_watch();
    let mut runs = Vec::new();
    for lanes in [1usize, 2, 8] {
        so_parallel::set_thread_limit(lanes);
        runs.push((lanes, deterministic_lines(&config)));
    }

    let (_, reference) = &runs[0];
    assert!(
        reference
            .1
            .iter()
            .any(|l| l.contains("\"state\":\"fired\"")),
        "the planted violation must surface at least one alert line"
    );
    for (lanes, run) in &runs {
        assert_eq!(
            run, reference,
            "alert stream changed between 1 and {lanes} thread lane(s)"
        );
    }
}

/// A 2-rack micro-fleet whose racks have free *slots* but no free
/// *power* once warmed: the canonical breaker-budget violation shape.
fn micro_fleet() -> OnlineFleet {
    let topology = so_powertree::PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(1)
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(2)
        .rack_capacity(2)
        .rack_budget_watts(400.0)
        .build()
        .unwrap();
    let budgets: Vec<f64> = topology
        .nodes()
        .iter()
        .map(|n| {
            if n.level() == so_powertree::Level::Rack {
                400.0
            } else {
                100_000.0
            }
        })
        .collect();
    OnlineFleet::new(
        topology,
        TimeGrid::new(60, 4),
        OnlineConfig {
            repair_budget: 0,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
    .with_budgets(budgets)
    .unwrap()
}

fn flat(watts: f64) -> PowerTrace {
    PowerTrace::new(vec![watts; 4], 60).unwrap()
}

#[test]
fn planted_violation_fires_once_and_the_flight_ring_decodes_to_the_engine_events() {
    let mut engine = micro_fleet();
    let plane = Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        64,
        default_online_rules(),
    ));
    engine.attach_plane(plane.clone());
    let breaker = default_online_rules()
        .iter()
        .position(|r| r.name == "breaker_budget_violation")
        .unwrap();

    // Warm both racks to 300 W of their 400 W budgets: a slot stays free
    // on each, so the 200 W probe below is rejected purely on power.
    for _ in 0..2 {
        assert!(engine.arrive(&flat(300.0)).unwrap().is_some());
    }
    assert!(engine.observe_batch(None).unwrap().is_empty());
    assert_eq!(plane.breaker_violations(), 0);

    // The planted breach: rejected, counted once, alerted once.
    assert!(engine.arrive(&flat(200.0)).unwrap().is_none());
    let transitions = engine.observe_batch(None).unwrap();
    assert_eq!(plane.breaker_violations(), 1);
    assert_eq!(
        transitions
            .iter()
            .filter(|t| t.fired && t.rule == breaker)
            .count(),
        1,
        "exactly one breaker-budget fire: {transitions:?}"
    );

    // The violation captured a postmortem dump...
    let dumps = plane.dumps();
    assert!(
        dumps.iter().any(|d| d.reason.contains("breaker-budget")),
        "dump reasons: {:?}",
        dumps.iter().map(|d| &d.reason).collect::<Vec<_>>()
    );

    // ...and the flight ring decodes to exactly what the engine did: two
    // commits and the rejection, bit for bit.
    let decoded: Vec<EventRecord> = plane
        .flight_records(0)
        .iter()
        .filter_map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c))
        .collect();
    let committed = |slot: usize| EventRecord::Committed {
        slot,
        ordinal: slot as u64,
        rack: engine.rack_of(slot).unwrap(),
    };
    assert_eq!(
        decoded,
        vec![
            committed(0),
            committed(1),
            EventRecord::Rejected { ordinal: 2 }
        ],
        "the flight ring diverged from the engine's events"
    );

    // Hysteresis: a clean batch resolves, and the alert does not re-fire
    // until a fresh excursion begins.
    let cleared = engine.observe_batch(None).unwrap();
    assert_eq!(
        cleared
            .iter()
            .filter(|t| !t.fired && t.rule == breaker)
            .count(),
        1
    );
    let (fired, resolved) = plane.alert_counts();
    assert!(fired >= 1 && resolved >= 1);
}

/// One raw HTTP/1.1 GET against the metrics server, returning the full
/// response (status line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    // One write_all for the whole request: the server answers as soon as
    // the request line is complete, so split writes can hit EPIPE.
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn http_surface_serves_all_four_endpoints_during_a_live_run() {
    // Install the sink on the engine's thread so its gauges land on
    // /metrics, exactly as `smoothop online --listen` wires it.
    let sink = Arc::new(RecordingSink::with_wall_clock());
    so_telemetry::install(sink.clone());
    let config = OnlineScaleConfig {
        plant_violation: false,
        ..small_watch()
    };
    let plane = watch_plane(sink);
    let server = MetricsServer::spawn("127.0.0.1:0", plane.clone()).unwrap();
    let addr = server.addr();

    // Scrape mid-run from inside the emit callback: the surface must be
    // live *while* the engine streams, not only after it finishes.
    let mut scraped_midrun = false;
    let report = run_online_scale(&config, Some(plane), |line| {
        if !scraped_midrun && line.starts_with("{\"kind\":\"batch\",\"batch\":2") {
            scraped_midrun = true;
            let metrics = http_get(addr, "/metrics");
            assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
            assert!(metrics.contains("so_online_live_instances"), "{metrics}");
        }
    })
    .unwrap();
    so_telemetry::uninstall();
    assert!(scraped_midrun, "mid-run scrape never happened");
    assert!(report.points[0].committed > 0);

    let health = http_get(addr, "/health");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"status\""), "{health}");

    let alerts = http_get(addr, "/alerts");
    assert!(alerts.starts_with("HTTP/1.1 200"), "{alerts}");
    assert!(alerts.contains("\"fired_total\""), "{alerts}");

    let flight = http_get(addr, "/flight?n=3");
    assert!(flight.starts_with("HTTP/1.1 200"), "{flight}");
    assert!(flight.contains("\"seq\""), "{flight}");

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    server.shutdown();
}

#[test]
fn online_gauges_reach_the_prometheus_exporter_and_the_report_renderer() {
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    so_telemetry::install(sink.clone());
    let mut engine = micro_fleet();
    // A fragmentation reference turns on the per-level labeled gauges,
    // set once per batch by `observe_batch`. At 350 W it fits only an
    // empty rack, so the occupied rack's headroom is stranded.
    let reference = flat(350.0);
    let slot = engine.arrive(&flat(100.0)).unwrap().unwrap();
    engine.arrive(&flat(100.0)).unwrap();
    engine.retire(slot).unwrap();
    engine.observe_batch(Some(&reference)).unwrap();
    so_telemetry::uninstall();

    // Every level's gauges carry exactly what `fragmentation` computes
    // on the same engine.
    let registry = sink.snapshot();
    let levels = engine.fragmentation(&reference).unwrap();
    assert!(levels.iter().any(|level| level.stranded_watts > 0.0));
    for level in &levels {
        let labels = [("level", level.level.short_name())];
        assert_eq!(
            registry.gauge("so_online_stranded_watts", &labels),
            Some(level.stranded_watts),
            "{labels:?}"
        );
        assert_eq!(
            registry.gauge("so_online_fragmentation_ratio", &labels),
            Some(level.ratio),
            "{labels:?}"
        );
    }

    let prometheus = sink.prometheus();
    for needle in [
        "so_online_live_instances",
        "so_online_arrivals_total",
        "so_online_retirements_total",
        "so_online_stranded_watts{level=\"RACK\"}",
        "so_online_fragmentation_ratio{level=\"RACK\"}",
    ] {
        assert!(
            prometheus.contains(needle),
            "missing {needle}:\n{prometheus}"
        );
    }
    // Labeled gauges exist for every tree level, not just racks.
    for level in ["DC", "SUITE", "MSB", "SB", "RPP", "RACK"] {
        assert!(
            prometheus.contains(&format!("so_online_stranded_watts{{level=\"{level}\"}}")),
            "missing stranded-watts gauge for level {level}:\n{prometheus}"
        );
    }

    let report = render_report(&sink.snapshot());
    for needle in [
        "so_online_live_instances",
        "so_online_stranded_watts",
        "level=\"RACK\"",
    ] {
        assert!(
            report.contains(needle),
            "missing {needle} in report:\n{report}"
        );
    }
}

/// The arrival search's work counters: every probe an arrival offers is
/// either evaluated by an exact O(T) pass or pruned, and the split is a
/// function of the event stream alone, so it reads the same at any lane
/// count.
#[test]
fn probe_work_counters_split_every_probe_at_any_lane_count() {
    let run = |lanes: usize| {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        so_telemetry::with_sink(sink.clone(), || {
            so_parallel::set_thread_limit(lanes);
            let mut engine = micro_fleet();
            for watts in [100.0, 100.0, 300.0, 350.0, 50.0] {
                engine.arrive(&flat(watts)).unwrap();
            }
        });
        sink
    };
    let one = run(1);
    assert_eq!(one.prometheus(), run(8).prometheus());
    let registry = one.snapshot();
    let passes = registry.counter("so_online_probe_passes_total", &[]);
    let pruned = registry.counter("so_online_probes_pruned_total", &[]);
    // `micro_fleet` probes both of its racks on each of the 5 arrivals.
    assert_eq!(passes + pruned, 2 * 5);
    assert!(passes > 0 && pruned > 0, "passes {passes}, pruned {pruned}");
    let prometheus = one.prometheus();
    for needle in [
        "so_online_probe_passes_total ",
        "so_online_probes_pruned_total ",
    ] {
        assert!(
            prometheus.contains(needle),
            "missing {needle}:\n{prometheus}"
        );
    }
}

/// `so_online_arena_rows` counts arena rows, live or free. Each commit
/// after a retirement reuses the freed row, so churn leaves the gauge at
/// the peak live count while slot ids keep counting.
#[test]
fn arena_rows_gauge_holds_at_the_peak_live_count_under_churn() {
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let engine = so_telemetry::with_sink(sink.clone(), || {
        let mut engine = micro_fleet();
        let mut slot = engine.arrive(&flat(100.0)).unwrap().unwrap();
        engine.arrive(&flat(100.0)).unwrap().unwrap();
        for _ in 0..5 {
            engine.retire(slot).unwrap();
            slot = engine.arrive(&flat(100.0)).unwrap().unwrap();
        }
        engine
    });
    assert_eq!((engine.slot_count(), engine.arena_rows()), (7, 2));
    assert_eq!(
        sink.snapshot().gauge("so_online_arena_rows", &[]),
        Some(2.0)
    );
    let prometheus = sink.prometheus();
    assert!(
        prometheus.contains("\nso_online_arena_rows 2\n"),
        "{prometheus}"
    );
}

#[test]
fn flight_ring_wraps_without_losing_the_newest_records() {
    let mut engine = micro_fleet();
    let plane = Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        8, // deliberately tiny: the churn below wraps it several times
        default_online_rules(),
    ));
    engine.attach_plane(plane.clone());
    let mut last = None;
    for _ in 0..12 {
        let slot = engine.arrive(&flat(100.0)).unwrap().unwrap();
        let rack = engine.rack_of(slot).unwrap();
        engine.retire(slot).unwrap();
        last = Some(EventRecord::Retired { slot, rack });
    }
    let (held, total, dropped) = plane.flight_counts();
    assert_eq!(held, 8);
    assert_eq!(total, 24);
    assert_eq!(dropped, 16);
    // The newest record wins: the last decoded event is the last
    // retirement even after multiple wraps.
    let newest = plane
        .flight_records(0)
        .iter()
        .rev()
        .find_map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c));
    assert_eq!(newest, last);
    assert!(plane
        .flight_records(0)
        .iter()
        .all(|r| r.kind != FlightKind::AlertFired));
}
