//! End-to-end contract of the live observability plane: the planted
//! breaker-budget anomaly path (exactly one fire, a postmortem flight
//! dump that bit-matches the engine journal's suffix), bit-identical
//! alert streams at any thread count, the HTTP scrape surface served
//! while a live session runs, and the Prometheus/report renderers
//! carrying the online engine's labeled gauges.
//!
//! The lane budget ([`so_parallel::set_thread_limit`]) and the installed
//! telemetry sink ([`so_telemetry::install`]) belong to the calling
//! thread, so the harness may run these tests concurrently.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use smoothoperator::scale::{run_online_scale, OnlineScaleConfig};
use so_core::{CommitPolicy, EventRecord, OnlineConfig, OnlineFleet};
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
            policy: CommitPolicy::WorstFit,
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
fn planted_violation_fires_once_and_flight_dump_bit_matches_journal_suffix() {
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
    assert!(engine.observe_batch().unwrap().is_empty());
    assert_eq!(plane.breaker_violations(), 0);

    // The planted breach: rejected, counted once, alerted once.
    assert!(engine.arrive(&flat(200.0)).unwrap().is_none());
    let transitions = engine.observe_batch().unwrap();
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

    // ...and the flight ring's journal events bit-match the journal tail.
    let decoded: Vec<EventRecord> = plane
        .flight_records(0)
        .iter()
        .filter(|r| r.kind.is_journal_event())
        .filter_map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c))
        .collect();
    let journal = engine.journal();
    let k = decoded.len().min(journal.len());
    assert!(k > 0, "flight ring mirrored no journal events");
    assert_eq!(
        &decoded[decoded.len() - k..],
        &journal[journal.len() - k..],
        "flight suffix diverged from the engine journal"
    );

    // Hysteresis: a clean batch resolves, and the alert does not re-fire
    // until a fresh excursion begins.
    let cleared = engine.observe_batch().unwrap();
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
    // set once per batch by `observe_batch`.
    engine
        .set_fragmentation_reference(Some(&flat(50.0)))
        .unwrap();
    let slot = engine.arrive(&flat(100.0)).unwrap().unwrap();
    engine.arrive(&flat(100.0)).unwrap();
    engine.retire(slot).unwrap();
    engine.observe_batch().unwrap();
    so_telemetry::uninstall();

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

#[test]
fn flight_ring_wraps_without_losing_the_newest_records() {
    let mut engine = micro_fleet();
    let plane = Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        8, // deliberately tiny: the churn below wraps it several times
        default_online_rules(),
    ));
    engine.attach_plane(plane.clone());
    for _ in 0..12 {
        let slot = engine.arrive(&flat(100.0)).unwrap().unwrap();
        engine.retire(slot).unwrap();
    }
    let (held, total, dropped) = plane.flight_counts();
    assert_eq!(held, 8);
    assert_eq!(total, 24);
    assert_eq!(dropped, 16);
    // The newest record wins: the last decoded journal event equals the
    // journal's last entry even after multiple wraps.
    let newest = plane
        .flight_records(0)
        .iter()
        .rev()
        .find(|r| r.kind.is_journal_event())
        .map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c).unwrap());
    assert_eq!(newest.as_ref(), engine.journal().last());
    assert!(plane
        .flight_records(0)
        .iter()
        .all(|r| r.kind != FlightKind::AlertFired));
}
