//! End-to-end contract of `smoothopd`, the resident placement daemon:
//! one in-process serve session driven entirely over its HTTP surface —
//! streaming ingest into the ring-buffer windows, live queries, churn,
//! repair, the scrape endpoints, the protocol rejections (400 malformed
//! flight count, 414 oversized request line), and a clean shutdown —
//! plus the headline guarantee that samples streamed over HTTP land
//! bit-identically to the same batch applied to an offline
//! [`DaemonFleet`].
//!
//! Floats cross the wire as Rust `Display` renderings, which are
//! round-trip exact, so comparing response bodies as strings *is* a
//! bit-identity check.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smoothoperator::serve::{build_daemon, route_daemon, run_serve, ServeConfig, ServeOutcome};
use so_core::daemon::SampleUpdate;
use so_core::EventRecord;
use so_telemetry::{default_online_rules, HttpRequest, LivePlane, RecordingSink};

fn test_plane() -> Arc<LivePlane> {
    Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        128,
        default_online_rules(),
    ))
}

fn config() -> ServeConfig {
    ServeConfig {
        instances: 36,
        samples_per_trace: 24,
        step_minutes: 60,
        seed: 13,
        sample_probes: 8,
        repair_budget: 4,
        repair_interval_ms: 0,
        ttl_ms: Some(60_000),
        ..ServeConfig::default()
    }
}

/// Starts an in-process serve session on an ephemeral port, with the
/// plane's sink installed on the serving thread as `smoothop serve` does;
/// returns the bound address and the session's join handle.
fn spawn_serve(config: ServeConfig) -> (String, std::thread::JoinHandle<ServeOutcome>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let plane = test_plane();
        so_telemetry::with_sink(plane.sink().clone(), || {
            run_serve(&config, plane, |line| {
                let addr = line
                    .split("\"addr\":\"http://")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .expect("announce line carries the bound address")
                    .to_string();
                tx.send(addr).unwrap();
            })
            .unwrap()
        })
    });
    let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    (addr, handle)
}

/// One request/response exchange; returns (status line + headers, body).
fn request(addr: &str, head: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let message = if body.is_empty() {
        format!("{head}\r\nHost: x\r\n\r\n")
    } else {
        format!(
            "{head}\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    stream.write_all(message.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (h, b) = response.split_once("\r\n\r\n").unwrap();
    (h.to_string(), b.to_string())
}

fn status(head: &str) -> u16 {
    head.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Deterministic sample stream: `rounds` full sweeps over `slots` live
/// slots, as (line-protocol body, parsed updates).
fn sample_stream(slots: usize, rounds: u64, salt: u64) -> (String, Vec<SampleUpdate>) {
    let mut body = String::new();
    let mut updates = Vec::new();
    for round in 0..rounds {
        for slot in 0..slots {
            // Deterministic pseudo-draw with a fractional part, so the
            // wire rendering exercises non-integer floats.
            let raw = (salt
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round * slots as u64 + slot as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9))
                >> 40;
            let watts = (raw % 4_000) as f64 / 16.0;
            let _ = writeln!(body, "{slot} {watts}");
            updates.push(SampleUpdate { slot, watts });
        }
    }
    (body, updates)
}

#[test]
fn daemon_session_end_to_end_over_http() {
    let (addr, handle) = spawn_serve(config());

    // --- Scrape surface -------------------------------------------------
    let (head, body) = request(&addr, "GET /health HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(body.contains("\"status\""), "{body}");

    // (The body may be empty: this session's plane rides a private
    // recording sink, so no engine gauges have landed on it.)
    let (head, _) = request(&addr, "GET /metrics HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    let (head, _) = request(&addr, "GET /alerts HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");

    // /flight?n= contract: explicit zero is empty, malformed is 400.
    let (head, body) = request(&addr, "GET /flight?n=0 HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(body.is_empty(), "n=0 must return zero records: {body:?}");
    let (head, _) = request(&addr, "GET /flight?n=bogus HTTP/1.1", "");
    assert_eq!(status(&head), 400, "{head}");

    // Oversized request line: 414, not a mangled route.
    let long_target = format!("GET /flight?n={} HTTP/1.1", "9".repeat(4_000));
    let (head, _) = request(&addr, &long_target, "");
    assert_eq!(status(&head), 414, "{head}");

    // --- Ingest + queries ----------------------------------------------
    let (body, _) = sample_stream(36, 2, 77);
    let (head, reply) = request(&addr, "POST /ingest HTTP/1.1", &body);
    assert_eq!(status(&head), 200, "{head}: {reply}");
    assert!(
        reply.contains(&format!("\"applied\":{}", 36 * 2)),
        "{reply}"
    );
    assert!(reply.contains("\"dropped\":0"), "{reply}");

    let (head, fleet) = request(&addr, "GET /fleet HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(fleet.contains("\"live_instances\":36"), "{fleet}");
    assert!(
        fleet.contains(&format!("\"samples_ingested\":{}", 36 * 2)),
        "{fleet}"
    );

    let (head, headroom) = request(&addr, "GET /headroom HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(
        headroom.contains("\"min_rack_headroom_watts\":"),
        "{headroom}"
    );
    assert!(headroom.contains("\"root_headroom_watts\":"), "{headroom}");

    let (head, _) = request(&addr, "GET /headroom?node=0 HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    let (head, _) = request(&addr, "GET /headroom?node=nope HTTP/1.1", "");
    assert_eq!(status(&head), 400, "{head}");
    let (head, _) = request(&addr, "GET /headroom?node=99999 HTTP/1.1", "");
    assert_eq!(status(&head), 404, "{head}");

    let (head, asy) = request(&addr, "GET /asynchrony HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(asy.contains("\"mean_rack_asynchrony\":"), "{asy}");

    let (head, admit) = request(&addr, "GET /admit?watts=10 HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(admit.contains("\"admits\":"), "{admit}");
    let (head, _) = request(&addr, "GET /admit HTTP/1.1", "");
    assert_eq!(status(&head), 400, "{head}");
    let (head, _) = request(&addr, "GET /admit?watts=NaN HTTP/1.1", "");
    assert_eq!(status(&head), 400, "{head}");

    // --- Churn over the wire --------------------------------------------
    let candidate: Vec<String> = (0..24).map(|i| format!("{}.5", 40 + i)).collect();
    let (head, arrived) = request(&addr, "POST /arrive HTTP/1.1", &candidate.join(","));
    assert_eq!(status(&head), 200, "{head}: {arrived}");
    assert!(arrived.contains("\"committed\":[36]"), "{arrived}");

    let (head, _) = request(&addr, "POST /retire?slot=36 HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    let (head, _) = request(&addr, "POST /retire?slot=36 HTTP/1.1", "");
    assert_eq!(status(&head), 409, "double retire must conflict: {head}");

    let (head, repair) = request(&addr, "POST /repair HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(repair.contains("\"swaps\":"), "{repair}");

    // Malformed ingest rejects atomically: counters unchanged after.
    let (head, _) = request(&addr, "POST /ingest HTTP/1.1", "0 1.0\nnot a sample\n");
    assert_eq!(status(&head), 400, "{head}");
    let (_, fleet_after) = request(&addr, "GET /fleet HTTP/1.1", "");
    assert!(
        fleet_after.contains(&format!("\"samples_ingested\":{}", 36 * 2)),
        "rejected batch must not advance the ingest counter: {fleet_after}"
    );

    // Method and route misses.
    let (head, _) = request(&addr, "DELETE /fleet HTTP/1.1", "");
    assert_eq!(status(&head), 405, "{head}");
    let (head, _) = request(&addr, "GET /no-such-route HTTP/1.1", "");
    assert_eq!(status(&head), 404, "{head}");

    // --- Shutdown --------------------------------------------------------
    let (head, body) = request(&addr, "POST /shutdown HTTP/1.1", "");
    assert_eq!(status(&head), 200, "{head}");
    assert!(body.contains("stopping"), "{body}");

    let outcome = handle.join().unwrap();
    assert_eq!(
        outcome.live_instances, 36,
        "36 seeded + 1 arrived - 1 retired"
    );
    assert_eq!(outcome.committed, 37);
    assert_eq!(outcome.retired, 1);
    assert_eq!(outcome.samples_ingested, 36 * 2);
}

#[test]
fn http_ingest_is_bit_identical_to_offline_daemon() {
    let config = config();

    // Offline reference: the identical stream applied directly.
    let mut offline = build_daemon(&config, test_plane()).unwrap();
    let (body, updates) = sample_stream(36, 3, 991);
    offline.ingest_batch(&updates).unwrap();

    let (addr, handle) = spawn_serve(config);
    let (head, _) = request(&addr, "POST /ingest HTTP/1.1", &body);
    assert_eq!(status(&head), 200, "{head}");

    // Compare every per-rack score and the fleet-wide aggregates through
    // their exact wire renderings.
    let (_, online_asy) = request(&addr, "GET /asynchrony HTTP/1.1", "");
    let want_mean = offline
        .mean_rack_asynchrony()
        .map_or("null".to_string(), |v| format!("{v}"));
    assert!(
        online_asy.contains(&format!("\"mean_rack_asynchrony\":{want_mean}")),
        "mean diverged: {online_asy} vs {want_mean}"
    );
    for &rack in offline.fleet().topology().racks() {
        let Ok(want) = offline.rack_asynchrony(rack) else {
            continue;
        };
        let (head, got) = request(
            &addr,
            &format!("GET /asynchrony?rack={} HTTP/1.1", rack.index()),
            "",
        );
        assert_eq!(status(&head), 200, "{head}");
        assert_eq!(
            got,
            format!("{{\"rack\":{},\"asynchrony\":{want}}}\n", rack.index()),
            "rack {rack} asynchrony diverged between HTTP ingest and offline batch"
        );
    }
    for node in 0..offline.fleet().topology().len() {
        let want = offline
            .fleet()
            .headroom(so_powertree::NodeId::new(node))
            .unwrap();
        let (_, got) = request(&addr, &format!("GET /headroom?node={node} HTTP/1.1"), "");
        assert_eq!(
            got,
            format!("{{\"node\":{node},\"headroom_watts\":{want}}}\n"),
            "node #{node} headroom diverged between HTTP ingest and offline batch"
        );
    }

    let _ = request(&addr, "POST /shutdown HTTP/1.1", "");
    handle.join().unwrap();
}

#[test]
fn ingest_split_across_many_requests_matches_one_offline_batch() {
    // Chunking the stream into per-round HTTP posts (interleaved with
    // queries) must land on the same bits as one big offline batch —
    // ring-buffer writes commute with reads and compose across batches.
    let config = config();
    let mut offline = build_daemon(&config, test_plane()).unwrap();
    let (_, updates) = sample_stream(36, 4, 515);
    offline.ingest_batch(&updates).unwrap();
    let want = offline
        .mean_rack_asynchrony()
        .map_or("null".to_string(), |v| format!("{v}"));

    let (addr, handle) = spawn_serve(config);
    for round in updates.chunks(36) {
        let mut body = String::new();
        for u in round {
            // Alternate the two wire protocols; they must be equivalent.
            if u.slot % 2 == 0 {
                let _ = writeln!(body, "{} {}", u.slot, u.watts);
            } else {
                let _ = writeln!(body, "{{\"slot\":{},\"watts\":{}}}", u.slot, u.watts);
            }
        }
        let (head, _) = request(&addr, "POST /ingest HTTP/1.1", &body);
        assert_eq!(status(&head), 200, "{head}");
        let (head, _) = request(&addr, "GET /asynchrony HTTP/1.1", "");
        assert_eq!(status(&head), 200, "{head}");
    }
    let (_, got) = request(&addr, "GET /asynchrony HTTP/1.1", "");
    assert!(
        got.contains(&format!("\"mean_rack_asynchrony\":{want}")),
        "chunked HTTP ingest diverged from one offline batch: {got} vs {want}"
    );
    let _ = request(&addr, "POST /shutdown HTTP/1.1", "");
    handle.join().unwrap();
}

#[test]
fn service_and_repair_threads_report_into_the_serving_threads_sink() {
    let config = ServeConfig {
        repair_interval_ms: 20,
        ..config()
    };
    let (body, _) = sample_stream(config.instances, 1, 5);
    let (addr, handle) = spawn_serve(config);

    let (head, _) = request(&addr, "POST /ingest HTTP/1.1", &body);
    assert_eq!(status(&head), 200, "{head}");
    // The ingest histogram comes from the HTTP thread; poll until the
    // repair thread has finished a pass too.
    let deadline = Instant::now() + Duration::from_secs(30);
    let metrics = loop {
        let (_, metrics) = request(&addr, "GET /metrics HTTP/1.1", "");
        if metrics.contains("so_daemon_repair_passes_total") || Instant::now() > deadline {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    for series in [
        "so_daemon_ingest_batch_us_count",
        "so_daemon_repair_passes_total",
    ] {
        assert!(metrics.contains(series), "missing {series}:\n{metrics}");
    }

    let _ = request(&addr, "POST /shutdown HTTP/1.1", "");
    assert!(handle.join().unwrap().repair_passes > 0);
}

/// The flight ring is the engine's only event record: churn far past the
/// seed count writes no snapshot of the fleet into it, so a small ring
/// keeps exactly the newest events, and `/health` counts each of them once.
#[test]
fn flight_ring_keeps_the_newest_events_through_churn() {
    const PAIRS: usize = 40;
    const RING: usize = 64;
    let config = ServeConfig {
        instances: 24,
        samples_per_trace: 16,
        seed: 11,
        ..ServeConfig::default()
    };
    let plane = Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        RING,
        default_online_rules(),
    ));
    let state = Mutex::new(build_daemon(&config, Arc::clone(&plane)).unwrap());
    let policy = state.lock().unwrap().fleet().config().policy;
    let stop = AtomicBool::new(false);
    let call = |method: &str, target: &str, body: String| {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let req = HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            body,
        };
        let resp = route_daemon(&state, &plane, &stop, &policy, &req);
        assert_eq!(resp.status, 200, "{method} {target}: {}", resp.body);
        resp.body
    };

    // Each pair retires the oldest live instance and offers a new one;
    // the expected record of each event is read off the engine around it.
    let mut events = Vec::with_capacity(2 * PAIRS);
    for pair in 0..PAIRS {
        let (slot, rack, issued, ordinal) = {
            let fleet = state.lock().unwrap();
            let fleet = fleet.fleet();
            let slot = fleet.live_slots()[0];
            let rack = fleet.rack_of(slot).unwrap();
            (slot, rack, fleet.slot_count(), fleet.arrivals_seen())
        };
        call("POST", &format!("/retire?slot={slot}"), String::new());
        events.push(EventRecord::Retired { slot, rack });
        let watts = format!("{}", 100 + pair);
        call("POST", "/arrive", vec![watts.as_str(); 16].join(","));
        let daemon = state.lock().unwrap();
        events.push(match daemon.fleet().rack_of(issued) {
            Some(rack) => EventRecord::Committed {
                slot: issued,
                ordinal,
                rack,
            },
            None => EventRecord::Rejected { ordinal },
        });
    }

    let held: Vec<EventRecord> = plane
        .flight_records(0)
        .iter()
        .map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c).expect("an engine event"))
        .collect();
    assert_eq!(held, events[events.len() - RING..], "the ring lost history");
    let flight = call("GET", "/flight?n=64", String::new());
    assert_eq!(flight.lines().count(), RING);
    assert!(!flight.contains("checkpoint"), "{flight}");
    let health = call("GET", "/health", String::new());
    let recorded = config.instances + 2 * PAIRS;
    assert!(
        health.contains(&format!("\"events\":{recorded},")),
        "/health must count each of the {recorded} engine events once: {health}"
    );
}
