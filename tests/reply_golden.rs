//! Byte pins for every JSON body `smoothopd` and the watched online
//! session write: one fixed request sequence through `route_daemon` on a
//! small seeded daemon with a virtual-clock plane, and the four watched
//! line kinds of a small planted-violation `run_online_scale`.
//!
//! perfbench's replay compares replies byte for byte, so a writer change
//! that moves a single character shows up here first. Only the
//! wall-clock fields of the watched lines (`total_ms`, `peak_rss_bytes`)
//! are masked.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use smoothoperator::scale::{run_online_scale, OnlineScaleConfig};
use smoothoperator::serve::{build_daemon, route_daemon, run_serve, ServeConfig};
use so_telemetry::{default_online_rules, HttpRequest, LivePlane, RecordingSink};

fn virtual_plane(flight_capacity: usize) -> Arc<LivePlane> {
    Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        flight_capacity,
        default_online_rules(),
    ))
}

/// A daemon of `instances` seeded instances and its router, as one
/// closure from `(method, target, body)` to a transcript entry.
fn daemon_session(instances: usize) -> (Arc<LivePlane>, impl FnMut(&str, &str, &str) -> String) {
    let config = ServeConfig {
        instances,
        samples_per_trace: 6,
        step_minutes: 60,
        seed: 5,
        sample_probes: 4,
        repair_budget: 4,
        ..ServeConfig::default()
    };
    let plane = virtual_plane(64);
    let daemon = build_daemon(&config, Arc::clone(&plane)).unwrap();
    let policy = daemon.fleet().config().policy;
    let state = Mutex::new(daemon);
    let stop = AtomicBool::new(false);
    let router_plane = Arc::clone(&plane);
    let call = move |method: &str, target: &str, body: &str| {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let req = HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            body: body.to_string(),
        };
        let resp = route_daemon(&state, &router_plane, &stop, &policy, &req);
        format!(
            "{method} {target} -> {} {}\n{}<<<\n",
            resp.status, resp.content_type, resp.body
        )
    };
    (plane, call)
}

fn daemon_transcript() -> String {
    let mut out = String::new();
    let (plane, mut call) = daemon_session(20);
    let flat = |watts: &str| [watts; 6].join(",");
    for (method, target, body) in [
        ("GET", "/health", String::new()),
        ("GET", "/metrics", String::new()),
        ("GET", "/fleet", String::new()),
        ("GET", "/headroom", String::new()),
        ("GET", "/headroom?node=1", String::new()),
        ("GET", "/asynchrony", String::new()),
        ("GET", "/asynchrony?rack=12", String::new()),
        ("GET", "/asynchrony?rack=13", String::new()),
        ("GET", "/whatif?rack=12&watts=50", String::new()),
        ("GET", "/whatif?rack=12&watts=3500", String::new()),
        ("GET", "/admit?watts=50", String::new()),
        ("GET", "/admit?watts=1000000", String::new()),
        (
            "POST",
            "/ingest",
            "0 120.5\n{\"slot\":1,\"watts\":80.25}\n".to_string(),
        ),
        (
            "POST",
            "/arrive",
            format!("{}\n{}\n", flat("100.5"), flat("10000")),
        ),
        ("POST", "/retire?slot=3", String::new()),
        ("POST", "/repair", String::new()),
        ("GET", "/fleet", String::new()),
    ] {
        out.push_str(&call(method, target, &body));
    }
    // The daemon evaluates no alert rules itself; one evaluation turns
    // the `/arrive` breaker violation above into an active alert, so the
    // scrape surface below renders non-empty `active` and `journal`.
    plane.evaluate_alerts(&[("live_instances", 20.0)]);
    for target in ["/health", "/alerts", "/flight?n=8"] {
        out.push_str(&call("GET", target, ""));
    }
    out.push_str(&call("POST", "/shutdown", ""));

    let (_, mut empty) = daemon_session(0);
    for target in ["/fleet", "/asynchrony", "/admit?watts=50"] {
        out.push_str(&empty("GET", target, ""));
    }
    out
}

/// Replaces the number after `"key":` with `#`.
fn mask(line: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let Some(at) = line.find(&pattern) else {
        return line.to_string();
    };
    let start = at + pattern.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| start + i);
    format!("{}#{}", &line[..start], &line[end..])
}

fn watched_transcript() -> String {
    let config = OnlineScaleConfig {
        instances: vec![240],
        samples_per_trace: 12,
        step_minutes: 60,
        seed: 3,
        batches: 4,
        sample_probes: 6,
        repair_budget: 4,
        plant_violation: true,
    };
    let mut out = String::new();
    run_online_scale(&config, Some(virtual_plane(64)), |line| {
        out.push_str(&mask(&mask(line, "total_ms"), "peak_rss_bytes"));
        out.push('\n');
    })
    .unwrap();
    out
}

/// The `serving` announce line `run_serve` prints once it listens, with
/// the ephemeral port masked.
fn announce_line() -> String {
    let config = ServeConfig {
        instances: 2,
        samples_per_trace: 6,
        ttl_ms: Some(0),
        ..ServeConfig::default()
    };
    let mut line = String::new();
    run_serve(&config, virtual_plane(8), |text| line = text.to_string()).unwrap();
    let port = line
        .find("127.0.0.1:")
        .map(|at| at + "127.0.0.1:".len())
        .unwrap();
    let end = port + line[port..].find('"').unwrap();
    format!("{}#{}", &line[..port], &line[end..])
}

#[test]
fn daemon_replies_keep_their_bytes() {
    assert_eq!(daemon_transcript(), DAEMON);
}

#[test]
fn watched_lines_keep_their_bytes() {
    assert_eq!(watched_transcript(), WATCHED);
}

#[test]
fn serving_announce_keeps_its_bytes() {
    assert_eq!(
        announce_line(),
        r#"{"kind":"serving","addr":"http://127.0.0.1:#","instances":2,"window":6}"#
    );
}

/// Each entry: `METHOD target -> status content-type`, the body, `<<<`.
const DAEMON: &str = r#"GET /health -> 200 application/json
{"status":"ok","uptime_ms":21,"batches":0,"events":20,"breaker_violations":0,"alerts_active":0,"alerts_fired_total":0,"alerts_resolved_total":0,"flight_records":20,"flight_total":20,"dumps":0}<<<
GET /metrics -> 200 text/plain; version=0.0.4; charset=utf-8
<<<
GET /fleet -> 200 application/json
{"live_instances":20,"committed":20,"rejected":0,"retired":0,"window":6,"samples_ingested":0,"samples_dropped":0,"batches_ingested":0,"mean_rack_asynchrony":1.0968544459265885}
<<<
GET /headroom -> 200 application/json
{"min_rack_headroom_watts":3156.435546875,"root_headroom_watts":53827.3837890625}
<<<
GET /headroom?node=1 -> 200 application/json
{"node":1,"headroom_watts":53827.3837890625}
<<<
GET /asynchrony -> 200 application/json
{"mean_rack_asynchrony":1.0968544459265885,"racks":16}
<<<
GET /asynchrony?rack=12 -> 200 application/json
{"rack":12,"asynchrony":1}
<<<
GET /asynchrony?rack=13 -> 200 application/json
{"rack":13,"asynchrony":1}
<<<
GET /whatif?rack=12&watts=50 -> 200 application/json
{"rack":12,"fits":true,"has_slot":true,"power_ok":true,"new_peak_watts":283.373046875,"peak_increase_watts":50,"headroom_watts":3316.626953125,"asynchrony":1}
<<<
GET /whatif?rack=12&watts=3500 -> 200 application/json
{"rack":12,"fits":false,"has_slot":true,"power_ok":false,"new_peak_watts":3733.373046875,"peak_increase_watts":3500,"headroom_watts":-133.373046875,"asynchrony":1}
<<<
GET /admit?watts=50 -> 200 application/json
{"admits":true,"rack":24,"headroom_watts":3550,"asynchrony":2}
<<<
GET /admit?watts=1000000 -> 200 application/json
{"admits":false,"rack":null}
<<<
POST /ingest -> 200 application/json
{"applied":2,"dropped":0,"racks_touched":2,"samples_ingested":2}
<<<
POST /arrive -> 200 application/json
{"committed":[20,null]}
<<<
POST /retire?slot=3 -> 200 application/json
{"retired":3}
<<<
POST /repair -> 200 application/json
{"swaps":2,"moves":4}
<<<
GET /fleet -> 200 application/json
{"live_instances":20,"committed":21,"rejected":1,"retired":1,"window":6,"samples_ingested":2,"samples_dropped":0,"batches_ingested":1,"mean_rack_asynchrony":1.1126311939167683}
<<<
GET /health -> 200 application/json
{"status":"alerting","uptime_ms":33,"batches":0,"events":29,"breaker_violations":1,"alerts_active":1,"alerts_fired_total":1,"alerts_resolved_total":0,"flight_records":29,"flight_total":29,"dumps":2}<<<
GET /alerts -> 200 application/json
{"evals":1,"fired_total":1,"resolved_total":0,"journal_dropped":0,"active":["breaker_budget_violation"],"journal":[{"rule":"breaker_budget_violation","eval":0,"fired":true,"value":1}]}<<<
GET /flight?n=8 -> 200 application/x-ndjson
{"seq":21,"ts_ms":23,"kind":"rejected","ordinal":21}
{"seq":22,"ts_ms":24,"kind":"breaker_violation","ordinal":21,"value":10000}
{"seq":23,"ts_ms":26,"kind":"retired","slot":3,"rack":12}
{"seq":24,"ts_ms":27,"kind":"moved","slot":6,"from":22,"to":17}
{"seq":25,"ts_ms":28,"kind":"moved","slot":8,"from":22,"to":26}
{"seq":26,"ts_ms":29,"kind":"moved","slot":17,"from":26,"to":22}
{"seq":27,"ts_ms":30,"kind":"moved","slot":18,"from":17,"to":22}
{"seq":28,"ts_ms":31,"kind":"alert_fired","rule":"breaker_budget_violation","eval":0,"value":1}
<<<
POST /shutdown -> 200 application/json
{"status":"stopping"}
<<<
GET /fleet -> 200 application/json
{"live_instances":0,"committed":0,"rejected":0,"retired":0,"window":6,"samples_ingested":0,"samples_dropped":0,"batches_ingested":0,"mean_rack_asynchrony":null}
<<<
GET /asynchrony -> 200 application/json
{"mean_rack_asynchrony":null,"racks":16}
<<<
GET /admit?watts=50 -> 200 application/json
{"admits":true,"rack":12,"headroom_watts":3550,"asynchrony":2}
<<<
"#;

const WATCHED: &str = r#"{"kind":"batch","batch":0,"arrivals":60,"committed":60,"rejected":0,"retired":0,"live":60,"root_power_watts":11229.67578125,"min_rack_headroom_watts":2956.478515625,"alerts_active":0,"peak_rss_bytes":#}
{"kind":"batch","batch":1,"arrivals":60,"committed":120,"rejected":0,"retired":12,"live":108,"root_power_watts":19454.916015625,"min_rack_headroom_watts":2612.4013671875,"alerts_active":0,"peak_rss_bytes":#}
{"kind":"alert","rule":"breaker_budget_violation","state":"fired","eval":2,"value":1}
{"kind":"flight_dump","ordinal":0,"reason":"breaker-budget violation","records":64}
{"kind":"flight_dump","ordinal":1,"reason":"alert breaker_budget_violation fired","records":64}
{"kind":"batch","batch":2,"arrivals":61,"committed":180,"rejected":1,"retired":22,"live":158,"root_power_watts":28259.6767578125,"min_rack_headroom_watts":2152.529296875,"alerts_active":1,"peak_rss_bytes":#}
{"kind":"alert","rule":"breaker_budget_violation","state":"resolved","eval":3,"value":0}
{"kind":"batch","batch":3,"arrivals":60,"committed":240,"rejected":1,"retired":34,"live":206,"root_power_watts":37273.5107421875,"min_rack_headroom_watts":1922.4697265625,"alerts_active":0,"peak_rss_bytes":#}
{"kind":"summary","batches":4,"committed":240,"rejected":1,"retired":34,"live":206,"alerts_fired":1,"alerts_resolved":1,"breaker_violations":1,"flight_dumps":2,"total_ms":#}
"#;
