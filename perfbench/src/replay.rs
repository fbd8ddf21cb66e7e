//! In-process replay of a logged session.
//!
//! Replica A feeds every logged request through `route_daemon` on a
//! daemon built exactly like the served one, and its replies must match
//! the HTTP replies byte for byte (float `Display` round-trips exactly).
//! Before each arrival the replica also reruns the sampling probe and
//! `select_decision`; the rack chosen there must be the rack `arrive`
//! committed to.
//!
//! In a traced run, replica B (a clone of A taken before the first
//! request) repeats each request as direct engine calls, with a span
//! around each call. Route time minus engine time is the serve layer's
//! self time; round trip minus route time is wire time.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smoothoperator::serve::{build_daemon, route_daemon, ServeConfig};
use so_core::daemon::{DaemonFleet, SampleUpdate};
use so_core::online::{sample_racks, select_decision, CommitPolicy, LeafDecision, OnlineFleet};
use so_powertrace::PowerTrace;
use so_powertree::NodeId;
use so_telemetry::{route_plane, HttpRequest, LivePlane, RecordingSink};

use crate::client::{committed_slot, Exchange, Phase, Route, WINDOW};
use crate::stats::{us_since, Samples};

/// Every how many arrivals and retirements the aggregate refresh is
/// timed on a clone of the aggregates.
const AGGREGATE_SAMPLE_EVERY: u64 = 16;

#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// `build_daemon` wall time, seconds.
    pub build_s: f64,
    /// Replies compared byte for byte, and every disagreement.
    pub compared: usize,
    pub mismatches: Vec<String>,
    /// Arrivals whose probe-and-select rack was checked against the
    /// committed rack, and the disagreements.
    pub select_checked: u64,
    pub select_mismatches: Vec<String>,
    /// Per-layer samples (traced runs only).
    pub layers: Samples,
}

/// Replays `log` against fresh in-process replicas of the daemon that
/// `config` describes.
pub fn replay(
    log: &[Exchange],
    config: &ServeConfig,
    trace: bool,
) -> Result<ReplayOutcome, String> {
    // The same telemetry wiring as `smoothop serve`: a wall-clock sink
    // installed process-wide, and a plane over it.
    let sink = Arc::new(RecordingSink::with_wall_clock());
    so_telemetry::install(sink.clone());
    let plane = Arc::new(LivePlane::new(
        sink,
        4_096,
        so_telemetry::default_online_rules(),
    ));
    let mut out = ReplayOutcome::default();
    let started = Instant::now();
    let daemon = build_daemon(config, plane.clone()).map_err(|e| format!("build_daemon: {e}"))?;
    out.build_s = started.elapsed().as_secs_f64();
    if trace {
        out.layers.push("setup.build_ms", out.build_s * 1e3);
    }
    let policy = daemon.fleet().config().policy;
    let mut twin = trace.then(|| daemon.clone());
    let state = Mutex::new(daemon);
    let stop = AtomicBool::new(false);

    for (index, ex) in log.iter().enumerate() {
        // Read-only queries change no state: an untraced replay checks
        // only the final scrape among them.
        let read_only = ex.route.method() == "GET" && ex.phase != Phase::Final;
        if ex.route == Route::Shutdown || (read_only && !trace) {
            continue;
        }
        let (path, query) = ex.target.split_once('?').unwrap_or((&ex.target, ""));
        let req = HttpRequest {
            method: ex.route.method().to_string(),
            path: path.to_string(),
            query: query.to_string(),
            body: ex.body.clone(),
        };
        let candidate = (ex.route == Route::Arrive)
            .then(|| parse_candidate(&ex.body))
            .transpose()?;
        let predicted = match &candidate {
            Some(c) => {
                let guard = state.lock().expect("replay state is never poisoned");
                Some(predicted_rack(guard.fleet(), &policy, c.samples())?)
            }
            None => None,
        };

        let t0 = Instant::now();
        let resp = route_daemon(&state, &plane, &stop, &policy, &req);
        let route_us = us_since(t0);

        // `/metrics` carries wall-clock timings; every other reply is a
        // pure function of the request stream.
        if ex.route != Route::Metrics {
            out.compared += 1;
            if resp.status != ex.status || resp.body != ex.response {
                out.mismatches.push(format!(
                    "request #{index} {} {}: http {} {:?} vs replay {} {:?}",
                    ex.route.method(),
                    ex.target,
                    ex.status,
                    clip(&ex.response),
                    resp.status,
                    clip(&resp.body)
                ));
            }
        }
        if let Some(predicted) = predicted {
            let guard = state.lock().expect("replay state is never poisoned");
            let committed = committed_slot(&resp.body).and_then(|s| guard.fleet().rack_of(s));
            out.select_checked += 1;
            if committed != predicted {
                out.select_mismatches.push(format!(
                    "request #{index}: select_decision chose {predicted:?}, arrive committed to {committed:?}"
                ));
            }
        }

        if let Some(twin) = twin.as_mut() {
            let layers = &mut out.layers;
            let name = ex.route.name();
            layers.push(&format!("http.rtt_us.{name}"), ex.rtt_us);
            layers.push(&format!("http.wire_us.{name}"), ex.rtt_us - route_us);
            layers.push(&format!("serve.route_us.{name}"), route_us);
            let engine_us =
                engine_call(twin, &plane, &policy, ex, &req, candidate.as_ref(), layers)?;
            layers.push(&format!("serve.self_us.{name}"), route_us - engine_us);
        }
    }
    so_telemetry::uninstall();
    if trace {
        let per_arrival = out.build_s * 1e6 / config.instances.max(1) as f64;
        out.layers.push("setup.per_arrival_us", per_arrival);
    }
    Ok(out)
}

/// Repeats one request on replica B as direct engine calls, recording
/// the layer spans; returns the engine time of the request, µs.
fn engine_call(
    twin: &mut DaemonFleet,
    plane: &LivePlane,
    policy: &CommitPolicy,
    ex: &Exchange,
    req: &HttpRequest,
    candidate: Option<&PowerTrace>,
    layers: &mut Samples,
) -> Result<f64, String> {
    let err = |e: so_core::CoreError| format!("replica B {}: {e}", ex.target);
    let engine_us = match ex.route {
        Route::Ingest => {
            let updates = parse_ingest(&ex.body)?;
            let t0 = Instant::now();
            let report = twin.ingest_batch(&updates).map_err(err)?;
            let us = us_since(t0);
            layers.push("daemon.ingest_batch_us", us);
            layers.push("daemon.racks_touched", report.racks_touched as f64);
            let offered = (report.applied + report.dropped).max(1) as f64;
            layers.push("daemon.applied_ratio", report.applied as f64 / offered);
            us
        }
        Route::Metrics => {
            let t0 = Instant::now();
            let _ = route_plane(plane, req);
            let us = us_since(t0);
            layers.push("plane.scrape_us.metrics", us);
            // The rest of the scrape surface, timed once per round.
            for (path, query) in [("/health", ""), ("/alerts", ""), ("/flight", "n=64")] {
                let scrape = HttpRequest {
                    method: "GET".into(),
                    path: path.into(),
                    query: query.into(),
                    body: String::new(),
                };
                let t0 = Instant::now();
                let _ = route_plane(plane, &scrape);
                layers.push(&format!("plane.scrape_us.{}", &path[1..]), us_since(t0));
            }
            us
        }
        Route::Fleet | Route::Asynchrony => {
            let t0 = Instant::now();
            std::hint::black_box(twin.mean_rack_asynchrony());
            us_since(t0)
        }
        Route::Headroom => {
            let t0 = Instant::now();
            let fleet = twin.fleet();
            let mut min = f64::INFINITY;
            for &rack in fleet.topology().racks() {
                min = min.min(fleet.headroom(rack).map_err(err)?);
            }
            std::hint::black_box((min, fleet.headroom(fleet.topology().root()).map_err(err)?));
            us_since(t0)
        }
        Route::Arrive => {
            let candidate = candidate.expect("arrivals carry a candidate");
            let t0 = Instant::now();
            let racks = probe_racks(twin.fleet(), policy);
            let decisions = racks
                .iter()
                .map(|&rack| twin.fleet().evaluate(rack, candidate.samples()))
                .collect::<Result<Vec<LeafDecision>, _>>()
                .map_err(err)?;
            let probe_us = us_since(t0);
            let t0 = Instant::now();
            let chosen = select_decision(policy, &decisions).map(|d| d.rack);
            let select_us = us_since(t0);
            let t0 = Instant::now();
            let slot = twin.arrive(candidate).map_err(err)?;
            let arrive_us = us_since(t0);
            layers.push("online.probe_us", probe_us);
            layers.push("online.select_us", select_us);
            layers.push("online.arrive_us", arrive_us);
            layers.push("online.commit_us", arrive_us - probe_us - select_us);
            let fits = decisions.iter().filter(|d| d.fits).count();
            layers.push(
                "online.fit_ratio",
                fits as f64 / decisions.len().max(1) as f64,
            );
            if let Some(rack) = chosen {
                let ordinal = twin.fleet().arrivals_seen();
                if ordinal % AGGREGATE_SAMPLE_EVERY == 0 {
                    time_refresh(twin.fleet(), rack, layers)?;
                }
            }
            let _ = slot;
            arrive_us
        }
        Route::Retire => {
            let slot: usize = query_param(&req.query, "slot")
                .ok_or_else(|| format!("retire without a slot: {}", ex.target))?;
            let rack = twin.fleet().rack_of(slot);
            let t0 = Instant::now();
            let result = twin.retire(slot);
            let us = us_since(t0);
            layers.push("online.retire_us", us);
            if let (Ok(()), Some(rack)) = (result, rack) {
                if twin.fleet().retired() % AGGREGATE_SAMPLE_EVERY == 0 {
                    time_refresh(twin.fleet(), rack, layers)?;
                }
            }
            us
        }
        Route::Whatif => {
            let rack: usize = query_param(&req.query, "rack").ok_or("whatif without a rack")?;
            let watts: f64 = query_param(&req.query, "watts").ok_or("whatif without watts")?;
            let row = vec![watts; twin.window()];
            let t0 = Instant::now();
            let decision = twin.fleet().evaluate(NodeId::new(rack), &row);
            let us = us_since(t0);
            std::hint::black_box(decision.map_err(err)?);
            layers.push("online.evaluate_us", us);
            us
        }
        Route::Admit => {
            let watts: f64 = query_param(&req.query, "watts").ok_or("admit without watts")?;
            let step = twin.fleet().grid().step_minutes();
            let constant = PowerTrace::new(vec![watts; twin.window()], step)
                .map_err(|e| format!("admit candidate: {e}"))?;
            let t0 = Instant::now();
            let decisions = twin.fleet().decisions(&constant).map_err(err)?;
            std::hint::black_box(select_decision(policy, &decisions));
            let us = us_since(t0);
            layers.push("online.decisions_us", us);
            us
        }
        Route::Repair => {
            let t0 = Instant::now();
            let report = twin.repair().map_err(err)?;
            let us = us_since(t0);
            layers.push("remap.repair_ms", us / 1e3);
            layers.push("remap.swaps", report.swaps.len() as f64);
            us
        }
        Route::Shutdown => 0.0,
    };
    Ok(engine_us)
}

/// The racks the sampling policy probes for the next arrival.
fn probe_racks(fleet: &OnlineFleet, policy: &CommitPolicy) -> Vec<NodeId> {
    match *policy {
        CommitPolicy::Sampling { probes } => sample_racks(
            fleet.topology().racks(),
            fleet.config().sample_salt,
            fleet.arrivals_seen(),
            probes,
        ),
        _ => fleet.topology().racks().to_vec(),
    }
}

/// Reruns the next arrival's probe and selection: the rack
/// `select_decision` picks (`None` = rejection).
fn predicted_rack(
    fleet: &OnlineFleet,
    policy: &CommitPolicy,
    candidate: &[f64],
) -> Result<Option<NodeId>, String> {
    let decisions = probe_racks(fleet, policy)
        .into_iter()
        .map(|rack| fleet.evaluate(rack, candidate))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("probe: {e}"))?;
    Ok(select_decision(policy, &decisions).map(|d| d.rack))
}

/// Times one rack refresh and one ancestor refresh of `rack` on a clone
/// of the fleet's aggregates, and records the size of the refreshed path.
fn time_refresh(fleet: &OnlineFleet, rack: NodeId, layers: &mut Samples) -> Result<(), String> {
    let topology = fleet.topology();
    let members: Vec<&[f64]> = fleet
        .live_slots()
        .into_iter()
        .filter(|&s| fleet.rack_of(s) == Some(rack))
        .map(|s| fleet.row(s))
        .collect();
    let ancestors = topology.ancestors(rack).map_err(|e| e.to_string())?;
    let mut resummed = members.len();
    for &a in &ancestors {
        resummed += topology
            .node(a)
            .map_err(|e| e.to_string())?
            .children()
            .len();
    }
    let mut aggregates = fleet.aggregates().clone();
    let t0 = Instant::now();
    aggregates
        .refresh_rack(topology, rack, members.iter().copied())
        .map_err(|e| e.to_string())?;
    layers.push("aggregate.refresh_rack_us", us_since(t0));
    let t0 = Instant::now();
    aggregates
        .refresh_ancestors(topology, &[rack])
        .map_err(|e| e.to_string())?;
    layers.push("aggregate.refresh_ancestors_us", us_since(t0));
    layers.push("aggregate.path_nodes", (1 + ancestors.len()) as f64);
    layers.push(
        "aggregate.samples_resummed",
        (resummed * fleet.grid().len()) as f64,
    );
    Ok(())
}

fn parse_candidate(body: &str) -> Result<PowerTrace, String> {
    let samples = body
        .trim()
        .split(',')
        .map(|s| s.parse::<f64>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("candidate: {e}"))?;
    if samples.len() != WINDOW {
        return Err(format!("candidate has {} samples", samples.len()));
    }
    PowerTrace::new(samples, 60).map_err(|e| format!("candidate: {e}"))
}

fn parse_ingest(body: &str) -> Result<Vec<SampleUpdate>, String> {
    body.lines()
        .map(|line| {
            let (slot, watts) = line.split_once(' ').ok_or("ingest line without a space")?;
            Ok(SampleUpdate {
                slot: slot.parse().map_err(|_| "ingest slot")?,
                watts: watts.parse().map_err(|_| "ingest watts")?,
            })
        })
        .collect()
}

fn query_param<T: std::str::FromStr>(query: &str, key: &str) -> Option<T> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

fn clip(s: &str) -> &str {
    let end = s.char_indices().nth(160).map_or(s.len(), |(i, _)| i);
    &s[..end]
}
