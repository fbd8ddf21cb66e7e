//! `smoothopd` — the resident placement daemon behind `smoothop serve`.
//!
//! SmoothOperator ran as a continuous production service; this module is
//! that service for the reproduction. One process holds the whole stack
//! resident — [`so_core::DaemonFleet`] (power tree, columnar trace arena, exact
//! aggregates, ring-buffer sample windows) plus a [`so_telemetry::LivePlane`] — and
//! serves it over the workspace's dependency-free blocking
//! [`so_telemetry::HttpServer`].
//!
//! # Architecture
//!
//! * **Single serial commit point.** The daemon state lives behind one
//!   mutex; every mutation (ingest batch, arrival, retirement, repair
//!   pass) is applied under it, in connection order. The HTTP listener
//!   already serves one connection at a time, so the stream of state
//!   transitions is totally ordered and the engine's determinism
//!   guarantees carry over unchanged.
//! * **Streaming ingest.** `POST /ingest` carries per-instance power
//!   readings, one per line — either the plain line protocol
//!   `<slot> <watts>` or JSONL `{"slot":N,"watts":W}`. The whole body is
//!   parsed and validated *before* any state is touched: one malformed
//!   line or out-of-range reading rejects the batch with `400` and zero
//!   mutation. Valid readings are snapped onto the exact sample grid,
//!   land in the per-instance ring-buffer windows and shift their rack
//!   paths by delta — O(batch · path), bit-identical to a from-scratch
//!   recompute (the `daemon` oracle family pins this).
//! * **Background repair.** The §3.6 differential-score remap runs as a
//!   repair loop on its own thread, one budgeted pass per interval, each
//!   pass serialized through the same mutex.
//! * **Queries.** Headroom, per-rack asynchrony, what-if admission
//!   probes, and fleet counters are served alongside the plane's
//!   `/metrics`, `/health`, `/alerts`, and `/flight` scrape surface.
//!
//! # Endpoints
//!
//! | Method | Path | Body / reply |
//! |---|---|---|
//! | GET | `/metrics` `/health` `/alerts` `/flight?n=K` | the [`so_telemetry::LivePlane`] scrape surface |
//! | GET | `/fleet` | engine + ingest counters |
//! | GET | `/headroom[?node=K]` | per-node (or min-rack + root) headroom, watts |
//! | GET | `/asynchrony[?rack=K]` | per-rack (or mean) asynchrony score |
//! | GET | `/whatif?rack=K&watts=W` | full admission decision for a constant-draw candidate on one rack |
//! | GET | `/admit?watts=W` | would the fleet admit the candidate, and where |
//! | POST | `/ingest` | sample lines (above); replies with the ingest report |
//! | POST | `/arrive` | one candidate trace per line (comma-separated watts); replies committed slots |
//! | POST | `/retire?slot=K` | retires a live slot |
//! | POST | `/repair` | one budgeted repair pass now |
//! | POST | `/shutdown` | stop serving and exit cleanly |
//!
//! The module also hosts the daemon's load rung: [`crate::serve::run_daemon_scale`]
//! streams millions of samples through the ingest path in-process (no
//! socket between the measurements) and writes `BENCH_daemon.json`,
//! gated per phase and on its digests by `smoothop gate` in CI.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use so_core::daemon::{DaemonFleet, SampleUpdate};
use so_core::online::CommitPolicy;
use so_parallel::ThreadContext;
use so_powertrace::quantile::quantile_sorted;
use so_powertrace::{snap_samples, PowerTrace, MAX_SAMPLE_WATTS};
use so_powertree::NodeId;
use so_telemetry::export::BenchObject;
use so_telemetry::{route_plane, HttpRequest, HttpResponse, HttpServer, LivePlane};

use crate::scale::{
    arrival_stream, fold_digest, min_rack_headroom, mix, ms_since, online_fleet, peak_rss_bytes,
};

/// Parameters of one `smoothop serve` session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub listen: String,
    /// Instances seeded into the fleet before serving starts.
    pub instances: usize,
    /// Samples per resident window.
    pub samples_per_trace: usize,
    /// Sampling step of the window grid, minutes.
    pub step_minutes: u32,
    /// Seed for the synthesized initial fleet and the sampling policy.
    pub seed: u64,
    /// Candidate racks probed per arrival ([`CommitPolicy::Sampling`]).
    pub sample_probes: usize,
    /// Remap swaps allowed per repair pass (0 disables repair entirely).
    pub repair_budget: usize,
    /// Background repair-loop period, milliseconds (0 = no loop; repair
    /// then only runs on explicit `POST /repair`).
    pub repair_interval_ms: u64,
    /// Auto-shutdown after this many milliseconds (`None` = serve until
    /// `POST /shutdown`). A safety net for CI smoke jobs.
    pub ttl_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            instances: 960,
            samples_per_trace: 168,
            step_minutes: 60,
            seed: 7,
            sample_probes: 64,
            repair_budget: 8,
            repair_interval_ms: 0,
            ttl_ms: None,
        }
    }
}

/// Counters summarizing one completed serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Ingest batches applied.
    pub batches_ingested: u64,
    /// Samples written into live windows.
    pub samples_ingested: u64,
    /// Samples dropped (retired/unknown slots).
    pub samples_dropped: u64,
    /// Live instances at shutdown.
    pub live_instances: usize,
    /// Arrivals committed over the session (including the seed fleet).
    pub committed: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Instances retired.
    pub retired: u64,
    /// Background repair passes completed.
    pub repair_passes: u64,
}

/// Builds the resident daemon for `config`: the online rung's engine
/// sized to the seed fleet, with the plane attached and the first
/// `instances` traces of the shared arrival stream committed.
///
/// # Errors
///
/// Propagates topology and engine errors.
pub fn build_daemon(
    config: &ServeConfig,
    plane: Arc<LivePlane>,
) -> Result<DaemonFleet, Box<dyn std::error::Error>> {
    let mut engine = online_fleet(
        config.instances.max(1),
        config.samples_per_trace,
        config.step_minutes,
        config.seed,
        config.sample_probes,
        config.repair_budget,
    )?;
    let stream = arrival_stream(config.seed, engine.grid());
    engine.attach_plane(plane);
    let mut daemon = DaemonFleet::new(engine);
    for trace in stream.take(config.instances) {
        daemon.arrive(&trace?)?;
    }
    Ok(daemon)
}

/// Runs one serve session: builds the daemon, mounts the router on an
/// [`so_telemetry::HttpServer`], announces the bound address through `announce` (one
/// `{"kind":"serving",...}` JSON line — CI parses it to find the
/// ephemeral port), then blocks until `POST /shutdown` or the TTL.
///
/// # Errors
///
/// Propagates build, bind, and thread errors.
pub fn run_serve(
    config: &ServeConfig,
    plane: Arc<LivePlane>,
    mut announce: impl FnMut(&str),
) -> Result<ServeOutcome, Box<dyn std::error::Error>> {
    let daemon = build_daemon(config, plane.clone())?;
    let policy = daemon.fleet().config().policy;
    let state = Arc::new(Mutex::new(daemon));
    let stop = Arc::new(AtomicBool::new(false));
    let repair_passes = Arc::new(AtomicU64::new(0));
    // The HTTP and repair threads run under this thread's lane budget and
    // telemetry sink, so `--threads` and `/metrics` cover their work too.
    let context = ThreadContext::capture();

    let handler = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let plane = Arc::clone(&plane);
        let context = context.clone();
        Arc::new(move |req: &HttpRequest| {
            context.enter(|| route_daemon(&state, &plane, &stop, &policy, req))
        })
    };
    let server = HttpServer::spawn(&config.listen, "smoothopd-http", handler)?;
    announce(
        &BenchObject::default()
            .string("kind", "serving")
            .string("addr", &format!("http://{}", server.addr()))
            .raw("instances", config.instances)
            .raw("window", config.samples_per_trace)
            .compact(),
    );

    let repair_thread = if config.repair_interval_ms > 0 && config.repair_budget > 0 {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let passes = Arc::clone(&repair_passes);
        let interval = Duration::from_millis(config.repair_interval_ms);
        Some(std::thread::spawn(move || {
            context.enter(|| {
                let mut last = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(10));
                    if last.elapsed() < interval {
                        continue;
                    }
                    last = Instant::now();
                    // A poisoned state stops the loop; the session then
                    // ends with an error.
                    let Ok(mut daemon) = state.lock() else {
                        return;
                    };
                    if daemon.repair().is_ok() {
                        passes.fetch_add(1, Ordering::Relaxed);
                        if so_telemetry::enabled() {
                            so_telemetry::counter_add("so_daemon_repair_passes_total", &[], 1);
                        }
                    }
                }
            });
        }))
    } else {
        None
    };

    let started = Instant::now();
    while !stop.load(Ordering::Acquire) {
        if let Some(ttl) = config.ttl_ms {
            if started.elapsed() >= Duration::from_millis(ttl) {
                stop.store(true, Ordering::Release);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
    if let Some(handle) = repair_thread {
        let _ = handle.join();
    }

    let daemon = state
        .lock()
        .map_err(|_| "daemon state was poisoned by a panic; session summary withheld")?;
    Ok(ServeOutcome {
        batches_ingested: daemon.batches_ingested(),
        samples_ingested: daemon.samples_ingested(),
        samples_dropped: daemon.samples_dropped(),
        live_instances: daemon.fleet().live_len(),
        committed: daemon.fleet().committed(),
        rejected: daemon.fleet().rejected(),
        retired: daemon.fleet().retired(),
        repair_passes: repair_passes.load(Ordering::Relaxed),
    })
}

/// What a route needs from the daemon.
#[derive(Clone, Copy)]
enum Route {
    /// The plane's scrape surface, served without the state lock.
    Plane,
    /// The plane's `/health`, which also reports a poisoned state.
    Health,
    /// A query under the state lock.
    Read(fn(&DaemonFleet, &CommitPolicy, &HttpRequest) -> HttpResponse),
    /// A mutation under the state lock.
    Write(fn(&mut DaemonFleet, &HttpRequest) -> HttpResponse),
    /// Stop serving.
    Shutdown,
}

/// Every daemon route as (method, path, handler); a known path with
/// another method answers `405`.
#[rustfmt::skip]
const ROUTES: [(&str, &str, Route); 14] = [
    ("GET", "/metrics", Route::Plane),
    ("GET", "/health", Route::Health),
    ("GET", "/alerts", Route::Plane),
    ("GET", "/flight", Route::Plane),
    ("GET", "/fleet", Route::Read(|daemon, _, _| fleet_summary(daemon))),
    ("GET", "/headroom", Route::Read(|daemon, _, req| headroom_query(daemon, req))),
    ("GET", "/asynchrony", Route::Read(|daemon, _, req| asynchrony_query(daemon, req))),
    ("GET", "/whatif", Route::Read(|daemon, _, req| whatif_query(daemon, req))),
    ("GET", "/admit", Route::Read(admit_query)),
    ("POST", "/ingest", Route::Write(|daemon, req| ingest_post(daemon, &req.body))),
    ("POST", "/arrive", Route::Write(|daemon, req| arrive_post(daemon, &req.body))),
    ("POST", "/retire", Route::Write(retire_post)),
    ("POST", "/repair", Route::Write(|daemon, _| repair_post(daemon))),
    ("POST", "/shutdown", Route::Shutdown),
];

/// Routes one request against the daemon state: the plane's scrape
/// surface plus the query and mutation endpoints listed in the module
/// docs. Exported for in-process tests.
///
/// A panic while the state lock was held poisons it, and the state may
/// then be half-updated: from then on the state routes and `/health`
/// answer `503`, while `/metrics`, `/alerts` and `/flight` keep serving
/// the plane.
#[must_use]
pub fn route_daemon(
    state: &Mutex<DaemonFleet>,
    plane: &LivePlane,
    stop: &AtomicBool,
    policy: &CommitPolicy,
    req: &HttpRequest,
) -> HttpResponse {
    let Some(&(_, _, route)) = ROUTES
        .iter()
        .find(|(method, path, _)| *method == req.method && *path == req.path)
    else {
        return if ROUTES.iter().any(|(_, path, _)| *path == req.path) {
            HttpResponse::method_not_allowed()
        } else {
            HttpResponse::not_found()
        };
    };
    match route {
        Route::Plane => route_plane(plane, req),
        Route::Health if state.is_poisoned() => state_poisoned(),
        Route::Health => route_plane(plane, req),
        Route::Read(read) => with_state(state, |daemon| read(daemon, policy, req)),
        Route::Write(write) => with_state(state, |daemon| write(daemon, req)),
        Route::Shutdown => {
            stop.store(true, Ordering::Release);
            reply(BenchObject::default().string("status", "stopping"))
        }
    }
}

/// Applies `f` under the state lock — the router's one lock site.
fn with_state(
    state: &Mutex<DaemonFleet>,
    f: impl FnOnce(&mut DaemonFleet) -> HttpResponse,
) -> HttpResponse {
    match state.lock() {
        Ok(mut daemon) => f(&mut daemon),
        Err(_) => state_poisoned(),
    }
}

fn state_poisoned() -> HttpResponse {
    HttpResponse::error(
        503,
        "daemon state is poisoned: a panic interrupted an update",
    )
}

fn fleet_summary(daemon: &DaemonFleet) -> HttpResponse {
    let fleet = daemon.fleet();
    reply(
        BenchObject::default()
            .raw("live_instances", fleet.live_len())
            .raw("committed", fleet.committed())
            .raw("rejected", fleet.rejected())
            .raw("retired", fleet.retired())
            .raw("window", daemon.window())
            .raw("samples_ingested", daemon.samples_ingested())
            .raw("samples_dropped", daemon.samples_dropped())
            .raw("batches_ingested", daemon.batches_ingested())
            .float(
                "mean_rack_asynchrony",
                daemon.mean_rack_asynchrony().unwrap_or(f64::NAN),
            ),
    )
}

/// A JSON reply: `body` compact, newline-terminated.
fn reply(body: BenchObject) -> HttpResponse {
    let mut text = body.compact();
    text.push('\n');
    HttpResponse::json(text)
}

fn headroom_query(daemon: &DaemonFleet, req: &HttpRequest) -> HttpResponse {
    let fleet = daemon.fleet();
    match req.query_param("node") {
        None => {
            let min_rack = match min_rack_headroom(fleet) {
                Ok(v) => v,
                Err(e) => return HttpResponse::error(500, format!("headroom failed: {e}")),
            };
            let root = match fleet.headroom(fleet.topology().root()) {
                Ok(v) => v,
                Err(e) => return HttpResponse::error(500, format!("headroom failed: {e}")),
            };
            reply(
                BenchObject::default()
                    .float("min_rack_headroom_watts", min_rack)
                    .float("root_headroom_watts", root),
            )
        }
        Some(raw) => {
            let Ok(index) = raw.parse::<usize>() else {
                return HttpResponse::bad_request(format!("malformed node index {raw:?}"));
            };
            if index >= fleet.topology().len() {
                return HttpResponse::error(404, format!("no node #{index}"));
            }
            match fleet.headroom(NodeId::new(index)) {
                Ok(v) => reply(
                    BenchObject::default()
                        .raw("node", index)
                        .float("headroom_watts", v),
                ),
                Err(e) => HttpResponse::error(500, format!("headroom failed: {e}")),
            }
        }
    }
}

fn asynchrony_query(daemon: &DaemonFleet, req: &HttpRequest) -> HttpResponse {
    match req.query_param("rack") {
        None => reply(
            BenchObject::default()
                .float(
                    "mean_rack_asynchrony",
                    daemon.mean_rack_asynchrony().unwrap_or(f64::NAN),
                )
                .raw("racks", daemon.fleet().topology().racks().len()),
        ),
        Some(raw) => {
            let Ok(index) = raw.parse::<usize>() else {
                return HttpResponse::bad_request(format!("malformed rack index {raw:?}"));
            };
            let rack = NodeId::new(index);
            if !daemon.fleet().topology().racks().contains(&rack) {
                return HttpResponse::error(404, format!("node #{index} is not a rack"));
            }
            match daemon.rack_asynchrony(rack) {
                Ok(score) => reply(
                    BenchObject::default()
                        .raw("rack", index)
                        .float("asynchrony", score),
                ),
                Err(so_core::CoreError::EmptySet) => {
                    HttpResponse::error(404, format!("rack #{index} is empty"))
                }
                Err(e) => HttpResponse::error(500, format!("asynchrony failed: {e}")),
            }
        }
    }
}

/// Builds the constant-draw probe candidate used by `/whatif` and
/// `/admit`; a draw off the exact sample range is a `400`.
fn constant_candidate(daemon: &DaemonFleet, watts: f64) -> Result<PowerTrace, HttpResponse> {
    if snap_samples(&[watts]).is_err() {
        return Err(HttpResponse::bad_request(format!(
            "watts must be finite, non-negative and at most {MAX_SAMPLE_WATTS}, got {watts}"
        )));
    }
    PowerTrace::new(
        vec![watts; daemon.window()],
        daemon.fleet().grid().step_minutes(),
    )
    .map_err(|e| HttpResponse::error(500, format!("candidate build failed: {e}")))
}

fn parsed_watts(req: &HttpRequest) -> Result<f64, HttpResponse> {
    let Some(raw) = req.query_param("watts") else {
        return Err(HttpResponse::bad_request("missing watts parameter"));
    };
    raw.parse::<f64>()
        .map_err(|_| HttpResponse::bad_request(format!("malformed watts {raw:?}")))
}

fn whatif_query(daemon: &DaemonFleet, req: &HttpRequest) -> HttpResponse {
    let Some(raw_rack) = req.query_param("rack") else {
        return HttpResponse::bad_request("missing rack parameter");
    };
    let Ok(index) = raw_rack.parse::<usize>() else {
        return HttpResponse::bad_request(format!("malformed rack index {raw_rack:?}"));
    };
    let watts = match parsed_watts(req) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let rack = NodeId::new(index);
    if !daemon.fleet().topology().racks().contains(&rack) {
        return HttpResponse::error(404, format!("node #{index} is not a rack"));
    }
    let candidate = match constant_candidate(daemon, watts) {
        Ok(c) => c,
        Err(resp) => return resp,
    };
    match daemon.fleet().evaluate(rack, candidate.samples()) {
        Ok(d) => reply(
            BenchObject::default()
                .raw("rack", index)
                .raw("fits", d.fits)
                .raw("has_slot", d.has_slot)
                .raw("power_ok", d.power_ok)
                .float("new_peak_watts", d.new_peak_watts)
                .float("peak_increase_watts", d.peak_increase_watts)
                .float("headroom_watts", d.headroom_watts)
                .float("asynchrony", d.asynchrony),
        ),
        Err(e) => HttpResponse::error(500, format!("evaluate failed: {e}")),
    }
}

fn admit_query(daemon: &DaemonFleet, policy: &CommitPolicy, req: &HttpRequest) -> HttpResponse {
    let watts = match parsed_watts(req) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let candidate = match constant_candidate(daemon, watts) {
        Ok(c) => c,
        Err(resp) => return resp,
    };
    match daemon.fleet().admit(policy, &candidate) {
        Err(e) => HttpResponse::error(500, format!("admission probe failed: {e}")),
        Ok(Some(d)) => reply(
            BenchObject::default()
                .raw("admits", true)
                .raw("rack", d.rack.index())
                .float("headroom_watts", d.headroom_watts)
                .float("asynchrony", d.asynchrony),
        ),
        Ok(None) => reply(
            BenchObject::default()
                .raw("admits", false)
                .raw("rack", "null"),
        ),
    }
}

fn ingest_post(daemon: &mut DaemonFleet, body: &str) -> HttpResponse {
    let updates = match parse_ingest_body(body) {
        Ok(updates) => updates,
        Err(reason) => return HttpResponse::bad_request(reason),
    };
    let t0 = Instant::now();
    match daemon.ingest_batch(&updates) {
        Ok(report) => {
            if so_telemetry::enabled() {
                so_telemetry::observe("so_daemon_ingest_batch_us", &[], ms_since(t0) * 1_000.0);
            }
            reply(
                BenchObject::default()
                    .raw("applied", report.applied)
                    .raw("dropped", report.dropped)
                    .raw("racks_touched", report.racks_touched)
                    .raw("samples_ingested", daemon.samples_ingested()),
            )
        }
        Err(e) => HttpResponse::bad_request(format!("ingest rejected: {e}")),
    }
}

/// Parses an ingest body: one sample per non-empty line, either
/// `<slot> <watts>` or JSONL `{"slot":N,"watts":W}`. The first malformed
/// line fails the whole body — the caller mutates nothing in that case.
fn parse_ingest_body(body: &str) -> Result<Vec<SampleUpdate>, String> {
    let mut updates = Vec::new();
    for (lineno, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = if line.starts_with('{') {
            parse_jsonl_update(line)
        } else {
            parse_plain_update(line)
        };
        match parsed {
            Some(update) => updates.push(update),
            None => return Err(format!("malformed sample on line {}: {line:?}", lineno + 1)),
        }
    }
    Ok(updates)
}

fn parse_plain_update(line: &str) -> Option<SampleUpdate> {
    let mut parts = line.split_whitespace();
    let slot = parts.next()?.parse::<usize>().ok()?;
    let watts = parts.next()?.parse::<f64>().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(SampleUpdate { slot, watts })
}

fn parse_jsonl_update(line: &str) -> Option<SampleUpdate> {
    let slot = json_number_field(line, "slot")?;
    let watts = json_number_field(line, "watts")?;
    if slot.fract() != 0.0 || slot < 0.0 || slot > usize::MAX as f64 {
        return None;
    }
    Some(SampleUpdate {
        slot: slot as usize,
        watts,
    })
}

/// Extracts `"key": <number>` from a single JSONL object without a JSON
/// dependency. Good enough for the two flat numeric fields the ingest
/// protocol defines; anything fancier is malformed by contract.
fn json_number_field(line: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\"");
    let at = line.find(&pattern)?;
    let rest = line[at + pattern.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok().filter(|v| v.is_finite())
}

fn arrive_post(daemon: &mut DaemonFleet, body: &str) -> HttpResponse {
    let window = daemon.window();
    let step = daemon.fleet().grid().step_minutes();
    let mut candidates = Vec::new();
    for (lineno, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let samples: Result<Vec<f64>, _> = line
            .split(',')
            .map(|part| part.trim().parse::<f64>())
            .collect();
        let Ok(samples) = samples else {
            return HttpResponse::bad_request(format!(
                "malformed candidate on line {}",
                lineno + 1
            ));
        };
        if samples.len() != window {
            return HttpResponse::bad_request(format!(
                "candidate on line {} has {} samples, window is {window}",
                lineno + 1,
                samples.len()
            ));
        }
        // Every line is range-checked before the first commit.
        match snap_samples(&samples).and_then(|snapped| PowerTrace::new(snapped, step)) {
            Ok(trace) => candidates.push(trace),
            Err(e) => {
                return HttpResponse::bad_request(format!(
                    "invalid candidate on line {}: {e}",
                    lineno + 1
                ))
            }
        }
    }
    let mut committed = Vec::with_capacity(candidates.len());
    for candidate in &candidates {
        match daemon.arrive(candidate) {
            Ok(slot) => committed.push(slot),
            Err(e) => return HttpResponse::error(500, format!("arrive failed: {e}")),
        }
    }
    reply(BenchObject::default().nullables("committed", committed))
}

fn retire_post(daemon: &mut DaemonFleet, req: &HttpRequest) -> HttpResponse {
    let Some(raw) = req.query_param("slot") else {
        return HttpResponse::bad_request("missing slot parameter");
    };
    let Ok(slot) = raw.parse::<usize>() else {
        return HttpResponse::bad_request(format!("malformed slot {raw:?}"));
    };
    match daemon.retire(slot) {
        Ok(()) => reply(BenchObject::default().raw("retired", slot)),
        Err(e) => HttpResponse::error(409, format!("retire failed: {e}")),
    }
}

fn repair_post(daemon: &mut DaemonFleet) -> HttpResponse {
    match daemon.repair() {
        Ok(report) => reply(
            BenchObject::default()
                .raw("swaps", report.swaps.len())
                .raw("moves", 2 * report.swaps.len()),
        ),
        Err(e) => HttpResponse::error(500, format!("repair failed: {e}")),
    }
}

// ---------------------------------------------------------------------------
// The daemon load rung: BENCH_daemon.json
// ---------------------------------------------------------------------------

/// Schema version stamped into `BENCH_daemon.json`.
pub const DAEMON_SCALE_SCHEMA_VERSION: u32 = 1;

/// Daemon-rung parameters. The defaults match the committed
/// `BENCH_daemon.json` ladder: 10k → 100k resident instances, each
/// swept with streaming sample batches through the in-process ingest
/// path (no socket in the measured loop — the rung measures the engine,
/// the `daemon-smoke` CI job measures the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonScaleConfig {
    /// Resident fleet sizes, in order. Each becomes one report point.
    pub instances: Vec<usize>,
    /// Samples per resident window.
    pub samples_per_trace: usize,
    /// Sampling step, minutes.
    pub step_minutes: u32,
    /// Seed driving the seed fleet, the sample stream, and the policy.
    pub seed: u64,
    /// Full fleet sweeps of the ingest phase (each sweep streams one
    /// fresh sample for every live instance).
    pub sweeps: usize,
    /// Live slots per ingest batch (consecutive slots — rack-local, so
    /// each batch refreshes few rack paths).
    pub batch_slots: usize,
    /// Candidate racks probed per seed arrival.
    pub sample_probes: usize,
    /// Remap swaps allowed in the repair phase.
    pub repair_budget: usize,
}

impl Default for DaemonScaleConfig {
    fn default() -> Self {
        Self {
            instances: vec![10_000, 100_000],
            samples_per_trace: 168,
            step_minutes: 60,
            seed: 7,
            sweeps: 3,
            batch_slots: 4_096,
            sample_probes: 64,
            repair_budget: 8,
        }
    }
}

/// One daemon-rung point: phase timings, ingest throughput and latency
/// quantiles, and the deterministic state digest.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonScalePoint {
    /// Resident fleet size of this point.
    pub instances: usize,
    /// Thread lanes the engine ran with.
    pub threads: usize,
    /// Live instances after seeding.
    pub live_instances: usize,
    /// Ingest batches streamed.
    pub batches: u64,
    /// Samples streamed through the ingest path.
    pub samples_ingested: u64,
    /// Seed-fleet commit phase, ms.
    pub seed_ms: f64,
    /// Streaming-ingest phase, ms.
    pub ingest_ms: f64,
    /// Query phase (asynchrony sweep + headroom + admission probes), ms.
    pub query_ms: f64,
    /// Repair phase (one budgeted pass), ms.
    pub repair_ms: f64,
    /// Whole point, ms.
    pub total_ms: f64,
    /// Ingest throughput, samples per second of the ingest phase.
    pub rows_per_sec: f64,
    /// Median ingest batch latency, microseconds.
    pub ingest_p50_us: f64,
    /// 99th-percentile ingest batch latency, microseconds.
    pub ingest_p99_us: f64,
    /// Peak RSS (`VmHWM`) observed after the point, bytes.
    pub peak_rss_bytes: Option<u64>,
    /// Mean rack asynchrony of the resident fleet after the stream.
    pub mean_rack_asynchrony: f64,
    /// Smallest per-rack headroom after the stream, watts.
    pub min_rack_headroom_watts: f64,
    /// Order-fixed digest of the deterministic outputs (timings and
    /// latencies excluded).
    pub checksum: f64,
}

/// The full daemon rung: config + one point per fleet size.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonScaleReport {
    /// The configuration the rung ran with.
    pub config: DaemonScaleConfig,
    /// One point per fleet size, in run order.
    pub points: Vec<DaemonScalePoint>,
}

/// Runs the daemon load rung for every configured fleet size.
///
/// # Errors
///
/// Propagates build and engine errors.
pub fn run_daemon_scale(
    config: &DaemonScaleConfig,
) -> Result<DaemonScaleReport, Box<dyn std::error::Error>> {
    let mut points = Vec::with_capacity(config.instances.len());
    for &n in &config.instances {
        points.push(run_daemon_point(config, n)?);
    }
    Ok(DaemonScaleReport {
        config: config.clone(),
        points,
    })
}

fn run_daemon_point(
    config: &DaemonScaleConfig,
    n: usize,
) -> Result<DaemonScalePoint, Box<dyn std::error::Error>> {
    let serve = ServeConfig {
        instances: n,
        samples_per_trace: config.samples_per_trace,
        step_minutes: config.step_minutes,
        seed: config.seed,
        sample_probes: config.sample_probes,
        repair_budget: config.repair_budget,
        ..ServeConfig::default()
    };
    let started = Instant::now();
    let plane = Arc::new(LivePlane::new(
        Arc::new(so_telemetry::RecordingSink::with_virtual_clock()),
        256,
        so_telemetry::default_online_rules(),
    ));
    let mut daemon = build_daemon(&serve, plane)?;
    let seed_ms = ms_since(started);
    let live = daemon.fleet().live_slots();

    // Ingest phase: `sweeps` full passes over the live fleet in
    // consecutive-slot batches (rack-local, so each batch settles few
    // rack paths — the deployment shape where a scrape walks machines in
    // rack order). Watts are a deterministic hash of (sweep, slot).
    let t0 = Instant::now();
    let mut batch_us: Vec<f64> = Vec::new();
    let mut samples_ingested = 0u64;
    let mut batches = 0u64;
    let mut updates = Vec::with_capacity(config.batch_slots.max(1));
    for sweep in 0..config.sweeps {
        for chunk in live.chunks(config.batch_slots.max(1)) {
            updates.clear();
            for &slot in chunk {
                let draw = mix(config.seed ^ 0x1D6E57, (sweep * live.len() + slot) as u64);
                updates.push(SampleUpdate {
                    slot,
                    watts: (draw % 3_000) as f64 / 10.0,
                });
            }
            let b0 = Instant::now();
            let report = daemon.ingest_batch(&updates)?;
            let us = ms_since(b0) * 1_000.0;
            batch_us.push(us);
            if so_telemetry::enabled() {
                so_telemetry::observe("so_daemon_ingest_batch_us", &[], us);
            }
            samples_ingested += report.applied as u64;
            batches += 1;
        }
    }
    let ingest_ms = ms_since(t0);

    // Query phase: a full per-rack asynchrony sweep off the resident peak
    // sums, the fleet-wide headroom scan, and admission probes.
    let t0 = Instant::now();
    let mut asynchrony_sum = 0.0f64;
    let mut scored_racks = 0u64;
    for &rack in daemon.fleet().topology().racks() {
        match daemon.rack_asynchrony(rack) {
            Ok(score) => {
                asynchrony_sum += score;
                scored_racks += 1;
            }
            Err(so_core::CoreError::EmptySet) => {}
            Err(e) => return Err(Box::new(e)),
        }
    }
    let mean_rack_asynchrony = daemon.mean_rack_asynchrony().unwrap_or(0.0);
    let min_rack_headroom_watts = min_rack_headroom(daemon.fleet())?;
    let probe = PowerTrace::new(vec![150.0; config.samples_per_trace], config.step_minutes)?;
    let decisions = daemon.fleet().decisions(&probe)?;
    let admissible = decisions.iter().filter(|d| d.fits).count();
    let query_ms = ms_since(t0);

    // Repair phase: one budgeted §3.6 pass over the streamed fleet.
    let t0 = Instant::now();
    let repair_moves = if config.repair_budget > 0 {
        2 * daemon.repair()?.swaps.len()
    } else {
        0
    };
    let repair_ms = ms_since(t0);

    let total_ms = ms_since(started);
    batch_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let quantile = |q: f64| quantile_sorted(&batch_us, q).unwrap_or(0.0);
    let checksum = fold_digest(&[
        mean_rack_asynchrony,
        min_rack_headroom_watts,
        asynchrony_sum,
        scored_racks as f64,
        admissible as f64,
        daemon.fleet().committed() as f64,
        daemon.fleet().live_len() as f64,
        samples_ingested as f64,
        repair_moves as f64,
    ]);
    Ok(DaemonScalePoint {
        instances: n,
        threads: so_parallel::effective_lanes(),
        live_instances: daemon.fleet().live_len(),
        batches,
        samples_ingested,
        seed_ms,
        ingest_ms,
        query_ms,
        repair_ms,
        total_ms,
        rows_per_sec: samples_ingested as f64 / (ingest_ms / 1e3).max(1e-9),
        ingest_p50_us: quantile(0.50),
        ingest_p99_us: quantile(0.99),
        peak_rss_bytes: peak_rss_bytes(),
        mean_rack_asynchrony,
        min_rack_headroom_watts,
        checksum,
    })
}

impl DaemonScaleReport {
    /// Renders the report as the `BENCH_daemon.json` artifact, in the
    /// layout every BENCH emitter shares, so `smoothop gate` reads its
    /// phases and digests like the others.
    #[must_use]
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            BenchObject::default()
                .raw("instances", p.instances)
                .raw("threads", p.threads)
                .raw("live_instances", p.live_instances)
                .raw("batches", p.batches)
                .raw("samples_ingested", p.samples_ingested)
                .fixed("seed_ms", p.seed_ms, 3)
                .fixed("ingest_ms", p.ingest_ms, 3)
                .fixed("query_ms", p.query_ms, 3)
                .fixed("repair_ms", p.repair_ms, 3)
                .fixed("total_ms", p.total_ms, 3)
                .fixed("rows_per_sec", p.rows_per_sec, 1)
                .fixed("ingest_p50_us", p.ingest_p50_us, 3)
                .fixed("ingest_p99_us", p.ingest_p99_us, 3)
                .nullable("peak_rss_bytes", p.peak_rss_bytes)
                .fixed("mean_rack_asynchrony", p.mean_rack_asynchrony, 6)
                .fixed("min_rack_headroom_watts", p.min_rack_headroom_watts, 6)
                .fixed("checksum", p.checksum, 6)
        });
        BenchObject::default()
            .string("benchmark", "daemon_scale")
            .raw("schema_version", DAEMON_SCALE_SCHEMA_VERSION)
            .raw("seed", self.config.seed)
            .raw("samples_per_trace", self.config.samples_per_trace)
            .raw("step_minutes", self.config.step_minutes)
            .raw("sweeps", self.config.sweeps)
            .raw("batch_slots", self.config.batch_slots)
            .raw("sample_probes", self.config.sample_probes)
            .raw("repair_budget", self.config.repair_budget)
            .array("points", points)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::mpsc;

    fn test_plane() -> Arc<LivePlane> {
        Arc::new(LivePlane::new(
            Arc::new(so_telemetry::RecordingSink::with_virtual_clock()),
            64,
            so_telemetry::default_online_rules(),
        ))
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            instances: 24,
            samples_per_trace: 16,
            step_minutes: 60,
            seed: 11,
            ttl_ms: Some(30_000),
            ..ServeConfig::default()
        }
    }

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

    /// Spawns a serve session on an ephemeral port, returning the
    /// address and the join handle.
    fn spawn_serve(config: ServeConfig) -> (String, std::thread::JoinHandle<ServeOutcome>) {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_serve(&config, test_plane(), |line| {
                let addr = line
                    .split("\"addr\":\"http://")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .expect("announce line carries the address")
                    .to_string();
                tx.send(addr).unwrap();
            })
            .unwrap()
        });
        let addr = rx.recv_timeout(Duration::from_secs(20)).unwrap();
        (addr, handle)
    }

    #[test]
    fn serve_session_answers_every_endpoint_and_shuts_down() {
        let (addr, handle) = spawn_serve(small_config());

        let (head, body) = request(&addr, "GET /health HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"status\""), "{body}");

        let (head, body) = request(&addr, "GET /fleet HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"live_instances\":24"), "{body}");

        let (head, body) = request(&addr, "GET /headroom HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("min_rack_headroom_watts"), "{body}");

        let (head, body) = request(&addr, "GET /asynchrony HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("mean_rack_asynchrony"), "{body}");

        let (head, body) = request(&addr, "GET /asynchrony?rack=2 HTTP/1.1", "");
        assert!(
            head.starts_with("HTTP/1.1 200") || head.starts_with("HTTP/1.1 404"),
            "{head}"
        );
        assert!(!body.is_empty());

        let (head, _) = request(&addr, "GET /asynchrony?rack=zap HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");

        let (head, body) = request(&addr, "GET /admit?watts=50 HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"admits\""), "{body}");

        let (head, _) = request(&addr, "GET /whatif?rack=0&watts=50 HTTP/1.1", "");
        // Node 0 is the root, not a rack — 404 by contract.
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let (head, body) = request(&addr, "POST /ingest HTTP/1.1", "0 120.5\n1 80.25\n");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"applied\":2"), "{body}");

        let (head, body) = request(
            &addr,
            "POST /ingest HTTP/1.1",
            "{\"slot\":2,\"watts\":42.5}\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"applied\":1"), "{body}");

        let (head, _) = request(&addr, "POST /ingest HTTP/1.1", "0 120.5\nbogus line\n");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");

        let (head, body) = request(&addr, "POST /repair HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"swaps\""), "{body}");

        let (head, body) = request(&addr, "POST /retire?slot=3 HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"retired\":3"), "{body}");

        // Retiring the same slot twice conflicts.
        let (head, _) = request(&addr, "POST /retire?slot=3 HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 409"), "{head}");

        // Ingest for the retired slot is dropped, not an error.
        let (head, body) = request(&addr, "POST /ingest HTTP/1.1", "3 9.0\n");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"dropped\":1"), "{body}");

        // The next arrival takes the next id and slot 3's freed row; the
        // old id still conflicts and its samples are still dropped.
        let flat = vec!["50"; 16].join(",");
        let (head, body) = request(&addr, "POST /arrive HTTP/1.1", &flat);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.trim_end(), "{\"committed\":[24]}");
        let (head, _) = request(&addr, "POST /retire?slot=3 HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 409"), "{head}");
        let (head, body) = request(&addr, "POST /ingest HTTP/1.1", "3 9.0\n24 9.0\n");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"applied\":1,\"dropped\":1"), "{body}");

        let (head, _) = request(&addr, "GET /ingest HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");

        let (head, _) = request(&addr, "GET /nope HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let (head, body) = request(&addr, "POST /shutdown HTTP/1.1", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("stopping"), "{body}");

        let outcome = handle.join().unwrap();
        // 24 seeded, 1 retired and 1 re-admitted over the session.
        assert_eq!(outcome.live_instances, 24);
        assert_eq!(outcome.retired, 1);
        assert!(outcome.batches_ingested >= 4);
        assert_eq!(outcome.samples_dropped, 2);
    }

    #[test]
    fn ingest_via_http_is_bit_identical_to_offline_batch() {
        // The same sample stream through the daemon's HTTP surface and
        // through an in-process DaemonFleet must produce the exact same
        // scores — Rust float Display is round-trip exact, so comparing
        // the JSON strings is a bit-identity check.
        let config = small_config();

        let mut offline = build_daemon(&config, test_plane()).unwrap();
        let mut body = String::new();
        let mut updates = Vec::new();
        for round in 0..5u64 {
            for slot in 0..24usize {
                let watts = (mix(99, round * 24 + slot as u64) % 2_000) as f64 / 8.0;
                let _ = writeln!(body, "{slot} {watts}");
                updates.push(SampleUpdate { slot, watts });
            }
        }
        offline.ingest_batch(&updates).unwrap();
        let want = format!(
            "{{\"mean_rack_asynchrony\":{},\"racks\":{}}}\n",
            offline.mean_rack_asynchrony().unwrap(),
            offline.fleet().topology().racks().len()
        );

        let (addr, handle) = spawn_serve(config);
        let (head, got) = request(&addr, "POST /ingest HTTP/1.1", &body);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            got.contains(&format!("\"applied\":{}", updates.len())),
            "{got}"
        );
        let (_, got) = request(&addr, "GET /asynchrony HTTP/1.1", "");
        assert_eq!(got, want, "daemon ingest diverged from the offline batch");
        let _ = request(&addr, "POST /shutdown HTTP/1.1", "");
        handle.join().unwrap();
    }

    #[test]
    fn poisoned_state_fails_closed() {
        let plane = test_plane();
        let state = Mutex::new(build_daemon(&small_config(), plane.clone()).unwrap());
        let policy = state.lock().unwrap().fleet().config().policy;
        let stop = AtomicBool::new(false);
        let call = |method: &str, target: &str| {
            let (path, query) = target.split_once('?').unwrap_or((target, ""));
            let req = HttpRequest {
                method: method.to_string(),
                path: path.to_string(),
                query: query.to_string(),
                body: String::new(),
            };
            route_daemon(&state, &plane, &stop, &policy, &req).status
        };
        assert_eq!(call("GET", "/health"), 200);

        let panicked = std::panic::catch_unwind(|| {
            let _daemon = state.lock().unwrap();
            panic!("interrupted mid-update");
        });
        assert!(panicked.is_err() && state.is_poisoned());

        for (method, target) in [
            ("GET", "/health"),
            ("GET", "/fleet"),
            ("GET", "/headroom"),
            ("GET", "/asynchrony"),
            ("GET", "/whatif?rack=1&watts=5"),
            ("GET", "/admit?watts=5"),
            ("POST", "/ingest"),
            ("POST", "/arrive"),
            ("POST", "/retire?slot=0"),
            ("POST", "/repair"),
        ] {
            assert_eq!(call(method, target), 503, "{method} {target}");
        }
        for target in ["/metrics", "/alerts", "/flight"] {
            assert_eq!(call("GET", target), 200, "{target}");
        }
        assert_eq!(call("POST", "/fleet"), 405);
        assert_eq!(call("GET", "/nope"), 404);
        assert_eq!(call("POST", "/shutdown"), 200);
        assert!(stop.load(Ordering::Acquire));
    }

    #[test]
    fn out_of_range_input_gets_400_and_changes_no_state() {
        let config = small_config();
        let plane = test_plane();
        let state = Mutex::new(build_daemon(&config, plane.clone()).unwrap());
        let policy = state.lock().unwrap().fleet().config().policy;
        let stop = AtomicBool::new(false);
        let call = |method: &str, target: &str, body: &str| {
            let (path, query) = target.split_once('?').unwrap_or((target, ""));
            let req = HttpRequest {
                method: method.to_string(),
                path: path.to_string(),
                query: query.to_string(),
                body: body.to_string(),
            };
            let resp = route_daemon(&state, &plane, &stop, &policy, &req);
            (resp.status, resp.body)
        };
        // Two live slots on one rack.
        let (rack, a, b) = {
            let daemon = state.lock().unwrap();
            let fleet = daemon.fleet();
            let slots = fleet.live_slots();
            slots
                .iter()
                .find_map(|&a| {
                    let rack = fleet.rack_of(a);
                    let b = slots.iter().find(|&&b| b > a && fleet.rack_of(b) == rack)?;
                    Some((rack?.index(), a, *b))
                })
                .expect("some rack hosts two instances")
        };
        let snapshot = || ["/fleet", "/headroom", "/asynchrony"].map(|t| call("GET", t, ""));
        let before = snapshot();
        let flat = |watts: &str| vec![watts; config.samples_per_trace].join(",");
        for (method, target, body) in [
            ("POST", "/ingest", format!("{a} 1.5e308\n{b} 1.5e308")),
            ("POST", "/ingest", format!("{a} 100.0\n{b} 2000000")),
            (
                "POST",
                "/arrive",
                format!("{}\n{}", flat("50"), flat("2000000")),
            ),
            (
                "GET",
                &format!("/whatif?rack={rack}&watts=2000000"),
                String::new(),
            ),
            ("GET", "/admit?watts=2000000", String::new()),
        ] {
            let (status, reply) = call(method, target, &body);
            assert_eq!(status, 400, "{method} {target}: {reply}");
            assert_eq!(snapshot(), before, "{method} {target} changed state");
        }
        let (status, reply) = call("POST", "/ingest", &format!("{a} 100.0"));
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"applied\":1"), "{reply}");
        let (status, _) = call("GET", &format!("/whatif?rack={rack}&watts=50"), "");
        assert_eq!(status, 200);
    }

    /// Text built from ingest-protocol fragments, digits, whitespace and
    /// arbitrary characters — ASCII and 2-, 3- and 4-byte UTF-8.
    fn ingest_like_text() -> impl Strategy<Value = String> {
        const FRAGMENTS: [&str; 12] = [
            "{\"slot\"",
            "\"watts\"",
            ":",
            ",",
            "}",
            " ",
            "\n",
            "-",
            "+",
            "e",
            ".",
            "9",
        ];
        let piece = prop_oneof![
            3 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
            1 => (0u32..0x80).prop_map(|c| char::from_u32(c).unwrap().to_string()),
            1 => (0x80u32..0x11_0000)
                .prop_map(|c| char::from_u32(c).map_or_else(String::new, String::from)),
        ];
        prop::collection::vec(piece, 0..80).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ingest_parsers_never_panic_on_arbitrary_text(text in ingest_like_text()) {
            let _ = parse_ingest_body(&text);
            for key in ["slot", "watts"] {
                let _ = json_number_field(&text, key);
            }
        }

        #[test]
        fn sample_lines_round_trip_exactly(
            samples in prop::collection::vec((0usize..1 << 53, 0u64..=u64::MAX, 0u8..2), 0..32),
        ) {
            let mut body = String::new();
            let mut want = Vec::new();
            for (slot, bits, json) in samples {
                let watts = f64::from_bits(bits);
                if !watts.is_finite() {
                    continue;
                }
                if json == 1 {
                    let _ = writeln!(body, "{{\"slot\":{slot},\"watts\":{watts}}}");
                } else {
                    let _ = writeln!(body, "{slot} {watts}");
                }
                want.push((slot, bits));
            }
            let parsed = parse_ingest_body(&body).map_err(TestCaseError::fail)?;
            let got: Vec<(usize, u64)> = parsed.iter().map(|u| (u.slot, u.watts.to_bits())).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn parse_ingest_body_accepts_both_protocols_and_rejects_garbage() {
        let parsed = parse_ingest_body("3 120.5\n{\"slot\":4,\"watts\":80.25}\n\n").unwrap();
        assert_eq!(
            parsed,
            vec![
                SampleUpdate {
                    slot: 3,
                    watts: 120.5
                },
                SampleUpdate {
                    slot: 4,
                    watts: 80.25
                },
            ]
        );
        for bad in [
            "x 1.0",
            "3",
            "3 1.0 extra",
            "{\"slot\":1.5,\"watts\":2}",
            "{\"watts\":2}",
            "{\"slot\":1,\"watts\":oops}",
        ] {
            assert!(parse_ingest_body(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn daemon_rung_is_deterministic_and_renders_gateable_json() {
        let config = DaemonScaleConfig {
            instances: vec![120],
            samples_per_trace: 24,
            sweeps: 2,
            batch_slots: 48,
            ..DaemonScaleConfig::default()
        };
        let a = run_daemon_scale(&config).unwrap();
        let b = run_daemon_scale(&config).unwrap();
        assert_eq!(a.points.len(), 1);
        assert_eq!(
            a.points[0].checksum.to_bits(),
            b.points[0].checksum.to_bits(),
            "daemon rung checksum must be run-to-run deterministic"
        );
        assert_eq!(a.points[0].samples_ingested, 2 * 120);

        let json = a.to_json();
        for key in [
            "\"benchmark\": \"daemon_scale\"",
            "\"schema_version\": 1",
            "\"instances\": 120",
            "\"ingest_ms\":",
            "\"query_ms\":",
            "\"repair_ms\":",
            "\"total_ms\":",
            "\"rows_per_sec\":",
            "\"ingest_p50_us\":",
            "\"ingest_p99_us\":",
            "\"checksum\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
