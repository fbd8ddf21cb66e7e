//! The live observability plane: one bundle tying a [`RecordingSink`],
//! a [`FlightRecorder`], and an [`AlertEngine`] together behind a
//! shareable handle.
//!
//! The plane is what a resident engine attaches to (and what the HTTP
//! listener serves from): engine hooks record every engine event into the
//! flight ring, per-batch orchestration feeds signal snapshots to the
//! alert engine, and every `AlertFired` or breaker-budget violation
//! captures a postmortem dump of the last-N events automatically.
//!
//! Alert *decisions* only depend on the signal stream (see
//! [`AlertEngine`]); the sink clock only stamps timestamps. A plane on a
//! [virtual clock](crate::TelemetryClock::deterministic) therefore
//! yields fully bit-stable dumps, and a wall-clock plane still yields
//! bit-stable alert counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::alerts::{AlertEngine, AlertTransition};
use crate::export::BenchObject;
use crate::flight::{FlightKind, FlightRecorder};
use crate::sink::RecordingSink;

/// How many postmortem dumps the plane retains (oldest evicted first).
const MAX_DUMPS: usize = 16;

/// One captured postmortem: the flight ring rendered at the moment an
/// anomaly fired.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Dump ordinal (0-based over the plane's lifetime).
    pub ordinal: u64,
    /// Capture time, milliseconds since the sink clock origin.
    pub ts_ms: u64,
    /// Why the dump was taken (e.g. `alert breaker_budget_violation`).
    pub reason: String,
    /// Records captured.
    pub records: usize,
    /// The rendered JSONL (see [`FlightRecorder::to_jsonl`]).
    pub jsonl: String,
}

/// The live observability plane.
///
/// Cheap to share (`Arc`) and safe to call from the engine thread and
/// the HTTP listener concurrently; the flight ring and alert engine sit
/// behind their own mutexes, and counters are atomics.
#[derive(Debug)]
pub struct LivePlane {
    sink: Arc<RecordingSink>,
    flight: Mutex<FlightRecorder>,
    alerts: Mutex<AlertEngine>,
    dumps: Mutex<Vec<FlightDump>>,
    dump_ordinal: AtomicU64,
    batches: AtomicU64,
    events: AtomicU64,
    breaker_violations: AtomicU64,
    pending_violations: AtomicU64,
    started_ms: u64,
}

impl LivePlane {
    /// A plane over `sink` with a flight ring of `flight_capacity`
    /// records and the given alert rules.
    pub fn new(
        sink: Arc<RecordingSink>,
        flight_capacity: usize,
        rules: Vec<crate::alerts::AlertRule>,
    ) -> Self {
        let started_ms = sink.now_ms();
        Self {
            sink,
            flight: Mutex::new(FlightRecorder::with_capacity(flight_capacity)),
            alerts: Mutex::new(AlertEngine::new(rules)),
            dumps: Mutex::new(Vec::new()),
            dump_ordinal: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            events: AtomicU64::new(0),
            breaker_violations: AtomicU64::new(0),
            pending_violations: AtomicU64::new(0),
            started_ms,
        }
    }

    /// The plane's metric/event sink (install it on the engine's thread
    /// with [`crate::install`] to route the engine's gauges here too).
    pub fn sink(&self) -> &Arc<RecordingSink> {
        &self.sink
    }

    /// Records one flight record, stamping the sink clock.
    pub fn record_event(&self, kind: FlightKind, a: u64, b: u64, c: u64, value: f64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let ts = self.sink.now_ms();
        self.flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(ts, kind, a, b, c, value);
    }

    /// Records a breaker-budget violation (an admission bounced by a
    /// power budget while a slot was free) and captures a postmortem
    /// dump immediately. The violation is also queued into the
    /// `breaker_violations_delta` signal for the next alert evaluation.
    pub fn note_breaker_violation(&self, ordinal: u64, candidate_watts: f64) {
        self.breaker_violations.fetch_add(1, Ordering::Relaxed);
        self.pending_violations.fetch_add(1, Ordering::Relaxed);
        self.record_event(FlightKind::BreakerViolation, 0, ordinal, 0, candidate_watts);
        self.dump_flight("breaker-budget violation");
    }

    /// Breaker-budget violations recorded so far.
    pub fn breaker_violations(&self) -> u64 {
        self.breaker_violations.load(Ordering::Relaxed)
    }

    /// Marks one event batch processed.
    pub fn note_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Evaluates the alert rules against one signal snapshot.
    ///
    /// The plane prepends its own `breaker_violations_delta` signal
    /// (violations since the previous evaluation, then resets the
    /// pending count). Every transition is recorded into the flight
    /// ring; every `AlertFired` additionally captures a postmortem dump.
    pub fn evaluate_alerts(&self, signals: &[(&str, f64)]) -> Vec<AlertTransition> {
        let delta = self.pending_violations.swap(0, Ordering::Relaxed);
        let mut all: Vec<(&str, f64)> = Vec::with_capacity(signals.len() + 1);
        all.push(("breaker_violations_delta", delta as f64));
        all.extend_from_slice(signals);
        let (transitions, names) = {
            let mut engine = self.alerts.lock().unwrap_or_else(PoisonError::into_inner);
            let transitions = engine.evaluate(&all);
            (transitions, engine.rule_names())
        };
        for t in &transitions {
            let kind = if t.fired {
                FlightKind::AlertFired
            } else {
                FlightKind::AlertResolved
            };
            self.record_event(kind, t.rule as u64, t.eval, 0, t.value);
            if t.fired {
                let name = names.get(t.rule).map(String::as_str).unwrap_or("?");
                self.dump_flight(&format!("alert {name} fired"));
            }
        }
        transitions
    }

    /// `(fired_total, resolved_total)` alert transition counts.
    pub fn alert_counts(&self) -> (u64, u64) {
        let engine = self.alerts.lock().unwrap_or_else(PoisonError::into_inner);
        (engine.fired_total(), engine.resolved_total())
    }

    /// Names of currently-active alert rules.
    pub fn active_alerts(&self) -> Vec<String> {
        let engine = self.alerts.lock().unwrap_or_else(PoisonError::into_inner);
        let names = engine.rule_names();
        engine
            .active()
            .into_iter()
            .filter_map(|i| names.get(i).cloned())
            .collect()
    }

    /// Captures a postmortem dump of the whole flight ring. Returns the
    /// number of records captured.
    fn dump_flight(&self, reason: &str) -> usize {
        let jsonl = self.flight_jsonl(0);
        let records = jsonl.lines().count();
        let dump = FlightDump {
            ordinal: self.dump_ordinal.fetch_add(1, Ordering::Relaxed),
            ts_ms: self.sink.now_ms(),
            reason: reason.to_string(),
            records,
            jsonl,
        };
        let mut dumps = self.dumps.lock().unwrap_or_else(PoisonError::into_inner);
        dumps.push(dump);
        if dumps.len() > MAX_DUMPS {
            let excess = dumps.len() - MAX_DUMPS;
            dumps.drain(..excess);
        }
        records
    }

    /// The retained postmortem dumps, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Total postmortem dumps captured (including evicted ones).
    pub fn dumps_total(&self) -> u64 {
        self.dump_ordinal.load(Ordering::Relaxed)
    }

    /// The most recent `n` flight records (0 = all held) as JSONL, with
    /// alert rule indices resolved to names.
    pub fn flight_jsonl(&self, n: usize) -> String {
        let names = self
            .alerts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rule_names();
        self.flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_jsonl(n, &names)
    }

    /// The most recent `n` flight records (0 = all held), oldest first —
    /// the raw form of [`flight_jsonl`](Self::flight_jsonl) for callers
    /// (oracles, tests) that diff record bits instead of rendered text.
    pub fn flight_records(&self, n: usize) -> Vec<crate::flight::FlightRecord> {
        self.flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recent(n)
    }

    /// `(held, total, dropped)` flight ring occupancy counts.
    pub fn flight_counts(&self) -> (usize, u64, u64) {
        let flight = self.flight.lock().unwrap_or_else(PoisonError::into_inner);
        (flight.len(), flight.total(), flight.dropped())
    }

    /// The `/alerts` endpoint body.
    pub fn alerts_json(&self) -> String {
        self.alerts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_json()
    }

    /// The `/health` endpoint body: liveness plus headline counters.
    /// Status degrades to `"alerting"` while any alert is active.
    pub fn health_json(&self) -> String {
        let (fired, resolved) = self.alert_counts();
        let active = self.active_alerts().len();
        let (flight_len, flight_total, _) = self.flight_counts();
        BenchObject::default()
            .string("status", if active == 0 { "ok" } else { "alerting" })
            .raw(
                "uptime_ms",
                self.sink.now_ms().saturating_sub(self.started_ms),
            )
            .raw("batches", self.batches.load(Ordering::Relaxed))
            .raw("events", self.events.load(Ordering::Relaxed))
            .raw(
                "breaker_violations",
                self.breaker_violations.load(Ordering::Relaxed),
            )
            .raw("alerts_active", active)
            .raw("alerts_fired_total", fired)
            .raw("alerts_resolved_total", resolved)
            .raw("flight_records", flight_len)
            .raw("flight_total", flight_total)
            .raw("dumps", self.dumps_total())
            .compact()
    }

    /// The `/metrics` endpoint body (Prometheus text format).
    pub fn metrics_text(&self) -> String {
        self.sink.prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::AlertRule;

    fn plane() -> LivePlane {
        LivePlane::new(
            Arc::new(RecordingSink::with_virtual_clock()),
            8,
            vec![AlertRule::above("hot", "t", 10.0, 5.0, 1)],
        )
    }

    #[test]
    fn breaker_violation_dumps_and_feeds_the_delta_signal() {
        let rules = vec![AlertRule::above(
            "breaker_budget_violation",
            "breaker_violations_delta",
            0.5,
            0.5,
            1,
        )];
        let plane = LivePlane::new(Arc::new(RecordingSink::with_virtual_clock()), 8, rules);
        plane.record_event(FlightKind::Committed, 0, 0, 2, 0.0);
        plane.note_breaker_violation(3, 950.0);
        assert_eq!(plane.breaker_violations(), 1);
        assert_eq!(plane.dumps_total(), 1, "violation captures a postmortem");
        let fired = plane.evaluate_alerts(&[]);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        // Second eval: delta reset to 0 → resolves, no re-fire.
        let next = plane.evaluate_alerts(&[]);
        assert_eq!(next.len(), 1);
        assert!(!next[0].fired);
        // One dump from the violation, one from the AlertFired.
        assert_eq!(plane.dumps_total(), 2);
        let dumps = plane.dumps();
        assert!(dumps[0].reason.contains("breaker-budget"));
        assert!(dumps[1].reason.contains("alert breaker_budget_violation"));
        assert!(dumps[1].jsonl.contains("\"kind\":\"breaker_violation\""));
    }

    #[test]
    fn alert_fired_records_into_flight_with_rule_name() {
        let plane = plane();
        let fired = plane.evaluate_alerts(&[("t", 50.0)]);
        assert_eq!(fired.len(), 1);
        let jsonl = plane.flight_jsonl(0);
        assert!(jsonl.contains("\"kind\":\"alert_fired\",\"rule\":\"hot\""));
        assert_eq!(plane.active_alerts(), vec!["hot".to_string()]);
        assert!(plane.health_json().contains("\"status\":\"alerting\""));
        plane.evaluate_alerts(&[("t", 1.0)]);
        assert!(plane.health_json().contains("\"status\":\"ok\""));
    }

    #[test]
    fn health_json_carries_counters() {
        let plane = plane();
        plane.note_batch();
        plane.record_event(FlightKind::Retired, 1, 0, 4, 0.0);
        let health = plane.health_json();
        assert!(health.contains("\"batches\":1"));
        assert!(health.contains("\"events\":1"));
        assert!(health.contains("\"flight_records\":1"));
    }
}
