//! The recording sink and the per-thread slot it is installed in.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use crate::clock::TelemetryClock;
use crate::registry::MetricsRegistry;

/// What kind of event a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span began.
    SpanStart,
    /// A span ended (carries `duration_ms`).
    SpanEnd,
}

impl EventKind {
    /// Stable lowercase label used by the JSON-lines exporter.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// One recorded event: a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Milliseconds since the sink's clock origin.
    pub ts_ms: u64,
    /// The event kind.
    pub kind: EventKind,
    /// Hierarchical span path, `/`-separated (e.g. `place/embed`).
    pub path: String,
    /// Span duration, on [`EventKind::SpanEnd`] events.
    pub duration_ms: Option<u64>,
}

/// The telemetry destination: records metrics into a
/// [`MetricsRegistry`] and events into an ordered log, stamping
/// timestamps from its [`TelemetryClock`].
///
/// Its recording methods sit behind the [`enabled`] check, so the
/// disabled path never reaches them. Metric updates may come from
/// parallel worker threads and are commutative (integer adds,
/// fixed-point sums), so snapshots are thread-count independent; events
/// are only emitted from serial orchestration points (see the crate
/// docs' determinism contract).
#[derive(Debug)]
pub struct RecordingSink {
    clock: TelemetryClock,
    metrics: Mutex<MetricsRegistry>,
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// A recording sink stamping real elapsed milliseconds.
    pub fn with_wall_clock() -> Self {
        Self::with_clock(TelemetryClock::wall())
    }

    /// A recording sink on the deterministic virtual clock — bit-stable
    /// timestamps for golden tests and reproducible run reports.
    pub fn with_virtual_clock() -> Self {
        Self::with_clock(TelemetryClock::deterministic())
    }

    /// A recording sink on an explicit clock.
    fn with_clock(clock: TelemetryClock) -> Self {
        Self {
            clock,
            metrics: Mutex::new(MetricsRegistry::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A deep copy of the current metric state.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A copy of the recorded events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The recorded events as JSON-lines text.
    pub fn jsonl(&self) -> String {
        crate::export::events_to_jsonl(&self.events())
    }

    /// The metric state as a Prometheus text-format snapshot.
    pub fn prometheus(&self) -> String {
        crate::export::registry_to_prometheus(&self.snapshot())
    }

    /// Milliseconds since the clock's origin.
    pub(crate) fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    pub(crate) fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counter_add(name, labels, delta);
    }

    pub(crate) fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gauge_set(name, labels, value);
    }

    pub(crate) fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(name, labels, value);
    }

    /// Records a span boundary.
    pub(crate) fn emit(&self, kind: EventKind, path: &str, duration_ms: Option<u64>) {
        let event = Event {
            ts_ms: self.clock.now_ms(),
            kind,
            path: path.to_string(),
            duration_ms,
        };
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

thread_local! {
    /// The sink installed on this thread. `so_parallel` workers and the
    /// smoothopd service threads run under their spawner's sink (see
    /// `so_parallel::ThreadContext`); any other new thread starts with
    /// none.
    static SINK: RefCell<Option<Arc<RecordingSink>>> = const { RefCell::new(None) };
}

/// True while a sink is installed on this thread. Instrumented call
/// sites check this before computing labels or values, keeping the
/// disabled path allocation-free.
#[inline]
pub fn enabled() -> bool {
    SINK.with_borrow(Option::is_some)
}

/// Installs `sink` as this thread's telemetry destination.
pub fn install(sink: Arc<RecordingSink>) {
    SINK.set(Some(sink));
}

/// Removes and returns this thread's sink, disabling telemetry on it.
pub fn uninstall() -> Option<Arc<RecordingSink>> {
    SINK.take()
}

/// This thread's sink, if any — what a spawner hands to the threads it
/// starts so their telemetry lands in the same place.
pub fn current_sink() -> Option<Arc<RecordingSink>> {
    SINK.with_borrow(Option::clone)
}

/// Runs `f` with `sink` installed on this thread, then restores the
/// previous sink — including when `f` panics. Scopes nest, and each
/// thread has its own, so concurrent scopes never see each other's
/// metrics.
pub fn with_sink<R>(sink: Arc<RecordingSink>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<RecordingSink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SINK.set(self.0.take());
        }
    }
    let _restore = Restore(SINK.replace(Some(sink)));
    f()
}

/// Runs `f` against this thread's sink, if any.
pub(crate) fn with_active<R>(f: impl FnOnce(&RecordingSink) -> R) -> Option<R> {
    SINK.with_borrow(|slot| slot.as_deref().map(f))
}

/// Adds `delta` to the named counter on the installed sink.
///
/// Counters are safe to bump from parallel workers: u64 addition is
/// commutative, so totals are thread-count independent.
#[inline]
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    with_active(|sink| sink.counter_add(name, labels, delta));
}

/// Sets the named gauge on the installed sink.
///
/// For deterministic snapshots, set a given gauge key from one serial
/// point only (distinct keys — e.g. one per tree node — are fine from
/// parallel workers: each key still has a single writer).
#[inline]
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    with_active(|sink| sink.gauge_set(name, labels, value));
}

/// Records a histogram observation on the installed sink.
///
/// Safe from parallel workers: bucket counts are integer adds and the
/// sum accumulates in fixed-point micro-units (see
/// [`Histogram`](crate::Histogram)).
#[inline]
pub fn observe(name: &str, labels: &[(&str, &str)], value: f64) {
    with_active(|sink| sink.observe(name, labels, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        // No sink installed (scoped): nothing panics, nothing records.
        counter_add("so_test_disabled", &[], 1);
        gauge_set("so_test_disabled", &[], 1.0);
        observe("so_test_disabled", &[], 1.0);
    }

    #[test]
    fn with_sink_restores_on_panic() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        let result = std::panic::catch_unwind(|| {
            with_sink(sink, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leave the sink installed");
    }

    #[test]
    fn nested_with_sink_routes_inward_then_restores() {
        let outer = Arc::new(RecordingSink::with_virtual_clock());
        let inner = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(outer.clone(), || {
            counter_add("so_test_total", &[], 1);
            with_sink(inner.clone(), || counter_add("so_test_total", &[], 10));
            counter_add("so_test_total", &[], 100);
            let unwound = std::panic::catch_unwind(|| {
                with_sink(inner.clone(), || {
                    counter_add("so_test_total", &[], 1_000);
                    panic!("boom");
                })
            });
            assert!(unwound.is_err());
            counter_add("so_test_total", &[], 10_000);
        });
        assert!(!enabled());
        assert_eq!(outer.snapshot().counter("so_test_total", &[]), 10_101);
        assert_eq!(inner.snapshot().counter("so_test_total", &[]), 1_010);
    }

    #[test]
    fn a_plain_spawned_thread_sees_no_sink() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(sink.clone(), || {
            let seen = std::thread::spawn(|| {
                counter_add("so_test_total", &[], 1);
                (enabled(), current_sink().is_some())
            })
            .join()
            .unwrap();
            assert_eq!(seen, (false, false));
            assert!(enabled());
        });
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn recording_sink_collects_all_kinds() {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        with_sink(sink.clone(), || {
            counter_add("so_test_total", &[("k", "v")], 3);
            gauge_set("so_test_gauge", &[], 2.5);
            observe("so_test_hist", &[], 0.25);
            drop(crate::span::span("note"));
        });
        let snap = sink.snapshot();
        assert_eq!(snap.counter("so_test_total", &[("k", "v")]), 3);
        assert_eq!(snap.gauge("so_test_gauge", &[]), Some(2.5));
        assert_eq!(snap.histogram("so_test_hist", &[]).unwrap().count(), 1);
        let events = sink.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::SpanStart, EventKind::SpanEnd]);
        assert!(events.iter().all(|e| e.path == "note"));
    }
}
