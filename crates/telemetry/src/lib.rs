//! Unified telemetry for the SmoothOperator workspace.
//!
//! SmoothOperator is operationally a *monitoring* system — the paper's
//! framework "continuously records the I-traces and the S-traces and
//! dynamically re-evaluates the severity of the fragmentation problem"
//! (§3.6). This crate is the reproduction's equivalent nervous system:
//! every hot path (embedding, k-means, placement recursion, remapping,
//! the runtime simulator) reports counters, gauges, histograms, and
//! timed spans through the [`RecordingSink`] installed on
//! the calling thread. Each thread has its own; `so_parallel` workers and
//! the smoothopd service threads run under the sink of the thread that
//! spawned them, so concurrent runs under different sinks never mix.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** By default no sink is installed;
//!    every recording entry point first reads one thread-local
//!    ([`enabled`]) and returns without allocating.
//!    Placement/remap/simulation outputs are bit-identical whether or not
//!    the instrumentation code is compiled in.
//! 2. **Determinism.** A [`RecordingSink`] driven by the
//!    [virtual clock](TelemetryClock::deterministic) produces identical
//!    metric snapshots no matter how many worker threads run: counters
//!    and histogram buckets are commutative integer adds, histogram sums
//!    accumulate in fixed-point micro-units, and gauges are only ever set
//!    from serial orchestration points (or under distinct keys). This
//!    matches the `so-parallel` reduction discipline — parallel shards
//!    merge in canonical order via [`MetricsRegistry::merge_from`].
//! 3. **No dependencies.** Exporters are hand-rolled: JSON-lines events
//!    ([`export::events_to_jsonl`]) and Prometheus text-format snapshots
//!    ([`export::registry_to_prometheus`]). Every JSON object, here and
//!    in the crates above, is written by one writer,
//!    [`export::BenchObject`].
//!
//! On top of the batch substrate sits the *live plane* for resident
//! engines: a bounded [`FlightRecorder`] ring of recent events, a
//! declarative [`AlertEngine`] with hysteresis, the [`LivePlane`] bundle
//! tying them to a [`RecordingSink`], and a dependency-free blocking
//! [`HttpServer`] on which [`route_plane`] serves `/metrics`, `/health`,
//! `/alerts`, and `/flight?n=K`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use so_telemetry::{self as telemetry, RecordingSink};
//!
//! let sink = Arc::new(RecordingSink::with_virtual_clock());
//! telemetry::with_sink(sink.clone(), || {
//!     let _span = telemetry::span("demo");
//!     telemetry::counter_add("so_demo_total", &[], 2);
//!     telemetry::gauge_set("so_demo_level", &[("level", "rack")], 1.5);
//!     telemetry::observe("so_demo_watts", &[], 120.0);
//! });
//! let snapshot = sink.snapshot();
//! assert_eq!(snapshot.counter("so_demo_total", &[]), 2);
//! assert!(sink.prometheus().contains("so_demo_level{level=\"rack\"} 1.5"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alerts;
mod clock;
pub mod export;
mod flight;
mod http;
mod plane;
mod registry;
mod report;
mod sink;
mod span;

pub use alerts::{default_online_rules, AlertEngine, AlertKind, AlertRule, AlertTransition};
pub use clock::TelemetryClock;
pub use flight::{FlightKind, FlightRecord, FlightRecorder};
pub use http::{route_plane, HttpHandler, HttpRequest, HttpResponse, HttpServer};
pub use plane::{FlightDump, LivePlane};
pub use registry::{Histogram, MetricKey, MetricsRegistry, BUCKET_BOUNDS};
pub use report::render_report;
pub use sink::{
    counter_add, current_sink, enabled, gauge_set, install, observe, uninstall, with_sink, Event,
    EventKind, RecordingSink,
};
pub use span::{span, SpanGuard};
