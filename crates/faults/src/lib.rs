//! Deterministic fault injection for the SmoothOperator reproduction.
//!
//! Real datacenters never hand the placement system pristine data: power
//! sensors drop out or freeze, instances crash and restart, and breakers
//! trip (§5 of the paper). This crate generates *seeded, reproducible*
//! fault campaigns over a simulation window and translates them into the
//! two views the rest of the workspace consumes:
//!
//! * a [`FaultTimeline`] of per-step aggregate effects for the `so-sim`
//!   runtime (dropout/stuck/crashed population fractions, breaker-trip
//!   capacity derates); and
//! * degraded per-instance telemetry ([`degrade_traces`]) as
//!   [`MaskedTrace`]s for `so-core`'s degraded-mode placement.
//!
//! Determinism is load-bearing: every event draws from its own
//! [`stream_rng`] stream keyed by the spec seed and the (instance, kind)
//! pair, so the schedule is a pure function of the [`FaultSpec`] — the
//! same with or without the workspace's `parallel` feature, at any
//! thread count.
//!
//! # Examples
//!
//! ```
//! use so_faults::{FaultSchedule, FaultSpec};
//!
//! let spec = FaultSpec::parse("seed=7,dropout=0.3,trips=1,trip-severity=0.4").unwrap();
//! let schedule = FaultSchedule::generate(&spec, 168, 50);
//! let timeline = schedule.timeline();
//! assert_eq!(timeline.len(), 168);
//! // Bit-identical regardless of build features or thread count.
//! assert_eq!(schedule, FaultSchedule::generate(&spec, 168, 50));
//! ```
//!
//! [`MaskedTrace`]: so_powertrace::MaskedTrace
//! [`stream_rng`]: so_workloads::rng::stream_rng

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod degrade;
mod error;
mod event;
mod schedule;
mod spec;

pub use degrade::degrade_traces;
pub use error::FaultError;
pub use event::{FaultEvent, FaultKind, FaultTarget};
pub use schedule::{FaultSchedule, FaultTimeline};
pub use spec::FaultSpec;
