//! Discrete-time datacenter runtime substrate.
//!
//! Production reshaping (§4) runs against live traffic and power sensors;
//! this crate substitutes a discrete-time simulator that exposes the same
//! observables — per-LC-server load, throughput, power draw — so the
//! conversion and throttling policies exercise their real control paths
//! (substitution documented in `DESIGN.md`).
//!
//! * [`simulate`] — steps a [`SimConfig`] over an offered load, consulting
//!   a [`ReshapePolicy`] each step;
//! * [`simulate_with_faults`] — the same run under a deterministic
//!   `so-faults` schedule (sensor dropout, stuck sensors, crashes,
//!   breaker trips), with degraded telemetry surfaced to the policy via
//!   [`StepObservation::sensor_ok`] and a [`FailSafe`] wrapper that holds
//!   the last trustworthy decision;
//! * [`Telemetry`] — the recorded series behind Figures 12–14;
//! * [`ServerPowerModel`] / [`DvfsState`] — the power/performance models.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), so_sim::SimError> {
//! use so_powertrace::TimeGrid;
//! use so_sim::{default_config, simulate, StaticPolicy};
//! use so_workloads::OfferedLoad;
//!
//! let load = OfferedLoad::diurnal(TimeGrid::one_week(60), 1000.0, 0.0, 1);
//! let config = default_config(12, 6, 0, 0, 10_000.0);
//! let telemetry = simulate(&config, &load, &mut StaticPolicy { as_lc: true })?;
//! assert_eq!(telemetry.len(), 168);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balancer;
mod dvfs;
mod engine;
mod error;
mod policy;
mod power;

pub use balancer::{route, RoutingOutcome, ServerSlot};
pub use dvfs::DvfsState;
pub use engine::{
    default_config, one_week_grid, simulate, simulate_with_faults, ConversionEvent, SimConfig,
    Telemetry,
};
pub use error::SimError;
pub use policy::{FailSafe, ReshapePolicy, StaticPolicy, StepDecision, StepObservation};
pub use power::ServerPowerModel;
