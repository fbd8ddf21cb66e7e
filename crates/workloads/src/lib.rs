//! Synthetic production-workload substrate for the SmoothOperator
//! reproduction.
//!
//! The paper evaluates on three weeks of per-server power traces from three
//! Facebook datacenters. Those traces are proprietary, so this crate builds
//! the closest synthetic equivalent (see `DESIGN.md`, substitution table):
//! parametric diurnal service shapes calibrated to the paper's Figure 6
//! (user-facing day peaks, nightly db backups, flat-high hadoop), instance
//! heterogeneity from phase jitter and popularity skew (§3.3), and per-DC
//! service mixes following Figure 5.
//!
//! Key types:
//!
//! * [`ServiceClass`] / [`WorkKind`] / [`DiurnalShape`] — the service
//!   taxonomy;
//! * [`InstanceSpec`] — one server's parameters and weekly trace generator;
//! * [`Fleet`] — a datacenter's instances with averaged training traces and
//!   a held-out test week;
//! * [`DcScenario`] — DC1/DC2/DC3 presets and fleet generation;
//! * [`OfferedLoad`] — diurnal query load for the runtime simulator.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), so_workloads::WorkloadError> {
//! use so_workloads::DcScenario;
//!
//! let fleet = DcScenario::dc1().generate_fleet(50)?;
//! assert_eq!(fleet.averaged_traces().len(), 50);
//! let (top_service, share) = fleet.power_share_by_service()[0];
//! assert!(share > 0.05);
//! println!("top consumer: {top_service}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activity;
mod burst;
mod error;
mod fleet;
mod instance;
pub mod llm;
mod load;
mod profile;
pub mod rng;
mod scenario;
mod service;

pub use activity::{backup_window, office_hours, user_activity};
pub use burst::{inject_burst, BurstSpec};
pub use error::WorkloadError;
pub use fleet::Fleet;
pub use instance::{heterogeneous_instance, InstanceSpec};
pub use llm::{burst_correlation_report, CorrelationReport, LlmBasis};
pub use load::{activity_series, OfferedLoad};
pub use profile::{profile_services, ServiceProfile};
pub use scenario::DcScenario;
pub use service::{DiurnalShape, ServiceClass, WorkKind};
