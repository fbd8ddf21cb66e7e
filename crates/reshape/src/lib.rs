//! Dynamic power profile reshaping (§4 of the paper).
//!
//! The workload-aware placement (`so-core`) unlocks power headroom; this
//! crate turns that headroom into throughput:
//!
//! * [`learn_conversion_threshold`] — history-based `L_conv` learning;
//! * [`plan_conversion_capacity`] / [`throttle_funded_capacity`] — sizing
//!   the conversion pools `e_conv` and `e_th` from headroom and throttling
//!   savings;
//! * [`ConversionPolicy`] — history-based server conversion between LC and
//!   Batch on storage-disaggregated servers ([`ConversionModel`]);
//! * [`ThrottleBoostPolicy`] — proactive Batch throttling during LC-heavy
//!   phases and boosting during Batch-heavy phases;
//! * [`run_scenario`] — the end-to-end pipeline behind Figures 12–14.
//!
//! # Examples
//!
//! ```no_run
//! # fn main() -> Result<(), so_reshape::ReshapeError> {
//! use so_reshape::{fitting_topology, run_scenario, PipelineConfig};
//! use so_workloads::DcScenario;
//!
//! let topo = fitting_topology(160, 12)?;
//! let outcome = run_scenario(&DcScenario::dc2(), 160, &topo, &PipelineConfig::default())?;
//! println!(
//!     "LC +{:.1}%, Batch +{:.1}%",
//!     100.0 * outcome.lc_improvement(&outcome.conversion),
//!     100.0 * outcome.batch_improvement(&outcome.conversion),
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capacity;
mod conversion;
mod disagg;
mod error;
mod longrun;
mod pipeline;
mod threshold;

pub use capacity::{
    peak_provisioned_budgets, plan_conversion_capacity, throttle_funded_capacity, ExtraCapacity,
};
pub use conversion::{ConversionPolicy, Phase, ThrottleBoostPolicy};
pub use disagg::{ConversionModel, StorageAttachment};
pub use error::ReshapeError;
pub use longrun::{operate, LongRunConfig, LongRunReport, WeekOutcome};
pub use pipeline::{fitting_topology, run_scenario, PipelineConfig, ScenarioOutcome};
pub use threshold::learn_conversion_threshold;
