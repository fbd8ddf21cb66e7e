//! Power time-series substrate for the SmoothOperator reproduction.
//!
//! This crate provides the data types every other crate in the workspace
//! builds on:
//!
//! * [`PowerTrace`] — a validated fixed-step power time series with vector
//!   arithmetic, peaks, and quantiles (the paper's I-traces and S-traces,
//!   §3.3);
//! * [`quantile`] — the workspace's single linear-interpolation quantile
//!   convention, shared by trace percentiles, [`Ecdf`], and the sanitizer
//!   median;
//! * [`TimeGrid`] — the sampling layout (step, length, minute-of-day /
//!   day-of-week helpers);
//! * [`SlackProfile`] — power slack and energy slack against a fixed budget
//!   (Eq. 1 and Eq. 2, §2.2);
//! * [`Ecdf`] — empirical power CDFs for the StatProf baseline;
//! * [`PercentileBands`] — cross-instance percentile bands (Figure 6);
//! * [`sum_of_peaks`] / [`peak_of_sum`] — the fragmentation indicators of
//!   §2.2;
//! * [`NodeAggregate`] — an incrementally maintained aggregate trace with a
//!   cached peak, so remapping evaluates candidate swaps in `O(T)` instead
//!   of re-summing a whole power node;
//! * [`snap_samples`] — the exact sample grid (2^-10 W, capped at 2^20 W)
//!   on which the online engine's resident sums are order-free;
//! * [`TraceArena`] — columnar storage for large trace populations: one
//!   contiguous sample buffer with [`TraceView`]/[`TraceViewMut`] handles
//!   and allocation-free batch kernels, the representation behind the
//!   100k–1M instance scale tier;
//! * [`TraceSanitizer`] — detection and repair of degraded raw telemetry
//!   (NaN/negative samples, sensor spikes, gaps) with a [`RepairReport`];
//! * [`MaskedTrace`] — a partial trace with a validity mask, fillable from
//!   a service-level prior for degraded-mode placement.
//!
//! # Examples
//!
//! Two perfectly out-of-phase traces fully cancel at their shared parent:
//!
//! ```
//! # fn main() -> Result<(), so_powertrace::TraceError> {
//! use so_powertrace::{peak_of_sum, sum_of_peaks, PowerTrace};
//!
//! let a = PowerTrace::new(vec![4.0, 0.0, 4.0, 0.0], 15)?;
//! let b = PowerTrace::new(vec![0.0, 4.0, 0.0, 4.0], 15)?;
//! assert_eq!(sum_of_peaks([&a, &b])?, 8.0);
//! assert_eq!(peak_of_sum([&a, &b])?, 4.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aggregate;
mod arena;
mod bands;
mod decompose;
mod error;
mod exact;
mod grid;
pub mod io;
mod mask;
mod metrics;
pub mod quantile;
mod sanitize;
mod slack;
mod stats;
mod trace;

pub use aggregate::{peak_of_samples, NodeAggregate};
pub use arena::{TraceArena, TraceView, TraceViewMut};
pub use bands::PercentileBands;
pub use decompose::SeasonalDecomposition;
pub use error::TraceError;
pub use exact::{snap_samples, MAX_EXACT_SLOTS, MAX_SAMPLE_WATTS, SAMPLE_QUANTUM_WATTS};
pub use grid::{TimeGrid, MINUTES_PER_DAY, MINUTES_PER_WEEK};
pub use mask::MaskedTrace;
pub use metrics::{peak_of_sum, peak_reduction, sum_of_peaks};
pub use sanitize::{GapPolicy, RepairReport, SanitizeConfig, TraceSanitizer};
pub use slack::{off_peak_mask, slack_reduction, SlackProfile};
pub use stats::{Ecdf, TraceSummary};
pub use trace::PowerTrace;
