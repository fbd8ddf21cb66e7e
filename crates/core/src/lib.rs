//! SmoothOperator core: the paper's primary contribution.
//!
//! This crate implements the workload-aware service-instance placement and
//! remapping framework of *SmoothOperator: Reducing Power Fragmentation and
//! Improving Power Utilization in Large-scale Datacenters* (ASPLOS 2018):
//!
//! * [`asynchrony_score`] — the temporal-heterogeneity metric (§3.4):
//!   `Σ peak(P_j) / peak(Σ P_j)`, 1.0 for perfectly synchronous traces and
//!   `|M|` for perfectly complementary ones;
//! * [`ServiceTraces`] — S-trace extraction for the top power consumers
//!   (§3.3, Eq. 5);
//! * [`score_vectors`] — the `|B|`-dimensional I-to-S embedding (§3.5);
//! * [`SmoothPlacer`] — balanced-cluster + round-robin hierarchical
//!   placement down the power tree (§3.5);
//! * [`remap`] — differential-score swap repair under workload drift
//!   (§3.6);
//! * [`FragmentationReport`] — sums of peaks and node scores per level
//!   (the measurements behind Figures 9 and 10).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use so_core::{FragmentationReport, SmoothPlacer};
//! use so_powertree::{Level, PowerTopology};
//! use so_workloads::DcScenario;
//!
//! let fleet = DcScenario::dc2().generate_fleet(64)?;
//! let topo = PowerTopology::builder()
//!     .suites(1)
//!     .msbs_per_suite(2)
//!     .sbs_per_msb(2)
//!     .rpps_per_sb(2)
//!     .racks_per_rpp(2)
//!     .rack_capacity(4)
//!     .build()?;
//! let assignment = SmoothPlacer::default().place(&fleet, &topo)?;
//! let report = FragmentationReport::analyze(&topo, &assignment, fleet.test_traces())?;
//! assert!(report.at_level(Level::Rpp).sum_of_peaks > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod admission;
mod analysis;
mod constraints;
pub mod daemon;
mod embedding;
mod error;
mod monitor;
pub mod online;
mod placement;
mod remap;
mod score;
mod straces;

pub use admission::{admission_decisions, AdmissionDecision};
pub use analysis::{peak_reduction_by_level, FragmentationReport, LevelFragmentation};
pub use constraints::PlacementConstraints;
pub use daemon::{DaemonFleet, IngestReport, SampleUpdate};
pub use embedding::{
    pairwise_score_vectors, score_vectors, score_vectors_arena, score_vectors_from_traces,
};
pub use error::CoreError;
pub use monitor::{DriftMonitor, DriftReport, LevelDrift};
pub use online::{
    offline_choose, sample_racks, select_decision, CommitPolicy, EventRecord, FragmentationLevel,
    LeafDecision, OnlineConfig, OnlineFleet,
};
pub use placement::{PlacementConfig, SmoothPlacer};
pub use remap::{remap, remap_traces, RemapConfig, RemapReport, SwapRecord};
pub use score::{
    asynchrony_score, averaged_peer_trace, differential_score, differential_score_excluding,
    instance_to_service_score, pairwise_score, pairwise_score_from_peaks, pairwise_score_samples,
    peak_of_sum_samples,
};
pub use straces::ServiceTraces;
