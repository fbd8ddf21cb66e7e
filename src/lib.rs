//! # SmoothOperator
//!
//! A full reproduction of *SmoothOperator: Reducing Power Fragmentation
//! and Improving Power Utilization in Large-scale Datacenters* (Hsu, Deng,
//! Mars, Tang — ASPLOS 2018), built as a workspace of focused crates and
//! re-exported here under one roof.
//!
//! Datacenter power infrastructure is a tree (datacenter → suite → MSB →
//! SB → RPP → rack). Placing service instances with *synchronous* power
//! patterns under the same leaf power node creates sharp local peaks that
//! exhaust the leaf's budget while the root still has headroom — *power
//! budget fragmentation*. SmoothOperator measures each instance's temporal
//! power pattern, embeds instances by their **asynchrony scores** against
//! the top power-consuming services, clusters them, and deals each cluster
//! round-robin across the tree, flattening every node's aggregate. The
//! unlocked headroom hosts extra servers, which **dynamic power profile
//! reshaping** (server conversion + proactive throttling/boosting on
//! storage-disaggregated hardware) keeps busy around the clock.
//!
//! ## Module map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `so-powertrace` | power time series, slack, percentile bands |
//! | [`tree`] | `so-powertree` | power topology, assignments, aggregation, breakers |
//! | [`workloads`] | `so-workloads` | synthetic diurnal services, DC1–DC3 scenarios |
//! | [`cluster`] | `so-cluster` | k-means, balanced k-means, PCA, t-SNE |
//! | [`placement`] | `so-core` | asynchrony scores, S-traces, placement, remapping |
//! | [`baselines`] | `so-baselines` | oblivious/random placement, StatProf(u, δ), ESD shaving |
//! | [`capping`] | `so-capping` | Dynamo/SHIP-style hierarchical power capping |
//! | [`sim`] | `so-sim` | discrete-time runtime, LC/Batch models, DVFS |
//! | [`reshape`] | `so-reshape` | conversion & throttle/boost policies, pipeline |
//! | [`oracles`] | `so-oracles` | invariant/differential/metamorphic correctness oracles |
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use smoothoperator::prelude::*;
//!
//! // A synthetic datacenter (mix modeled after the paper's DC2).
//! let fleet = DcScenario::dc2().generate_fleet(96)?;
//! let topo = PowerTopology::builder()
//!     .suites(1)
//!     .msbs_per_suite(2)
//!     .sbs_per_msb(2)
//!     .rpps_per_sb(2)
//!     .racks_per_rpp(2)
//!     .rack_capacity(6)
//!     .build()?;
//!
//! // Workload-aware placement vs the historical service-grouped layout.
//! let grouped = oblivious_placement(&fleet, &topo, 0.0, 7)?;
//! let smooth = SmoothPlacer::default().place(&fleet, &topo)?;
//!
//! let before = NodeAggregates::compute(&topo, &grouped, fleet.test_traces())?;
//! let after = NodeAggregates::compute(&topo, &smooth, fleet.test_traces())?;
//! let reduction = 1.0 - after.sum_of_peaks(&topo, Level::Rpp)
//!     / before.sum_of_peaks(&topo, Level::Rpp);
//! assert!(reduction > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// Power time-series substrate (re-export of `so-powertrace`).
pub use so_powertrace as trace;

/// Power delivery tree substrate (re-export of `so-powertree`).
pub use so_powertree as tree;

/// Synthetic workload substrate (re-export of `so-workloads`).
pub use so_workloads as workloads;

/// Clustering substrate (re-export of `so-cluster`).
pub use so_cluster as cluster;

/// The placement framework — the paper's core (re-export of `so-core`).
pub use so_core as placement;

/// Baseline schemes (re-export of `so-baselines`).
pub use so_baselines as baselines;

/// Hierarchical power capping (re-export of `so-capping`).
pub use so_capping as capping;

/// Runtime simulator (re-export of `so-sim`).
pub use so_sim as sim;

/// Dynamic power profile reshaping (re-export of `so-reshape`).
pub use so_reshape as reshape;

/// Correctness oracles and the seeded check battery (re-export of
/// `so-oracles`).
pub use so_oracles as oracles;

/// Million-instance scale tier (columnar ladder, `BENCH_scale.json`) and
/// the online rung: the one churn loop over the resident online engine,
/// headless for `BENCH_online.json` or watched through a live plane
/// (`smoothop online --listen / --watch-out / --flight-out`).
pub mod scale;

/// Capacity-planning sweep behind `smoothop plan`: racks-fit under an
/// MSB budget, StatProf vs SmoothOperator, and the `BENCH_plan.json`
/// emitter.
pub mod plan;

/// `smoothop gate`: per-phase regression and exact-field checks of one
/// `BENCH_*.json` point against a baseline.
pub mod gate;

/// `smoothopd`: the resident placement daemon behind `smoothop serve` —
/// streaming ring-buffer ingest, live queries, background repair — and
/// the `BENCH_daemon.json` load rung.
pub mod serve;

/// The most commonly used items in one import.
pub mod prelude {
    pub use so_baselines::{
        greedy_peak_placement, oblivious_placement, random_placement, ProvisioningDegrees,
    };
    pub use so_core::{
        asynchrony_score, remap, DriftMonitor, FragmentationReport, PlacementConfig,
        PlacementConstraints, RemapConfig, ServiceTraces, SmoothPlacer,
    };
    pub use so_oracles::{run_battery, BatteryConfig, OracleFamily, OracleReport};
    pub use so_powertrace::{TraceArena, TraceView};

    pub use crate::plan::{
        racks_fit_from_series, run_plan, PlanConfig, PlanFit, PlanPoint, PlanReport, PlanWorkload,
    };
    pub use crate::scale::{
        run_online_scale, run_scale, OnlineScaleConfig, OnlineScalePoint, OnlineScaleReport,
        ScaleConfig, ScaleReport, ScaleWorkload,
    };
    pub use crate::serve::{
        run_daemon_scale, run_serve, DaemonScaleConfig, DaemonScaleReport, ServeConfig,
        ServeOutcome,
    };
    pub use so_powertrace::{PowerTrace, SlackProfile, TimeGrid};
    pub use so_powertree::{
        Assignment, Level, NodeAggregates, NodeId, PowerTopology, TopologyShape,
    };
    pub use so_reshape::{
        fitting_topology, operate, run_scenario, ConversionPolicy, LongRunConfig, PipelineConfig,
        ThrottleBoostPolicy,
    };
    pub use so_sim::{simulate, SimConfig, StaticPolicy, Telemetry};
    pub use so_workloads::{
        profile_services, DcScenario, Fleet, OfferedLoad, ServiceClass, WorkKind,
    };
}
