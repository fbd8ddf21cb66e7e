//! Correctness oracles for the SmoothOperator reproduction.
//!
//! Every layer of this workspace makes promises that ordinary example-based
//! tests only spot-check: the asynchrony score is bounded by the set size,
//! the parallel placement is bit-identical to the serial one, scaling every
//! trace by a constant must not change any placement decision. This crate
//! turns those promises into *oracles* — executable checks that can be run
//! against arbitrary (seeded) synthetic fleets — and bundles them into a
//! randomized battery suitable for CI and for the `smoothop check`
//! subcommand.
//!
//! Eight oracle families (see `DESIGN.md` §7):
//!
//! * **Invariant** ([`invariant`]) — properties of a single run: score
//!   bounds `1 ≤ A_M ≤ |M|`, peak-of-sum ≤ sum-of-peaks, remapping never
//!   worsens the worst node, `StatProf(0,0)`/`SmoOp(0,0)` provisioning
//!   identities, quantile edge laws.
//! * **Differential** ([`differential`]) — two implementations of the same
//!   contract must agree: serial vs parallel placement and remap, cached
//!   vs from-scratch aggregation, `simulate` vs `simulate_with_faults` on
//!   an empty schedule, and any quantile implementation vs an independent
//!   reference.
//! * **Metamorphic** ([`metamorphic`]) — known input transforms with known
//!   output effects: instance permutation, uniform power scaling
//!   (bit-exact for power-of-two factors), circular time shifts.
//! * **Arena** ([`arena`]) — the columnar [`so_powertrace::TraceArena`]
//!   pipelines vs their `Vec<PowerTrace>` twins: round-trips, batch sum
//!   and peak kernels, embeddings, and per-row quantiles (the StatProf
//!   kernel) must all be *bit-identical* — the contract the
//!   allocation-free hot paths rely on.
//! * **Online** ([`online`]) — the resident [`so_core::online::OnlineFleet`]
//!   engine vs offline recomputes: after any event sequence its aggregates,
//!   peaks, and asynchrony scores must be bit-identical to a from-scratch
//!   [`so_powertree::NodeAggregates::compute`] of the final fleet, the
//!   engine's flight ring must replay from the empty fleet to its live
//!   set, every recorded commit matching an independent materialized
//!   replay of the commit rule, and every repair pass, which reads arena
//!   rows in place, must take exactly the swaps of
//!   [`online::reference_repair`] over materialized traces.
//! * **Observability** ([`observability`]) — the live plane's alerts must
//!   tell the truth: a clean stream fires no violation-class alert while a
//!   planted breaker-budget violation fires *exactly one* `AlertFired`
//!   (with a postmortem dump) per excursion, and resolves and refires
//!   with hysteresis.
//! * **Daemon** ([`daemon`]) — the resident [`so_core::daemon::DaemonFleet`]
//!   ingest path vs batch recomputes: after *any* streamed sample sequence
//!   (including ring wrap-around and interleaved arrival/retirement churn)
//!   the incrementally maintained aggregates, window peaks, and
//!   asynchrony scores must be bit-identical to a from-scratch
//!   [`so_powertree::NodeAggregates::compute`] of the materialized windows,
//!   and an independent ring-replay model must agree on every window cell.
//! * **Plan** ([`plan`]) — the capacity-planning sweep's laws: requirement
//!   series are monotone in rack count, peak-of-sum ≤ sum-of-peaks at every
//!   sweep point (so SmoothOperator never fits fewer racks than StatProf),
//!   racks-fit is monotone non-decreasing in the overbooking allowance δ
//!   and non-increasing under a burstiness-raising trace transform, and a
//!   planned-then-simulated fleet never exceeds the overbooked budget.
//!
//! Oracle outcomes accumulate in an [`OracleReport`]; each evaluation also
//! emits the telemetry counters `so_oracle_evaluations_total` and
//! `so_oracle_violations_total` (labeled by family) when a telemetry sink
//! is installed.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), so_oracles::OracleError> {
//! use so_oracles::{run_battery, BatteryConfig};
//!
//! let outcome = run_battery(&BatteryConfig {
//!     seed: 7,
//!     instances: 48,
//! })?;
//! assert!(outcome.report.is_clean(), "{:#?}", outcome.report.violations());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

pub mod arena;
pub mod battery;
pub mod daemon;
pub mod differential;
pub mod fixture;
pub mod invariant;
pub mod metamorphic;
pub mod observability;
pub mod online;
pub mod plan;

pub use battery::{run_battery, BatteryConfig, BatteryOutcome};
pub use fixture::{fitting_topology, rotate_trace, Fixture};

/// The eight oracle families of the correctness harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OracleFamily {
    /// Properties that must hold for any single run.
    Invariant,
    /// Two implementations of the same contract must agree.
    Differential,
    /// Known input transforms with known output effects.
    Metamorphic,
    /// Columnar-arena pipelines must be bit-identical to their
    /// `Vec<PowerTrace>` twins.
    Arena,
    /// The online placement engine must agree bit-for-bit with offline
    /// recomputes of its resident state and commit decisions.
    Online,
    /// The live observability plane's alert engine must report exactly
    /// what the engine did.
    Observability,
    /// The resident daemon's incremental ring-buffer ingest must be
    /// bit-identical to batch recomputes of the materialized windows.
    Daemon,
    /// The capacity-planning sweep must obey its monotonicity and
    /// budget-safety laws (SmoothOperator racks-fit ≥ StatProf racks-fit,
    /// δ-monotonicity, planned fleets stay within the overbooked cap).
    Plan,
}

impl OracleFamily {
    /// All families, in reporting order.
    pub const ALL: [OracleFamily; 8] = [
        OracleFamily::Invariant,
        OracleFamily::Differential,
        OracleFamily::Metamorphic,
        OracleFamily::Arena,
        OracleFamily::Online,
        OracleFamily::Observability,
        OracleFamily::Daemon,
        OracleFamily::Plan,
    ];

    /// Stable lower-case label, used for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            OracleFamily::Invariant => "invariant",
            OracleFamily::Differential => "differential",
            OracleFamily::Metamorphic => "metamorphic",
            OracleFamily::Arena => "arena",
            OracleFamily::Online => "online",
            OracleFamily::Observability => "observability",
            OracleFamily::Daemon => "daemon",
            OracleFamily::Plan => "plan",
        }
    }

    fn index(self) -> usize {
        match self {
            OracleFamily::Invariant => 0,
            OracleFamily::Differential => 1,
            OracleFamily::Metamorphic => 2,
            OracleFamily::Arena => 3,
            OracleFamily::Online => 4,
            OracleFamily::Observability => 5,
            OracleFamily::Daemon => 6,
            OracleFamily::Plan => 7,
        }
    }
}

impl fmt::Display for OracleFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One failed oracle evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which family the oracle belongs to.
    pub family: OracleFamily,
    /// Stable oracle name (e.g. `"score_within_cardinality_bounds"`).
    pub oracle: &'static str,
    /// Human-readable description of the observed discrepancy.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.family, self.oracle, self.detail)
    }
}

/// Accumulated oracle outcomes: evaluation counts per family plus every
/// violation observed.
///
/// Each [`check`](Self::check) emits `so_oracle_evaluations_total` and (on
/// failure) `so_oracle_violations_total` telemetry counters labeled with
/// the family, so recorded batteries show up in metric snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    evaluations: [u64; 8],
    violations: Vec<Violation>,
}

impl OracleReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one oracle evaluation; a false `pass` stores a violation
    /// with the lazily-built detail message.
    pub fn check(
        &mut self,
        family: OracleFamily,
        oracle: &'static str,
        pass: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.evaluations[family.index()] += 1;
        if so_telemetry::enabled() {
            so_telemetry::counter_add(
                "so_oracle_evaluations_total",
                &[("family", family.label())],
                1,
            );
        }
        if !pass {
            if so_telemetry::enabled() {
                so_telemetry::counter_add(
                    "so_oracle_violations_total",
                    &[("family", family.label())],
                    1,
                );
            }
            self.violations.push(Violation {
                family,
                oracle,
                detail: detail(),
            });
        }
    }

    /// [`check`](Self::check) for approximate equality within a *relative*
    /// tolerance (absolute below magnitude 1): differential runners whose
    /// two sides sum floats in different orders use this with a documented
    /// tolerance.
    pub fn check_close(
        &mut self,
        family: OracleFamily,
        oracle: &'static str,
        got: f64,
        want: f64,
        rel_tol: f64,
    ) {
        let pass = (got - want).abs() <= rel_tol * want.abs().max(1.0);
        self.check(family, oracle, pass, || {
            format!("got {got}, want {want} (relative tolerance {rel_tol})")
        });
    }

    /// [`check`](Self::check) for bit-for-bit float equality — used where
    /// the two sides are documented to perform *identical* float
    /// operations (e.g. power-of-two scaling, circular shifts).
    pub fn check_exact(&mut self, family: OracleFamily, oracle: &'static str, got: f64, want: f64) {
        self.check(family, oracle, got.to_bits() == want.to_bits(), || {
            format!(
                "got {got} ({:#x}), want {want} ({:#x})",
                got.to_bits(),
                want.to_bits()
            )
        });
    }

    /// Evaluations recorded for one family.
    pub fn evaluations(&self, family: OracleFamily) -> u64 {
        self.evaluations[family.index()]
    }

    /// Total evaluations across all families.
    pub fn total_evaluations(&self) -> u64 {
        self.evaluations.iter().sum()
    }

    /// Every violation, in evaluation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations recorded for one family.
    pub fn violations_in(&self, family: OracleFamily) -> usize {
        self.violations
            .iter()
            .filter(|v| v.family == family)
            .count()
    }

    /// Whether every evaluation passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge_from(&mut self, other: &OracleReport) {
        for (mine, theirs) in self.evaluations.iter_mut().zip(other.evaluations) {
            *mine += theirs;
        }
        self.violations.extend(other.violations.iter().cloned());
    }
}

/// Error produced when an oracle cannot even be *evaluated* (as opposed to
/// a [`Violation`], which is an evaluation that ran and failed).
#[derive(Debug)]
pub enum OracleError {
    /// A trace-layer operation failed.
    Trace(so_powertrace::TraceError),
    /// A topology/assignment operation failed.
    Tree(so_powertree::TreeError),
    /// A placement/remap operation failed.
    Core(so_core::CoreError),
    /// A simulation run failed.
    Sim(so_sim::SimError),
    /// Fleet generation failed.
    Workload(so_workloads::WorkloadError),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Trace(e) => write!(f, "trace error: {e}"),
            OracleError::Tree(e) => write!(f, "tree error: {e}"),
            OracleError::Core(e) => write!(f, "placement error: {e}"),
            OracleError::Sim(e) => write!(f, "simulation error: {e}"),
            OracleError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl Error for OracleError {}

macro_rules! from_impl {
    ($variant:ident, $source:ty) => {
        impl From<$source> for OracleError {
            fn from(e: $source) -> Self {
                OracleError::$variant(e)
            }
        }
    };
}

from_impl!(Trace, so_powertrace::TraceError);
from_impl!(Tree, so_powertree::TreeError);
from_impl!(Core, so_core::CoreError);
from_impl!(Sim, so_sim::SimError);
from_impl!(Workload, so_workloads::WorkloadError);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_per_family() {
        let mut report = OracleReport::new();
        report.check(OracleFamily::Invariant, "always_true", true, String::new);
        report.check(OracleFamily::Invariant, "always_false", false, || {
            "expected".to_string()
        });
        report.check_close(OracleFamily::Differential, "close", 1.0, 1.0 + 1e-12, 1e-9);
        report.check_exact(OracleFamily::Metamorphic, "exact", 2.0, 2.0);
        assert_eq!(report.evaluations(OracleFamily::Invariant), 2);
        assert_eq!(report.evaluations(OracleFamily::Differential), 1);
        assert_eq!(report.evaluations(OracleFamily::Metamorphic), 1);
        assert_eq!(report.total_evaluations(), 4);
        assert_eq!(report.violations_in(OracleFamily::Invariant), 1);
        assert!(!report.is_clean());
        assert_eq!(report.violations()[0].oracle, "always_false");
        assert_eq!(report.violations()[0].detail, "expected");
    }

    #[test]
    fn check_exact_distinguishes_near_values() {
        let mut report = OracleReport::new();
        report.check_exact(
            OracleFamily::Metamorphic,
            "off_by_ulp",
            1.0,
            1.0 + f64::EPSILON,
        );
        assert_eq!(report.violations_in(OracleFamily::Metamorphic), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OracleReport::new();
        a.check(OracleFamily::Invariant, "ok", true, String::new);
        let mut b = OracleReport::new();
        b.check(OracleFamily::Invariant, "bad", false, || "boom".to_string());
        a.merge_from(&b);
        assert_eq!(a.evaluations(OracleFamily::Invariant), 2);
        assert_eq!(a.violations().len(), 1);
    }

    #[test]
    fn telemetry_counters_are_emitted() {
        use std::sync::Arc;

        let sink = Arc::new(so_telemetry::RecordingSink::with_virtual_clock());
        so_telemetry::with_sink(sink.clone(), || {
            let mut report = OracleReport::new();
            report.check(OracleFamily::Invariant, "pass", true, String::new);
            report.check(OracleFamily::Invariant, "fail", false, || "x".to_string());
            report.check(OracleFamily::Metamorphic, "pass", true, String::new);
        });
        let metrics = sink.snapshot();
        assert_eq!(
            metrics.counter("so_oracle_evaluations_total", &[("family", "invariant")]),
            2
        );
        assert_eq!(
            metrics.counter("so_oracle_violations_total", &[("family", "invariant")]),
            1
        );
        assert_eq!(
            metrics.counter("so_oracle_evaluations_total", &[("family", "metamorphic")]),
            1
        );
    }

    #[test]
    fn violation_display_names_family_and_oracle() {
        let v = Violation {
            family: OracleFamily::Differential,
            oracle: "placement_serial_matches_parallel",
            detail: "racks diverge at instance 3".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("differential"));
        assert!(s.contains("placement_serial_matches_parallel"));
        assert!(s.contains("instance 3"));
    }

    #[test]
    fn error_wraps_layer_errors() {
        let e: OracleError = so_powertrace::TraceError::Empty.into();
        assert!(e.to_string().contains("trace"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OracleError>();
    }
}
