//! Continuous fragmentation monitoring (§3.6).
//!
//! "Our framework continuously records the I-traces and the S-traces, and
//! dynamically re-evaluates the severity of the fragmentation problem by
//! monitoring the sum of peaks of power traces at each level of power
//! infrastructure." When the drift exceeds a threshold the monitor
//! recommends a remapping pass.

use so_powertrace::PowerTrace;
use so_powertree::{Assignment, Level, NodeAggregates, PowerTopology};

use crate::error::CoreError;

/// Per-level drift of the sum of peaks relative to the monitored baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelDrift {
    /// The level.
    pub level: Level,
    /// Sum of peaks at baseline, watts.
    pub baseline: f64,
    /// Sum of peaks in the observed window, watts.
    pub observed: f64,
    /// Relative change `(observed − baseline) / baseline`.
    pub relative_change: f64,
}

/// Outcome of one monitoring observation.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Drift per level, root first.
    pub levels: Vec<LevelDrift>,
    /// Whether any leaf-level (SB/RPP/rack) drift exceeded the threshold.
    pub remap_recommended: bool,
}

/// Watches the per-level sums of peaks of a placement and flags when
/// mid-/long-term workload drift warrants a remapping pass.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use so_core::DriftMonitor;
/// use so_powertree::{Assignment, PowerTopology};
/// use so_workloads::DcScenario;
///
/// let fleet = DcScenario::dc1().generate_fleet(40)?;
/// let topo = PowerTopology::builder().build()?;
/// let assignment = Assignment::round_robin(&topo, 40)?;
/// let monitor = DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05)?;
/// let report = monitor.observe(&topo, &assignment, fleet.test_traces())?;
/// assert!(!report.remap_recommended); // test week ≈ training weeks
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriftMonitor {
    baseline_sums: Vec<(Level, f64)>,
    threshold: f64,
}

impl DriftMonitor {
    /// Records the baseline sums of peaks of `assignment` under the given
    /// traces; drift beyond `threshold` (relative) triggers a remap
    /// recommendation.
    ///
    /// # Errors
    ///
    /// Propagates tree/trace errors; rejects non-finite or negative
    /// thresholds as [`CoreError::EmptySet`] is never returned here but
    /// invalid thresholds panic in debug builds.
    pub fn baseline(
        topology: &PowerTopology,
        assignment: &Assignment,
        traces: &[PowerTrace],
        threshold: f64,
    ) -> Result<Self, CoreError> {
        debug_assert!(threshold.is_finite() && threshold >= 0.0);
        let aggregates = NodeAggregates::compute(topology, assignment, traces)?;
        let baseline_sums = Level::ALL
            .iter()
            .map(|&level| (level, aggregates.sum_of_peaks(topology, level)))
            .collect();
        Ok(Self {
            baseline_sums,
            threshold,
        })
    }

    /// The relative drift threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Compares a fresh observation window against the baseline.
    ///
    /// # Errors
    ///
    /// Propagates tree/trace errors.
    pub fn observe(
        &self,
        topology: &PowerTopology,
        assignment: &Assignment,
        traces: &[PowerTrace],
    ) -> Result<DriftReport, CoreError> {
        let aggregates = NodeAggregates::compute(topology, assignment, traces)?;
        let mut levels = Vec::with_capacity(self.baseline_sums.len());
        let mut remap_recommended = false;
        for &(level, baseline) in &self.baseline_sums {
            let observed = aggregates.sum_of_peaks(topology, level);
            let relative_change = if baseline > 0.0 {
                (observed - baseline) / baseline
            } else {
                0.0
            };
            if level >= Level::Sb && relative_change > self.threshold {
                remap_recommended = true;
            }
            levels.push(LevelDrift {
                level,
                baseline,
                observed,
                relative_change,
            });
        }
        let report = DriftReport {
            levels,
            remap_recommended,
        };
        record_drift_metrics(&report);
        Ok(report)
    }
}

/// Mirrors a [`DriftReport`] into the installed telemetry sink: one gauge
/// triple per level plus observation/recommendation counters. Gauge keys
/// are unique per level, so repeated observations overwrite rather than
/// accumulate — the exported values always match the latest report.
fn record_drift_metrics(report: &DriftReport) {
    if !so_telemetry::enabled() {
        return;
    }
    so_telemetry::counter_add("so_drift_observations_total", &[], 1);
    if report.remap_recommended {
        so_telemetry::counter_add("so_drift_remap_recommended_total", &[], 1);
    }
    for drift in &report.levels {
        let level = drift.level.short_name();
        so_telemetry::gauge_set(
            "so_drift_baseline_watts",
            &[("level", level)],
            drift.baseline,
        );
        so_telemetry::gauge_set(
            "so_drift_observed_watts",
            &[("level", level)],
            drift.observed,
        );
        so_telemetry::gauge_set(
            "so_drift_relative_change",
            &[("level", level)],
            drift.relative_change,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_workloads::{DcScenario, Fleet};

    fn setup() -> (PowerTopology, Assignment, Fleet) {
        let fleet = DcScenario::dc1().generate_fleet(48).unwrap();
        let topo = PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(6)
            .build()
            .unwrap();
        let assignment = Assignment::round_robin(&topo, 48).unwrap();
        (topo, assignment, fleet)
    }

    #[test]
    fn stable_workload_raises_no_flag() {
        let (topo, assignment, fleet) = setup();
        let monitor =
            DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05).unwrap();
        let report = monitor
            .observe(&topo, &assignment, fleet.test_traces())
            .unwrap();
        assert!(!report.remap_recommended, "{report:?}");
        assert_eq!(report.levels.len(), 6);
    }

    #[test]
    fn amplified_leaves_trigger_the_flag() {
        let (topo, assignment, fleet) = setup();
        let monitor =
            DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05).unwrap();
        // Everything 30% hotter: leaf sums rise well past the threshold.
        let drifted: Vec<PowerTrace> = fleet.test_traces().iter().map(|t| t.scale(1.3)).collect();
        let report = monitor.observe(&topo, &assignment, &drifted).unwrap();
        assert!(report.remap_recommended);
        for drift in &report.levels {
            assert!(drift.relative_change > 0.2, "{drift:?}");
        }
    }

    #[test]
    fn drift_gauges_match_the_report() {
        let (topo, assignment, fleet) = setup();
        let monitor =
            DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05).unwrap();
        let sink = std::sync::Arc::new(so_telemetry::RecordingSink::with_virtual_clock());
        let report = so_telemetry::with_sink(sink.clone(), || {
            monitor
                .observe(&topo, &assignment, fleet.test_traces())
                .unwrap()
        });

        let snap = sink.snapshot();
        assert_eq!(snap.counter("so_drift_observations_total", &[]), 1);
        assert_eq!(
            snap.counter("so_drift_remap_recommended_total", &[]),
            u64::from(report.remap_recommended)
        );
        for drift in &report.levels {
            let level = drift.level.short_name();
            assert_eq!(
                snap.gauge("so_drift_baseline_watts", &[("level", level)]),
                Some(drift.baseline)
            );
            assert_eq!(
                snap.gauge("so_drift_observed_watts", &[("level", level)]),
                Some(drift.observed)
            );
            assert_eq!(
                snap.gauge("so_drift_relative_change", &[("level", level)]),
                Some(drift.relative_change)
            );
        }
    }

    #[test]
    fn cooling_workload_never_triggers() {
        let (topo, assignment, fleet) = setup();
        let monitor =
            DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05).unwrap();
        let cooled: Vec<PowerTrace> = fleet.test_traces().iter().map(|t| t.scale(0.5)).collect();
        let report = monitor.observe(&topo, &assignment, &cooled).unwrap();
        assert!(
            !report.remap_recommended,
            "shrinking peaks are not fragmentation"
        );
    }
}
