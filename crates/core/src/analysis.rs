//! Fragmentation analysis: per-level sums of peaks, node asynchrony
//! scores, and before/after comparisons (the measurements behind Figures 9
//! and 10).

use so_powertrace::{peak_reduction, MaskedTrace, PowerTrace};
use so_powertree::{Assignment, Level, NodeAggregates, PowerTopology};

use crate::degraded::{complete_with_derived_priors, DegradedReport};
use crate::error::CoreError;
use crate::score::asynchrony_score;

/// Fragmentation indicators for one level of the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelFragmentation {
    /// The level.
    pub level: Level,
    /// Sum over the level's nodes of each node's aggregate peak, watts.
    pub sum_of_peaks: f64,
    /// Mean asynchrony score of the level's nodes (children-aggregate
    /// based), when defined.
    pub mean_score: f64,
    /// Lowest node asynchrony score at the level.
    pub min_score: f64,
}

/// Fragmentation indicators for a whole placement.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationReport {
    levels: Vec<LevelFragmentation>,
}

impl FragmentationReport {
    /// Analyzes a placement against a set of instance traces.
    ///
    /// Node asynchrony scores use each node's children aggregates as the
    /// component traces (instances for racks), measuring how well the
    /// node's direct children complement each other.
    ///
    /// # Errors
    ///
    /// Propagates trace and tree errors.
    pub fn analyze(
        topology: &PowerTopology,
        assignment: &Assignment,
        instance_traces: &[PowerTrace],
    ) -> Result<Self, CoreError> {
        let aggregates = NodeAggregates::compute(topology, assignment, instance_traces)?;
        let by_rack = assignment.by_rack();

        let mut levels = Vec::new();
        for level in Level::ALL {
            let nodes = topology.nodes_at_level(level);
            let sum_of_peaks = aggregates.sum_of_peaks(topology, level);

            let mut scores = Vec::new();
            for &node in nodes {
                let score = if level.is_rack() {
                    match by_rack.get(&node) {
                        Some(members) if members.len() >= 2 => Some(asynchrony_score(
                            members.iter().map(|&i| &instance_traces[i]),
                        )?),
                        _ => None,
                    }
                } else {
                    let children = topology.node(node)?.children().to_vec();
                    let child_traces: Vec<&PowerTrace> = children
                        .iter()
                        .map(|&c| aggregates.trace(c))
                        .collect::<Result<_, _>>()?;
                    if child_traces.len() >= 2 {
                        Some(asynchrony_score(child_traces)?)
                    } else {
                        None
                    }
                };
                if let Some(s) = score {
                    scores.push(s);
                }
            }

            let (mean_score, min_score) = if scores.is_empty() {
                (1.0, 1.0)
            } else {
                let mean = scores.iter().sum::<f64>() / scores.len() as f64;
                let min = scores.iter().copied().fold(f64::MAX, f64::min);
                (mean, min)
            };
            levels.push(LevelFragmentation {
                level,
                sum_of_peaks,
                mean_score,
                min_score,
            });
        }
        Ok(Self { levels })
    }

    /// Analyzes a placement from *partial* instance telemetry: masked
    /// traces are completed from service-level priors (see
    /// [`crate::degraded`]) before the usual analysis runs. The returned
    /// [`DegradedReport`] records, per instance, whether the analysis
    /// rested on measurements, prior-filled holes, or the prior alone —
    /// the caller can weigh the fragmentation numbers accordingly.
    ///
    /// # Errors
    ///
    /// Propagates completion errors ([`CoreError::InsufficientData`] for
    /// a service with no observed data) plus trace and tree errors.
    pub fn analyze_degraded(
        topology: &PowerTopology,
        assignment: &Assignment,
        masked: &[MaskedTrace],
        service_of: &[usize],
        min_coverage: f64,
    ) -> Result<(Self, DegradedReport), CoreError> {
        let (traces, degraded) = complete_with_derived_priors(masked, service_of, min_coverage)?;
        let report = Self::analyze(topology, assignment, &traces)?;
        Ok((report, degraded))
    }

    /// The per-level indicators, root level first.
    pub fn levels(&self) -> &[LevelFragmentation] {
        &self.levels
    }

    /// The indicators for one level.
    pub fn at_level(&self, level: Level) -> &LevelFragmentation {
        &self.levels[level.depth()]
    }
}

/// Relative reduction of the sum of peaks at every level:
/// `(before − after) / before`, root level first — the data behind
/// Figure 10.
pub fn peak_reduction_by_level(
    before: &FragmentationReport,
    after: &FragmentationReport,
) -> Vec<(Level, f64)> {
    Level::ALL
        .iter()
        .map(|&level| {
            (
                level,
                peak_reduction(
                    before.at_level(level).sum_of_peaks,
                    after.at_level(level).sum_of_peaks,
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::SmoothPlacer;
    use so_powertree::NodeId;
    use so_workloads::DcScenario;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(2)
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(4)
            .build()
            .unwrap()
    }

    #[test]
    fn report_covers_all_levels() {
        let fleet = DcScenario::dc1().generate_fleet(64).unwrap();
        let topo = topo();
        let assignment = Assignment::round_robin(&topo, 64).unwrap();
        let report =
            FragmentationReport::analyze(&topo, &assignment, fleet.averaged_traces()).unwrap();
        assert_eq!(report.levels().len(), 6);
        for l in report.levels() {
            assert!(l.sum_of_peaks > 0.0);
            assert!(l.min_score >= 1.0 - 1e-9);
            assert!(l.mean_score >= l.min_score - 1e-9);
        }
    }

    #[test]
    fn smooth_placement_improves_report() {
        let fleet = DcScenario::dc3().generate_fleet(64).unwrap();
        let topo = topo();
        let racks = topo.racks();
        let grouped = Assignment::new(
            (0..64).map(|i| racks[i / 4]).collect::<Vec<NodeId>>(),
            &topo,
        )
        .unwrap();
        let smooth = SmoothPlacer::default().place(&fleet, &topo).unwrap();

        let test = fleet.test_traces();
        let before = FragmentationReport::analyze(&topo, &grouped, test).unwrap();
        let after = FragmentationReport::analyze(&topo, &smooth, test).unwrap();

        let reductions = peak_reduction_by_level(&before, &after);
        let rack = reductions
            .iter()
            .find(|(l, _)| *l == Level::Rack)
            .map(|(_, r)| *r)
            .unwrap();
        assert!(
            rack > 0.0,
            "rack-level peak reduction {rack} should be positive"
        );
        // Root level never changes (same total power).
        let dc = reductions
            .iter()
            .find(|(l, _)| *l == Level::Datacenter)
            .map(|(_, r)| *r)
            .unwrap();
        assert!(
            dc.abs() < 1e-9,
            "datacenter peak must be placement-invariant, got {dc}"
        );
        // Scores improve too.
        assert!(after.at_level(Level::Rack).mean_score > before.at_level(Level::Rack).mean_score);
    }
}
