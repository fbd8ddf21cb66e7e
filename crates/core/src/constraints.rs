//! Placement constraints: fault-domain anti-affinity.
//!
//! Production services replicate shards across fault domains; a placement
//! optimizer that packs two replicas of one shard onto the same rack
//! trades power efficiency for availability. This module lets callers
//! declare *anti-affinity groups* (sets of instances that must land on
//! pairwise-distinct racks) and repairs a derived placement with
//! embedding-aware swaps, degrading the asynchrony objective as little as
//! possible.

use std::collections::{BTreeMap, BTreeSet};

use so_cluster::euclidean_sq;
use so_powertree::{Assignment, NodeId, PowerTopology};
use so_workloads::Fleet;

use crate::error::CoreError;
use crate::placement::SmoothPlacer;
use crate::score::instance_to_service_score;
use crate::straces::ServiceTraces;

/// Constraints a placement must satisfy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementConstraints {
    anti_affinity: Vec<Vec<usize>>,
}

impl PlacementConstraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a group of instances that must land on pairwise-distinct
    /// racks (e.g. the replicas of one shard). Groups of zero or one
    /// instance are accepted and ignored.
    pub fn anti_affinity(mut self, group: Vec<usize>) -> Self {
        if group.len() > 1 {
            self.anti_affinity.push(group);
        }
        self
    }

    /// The declared anti-affinity groups.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.anti_affinity
    }

    /// Checks an assignment, returning the indices of violated groups.
    ///
    /// # Errors
    ///
    /// Propagates out-of-range instance indices.
    pub fn violations(&self, assignment: &Assignment) -> Result<Vec<usize>, CoreError> {
        let mut violated = Vec::new();
        for (g, group) in self.anti_affinity.iter().enumerate() {
            let mut racks = BTreeSet::new();
            for &i in group {
                if !racks.insert(assignment.rack_of(i)?) {
                    violated.push(g);
                    break;
                }
            }
        }
        Ok(violated)
    }
}

impl SmoothPlacer {
    /// Derives a workload-aware placement that also satisfies the given
    /// anti-affinity constraints.
    ///
    /// The unconstrained placement is computed first; violations are then
    /// repaired by swapping a colliding instance with the *most similar*
    /// (in asynchrony-score space) instance on a rack the group does not
    /// occupy, so the power objective degrades minimally.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConstraintUnsatisfiable`] when a group has
    /// more members than there are racks (or an index is out of range),
    /// and propagates placement errors.
    pub fn place_constrained(
        &self,
        fleet: &Fleet,
        topology: &PowerTopology,
        constraints: &PlacementConstraints,
    ) -> Result<Assignment, CoreError> {
        let rack_count = topology.racks().len();
        for group in constraints.groups() {
            if group.len() > rack_count {
                return Err(CoreError::ConstraintUnsatisfiable {
                    group_size: group.len(),
                    racks: rack_count,
                });
            }
            if let Some(&bad) = group.iter().find(|&&i| i >= fleet.len()) {
                return Err(CoreError::ConstraintUnsatisfiable {
                    group_size: bad,
                    racks: fleet.len(),
                });
            }
        }

        let mut assignment = self.place(fleet, topology)?;
        if constraints.groups().is_empty() {
            return Ok(assignment);
        }

        // Embedding reused for similarity-aware swap repair.
        let members: Vec<usize> = (0..fleet.len()).collect();
        let straces = ServiceTraces::extract(fleet, &members, self.config().top_services)?;
        let traces = fleet.averaged_traces();
        let vectors: Vec<Vec<f64>> = members
            .iter()
            .map(|&i| {
                straces
                    .traces()
                    .iter()
                    .map(|s| instance_to_service_score(&traces[i], s))
                    .collect::<Result<Vec<f64>, CoreError>>()
            })
            .collect::<Result<_, _>>()?;

        // Instances pinned by constraints must not be displaced by later
        // repairs of other groups.
        let constrained: BTreeSet<usize> = constraints.groups().iter().flatten().copied().collect();

        for group in constraints.groups() {
            repair_group(group, &constrained, &vectors, topology, &mut assignment)?;
        }

        debug_assert!(constraints.violations(&assignment)?.is_empty());
        Ok(assignment)
    }
}

/// Moves colliding members of one anti-affinity group onto free racks via
/// similarity-minimizing swaps.
fn repair_group(
    group: &[usize],
    constrained: &BTreeSet<usize>,
    vectors: &[Vec<f64>],
    topology: &PowerTopology,
    assignment: &mut Assignment,
) -> Result<(), CoreError> {
    loop {
        // Racks already used by the group, and the first collision.
        let mut used: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut collision: Option<usize> = None;
        for &i in group {
            let rack = assignment.rack_of(i)?;
            if used.insert(rack, i).is_some() {
                collision = Some(i);
                break;
            }
        }
        let Some(moving) = collision else {
            return Ok(());
        };
        let used_racks: BTreeSet<NodeId> = used.keys().copied().collect();

        // Best swap partner: an unconstrained instance on a rack the group
        // does not occupy, nearest in embedding space.
        let mut best: Option<(usize, f64)> = None;
        for (j, rack) in assignment.racks().iter().enumerate() {
            if used_racks.contains(rack) || constrained.contains(&j) {
                continue;
            }
            let d = euclidean_sq(&vectors[moving], &vectors[j]);
            if best.map_or(true, |(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        let Some((partner, _)) = best else {
            // No swap partner exists (every other instance is constrained):
            // unsatisfiable in practice.
            return Err(CoreError::ConstraintUnsatisfiable {
                group_size: group.len(),
                racks: topology.racks().len(),
            });
        };
        assignment.swap(moving, partner)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn constraints_are_satisfied_after_repair() {
        let fleet = DcScenario::dc3().generate_fleet(64).unwrap();
        let topo = topo();
        // Three shards of four replicas each, deliberately chosen from the
        // same service block so the unconstrained placement may collide.
        let constraints = PlacementConstraints::none()
            .anti_affinity(vec![0, 1, 2, 3])
            .anti_affinity(vec![4, 5, 6, 7])
            .anti_affinity(vec![20, 21, 22, 23]);
        let assignment = SmoothPlacer::default()
            .place_constrained(&fleet, &topo, &constraints)
            .unwrap();
        assert!(constraints.violations(&assignment).unwrap().is_empty());
        assert_eq!(assignment.len(), 64);
        // Still a valid balanced placement.
        for (_, members) in assignment.by_rack() {
            assert!(members.len() <= topo.rack_capacity());
        }
    }

    #[test]
    fn repair_degrades_quality_minimally() {
        let fleet = DcScenario::dc3().generate_fleet(64).unwrap();
        let topo = topo();
        let unconstrained = SmoothPlacer::default().place(&fleet, &topo).unwrap();
        let constraints = PlacementConstraints::none().anti_affinity(vec![0, 1, 2, 3]);
        let constrained = SmoothPlacer::default()
            .place_constrained(&fleet, &topo, &constraints)
            .unwrap();

        let test = fleet.test_traces();
        let free = so_powertree::NodeAggregates::compute(&topo, &unconstrained, test)
            .unwrap()
            .sum_of_peaks(&topo, so_powertree::Level::Rack);
        let fixed = so_powertree::NodeAggregates::compute(&topo, &constrained, test)
            .unwrap()
            .sum_of_peaks(&topo, so_powertree::Level::Rack);
        // Within 3% of the unconstrained objective.
        assert!(fixed <= free * 1.03, "constrained {fixed} vs free {free}");
    }

    #[test]
    fn oversized_groups_are_rejected() {
        let fleet = DcScenario::dc1().generate_fleet(40).unwrap();
        let topo = topo(); // 16 racks
        let constraints = PlacementConstraints::none().anti_affinity((0..17).collect());
        let err = SmoothPlacer::default()
            .place_constrained(&fleet, &topo, &constraints)
            .unwrap_err();
        assert!(matches!(err, CoreError::ConstraintUnsatisfiable { .. }));
    }

    #[test]
    fn out_of_range_members_are_rejected() {
        let fleet = DcScenario::dc1().generate_fleet(8).unwrap();
        let topo = topo();
        let constraints = PlacementConstraints::none().anti_affinity(vec![0, 99]);
        assert!(SmoothPlacer::default()
            .place_constrained(&fleet, &topo, &constraints)
            .is_err());
    }

    #[test]
    fn trivial_groups_are_ignored() {
        let constraints = PlacementConstraints::none()
            .anti_affinity(vec![])
            .anti_affinity(vec![3]);
        assert!(constraints.groups().is_empty());
    }
}
