//! Mapping of service instances onto racks.

use std::collections::BTreeMap;

use crate::error::TreeError;
use crate::node::NodeId;
use crate::topology::PowerTopology;

/// An assignment of service instances (dense indices `0..n`) to racks of a
/// [`PowerTopology`].
///
/// Both SmoothOperator's placement and the baselines produce `Assignment`
/// values; everything downstream (aggregation, provisioning, the runtime
/// simulator) consumes them.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertree::TreeError> {
/// use so_powertree::{Assignment, PowerTopology};
///
/// let topo = PowerTopology::builder().build()?;
/// let assignment = Assignment::round_robin(&topo, 100)?;
/// assert_eq!(assignment.len(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    rack_of: Vec<NodeId>,
}

impl Assignment {
    /// Creates an assignment from an explicit instance → rack map, validated
    /// against the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] / [`TreeError::NotARack`] for bad
    /// targets and [`TreeError::RackOverCapacity`] when any rack receives
    /// more instances than [`PowerTopology::rack_capacity`].
    pub fn new(rack_of: Vec<NodeId>, topology: &PowerTopology) -> Result<Self, TreeError> {
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for &rack in &rack_of {
            let node = topology.node(rack)?;
            if !node.is_rack() {
                return Err(TreeError::NotARack(rack));
            }
            *counts.entry(rack).or_insert(0) += 1;
        }
        let capacity = topology.rack_capacity();
        for (rack, assigned) in counts {
            if assigned > capacity {
                return Err(TreeError::RackOverCapacity {
                    rack,
                    assigned,
                    capacity,
                });
            }
        }
        Ok(Self { rack_of })
    }

    /// Deals `n` instances across all racks in round-robin order — a
    /// placement-agnostic starting point for tests and examples.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::RackOverCapacity`] when `n` exceeds the
    /// datacenter's server capacity.
    pub fn round_robin(topology: &PowerTopology, n: usize) -> Result<Self, TreeError> {
        let racks = topology.racks();
        let rack_of = (0..n).map(|i| racks[i % racks.len()]).collect();
        Self::new(rack_of, topology)
    }

    /// Number of instances covered.
    pub fn len(&self) -> usize {
        self.rack_of.len()
    }

    /// Whether the assignment covers no instances.
    pub fn is_empty(&self) -> bool {
        self.rack_of.is_empty()
    }

    /// The rack hosting instance `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownInstance`] for an out-of-range index.
    pub fn rack_of(&self, i: usize) -> Result<NodeId, TreeError> {
        self.rack_of
            .get(i)
            .copied()
            .ok_or(TreeError::UnknownInstance(i))
    }

    /// The full instance → rack slice.
    pub fn racks(&self) -> &[NodeId] {
        &self.rack_of
    }

    /// Instances grouped by rack, racks in id order.
    pub fn by_rack(&self) -> BTreeMap<NodeId, Vec<usize>> {
        let mut map: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, &rack) in self.rack_of.iter().enumerate() {
            map.entry(rack).or_default().push(i);
        }
        map
    }

    /// All instances hosted in the subtree rooted at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for a node outside the topology.
    pub fn instances_under(
        &self,
        topology: &PowerTopology,
        node: NodeId,
    ) -> Result<Vec<usize>, TreeError> {
        let racks = topology.racks_under(node)?;
        let by_rack = self.by_rack();
        let mut out = Vec::new();
        for rack in racks {
            if let Some(instances) = by_rack.get(&rack) {
                out.extend_from_slice(instances);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Swaps the racks of instances `a` and `b` — the primitive the
    /// remapping framework (§3.6) uses for incremental repair.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownInstance`] for out-of-range indices.
    pub fn swap(&mut self, a: usize, b: usize) -> Result<(), TreeError> {
        if a >= self.rack_of.len() {
            return Err(TreeError::UnknownInstance(a));
        }
        if b >= self.rack_of.len() {
            return Err(TreeError::UnknownInstance(b));
        }
        self.rack_of.swap(a, b);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(3)
            .build()
            .unwrap()
    }

    #[test]
    fn round_robin_balances() {
        let t = topo();
        let a = Assignment::round_robin(&t, 8).unwrap();
        let by_rack = a.by_rack();
        assert_eq!(by_rack.len(), 4);
        for instances in by_rack.values() {
            assert_eq!(instances.len(), 2);
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let t = topo();
        assert!(Assignment::round_robin(&t, 12).is_ok());
        let err = Assignment::round_robin(&t, 13).unwrap_err();
        assert!(matches!(err, TreeError::RackOverCapacity { .. }));
    }

    #[test]
    fn non_rack_targets_rejected() {
        let t = topo();
        let err = Assignment::new(vec![t.root()], &t).unwrap_err();
        assert!(matches!(err, TreeError::NotARack(_)));
    }

    #[test]
    fn instances_under_subtrees() {
        let t = topo();
        let a = Assignment::round_robin(&t, 8).unwrap();
        let all = a.instances_under(&t, t.root()).unwrap();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        let rpp = t.nodes_at_level(crate::Level::Rpp)[0];
        let under = a.instances_under(&t, rpp).unwrap();
        assert_eq!(under.len(), 4);
    }

    #[test]
    fn swap_exchanges_racks() {
        let t = topo();
        let mut a = Assignment::round_robin(&t, 4).unwrap();
        let r0 = a.rack_of(0).unwrap();
        let r1 = a.rack_of(1).unwrap();
        a.swap(0, 1).unwrap();
        assert_eq!(a.rack_of(0).unwrap(), r1);
        assert_eq!(a.rack_of(1).unwrap(), r0);
        assert!(a.swap(0, 99).is_err());
    }
}
