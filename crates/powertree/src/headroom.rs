//! Headroom and utilization reporting across the tree.

use crate::aggregate::NodeAggregates;
use crate::error::TreeError;
use crate::level::Level;
use crate::node::NodeId;
use crate::topology::PowerTopology;

/// Headroom numbers for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeHeadroom {
    /// The node.
    pub node: NodeId,
    /// Its level.
    pub level: Level,
    /// Configured budget, watts.
    pub budget_watts: f64,
    /// Aggregate peak power, watts.
    pub peak_watts: f64,
    /// `budget − peak`, watts (negative when over-committed).
    pub headroom_watts: f64,
    /// `peak / budget`: how much of the budget the peak uses.
    pub peak_utilization: f64,
}

/// Headroom for every node of a topology under one assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadroomReport {
    entries: Vec<NodeHeadroom>,
}

impl HeadroomReport {
    /// Computes headroom for every node.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if the aggregates do not cover the
    /// topology.
    pub fn compute(
        topology: &PowerTopology,
        aggregates: &NodeAggregates,
    ) -> Result<Self, TreeError> {
        let mut entries = Vec::with_capacity(topology.len());
        for node in topology.nodes() {
            let peak = aggregates.peak(node.id())?;
            let budget = node.budget_watts();
            entries.push(NodeHeadroom {
                node: node.id(),
                level: node.level(),
                budget_watts: budget,
                peak_watts: peak,
                headroom_watts: budget - peak,
                peak_utilization: if budget > 0.0 { peak / budget } else { 0.0 },
            });
        }
        Ok(Self { entries })
    }

    /// All entries, in node-id order.
    pub fn entries(&self) -> &[NodeHeadroom] {
        &self.entries
    }

    /// Entries of one level.
    pub fn at_level(&self, level: Level) -> impl Iterator<Item = &NodeHeadroom> {
        self.entries.iter().filter(move |e| e.level == level)
    }

    /// The entry for one node.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for unknown nodes.
    pub fn node(&self, node: NodeId) -> Result<&NodeHeadroom, TreeError> {
        self.entries
            .get(node.index())
            .ok_or(TreeError::UnknownNode(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use so_powertrace::PowerTrace;

    #[test]
    fn report_matches_manual_computation() {
        let t = PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(2)
            .rack_capacity(1)
            .rack_budget_watts(100.0)
            .build()
            .unwrap();
        let a = Assignment::round_robin(&t, 2).unwrap();
        let traces = vec![
            PowerTrace::new(vec![80.0, 20.0], 10).unwrap(),
            PowerTrace::new(vec![20.0, 90.0], 10).unwrap(),
        ];
        let agg = NodeAggregates::compute(&t, &a, &traces).unwrap();
        let report = HeadroomReport::compute(&t, &agg).unwrap();

        let racks: Vec<_> = report.at_level(Level::Rack).collect();
        assert_eq!(racks.len(), 2);
        assert_eq!(racks[0].headroom_watts, 20.0);
        assert_eq!(racks[1].headroom_watts, 10.0);

        // RPP budget 200, aggregate [100, 110] peak 110 -> headroom 90.
        let rpp = report.at_level(Level::Rpp).next().unwrap();
        assert_eq!(rpp.headroom_watts, 90.0);
        assert!((rpp.peak_utilization - 0.55).abs() < 1e-12);
    }
}
