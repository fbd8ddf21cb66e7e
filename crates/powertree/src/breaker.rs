//! Circuit-breaker model: "when the aggregate power at a power node exceeds
//! the power budget of that node, after a short amount of time, the circuit
//! breaker is tripped and the power supply for the entire sub-tree is shut
//! down" (§2.2).

use crate::aggregate::NodeAggregates;
use crate::error::TreeError;
use crate::node::NodeId;
use crate::topology::PowerTopology;

/// A breaker trip: `node` exceeded its budget for at least the breaker's
/// sustain window starting at sample `start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripEvent {
    /// The tripped node.
    pub node: NodeId,
    /// First sample index of the sustained overdraw.
    pub start: usize,
    /// Number of consecutive over-budget samples observed.
    pub duration: usize,
    /// Highest power drawn during the overdraw, in watts.
    pub peak_watts: f64,
}

/// Breaker behaviour: an overdraw must persist for `sustain_samples`
/// consecutive samples before the breaker trips (real breakers tolerate
/// brief transients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerModel {
    sustain_samples: usize,
}

impl Default for BreakerModel {
    fn default() -> Self {
        Self { sustain_samples: 2 }
    }
}

impl BreakerModel {
    /// A breaker that trips after `sustain_samples` consecutive over-budget
    /// samples (at least 1).
    pub fn new(sustain_samples: usize) -> Self {
        Self {
            sustain_samples: sustain_samples.max(1),
        }
    }

    /// Scans every node's aggregate trace against the topology's
    /// configured budgets and reports all trips.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if the aggregates do not cover the
    /// topology (cannot happen for aggregates computed against it).
    pub fn evaluate(
        &self,
        topology: &PowerTopology,
        aggregates: &NodeAggregates,
    ) -> Result<Vec<TripEvent>, TreeError> {
        let budgets: Vec<f64> = topology.nodes().iter().map(|n| n.budget_watts()).collect();
        self.evaluate_with_budgets(topology, aggregates, &budgets)
    }

    /// Scans every node's aggregate trace against caller-supplied budgets
    /// (indexed by node id; use `f64::INFINITY` to exempt a node). Useful
    /// for what-if analyses where the provisioned budgets differ from the
    /// topology's nominal ones.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InstanceCountMismatch`] when `budgets` does not
    /// cover every node, and [`TreeError::UnknownNode`] if the aggregates
    /// do not cover the topology.
    pub fn evaluate_with_budgets(
        &self,
        topology: &PowerTopology,
        aggregates: &NodeAggregates,
        budgets: &[f64],
    ) -> Result<Vec<TripEvent>, TreeError> {
        if budgets.len() != topology.len() {
            return Err(TreeError::InstanceCountMismatch {
                assignment: topology.len(),
                traces: budgets.len(),
            });
        }
        let mut trips = Vec::new();
        for node in topology.nodes() {
            let budget = budgets[node.id().index()];
            let trace = aggregates.trace(node.id())?;
            let mut run_start = None;
            let mut run_peak = 0.0f64;
            for (i, &p) in trace.samples().iter().enumerate() {
                if p > budget {
                    if run_start.is_none() {
                        run_start = Some(i);
                        run_peak = p;
                    } else {
                        run_peak = run_peak.max(p);
                    }
                } else if let Some(start) = run_start.take() {
                    let duration = i - start;
                    if duration >= self.sustain_samples {
                        trips.push(TripEvent {
                            node: node.id(),
                            start,
                            duration,
                            peak_watts: run_peak,
                        });
                    }
                }
            }
            if let Some(start) = run_start {
                let duration = trace.len() - start;
                if duration >= self.sustain_samples {
                    trips.push(TripEvent {
                        node: node.id(),
                        start,
                        duration,
                        peak_watts: run_peak,
                    });
                }
            }
        }
        Ok(trips)
    }

    /// Whether any node would trip.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    pub fn is_safe(
        &self,
        topology: &PowerTopology,
        aggregates: &NodeAggregates,
    ) -> Result<bool, TreeError> {
        Ok(self.evaluate(topology, aggregates)?.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use so_powertrace::PowerTrace;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(1)
            .rack_capacity(2)
            .rack_budget_watts(100.0)
            .build()
            .unwrap()
    }

    fn aggregates(samples: Vec<f64>) -> (PowerTopology, NodeAggregates) {
        let t = topo();
        let a = Assignment::round_robin(&t, 1).unwrap();
        let traces = vec![PowerTrace::new(samples, 10).unwrap()];
        let agg = NodeAggregates::compute(&t, &a, &traces).unwrap();
        (t, agg)
    }

    #[test]
    fn brief_transient_does_not_trip() {
        let (t, agg) = aggregates(vec![50.0, 150.0, 50.0]);
        let model = BreakerModel::new(2);
        assert!(model.is_safe(&t, &agg).unwrap());
    }

    #[test]
    fn sustained_overdraw_trips_whole_path() {
        let (t, agg) = aggregates(vec![50.0, 150.0, 150.0, 50.0]);
        let model = BreakerModel::new(2);
        let trips = model.evaluate(&t, &agg).unwrap();
        // Every level sees the same overdraw (budgets all equal one rack's).
        assert_eq!(trips.len(), 6);
        assert!(trips.iter().all(|e| e.start == 1 && e.duration == 2));
        assert!(trips.iter().all(|e| e.peak_watts == 150.0));
    }

    #[test]
    fn overdraw_running_to_end_of_trace_trips() {
        let (t, agg) = aggregates(vec![50.0, 150.0, 150.0]);
        let model = BreakerModel::new(2);
        assert!(!model.is_safe(&t, &agg).unwrap());
    }

    #[test]
    fn sustain_is_clamped_to_one() {
        let model = BreakerModel::new(0);
        assert_eq!(model.sustain_samples, 1);
        let (t, agg) = aggregates(vec![150.0, 50.0]);
        assert!(!model.is_safe(&t, &agg).unwrap());
    }
}
