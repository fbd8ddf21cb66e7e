//! Incremental admission: placing *one new instance* into a live
//! datacenter.
//!
//! §3.3: "When considering adding an extra service instance to a group of
//! instances, we use these S-traces to evaluate whether the new
//! instance's power consumption pattern will add significantly to the
//! peak of the aggregate power trace of that group." This module answers
//! exactly that question for every candidate rack and ranks the racks
//! best-first — the day-two operation of a deployed SmoothOperator.

use so_powertrace::PowerTrace;
use so_powertree::{Assignment, NodeAggregates, NodeId, PowerTopology};

use crate::error::CoreError;
use crate::score::pairwise_score;

/// The effect of admitting a candidate instance onto one rack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionDecision {
    /// The rack evaluated.
    pub rack: NodeId,
    /// Whether the rack has a free slot and its whole root path keeps a
    /// non-negative headroom after admission.
    pub fits: bool,
    /// The rack's aggregate peak after admission, watts.
    pub new_peak_watts: f64,
    /// How much the rack's peak rises, watts.
    pub peak_increase_watts: f64,
    /// Pairwise asynchrony score between the candidate and the rack's
    /// current aggregate (higher = more complementary).
    pub asynchrony: f64,
}

/// Evaluates admitting `candidate` onto every rack, returning decisions
/// sorted best-first (admissible racks first, then by smallest peak
/// increase, ties by higher asynchrony).
///
/// `budgets` holds the provisioned budget per node (use
/// `topology.node(id).budget_watts()` based budgets, or custom ones).
///
/// # Errors
///
/// Propagates tree/trace errors; returns
/// [`CoreError::CapacityExceeded`]-free results (a full rack simply has
/// `fits == false`).
pub fn admission_decisions(
    topology: &PowerTopology,
    assignment: &Assignment,
    aggregates: &NodeAggregates,
    budgets: &[f64],
    candidate: &PowerTrace,
) -> Result<Vec<AdmissionDecision>, CoreError> {
    if budgets.len() != topology.len() {
        return Err(CoreError::Tree(
            so_powertree::TreeError::InstanceCountMismatch {
                assignment: topology.len(),
                traces: budgets.len(),
            },
        ));
    }
    let by_rack = assignment.by_rack();
    let capacity = topology.rack_capacity();

    let mut decisions = Vec::with_capacity(topology.racks().len());
    for &rack in topology.racks() {
        let aggregate = aggregates.trace(rack).map_err(CoreError::Tree)?;
        let combined = aggregate.try_add(candidate)?;
        let new_peak = combined.peak();
        let old_peak = aggregate.peak();

        let has_slot = by_rack.get(&rack).map_or(0, |v| v.len()) < capacity;
        let mut path_ok = new_peak <= budgets[rack.index()];
        if path_ok {
            for ancestor in topology.ancestors(rack).map_err(CoreError::Tree)? {
                let anc_aggregate = aggregates.trace(ancestor).map_err(CoreError::Tree)?;
                let anc_peak = anc_aggregate.try_add(candidate)?.peak();
                if anc_peak > budgets[ancestor.index()] {
                    path_ok = false;
                    break;
                }
            }
        }

        let asynchrony = if old_peak > 0.0 {
            pairwise_score(aggregate, candidate)?
        } else {
            2.0
        };
        decisions.push(AdmissionDecision {
            rack,
            fits: has_slot && path_ok,
            new_peak_watts: new_peak,
            peak_increase_watts: new_peak - old_peak,
            asynchrony,
        });
    }
    decisions.sort_by(|a, b| {
        b.fits
            .cmp(&a.fits)
            .then(
                a.peak_increase_watts
                    .partial_cmp(&b.peak_increase_watts)
                    .expect("peaks are finite"),
            )
            .then(
                b.asynchrony
                    .partial_cmp(&a.asynchrony)
                    .expect("scores are finite"),
            )
    });
    Ok(decisions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PowerTopology, Assignment, Vec<PowerTrace>) {
        let topo = PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(2)
            .rack_capacity(2)
            .rack_budget_watts(250.0)
            .build()
            .unwrap();
        // Rack 0: a day-peaker. Rack 1: a night-peaker.
        let traces = vec![
            PowerTrace::new(vec![100.0, 10.0], 10).unwrap(),
            PowerTrace::new(vec![10.0, 100.0], 10).unwrap(),
        ];
        let assignment = Assignment::round_robin(&topo, 2).unwrap();
        (topo, assignment, traces)
    }

    fn budgets(topo: &PowerTopology) -> Vec<f64> {
        topo.nodes().iter().map(|n| n.budget_watts()).collect()
    }

    /// The best-ranked decision that fits, or `None` when no rack can
    /// take `candidate`.
    fn best_admissible(
        topology: &PowerTopology,
        assignment: &Assignment,
        aggregates: &NodeAggregates,
        budgets: &[f64],
        candidate: &PowerTrace,
    ) -> Option<AdmissionDecision> {
        admission_decisions(topology, assignment, aggregates, budgets, candidate)
            .unwrap()
            .into_iter()
            .find(|d| d.fits)
    }

    #[test]
    fn complementary_rack_wins() {
        let (topo, assignment, traces) = setup();
        let agg = NodeAggregates::compute(&topo, &assignment, &traces).unwrap();
        // A day-peaking candidate should land on the night-peaking rack 1.
        let candidate = PowerTrace::new(vec![80.0, 5.0], 10).unwrap();
        let best = best_admissible(&topo, &assignment, &agg, &budgets(&topo), &candidate)
            .expect("a rack fits");
        assert_eq!(best.rack, topo.racks()[1]);
        assert!(best.asynchrony > 1.5, "asynchrony {}", best.asynchrony);
        // Peak increase on the complementary rack is tiny (combined
        // [90, 105] vs old peak 100 -> +5 W) compared with rack 0's +80 W.
        assert!(best.peak_increase_watts <= 5.0 + 1e-9);
    }

    #[test]
    fn budget_overdraw_blocks_admission() {
        let (topo, assignment, traces) = setup();
        let agg = NodeAggregates::compute(&topo, &assignment, &traces).unwrap();
        // A 200 W-flat candidate would push either rack past its 250 W
        // budget (100 + 200 = 300).
        let candidate = PowerTrace::new(vec![200.0, 200.0], 10).unwrap();
        let best = best_admissible(&topo, &assignment, &agg, &budgets(&topo), &candidate);
        assert!(best.is_none());
        // Decisions still explain why.
        let decisions =
            admission_decisions(&topo, &assignment, &agg, &budgets(&topo), &candidate).unwrap();
        assert!(decisions.iter().all(|d| !d.fits));
        assert!(decisions.iter().all(|d| d.new_peak_watts > 250.0));
    }

    #[test]
    fn full_racks_are_skipped() {
        let (topo, _, _) = setup();
        // Fill both slots of each rack.
        let traces = vec![PowerTrace::new(vec![10.0, 10.0], 10).unwrap(); 4];
        let assignment = Assignment::round_robin(&topo, 4).unwrap();
        let agg = NodeAggregates::compute(&topo, &assignment, &traces).unwrap();
        let candidate = PowerTrace::new(vec![1.0, 1.0], 10).unwrap();
        let best = best_admissible(&topo, &assignment, &agg, &budgets(&topo), &candidate);
        assert!(best.is_none(), "no slots should be available");
    }

    #[test]
    fn ancestor_budgets_participate() {
        let (topo, assignment, traces) = setup();
        let agg = NodeAggregates::compute(&topo, &assignment, &traces).unwrap();
        let mut budgets = budgets(&topo);
        // Root can take nothing more (current root peak is 110+110=…
        // aggregate [110,110] -> peak 110… actually racks sum: [110,110]).
        budgets[topo.root().index()] = 115.0;
        let candidate = PowerTrace::new(vec![10.0, 10.0], 10).unwrap();
        let best = best_admissible(&topo, &assignment, &agg, &budgets, &candidate);
        assert!(best.is_none(), "root budget must block admission");
    }
}
