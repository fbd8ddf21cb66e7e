//! Capacity planning: turning unlocked power headroom into extra servers.
//!
//! The workload-aware placement lowers per-node peaks below the budgets
//! the infrastructure was provisioned for; the difference is headroom that
//! can host extra (conversion) servers. Proactive throttling additionally
//! frees Batch power at peak, funding a further set `e_th`.

use so_powertree::{Assignment, NodeAggregates, NodeId, PowerTopology};

use crate::error::ReshapeError;

/// Extra servers unlocked by reshaping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtraCapacity {
    /// Conversion servers hostable inside placement-unlocked headroom
    /// (`e_conv`).
    pub conversion: usize,
    /// Additional servers fundable by peak-hour Batch throttling (`e_th`).
    pub throttle_funded: usize,
}

/// Plans how many extra servers the post-placement headroom can host.
///
/// `budgets` holds the provisioned budget of every node (typically the
/// *pre-optimization* per-node peaks: the infrastructure was provisioned
/// for the old placement). A server is added greedily to the rack with the
/// most remaining headroom, charging `per_server_peak_watts` along the
/// rack's whole root path, until no rack (or ancestor) can absorb another
/// server; rack slot capacity is respected.
///
/// # Errors
///
/// Returns [`ReshapeError::InvalidParameter`] for non-positive
/// `per_server_peak_watts` or a budget vector of the wrong length, and
/// propagates tree errors.
pub fn plan_conversion_capacity(
    topology: &PowerTopology,
    assignment: &Assignment,
    aggregates: &NodeAggregates,
    budgets: &[f64],
    per_server_peak_watts: f64,
) -> Result<usize, ReshapeError> {
    if !(per_server_peak_watts.is_finite() && per_server_peak_watts > 0.0) {
        return Err(ReshapeError::InvalidParameter(
            "per_server_peak_watts must be positive",
        ));
    }
    if budgets.len() != topology.len() {
        return Err(ReshapeError::InvalidParameter(
            "budgets must cover every topology node",
        ));
    }

    // Remaining headroom per node under the provisioned budgets.
    let mut headroom: Vec<f64> = (0..topology.len())
        .map(|i| {
            let peak = aggregates.peak(NodeId::new(i))?;
            Ok(budgets[i] - peak)
        })
        .collect::<Result<_, ReshapeError>>()?;

    // Free slots per rack.
    let by_rack = assignment.by_rack();
    let mut free_slots: Vec<(NodeId, usize)> = topology
        .racks()
        .iter()
        .map(|&r| {
            let used = by_rack.get(&r).map_or(0, |v| v.len());
            (r, topology.rack_capacity().saturating_sub(used))
        })
        .collect();

    let mut extra = 0usize;
    loop {
        // Rack with the most remaining headroom that still has a slot and
        // whose whole root path can absorb one more server.
        let mut best: Option<(usize, f64)> = None;
        for (idx, &(rack, slots)) in free_slots.iter().enumerate() {
            if slots == 0 {
                continue;
            }
            if headroom[rack.index()] < per_server_peak_watts {
                continue;
            }
            let path_ok = topology
                .ancestors(rack)?
                .iter()
                .all(|a| headroom[a.index()] >= per_server_peak_watts);
            if !path_ok {
                continue;
            }
            let h = headroom[rack.index()];
            if best.map_or(true, |(_, bh)| h > bh) {
                best = Some((idx, h));
            }
        }
        let Some((idx, _)) = best else { break };
        let rack = free_slots[idx].0;
        free_slots[idx].1 -= 1;
        headroom[rack.index()] -= per_server_peak_watts;
        for a in topology.ancestors(rack)? {
            headroom[a.index()] -= per_server_peak_watts;
        }
        extra += 1;
    }
    Ok(extra)
}

/// Servers fundable by throttling the Batch cluster at peak: the power the
/// throttled cluster releases, scaled by `usable_fraction`, divided by one
/// server's peak draw.
///
/// `usable_fraction` models that released power is scattered across the
/// tree and only the share co-located with free rack slots (and a safety
/// margin against conversion failures) can actually host new servers.
///
/// # Errors
///
/// Returns [`ReshapeError::InvalidParameter`] for non-positive wattages, a
/// throttle factor outside `(0, 1]`, or a usable fraction outside `(0, 1]`.
pub fn throttle_funded_capacity(
    batch_servers: usize,
    batch_peak_watts_per_server: f64,
    throttle_power_factor: f64,
    usable_fraction: f64,
    per_server_peak_watts: f64,
) -> Result<usize, ReshapeError> {
    if !(batch_peak_watts_per_server.is_finite() && batch_peak_watts_per_server > 0.0) {
        return Err(ReshapeError::InvalidParameter(
            "batch_peak_watts_per_server must be positive",
        ));
    }
    if !(throttle_power_factor.is_finite()
        && throttle_power_factor > 0.0
        && throttle_power_factor <= 1.0)
    {
        return Err(ReshapeError::InvalidParameter(
            "throttle_power_factor must lie in (0, 1]",
        ));
    }
    if !(usable_fraction.is_finite() && usable_fraction > 0.0 && usable_fraction <= 1.0) {
        return Err(ReshapeError::InvalidParameter(
            "usable_fraction must lie in (0, 1]",
        ));
    }
    if !(per_server_peak_watts.is_finite() && per_server_peak_watts > 0.0) {
        return Err(ReshapeError::InvalidParameter(
            "per_server_peak_watts must be positive",
        ));
    }
    let released = batch_servers as f64
        * batch_peak_watts_per_server
        * (1.0 - throttle_power_factor)
        * usable_fraction;
    Ok((released / per_server_peak_watts).floor() as usize)
}

/// Provisioned budgets matching a reference placement's observed peaks at
/// the *leaf power levels* (rack and RPP), with unconstrained budgets
/// above.
///
/// This encodes the paper's Figure 1 premise: in a fragmented datacenter
/// the leaf power nodes are saturated by the historical placement while
/// "there is still an abundant amount of power headroom at the root node"
/// — the headroom the workload-aware placement makes reachable. (The root
/// aggregate is placement-invariant, so provisioning *every* level at its
/// old peak would leave nothing to unlock by construction.)
///
/// # Errors
///
/// Propagates tree errors.
pub fn peak_provisioned_budgets(
    topology: &PowerTopology,
    reference: &NodeAggregates,
) -> Result<Vec<f64>, ReshapeError> {
    (0..topology.len())
        .map(|i| {
            let id = NodeId::new(i);
            let level = topology.node(id)?.level();
            if level >= so_powertree::Level::Rpp {
                Ok(reference.peak(id)?)
            } else {
                Ok(f64::INFINITY)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertrace::PowerTrace;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(1)
            .rack_capacity(4)
            .rack_budget_watts(1_000.0)
            .build()
            .unwrap()
    }

    #[test]
    fn headroom_converts_to_servers() {
        let t = topo();
        let a = Assignment::round_robin(&t, 2).unwrap();
        // Each rack hosts one 100 W-flat server.
        let traces = vec![PowerTrace::new(vec![100.0, 100.0], 10).unwrap(); 2];
        let agg = NodeAggregates::compute(&t, &a, &traces).unwrap();
        // Budgets: 300 W per rack (rack headroom 200 W), ancestors ample.
        let mut budgets = vec![10_000.0; t.len()];
        for &r in t.racks() {
            budgets[r.index()] = 300.0;
        }
        let extra = plan_conversion_capacity(&t, &a, &agg, &budgets, 100.0).unwrap();
        // 200 W headroom / 100 W per server = 2 per rack, 2 racks, but rack
        // slots limit to 3 free slots each.
        assert_eq!(extra, 4);
    }

    #[test]
    fn ancestor_budgets_bind() {
        let t = topo();
        let a = Assignment::round_robin(&t, 2).unwrap();
        let traces = vec![PowerTrace::new(vec![100.0, 100.0], 10).unwrap(); 2];
        let agg = NodeAggregates::compute(&t, &a, &traces).unwrap();
        let mut budgets = vec![10_000.0; t.len()];
        for &r in t.racks() {
            budgets[r.index()] = 1_000.0; // ample rack headroom
        }
        // Root can absorb only one extra server: total draw 200, budget 310.
        budgets[t.root().index()] = 310.0;
        let extra = plan_conversion_capacity(&t, &a, &agg, &budgets, 100.0).unwrap();
        assert_eq!(extra, 1);
    }

    #[test]
    fn rack_slots_bind() {
        let t = topo();
        let a = Assignment::round_robin(&t, 8).unwrap(); // all 8 slots full
        let traces = vec![PowerTrace::new(vec![10.0, 10.0], 10).unwrap(); 8];
        let agg = NodeAggregates::compute(&t, &a, &traces).unwrap();
        let budgets = vec![1_000_000.0; t.len()];
        let extra = plan_conversion_capacity(&t, &a, &agg, &budgets, 100.0).unwrap();
        assert_eq!(extra, 0);
    }

    #[test]
    fn throttle_funding_math() {
        // 10 batch servers × 280 W × 30% released, all usable = 840 W
        // → 2 servers @ 300 W.
        let n = throttle_funded_capacity(10, 280.0, 0.7, 1.0, 300.0).unwrap();
        assert_eq!(n, 2);
        // Half usable → 420 W → 1 server.
        let n = throttle_funded_capacity(10, 280.0, 0.7, 0.5, 300.0).unwrap();
        assert_eq!(n, 1);
        assert!(throttle_funded_capacity(10, -1.0, 0.7, 1.0, 300.0).is_err());
        assert!(throttle_funded_capacity(10, 280.0, 1.5, 1.0, 300.0).is_err());
        assert!(throttle_funded_capacity(10, 280.0, 0.7, 0.0, 300.0).is_err());
        assert!(throttle_funded_capacity(10, 280.0, 0.7, 1.0, 0.0).is_err());
    }
}
