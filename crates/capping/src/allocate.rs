//! Hierarchical, priority-strict cap allocation.
//!
//! When aggregate demand threatens a node's budget, the capping system
//! must decide who sheds. Following the deployed systems the paper builds
//! on (Dynamo, SHIP), allocation is *top-down and priority-strict*: at
//! every node, high-priority demand is satisfied first from the node's
//! budget; what remains flows to lower classes; within one class, children
//! receive budget proportionally to their demand (the shedding rule
//! deployed systems apply).

use so_powertree::{NodeId, PowerTopology, TreeError};

use crate::demand::{ClassDemand, Priority};

/// The outcome of one cap-allocation round.
#[derive(Debug, Clone, PartialEq)]
pub struct CapOutcome {
    /// Granted power per rack, watts (rack order follows
    /// [`PowerTopology::racks`]).
    pub granted: Vec<ClassDemand>,
    /// Shed power per rack (demand − granted).
    pub shed: Vec<ClassDemand>,
}

impl CapOutcome {
    /// Total shed power across racks, by class.
    pub fn total_shed(&self) -> ClassDemand {
        self.shed
            .iter()
            .fold(ClassDemand::zero(), |acc, &s| acc + s)
    }

    /// Total granted power across racks, by class.
    pub fn total_granted(&self) -> ClassDemand {
        self.granted
            .iter()
            .fold(ClassDemand::zero(), |acc, &g| acc + g)
    }

    /// Whether any high-priority (LC) power was shed — an SLA event.
    pub fn lc_was_shed(&self) -> bool {
        self.total_shed().high > 1e-9
    }
}

/// Allocates caps for one instant: each rack demands `rack_demands[i]`
/// watts (aligned with [`PowerTopology::racks`]), every node enforces
/// `budgets[node.index()]` watts.
///
/// # Errors
///
/// Returns [`TreeError::InstanceCountMismatch`] when the demand or budget
/// vectors have the wrong length, and [`TreeError::Trace`]-free validation
/// errors are reported as [`TreeError::ZeroRackCapacity`] for invalid
/// (negative/NaN) demands.
pub fn allocate_caps(
    topology: &PowerTopology,
    rack_demands: &[ClassDemand],
    budgets: &[f64],
) -> Result<CapOutcome, TreeError> {
    let racks = topology.racks();
    if rack_demands.len() != racks.len() {
        return Err(TreeError::InstanceCountMismatch {
            assignment: racks.len(),
            traces: rack_demands.len(),
        });
    }
    if budgets.len() != topology.len() {
        return Err(TreeError::InstanceCountMismatch {
            assignment: topology.len(),
            traces: budgets.len(),
        });
    }
    if rack_demands.iter().any(|d| !d.is_valid()) {
        return Err(TreeError::ZeroRackCapacity);
    }

    // Subtree demand per node, bottom-up (parents precede children in id
    // order, so a reverse pass accumulates correctly).
    let mut subtree = vec![ClassDemand::zero(); topology.len()];
    for (rack, demand) in racks.iter().zip(rack_demands) {
        subtree[rack.index()] = *demand;
    }
    for idx in (1..topology.len()).rev() {
        let node = topology.node(NodeId::new(idx))?;
        if let Some(parent) = node.parent() {
            let d = subtree[idx];
            subtree[parent.index()] += d;
        }
    }

    // Top-down allowance propagation.
    let mut allowance = vec![ClassDemand::zero(); topology.len()];
    let root = topology.root();
    allowance[root.index()] = strict_priority_cap(subtree[root.index()], budgets[root.index()]);

    // Parents precede children in id order: one forward pass suffices.
    for idx in 0..topology.len() {
        let node = topology.node(NodeId::new(idx))?;
        if node.is_rack() {
            continue;
        }
        let children: Vec<NodeId> = node.children().to_vec();
        // The node's own allowance, re-capped by each child's budget after
        // distribution.
        let allowed = allowance[idx];
        for priority in Priority::ALL {
            let demands: Vec<f64> = children
                .iter()
                .map(|c| subtree[c.index()].class(priority))
                .collect();
            let shares = water_fill(allowed.class(priority), &demands);
            for (child, share) in children.iter().zip(shares) {
                *allowance[child.index()].class_mut(priority) = share;
            }
        }
        for &child in &children {
            let capped = strict_priority_cap(allowance[child.index()], budgets[child.index()]);
            allowance[child.index()] = capped;
        }
    }

    let granted: Vec<ClassDemand> = racks.iter().map(|r| allowance[r.index()]).collect();
    // Accumulation order differs between the bottom-up demand sums and the
    // top-down shares, so fully-granted demands can differ by a few ulps;
    // treat sub-ppb residues as zero shed.
    let shed_of = |demand: f64, grant: f64| {
        let shed = demand - grant;
        if shed <= 1e-9 * demand.max(1.0) {
            0.0
        } else {
            shed
        }
    };
    let shed = racks
        .iter()
        .zip(&granted)
        .map(|(r, g)| {
            let d = subtree[r.index()];
            ClassDemand {
                high: shed_of(d.high, g.high),
                medium: shed_of(d.medium, g.medium),
                low: shed_of(d.low, g.low),
            }
        })
        .collect();
    Ok(CapOutcome { granted, shed })
}

/// Strict-priority cap of a demand against a scalar budget: high first,
/// then medium, then low.
fn strict_priority_cap(demand: ClassDemand, budget: f64) -> ClassDemand {
    let mut remaining = budget.max(0.0);
    let mut out = ClassDemand::zero();
    for priority in Priority::ALL {
        let granted = demand.class(priority).min(remaining);
        *out.class_mut(priority) = granted;
        remaining -= granted;
    }
    out
}

/// Distributes `budget` across `demands` proportionally to demand —
/// the shedding rule deployed capping systems apply within one priority
/// class. Because shares are proportional to demands, either everyone is
/// fully satisfied (budget covers the total) or everyone is scaled by the
/// same factor `budget / total`; no individual cap can bind on its own.
fn water_fill(budget: f64, demands: &[f64]) -> Vec<f64> {
    let total: f64 = demands.iter().sum();
    if total <= 0.0 {
        return vec![0.0; demands.len()];
    }
    let scale = (budget.max(0.0) / total).min(1.0);
    demands.iter().map(|d| d * scale).collect()
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
            .rack_capacity(4)
            .rack_budget_watts(1_000.0)
            .build()
            .unwrap()
    }

    fn uniform_budgets(t: &PowerTopology, watts: f64) -> Vec<f64> {
        t.nodes()
            .iter()
            .map(|n| if n.is_rack() { watts } else { f64::INFINITY })
            .collect()
    }

    #[test]
    fn no_shedding_when_budgets_suffice() {
        let t = topo();
        let demands = vec![
            ClassDemand {
                high: 100.0,
                medium: 50.0,
                low: 200.0
            };
            4
        ];
        let outcome = allocate_caps(&t, &demands, &uniform_budgets(&t, 1_000.0)).unwrap();
        assert_eq!(outcome.total_shed(), ClassDemand::zero());
        assert_eq!(outcome.granted[0].total(), 350.0);
    }

    #[test]
    fn batch_sheds_before_lc() {
        let t = topo();
        // Each rack demands 400 W LC + 400 W batch against a 500 W budget.
        let demands = vec![
            ClassDemand {
                high: 400.0,
                medium: 0.0,
                low: 400.0
            };
            4
        ];
        let outcome = allocate_caps(&t, &demands, &uniform_budgets(&t, 500.0)).unwrap();
        for (g, s) in outcome.granted.iter().zip(&outcome.shed) {
            assert_eq!(g.high, 400.0, "LC must be fully granted");
            assert!((g.low - 100.0).abs() < 1e-9);
            assert!((s.low - 300.0).abs() < 1e-9);
        }
        assert!(!outcome.lc_was_shed());
    }

    #[test]
    fn lc_sheds_only_when_budget_is_below_lc_demand() {
        let t = topo();
        let demands = vec![
            ClassDemand {
                high: 600.0,
                medium: 0.0,
                low: 100.0
            };
            4
        ];
        let outcome = allocate_caps(&t, &demands, &uniform_budgets(&t, 500.0)).unwrap();
        assert!(outcome.lc_was_shed());
        for s in &outcome.shed {
            assert!((s.high - 100.0).abs() < 1e-9);
            assert!((s.low - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn upper_level_budget_constrains_children() {
        let t = topo();
        // Rack budgets ample, but the root can only carry 1 000 W total.
        let mut budgets = uniform_budgets(&t, 1_000.0);
        budgets[t.root().index()] = 1_000.0;
        let demands = vec![
            ClassDemand {
                high: 300.0,
                medium: 0.0,
                low: 300.0
            };
            4
        ];
        let outcome = allocate_caps(&t, &demands, &budgets).unwrap();
        let total = outcome.total_granted();
        assert!(total.total() <= 1_000.0 + 1e-6);
        // LC first: 4 × 300 = 1 200 > 1 000, so even LC is scaled…
        assert!(total.high <= 1_000.0 + 1e-6);
        // …and batch gets nothing.
        assert!(total.low < 1e-9);
    }

    #[test]
    fn proportional_within_class() {
        let t = topo();
        let mut budgets = uniform_budgets(&t, f64::INFINITY);
        budgets[t.root().index()] = 300.0;
        let mut demands = vec![ClassDemand::zero(); 4];
        demands[0] = ClassDemand::of_class(Priority::Low, 200.0);
        demands[1] = ClassDemand::of_class(Priority::Low, 400.0);
        let outcome = allocate_caps(&t, &demands, &budgets).unwrap();
        // 300 W split 1:2 across the two demanding racks.
        assert!((outcome.granted[0].low - 100.0).abs() < 1e-6);
        assert!((outcome.granted[1].low - 200.0).abs() < 1e-6);
    }

    #[test]
    fn water_fill_is_demand_proportional() {
        // Budget 100 over demands [10, 200]: proportional scaling by
        // 100/210 for everyone.
        let shares = water_fill(100.0, &[10.0, 200.0]);
        assert!((shares[0] - 100.0 * 10.0 / 210.0).abs() < 1e-9);
        assert!((shares[1] - 100.0 * 200.0 / 210.0).abs() < 1e-9);
        // Enough budget: everyone satisfied exactly.
        let shares = water_fill(500.0, &[10.0, 200.0]);
        assert_eq!(shares, vec![10.0, 200.0]);
        // Degenerate inputs.
        assert_eq!(water_fill(100.0, &[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(water_fill(-5.0, &[10.0]), vec![0.0]);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let t = topo();
        let demands = vec![ClassDemand::zero(); 3];
        assert!(allocate_caps(&t, &demands, &uniform_budgets(&t, 1.0)).is_err());
        let bad = vec![
            ClassDemand {
                high: -1.0,
                medium: 0.0,
                low: 0.0
            };
            4
        ];
        assert!(allocate_caps(&t, &bad, &uniform_budgets(&t, 1.0)).is_err());
        let demands = vec![ClassDemand::zero(); 4];
        assert!(allocate_caps(&t, &demands, &[1.0]).is_err());
    }
}
