//! Running the cap allocator over a window of power traces.

use so_powertrace::PowerTrace;
use so_powertree::{Assignment, PowerTopology, TreeError};
use so_workloads::Fleet;

use crate::allocate::allocate_caps;
use crate::demand::{ClassDemand, Priority};

/// Aggregate outcome of capping over a trace window.
#[derive(Debug, Clone, PartialEq)]
pub struct CappingReport {
    /// Energy shed per class over the window, watt-minutes.
    pub shed_energy: ClassDemand,
    /// Total demanded energy per class, watt-minutes.
    pub demanded_energy: ClassDemand,
    /// Samples on which any high-priority (LC) power was shed.
    pub lc_shed_samples: usize,
    /// Samples on which anything at all was shed.
    pub shed_samples: usize,
    /// Samples evaluated.
    pub samples: usize,
}

impl CappingReport {
    /// Fraction of demanded energy shed, per class.
    pub fn shed_fraction(&self, priority: Priority) -> f64 {
        let demanded = self.demanded_energy.class(priority);
        if demanded == 0.0 {
            0.0
        } else {
            self.shed_energy.class(priority) / demanded
        }
    }
}

/// Builds per-rack class demands for sample `t` from a placement: each
/// instance's power reading goes into its service's priority class on its
/// rack.
///
/// # Errors
///
/// Propagates tree errors; the demand vector is aligned with
/// [`PowerTopology::racks`].
fn rack_class_demands(
    topology: &PowerTopology,
    assignment: &Assignment,
    fleet: &Fleet,
    traces: &[PowerTrace],
    t: usize,
) -> Result<Vec<ClassDemand>, TreeError> {
    let racks = topology.racks();
    let index_of: std::collections::BTreeMap<_, _> =
        racks.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut demands = vec![ClassDemand::zero(); racks.len()];
    for (i, trace) in traces.iter().enumerate() {
        let rack = assignment.rack_of(i)?;
        let slot = index_of[&rack];
        let priority = Priority::of(fleet.service_of(i).kind());
        *demands[slot].class_mut(priority) += trace.samples()[t];
    }
    Ok(demands)
}

/// Runs the cap allocator over every sample of the window and aggregates
/// shed energy.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use so_capping::{cap_over_window, Priority};
/// use so_powertree::{Assignment, PowerTopology};
/// use so_workloads::DcScenario;
///
/// let fleet = DcScenario::dc1().generate_fleet(40)?;
/// let topo = PowerTopology::builder().build()?;
/// let assignment = Assignment::round_robin(&topo, 40)?;
/// let budgets = vec![f64::INFINITY; topo.len()]; // nothing binds
/// let report = cap_over_window(&topo, &assignment, &fleet, fleet.test_traces(), &budgets)?;
/// assert_eq!(report.shed_samples, 0);
/// assert_eq!(report.shed_fraction(Priority::High), 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates allocation errors.
pub fn cap_over_window(
    topology: &PowerTopology,
    assignment: &Assignment,
    fleet: &Fleet,
    traces: &[PowerTrace],
    budgets: &[f64],
) -> Result<CappingReport, TreeError> {
    let samples = traces.first().map_or(0, |t| t.len());
    let step = traces.first().map_or(1, |t| t.step_minutes()) as f64;
    let mut shed_energy = ClassDemand::zero();
    let mut demanded_energy = ClassDemand::zero();
    let mut lc_shed_samples = 0;
    let mut shed_samples = 0;

    for t in 0..samples {
        let demands = rack_class_demands(topology, assignment, fleet, traces, t)?;
        let outcome = allocate_caps(topology, &demands, budgets)?;
        let shed = outcome.total_shed();
        if shed.total() > 1e-9 {
            shed_samples += 1;
        }
        if shed.high > 1e-9 {
            lc_shed_samples += 1;
        }
        shed_energy += ClassDemand {
            high: shed.high * step,
            medium: shed.medium * step,
            low: shed.low * step,
        };
        let demanded = demands.iter().fold(ClassDemand::zero(), |acc, &d| acc + d);
        demanded_energy += ClassDemand {
            high: demanded.high * step,
            medium: demanded.medium * step,
            low: demanded.low * step,
        };
    }
    Ok(CappingReport {
        shed_energy,
        demanded_energy,
        lc_shed_samples,
        shed_samples,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertrace::TimeGrid;
    use so_workloads::{InstanceSpec, ServiceClass};

    fn setup() -> (PowerTopology, Assignment, Fleet) {
        let topo = PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(2)
            .rack_capacity(2)
            .build()
            .unwrap();
        let grid = TimeGrid::days(1, 120);
        let fleet = Fleet::generate(
            vec![
                InstanceSpec::nominal(ServiceClass::Frontend, 1),
                InstanceSpec::nominal(ServiceClass::Hadoop, 2),
            ],
            grid,
            1,
        )
        .unwrap();
        let assignment = Assignment::round_robin(&topo, 2).unwrap();
        (topo, assignment, fleet)
    }

    #[test]
    fn demands_are_classified_by_service() {
        let (topo, assignment, fleet) = setup();
        let demands =
            rack_class_demands(&topo, &assignment, &fleet, fleet.test_traces(), 0).unwrap();
        // Rack 0 hosts the frontend (high), rack 1 the hadoop (low).
        assert!(demands[0].high > 0.0);
        assert_eq!(demands[0].low, 0.0);
        assert!(demands[1].low > 0.0);
        assert_eq!(demands[1].high, 0.0);
    }

    #[test]
    fn ample_budgets_shed_nothing() {
        let (topo, assignment, fleet) = setup();
        let budgets = vec![f64::INFINITY; topo.len()];
        let report =
            cap_over_window(&topo, &assignment, &fleet, fleet.test_traces(), &budgets).unwrap();
        assert_eq!(report.shed_samples, 0);
        assert_eq!(report.shed_energy, ClassDemand::zero());
        assert!(report.demanded_energy.total() > 0.0);
    }

    #[test]
    fn tight_root_budget_sheds_batch_first() {
        let (topo, assignment, fleet) = setup();
        let mut budgets = vec![f64::INFINITY; topo.len()];
        // Root below the combined demand but above LC alone.
        budgets[topo.root().index()] = 320.0;
        let report =
            cap_over_window(&topo, &assignment, &fleet, fleet.test_traces(), &budgets).unwrap();
        assert!(report.shed_samples > 0);
        assert_eq!(report.lc_shed_samples, 0, "LC must be protected");
        assert!(report.shed_fraction(Priority::Low) > 0.0);
        assert_eq!(report.shed_fraction(Priority::High), 0.0);
    }
}
