//! The StatProf baseline: statistical-profiling power provisioning
//! (Govindan et al., EuroSys 2009), as compared against in the paper's
//! Figure 11.
//!
//! StatProf models each instance's power as an empirical CDF and
//! provisions every node at the sum of its instances'
//! `(100 − u)`-th-percentile powers (degree of under-provisioning `u`),
//! with an additional datacenter-level overbooking factor `1/(1 + δ)`. It
//! ignores *when* instances draw power; SmoothOperator's counterpart
//! provisions each node at the `(100 − u)`-th percentile of the node's
//! *aggregate* trace, capturing temporal cancellation.

use so_powertrace::{Ecdf, PowerTrace};
use so_powertree::{Assignment, Level, NodeAggregates, PowerTopology, TreeError};

/// Degrees of under-provisioning and overbooking, the `(u, δ)` pair of the
/// paper's `StatProf(u, δ)` / `SmoOp(u, δ)` notation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisioningDegrees {
    /// Degree of under-provisioning `u`, percent (provision at the
    /// `(100 − u)`-th percentile).
    pub underprovision_pct: f64,
    /// Degree of overbooking `δ` applied at the datacenter level.
    pub overbooking: f64,
}

impl ProvisioningDegrees {
    /// The conservative `(0, 0)` setting: provision for observed peaks.
    pub fn none() -> Self {
        Self {
            underprovision_pct: 0.0,
            overbooking: 0.0,
        }
    }

    /// Validates the degrees. Degenerate-but-legal settings are defined
    /// explicitly rather than left to float coincidence:
    ///
    /// * `u = 0` provisions at the observed peak (the 100th percentile);
    /// * `u = 100` provisions at the 0th percentile — the minimum sample;
    /// * `δ = 0` applies no overbooking (the datacenter divisor is
    ///   exactly `1`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`](so_powertrace::TraceError) when `u` is
    /// outside `[0, 100]` or NaN, or `δ` is negative or NaN.
    pub fn validate(&self) -> Result<(), so_powertrace::TraceError> {
        if !(0.0..=100.0).contains(&self.underprovision_pct) || self.underprovision_pct.is_nan() {
            return Err(so_powertrace::TraceError::InvalidQuantile(
                self.underprovision_pct,
            ));
        }
        if self.overbooking.is_nan() || self.overbooking < 0.0 {
            return Err(so_powertrace::TraceError::InvalidSample {
                index: 0,
                value: self.overbooking,
            });
        }
        Ok(())
    }

    /// Quantile to provision at: `(100 − u) / 100`, exactly `0.0` for
    /// `u = 100` and exactly `1.0` for `u = 0` (validated range).
    fn quantile(&self) -> f64 {
        ((100.0 - self.underprovision_pct) / 100.0).clamp(0.0, 1.0)
    }
}

/// Required power budget per level under some provisioning scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisioningReport {
    /// `(level, required watts)`, root level first.
    pub required: Vec<(Level, f64)>,
}

impl ProvisioningReport {
    /// Required budget at one level.
    pub fn at_level(&self, level: Level) -> f64 {
        self.required[level.depth()].1
    }
}

/// StatProf(u, δ): per-node requirement is the *sum of per-instance
/// percentile powers*; the datacenter level is overbooked by `1/(1 + δ)`.
///
/// With `(0, 0)` the datacenter requirement is exactly the fleet's
/// sum-of-peaks; with `u = 100` every node is provisioned at the sum of
/// its instances' minimum samples (see
/// [`ProvisioningDegrees::validate`] for the documented degenerate
/// cases).
///
/// # Errors
///
/// Rejects invalid degrees ([`ProvisioningDegrees::validate`]) and
/// propagates tree/trace errors.
pub fn statprof_required_budget(
    topology: &PowerTopology,
    assignment: &Assignment,
    instance_traces: &[PowerTrace],
    degrees: ProvisioningDegrees,
) -> Result<ProvisioningReport, TreeError> {
    degrees.validate().map_err(TreeError::Trace)?;
    if assignment.len() != instance_traces.len() {
        return Err(TreeError::InstanceCountMismatch {
            assignment: assignment.len(),
            traces: instance_traces.len(),
        });
    }
    let q = degrees.quantile();
    let percentile_power: Vec<f64> = instance_traces
        .iter()
        .map(|t| Ecdf::from_trace(t).quantile(q))
        .collect::<Result<_, _>>()?;

    // Per-instance percentile powers accumulate up the tree exactly like
    // traces do, but as scalars.
    let mut node_power = vec![0.0f64; topology.len()];
    for (i, &p) in percentile_power.iter().enumerate() {
        node_power[assignment.rack_of(i)?.index()] += p;
    }
    for idx in (1..topology.len()).rev() {
        if let Some(parent) = topology.node(so_powertree::NodeId::new(idx))?.parent() {
            node_power[parent.index()] += node_power[idx];
        }
    }

    let required = Level::ALL
        .iter()
        .map(|&level| {
            let mut total: f64 = topology
                .nodes_at_level(level)
                .iter()
                .map(|&id| node_power[id.index()])
                .sum();
            if level == Level::Datacenter {
                total /= 1.0 + degrees.overbooking;
            }
            (level, total)
        })
        .collect();
    Ok(ProvisioningReport { required })
}

/// SmoOp(u, δ): per-node requirement is the `(100 − u)`-th percentile of
/// the node's *aggregate* trace; the datacenter level is overbooked by
/// `1/(1 + δ)`. With `(0, 0)` this is exactly peak-of-aggregate
/// provisioning — the datacenter requirement equals the true aggregate
/// peak of the whole fleet (an invariant `so-oracles` enforces).
///
/// # Errors
///
/// Rejects invalid degrees ([`ProvisioningDegrees::validate`]) and
/// propagates tree/trace errors.
pub fn aggregate_required_budget(
    topology: &PowerTopology,
    assignment: &Assignment,
    instance_traces: &[PowerTrace],
    degrees: ProvisioningDegrees,
) -> Result<ProvisioningReport, TreeError> {
    degrees.validate().map_err(TreeError::Trace)?;
    let aggregates = NodeAggregates::compute(topology, assignment, instance_traces)?;
    let q = degrees.quantile();
    let required = Level::ALL
        .iter()
        .map(|&level| {
            let mut total = 0.0;
            for &id in topology.nodes_at_level(level) {
                total += aggregates.trace(id)?.quantile(q)?;
            }
            if level == Level::Datacenter {
                total /= 1.0 + degrees.overbooking;
            }
            Ok((level, total))
        })
        .collect::<Result<Vec<_>, TreeError>>()?;
    Ok(ProvisioningReport { required })
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
            .rack_capacity(2)
            .build()
            .unwrap()
    }

    fn out_of_phase_traces() -> Vec<PowerTrace> {
        vec![
            PowerTrace::new(vec![100.0, 0.0], 10).unwrap(),
            PowerTrace::new(vec![0.0, 100.0], 10).unwrap(),
            PowerTrace::new(vec![100.0, 0.0], 10).unwrap(),
            PowerTrace::new(vec![0.0, 100.0], 10).unwrap(),
        ]
    }

    #[test]
    fn statprof_ignores_temporal_cancellation() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces = out_of_phase_traces();
        let degrees = ProvisioningDegrees::none();

        let statprof = statprof_required_budget(&t, &a, &traces, degrees).unwrap();
        let smoop = aggregate_required_budget(&t, &a, &traces, degrees).unwrap();

        // StatProf at the DC level: sum of peaks = 400.
        assert_eq!(statprof.at_level(Level::Datacenter), 400.0);
        // Aggregate-aware: peaks cancel pairwise, total stays 200.
        assert_eq!(smoop.at_level(Level::Datacenter), 200.0);
        // At every level SmoOp requires at most what StatProf requires.
        for level in Level::ALL {
            assert!(smoop.at_level(level) <= statprof.at_level(level) + 1e-9);
        }
    }

    #[test]
    fn underprovisioning_lowers_requirements() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        // Spiky traces: percentile provisioning cuts the requirement.
        let traces: Vec<PowerTrace> = (0..4)
            .map(|_| {
                let mut v = vec![10.0; 100];
                v[3] = 200.0;
                PowerTrace::new(v, 10).unwrap()
            })
            .collect();
        let none = statprof_required_budget(&t, &a, &traces, ProvisioningDegrees::none()).unwrap();
        let under = statprof_required_budget(
            &t,
            &a,
            &traces,
            ProvisioningDegrees {
                underprovision_pct: 5.0,
                overbooking: 0.0,
            },
        )
        .unwrap();
        for level in Level::ALL {
            assert!(under.at_level(level) < none.at_level(level));
        }
    }

    #[test]
    fn overbooking_only_affects_datacenter_level() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces = out_of_phase_traces();
        let none = statprof_required_budget(&t, &a, &traces, ProvisioningDegrees::none()).unwrap();
        let over = statprof_required_budget(
            &t,
            &a,
            &traces,
            ProvisioningDegrees {
                underprovision_pct: 0.0,
                overbooking: 0.1,
            },
        )
        .unwrap();
        assert!(over.at_level(Level::Datacenter) < none.at_level(Level::Datacenter));
        for level in [Level::Suite, Level::Msb, Level::Sb, Level::Rpp, Level::Rack] {
            assert_eq!(over.at_level(level), none.at_level(level));
        }
    }

    #[test]
    fn full_underprovisioning_budgets_at_minimum_samples() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces: Vec<PowerTrace> = (0..4)
            .map(|i| PowerTrace::new(vec![10.0 + i as f64, 50.0, 90.0], 10).unwrap())
            .collect();
        let degrees = ProvisioningDegrees {
            underprovision_pct: 100.0,
            overbooking: 0.0,
        };
        let statprof = statprof_required_budget(&t, &a, &traces, degrees).unwrap();
        // u = 100 → the 0th percentile: sum of the per-instance minima.
        let min_sum: f64 = traces.iter().map(|t| t.min()).sum();
        assert_eq!(statprof.at_level(Level::Datacenter), min_sum);
        // SmoOp at u = 100: minimum of each node's aggregate trace.
        let smoop = aggregate_required_budget(&t, &a, &traces, degrees).unwrap();
        let aggregate_min = PowerTrace::sum_of(traces.iter()).unwrap().min();
        assert!((smoop.at_level(Level::Datacenter) - aggregate_min).abs() < 1e-9);
    }

    #[test]
    fn zero_overbooking_divides_by_exactly_one() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces = out_of_phase_traces();
        let report =
            statprof_required_budget(&t, &a, &traces, ProvisioningDegrees::none()).unwrap();
        // δ = 0 is the identity, bit-for-bit: no `x / 1.0` drift.
        let sum_of_peaks: f64 = traces.iter().map(|t| t.peak()).sum();
        assert_eq!(report.at_level(Level::Datacenter), sum_of_peaks);
    }

    #[test]
    fn all_zero_traces_have_zero_budgets() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces: Vec<PowerTrace> = (0..4)
            .map(|_| PowerTrace::new(vec![0.0; 4], 10).unwrap())
            .collect();
        for degrees in [
            ProvisioningDegrees::none(),
            ProvisioningDegrees {
                underprovision_pct: 100.0,
                overbooking: 0.5,
            },
        ] {
            let statprof = statprof_required_budget(&t, &a, &traces, degrees).unwrap();
            let smoop = aggregate_required_budget(&t, &a, &traces, degrees).unwrap();
            for level in Level::ALL {
                assert_eq!(statprof.at_level(level), 0.0);
                assert_eq!(smoop.at_level(level), 0.0);
            }
        }
    }

    #[test]
    fn invalid_degrees_are_rejected() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces = out_of_phase_traces();
        for degrees in [
            ProvisioningDegrees {
                underprovision_pct: 101.0,
                overbooking: 0.0,
            },
            ProvisioningDegrees {
                underprovision_pct: -5.0,
                overbooking: 0.0,
            },
            ProvisioningDegrees {
                underprovision_pct: 0.0,
                overbooking: -0.5,
            },
            ProvisioningDegrees {
                underprovision_pct: f64::NAN,
                overbooking: 0.0,
            },
        ] {
            assert!(statprof_required_budget(&t, &a, &traces, degrees).is_err());
            assert!(aggregate_required_budget(&t, &a, &traces, degrees).is_err());
        }
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let traces = out_of_phase_traces();
        assert!(
            statprof_required_budget(&t, &a, &traces[..2], ProvisioningDegrees::none()).is_err()
        );
    }
}
