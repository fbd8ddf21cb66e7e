//! A fleet: the set of service instances of one datacenter, with their
//! averaged training traces and a held-out test week.

use std::collections::BTreeMap;

use so_powertrace::{PowerTrace, TimeGrid};

use crate::error::WorkloadError;
use crate::instance::InstanceSpec;
use crate::service::{ServiceClass, WorkKind};

/// All service instances of one synthetic datacenter.
///
/// Mirrors the paper's experimental setup (§5.1): for every server, weekly
/// power traces are collected; the average of the training weeks forms the
/// *averaged instance power trace* (Eq. 4) used to derive placements, and a
/// held-out week is used to evaluate them.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    specs: Vec<InstanceSpec>,
    grid: TimeGrid,
    averaged: Vec<PowerTrace>,
    test: Vec<PowerTrace>,
}

impl Fleet {
    /// Generates a fleet from instance specs: averages `train_weeks` weekly
    /// traces per instance and holds out the following week as test data.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroInstances`] for an empty spec list,
    /// [`WorkloadError::ZeroTrainWeeks`] when `train_weeks` is zero,
    /// [`WorkloadError::InvalidSpec`] for a spec with non-finite or
    /// negative parameters, and [`WorkloadError::Trace`] when trace
    /// synthesis fails.
    pub fn generate(
        specs: Vec<InstanceSpec>,
        grid: TimeGrid,
        train_weeks: u32,
    ) -> Result<Self, WorkloadError> {
        if specs.is_empty() {
            return Err(WorkloadError::ZeroInstances);
        }
        if train_weeks == 0 {
            return Err(WorkloadError::ZeroTrainWeeks);
        }
        let mut averaged = Vec::with_capacity(specs.len());
        let mut test = Vec::with_capacity(specs.len());
        for spec in &specs {
            spec.validate()?;
            let weeks = spec.weekly_traces(grid, train_weeks);
            averaged.push(PowerTrace::mean_of(weeks.iter())?);
            test.push(spec.weekly_trace(grid, train_weeks));
        }
        Ok(Self {
            specs,
            grid,
            averaged,
            test,
        })
    }

    /// Builds a fleet from externally collected traces (e.g. real power
    /// sensor logs loaded via `so_powertrace::io`): one averaged training
    /// trace and one held-out test trace per instance, plus the service
    /// each instance belongs to.
    ///
    /// The returned fleet carries nominal specs (no synthetic
    /// heterogeneity — the heterogeneity is already in the traces), so
    /// everything downstream (S-trace extraction, embedding, placement,
    /// reshaping) works unchanged on real data.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroInstances`] when the inputs are empty,
    /// the three vectors disagree in length, or the traces are not all on
    /// one sampling grid.
    pub fn from_traces(
        services: Vec<ServiceClass>,
        averaged: Vec<PowerTrace>,
        test: Vec<PowerTrace>,
    ) -> Result<Self, WorkloadError> {
        if services.is_empty() || services.len() != averaged.len() || services.len() != test.len() {
            return Err(WorkloadError::ZeroInstances);
        }
        let grid = averaged[0].grid();
        let all_match = averaged
            .iter()
            .chain(&test)
            .all(|t| t.len() == grid.len() && t.step_minutes() == grid.step_minutes());
        if !all_match {
            return Err(WorkloadError::ZeroInstances);
        }
        let specs = services
            .into_iter()
            .enumerate()
            .map(|(i, service)| InstanceSpec::nominal(service, i as u64))
            .collect();
        Ok(Self {
            specs,
            grid,
            averaged,
            test,
        })
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// A valid fleet is never empty; API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sampling grid all traces share.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }

    /// The spec of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn spec(&self, i: usize) -> &InstanceSpec {
        &self.specs[i]
    }

    /// All instance specs.
    pub fn specs(&self) -> &[InstanceSpec] {
        &self.specs
    }

    /// The service of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn service_of(&self, i: usize) -> ServiceClass {
        self.specs[i].service
    }

    /// Averaged training I-traces, one per instance (Eq. 4).
    pub fn averaged_traces(&self) -> &[PowerTrace] {
        &self.averaged
    }

    /// Held-out test-week traces, one per instance.
    pub fn test_traces(&self) -> &[PowerTrace] {
        &self.test
    }

    /// The distinct services present, sorted.
    pub fn services(&self) -> Vec<ServiceClass> {
        let mut services: Vec<ServiceClass> = self.specs.iter().map(|s| s.service).collect();
        services.sort();
        services.dedup();
        services
    }

    /// Indices of the instances of `service`, ascending.
    pub fn instances_of(&self, service: ServiceClass) -> Vec<usize> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.service == service)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of instances whose service has the given [`WorkKind`].
    pub fn instances_of_kind(&self, kind: WorkKind) -> Vec<usize> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.service.kind() == kind)
            .map(|(i, _)| i)
            .collect()
    }

    /// Mean-power share per service over the training traces — the data
    /// behind the paper's Figure 5 power-consumption breakdown.
    ///
    /// Shares sum to 1.0 and are sorted descending.
    pub fn power_share_by_service(&self) -> Vec<(ServiceClass, f64)> {
        let mut by_service: BTreeMap<ServiceClass, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (spec, trace) in self.specs.iter().zip(&self.averaged) {
            let mean = trace.mean();
            *by_service.entry(spec.service).or_insert(0.0) += mean;
            total += mean;
        }
        let mut shares: Vec<(ServiceClass, f64)> = by_service
            .into_iter()
            .map(|(s, p)| (s, p / total))
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceSpec;

    fn small_fleet() -> Fleet {
        let grid = TimeGrid::one_week(60);
        let specs = vec![
            InstanceSpec::nominal(ServiceClass::Frontend, 1),
            InstanceSpec::nominal(ServiceClass::Frontend, 2),
            InstanceSpec::nominal(ServiceClass::Db, 3),
            InstanceSpec::nominal(ServiceClass::Hadoop, 4),
        ];
        Fleet::generate(specs, grid, 2).unwrap()
    }

    #[test]
    fn generate_rejects_malformed_specs_cleanly() {
        let grid = TimeGrid::one_week(120);
        let specs = vec![
            InstanceSpec::nominal(ServiceClass::Frontend, 1),
            InstanceSpec {
                amplitude_scale: f64::INFINITY,
                ..InstanceSpec::nominal(ServiceClass::Db, 2)
            },
        ];
        let err = Fleet::generate(specs, grid, 1).unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidSpec {
                field: "amplitude_scale",
                ..
            }
        ));
    }

    #[test]
    fn traces_cover_every_instance() {
        let f = small_fleet();
        assert_eq!(f.len(), 4);
        assert_eq!(f.averaged_traces().len(), 4);
        assert_eq!(f.test_traces().len(), 4);
        assert_eq!(f.grid().len(), 168);
    }

    #[test]
    fn services_and_membership() {
        let f = small_fleet();
        assert_eq!(
            f.services(),
            vec![
                ServiceClass::Frontend,
                ServiceClass::Db,
                ServiceClass::Hadoop
            ]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
        );
        assert_eq!(f.instances_of(ServiceClass::Frontend), vec![0, 1]);
        assert_eq!(f.instances_of_kind(WorkKind::LatencyCritical), vec![0, 1]);
        assert_eq!(f.instances_of_kind(WorkKind::Batch), vec![3]);
    }

    #[test]
    fn power_shares_sum_to_one_and_sort_descending() {
        let f = small_fleet();
        let shares = f.power_share_by_service();
        let total: f64 = shares.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for w in shares.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn averaged_trace_smooths_noise() {
        let grid = TimeGrid::one_week(60);
        let spec = InstanceSpec::nominal(ServiceClass::Frontend, 5);
        let one = Fleet::generate(vec![spec], grid, 1).unwrap();
        let three = Fleet::generate(vec![spec], grid, 3).unwrap();
        // Averaging across weeks reduces the peak (noise cancels).
        assert!(three.averaged_traces()[0].peak() <= one.averaged_traces()[0].peak() + 1.0);
    }

    #[test]
    fn from_traces_builds_an_external_fleet() {
        let grid = TimeGrid::days(1, 120);
        let averaged: Vec<PowerTrace> = (0..3)
            .map(|i| PowerTrace::from_fn(grid, move |t| 100.0 + (i * t) as f64 % 50.0))
            .collect();
        let test = averaged.clone();
        let services = vec![
            ServiceClass::Frontend,
            ServiceClass::Db,
            ServiceClass::Hadoop,
        ];
        let fleet = Fleet::from_traces(services, averaged.clone(), test).unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.service_of(1), ServiceClass::Db);
        assert_eq!(fleet.averaged_traces(), &averaged[..]);

        // Length and grid mismatches are rejected.
        assert!(Fleet::from_traces(vec![], vec![], vec![]).is_err());
        let short = vec![averaged[0].clone()];
        assert!(Fleet::from_traces(
            vec![ServiceClass::Frontend, ServiceClass::Db],
            averaged.clone()[..2].to_vec(),
            short
        )
        .is_err());
        let other_grid = PowerTrace::zeros(TimeGrid::days(1, 60));
        assert!(Fleet::from_traces(
            vec![ServiceClass::Frontend],
            vec![other_grid.clone()],
            vec![averaged[0].clone()]
        )
        .is_err());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let grid = TimeGrid::one_week(60);
        assert_eq!(
            Fleet::generate(vec![], grid, 2).unwrap_err(),
            WorkloadError::ZeroInstances
        );
        let specs = vec![InstanceSpec::nominal(ServiceClass::Db, 1)];
        assert_eq!(
            Fleet::generate(specs, grid, 0).unwrap_err(),
            WorkloadError::ZeroTrainWeeks
        );
    }
}
