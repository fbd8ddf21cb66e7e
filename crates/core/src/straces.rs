//! Service power trace (S-trace) extraction (§3.3, Eq. 5).
//!
//! For each of the top power-consuming services, the S-trace is the mean of
//! the averaged I-traces of its instances. S-traces form the basis against
//! which every instance's asynchrony-score vector is computed.

use so_powertrace::PowerTrace;
use so_workloads::{Fleet, ServiceClass};

use crate::error::CoreError;

/// The S-traces of the top power-consuming services of a fleet subset.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTraces {
    services: Vec<ServiceClass>,
    traces: Vec<PowerTrace>,
}

impl ServiceTraces {
    /// Extracts S-traces for the top `top` power-consuming services among
    /// `members` of `fleet` (all instances when `members` covers the
    /// fleet). Services are ranked by their members' total mean power.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoServices`] when `members` is empty and
    /// propagates trace errors.
    pub fn extract(fleet: &Fleet, members: &[usize], top: usize) -> Result<Self, CoreError> {
        if members.is_empty() || top == 0 {
            return Err(CoreError::NoServices);
        }
        let traces = fleet.averaged_traces();

        // Total mean power and member lists per service.
        let mut per_service: Vec<(ServiceClass, Vec<usize>, f64)> = Vec::new();
        for &i in members {
            let service = fleet.service_of(i);
            let mean = traces[i].mean();
            match per_service.iter_mut().find(|(s, _, _)| *s == service) {
                Some((_, list, power)) => {
                    list.push(i);
                    *power += mean;
                }
                None => per_service.push((service, vec![i], mean)),
            }
        }
        per_service.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("powers are finite"));
        per_service.truncate(top);

        let mut services = Vec::with_capacity(per_service.len());
        let mut s_traces = Vec::with_capacity(per_service.len());
        for (service, list, _) in per_service {
            let mean = PowerTrace::mean_of(list.iter().map(|&i| &traces[i]))?;
            services.push(service);
            s_traces.push(mean);
        }
        Ok(Self {
            services,
            traces: s_traces,
        })
    }

    /// The ranked services (largest consumer first).
    pub fn services(&self) -> &[ServiceClass] {
        &self.services
    }

    /// The S-traces, aligned with [`services`](Self::services).
    pub fn traces(&self) -> &[PowerTrace] {
        &self.traces
    }

    /// Number of S-traces (the embedding dimensionality `|B|`).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no S-traces were extracted (never true for a successful
    /// extraction).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertrace::TimeGrid;
    use so_workloads::InstanceSpec;

    fn fleet() -> Fleet {
        let grid = TimeGrid::one_week(120);
        let specs = vec![
            InstanceSpec::nominal(ServiceClass::Hadoop, 1),
            InstanceSpec::nominal(ServiceClass::Hadoop, 2),
            InstanceSpec::nominal(ServiceClass::Frontend, 3),
            InstanceSpec::nominal(ServiceClass::Frontend, 4),
            InstanceSpec::nominal(ServiceClass::PhotoStorage, 5),
        ];
        Fleet::generate(specs, grid, 1).unwrap()
    }

    #[test]
    fn ranks_by_total_power() {
        let f = fleet();
        let all: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &all, 3).unwrap();
        // Hadoop (2 hot instances) outranks frontend outranks photostorage.
        assert_eq!(st.services()[0], ServiceClass::Hadoop);
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn truncates_to_top() {
        let f = fleet();
        let all: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &all, 2).unwrap();
        assert_eq!(st.len(), 2);
        assert!(!st.is_empty());
    }

    #[test]
    fn s_trace_is_mean_of_members() {
        let f = fleet();
        let members = f.instances_of(ServiceClass::Hadoop);
        let st = ServiceTraces::extract(&f, &members, 1).unwrap();
        let expected =
            PowerTrace::mean_of(members.iter().map(|&i| &f.averaged_traces()[i])).unwrap();
        assert_eq!(st.traces()[0], expected);
    }

    #[test]
    fn subset_extraction_ignores_non_members() {
        let f = fleet();
        let members = f.instances_of(ServiceClass::Frontend);
        let st = ServiceTraces::extract(&f, &members, 5).unwrap();
        assert_eq!(st.services(), &[ServiceClass::Frontend]);
    }

    #[test]
    fn empty_members_is_error() {
        let f = fleet();
        assert_eq!(
            ServiceTraces::extract(&f, &[], 3).unwrap_err(),
            CoreError::NoServices
        );
        assert_eq!(
            ServiceTraces::extract(&f, &[0], 0).unwrap_err(),
            CoreError::NoServices
        );
    }
}
