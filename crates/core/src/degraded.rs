//! Degraded-mode placement inputs: completing partial traces from
//! service-level priors.
//!
//! Under sensor faults, some instances arrive with [`MaskedTrace`]s
//! instead of complete I-traces. Placement and remapping need complete
//! traces, so this module fills the holes from *service-level priors* —
//! the pooled average of whatever the same service's instances did
//! observe (the degraded-data analogue of the paper's S-traces, Eq. 5).
//! Every substitution is recorded in a [`DegradedReport`] so analysis can
//! surface how much of a placement decision rested on priors rather than
//! measurements.

use so_powertrace::{MaskedTrace, PowerTrace, TraceError};

use crate::error::CoreError;

/// Where one instance's completed trace came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// Fully measured — no masked samples.
    Measured,
    /// Measured samples kept; masked samples filled from the service
    /// prior (scaled to the instance's observed level).
    Filled {
        /// How many samples came from the prior.
        masked_samples: usize,
    },
    /// Coverage was below the threshold; the service prior was used
    /// wholesale.
    PriorOnly,
}

/// What degraded-mode completion did, instance by instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// Per-instance provenance, aligned with the input traces.
    pub sources: Vec<TraceSource>,
    /// Mean coverage (observed fraction) across the input traces.
    pub mean_coverage: f64,
}

impl DegradedReport {
    /// Instances that needed no completion.
    pub fn measured(&self) -> usize {
        self.sources
            .iter()
            .filter(|s| matches!(s, TraceSource::Measured))
            .count()
    }

    /// Instances with holes filled from the prior.
    pub fn filled(&self) -> usize {
        self.sources
            .iter()
            .filter(|s| matches!(s, TraceSource::Filled { .. }))
            .count()
    }

    /// True when every instance was fully measured.
    pub fn is_clean(&self) -> bool {
        self.measured() == self.sources.len()
    }
}

/// Validates that every masked trace sits on the grid of the first one.
fn check_grids(masked: &[MaskedTrace]) -> Result<(), CoreError> {
    let first = match masked.first() {
        Some(m) => m,
        None => return Err(CoreError::EmptySet),
    };
    for m in masked {
        if m.len() != first.len() {
            return Err(CoreError::Trace(TraceError::LengthMismatch {
                left: first.len(),
                right: m.len(),
            }));
        }
        if m.step_minutes() != first.step_minutes() {
            return Err(CoreError::Trace(TraceError::StepMismatch {
                left: first.step_minutes(),
                right: m.step_minutes(),
            }));
        }
    }
    Ok(())
}

/// Builds one prior trace per service by pooling the *observed* samples
/// of that service's instances: position `t` of service `s`'s prior is
/// the mean over `s`-instances whose sample `t` was observed, falling
/// back to the service's overall observed mean where nobody observed `t`.
///
/// # Errors
///
/// Returns [`CoreError::EmptySet`] for no traces,
/// [`CoreError::InsufficientData`] for a service with not a single
/// observed sample across all its instances, and grid-mismatch trace
/// errors.
fn service_priors(
    masked: &[MaskedTrace],
    service_of: &[usize],
    n_services: usize,
) -> Result<Vec<PowerTrace>, CoreError> {
    check_grids(masked)?;
    if masked.len() != service_of.len() {
        return Err(CoreError::Trace(TraceError::LengthMismatch {
            left: masked.len(),
            right: service_of.len(),
        }));
    }
    let len = masked[0].len();
    let step = masked[0].step_minutes();

    let mut sums = vec![vec![0.0f64; len]; n_services];
    let mut counts = vec![vec![0usize; len]; n_services];
    let mut instances = vec![0usize; n_services];
    for (m, &s) in masked.iter().zip(service_of) {
        if s >= n_services {
            return Err(CoreError::InsufficientData { service: s });
        }
        instances[s] += 1;
        for t in 0..len {
            if m.valid()[t] {
                sums[s][t] += m.samples()[t];
                counts[s][t] += 1;
            }
        }
    }

    let mut priors = Vec::with_capacity(n_services);
    for s in 0..n_services {
        let total: f64 = sums[s].iter().sum();
        let observed: usize = counts[s].iter().sum();
        if observed == 0 {
            // A service that simply has no instances here (sparse service
            // ids) gets a placeholder zero prior nothing will reference;
            // a service whose instances observed nothing is a real error —
            // its holes would have to be invented from thin air.
            if instances[s] == 0 {
                priors.push(PowerTrace::new(vec![0.0; len], step)?);
                continue;
            }
            return Err(CoreError::InsufficientData { service: s });
        }
        let overall_mean = total / observed as f64;
        let samples: Vec<f64> = (0..len)
            .map(|t| {
                if counts[s][t] > 0 {
                    sums[s][t] / counts[s][t] as f64
                } else {
                    overall_mean
                }
            })
            .collect();
        priors.push(PowerTrace::new(samples, step)?);
    }
    Ok(priors)
}

/// Completes every masked trace into a full [`PowerTrace`]:
///
/// * complete traces pass through untouched ([`TraceSource::Measured`]);
/// * traces with coverage ≥ `min_coverage` keep their measured samples
///   and fill holes from their service's prior, scaled so the prior
///   matches the instance's observed level ([`TraceSource::Filled`]);
/// * traces below `min_coverage` are replaced by the prior wholesale
///   ([`TraceSource::PriorOnly`]) — too little was seen to trust even a
///   level estimate.
///
/// # Errors
///
/// Returns [`CoreError::EmptySet`] for no traces,
/// [`CoreError::InsufficientData`] when an instance's service index is
/// out of range of `priors`, and grid-mismatch trace errors.
pub fn complete_traces(
    masked: &[MaskedTrace],
    service_of: &[usize],
    priors: &[PowerTrace],
    min_coverage: f64,
) -> Result<(Vec<PowerTrace>, DegradedReport), CoreError> {
    check_grids(masked)?;
    if masked.len() != service_of.len() {
        return Err(CoreError::Trace(TraceError::LengthMismatch {
            left: masked.len(),
            right: service_of.len(),
        }));
    }

    let mut traces = Vec::with_capacity(masked.len());
    let mut sources = Vec::with_capacity(masked.len());
    let mut coverage_sum = 0.0;
    for (m, &s) in masked.iter().zip(service_of) {
        coverage_sum += m.coverage();
        if m.is_complete() {
            traces.push(m.to_trace()?);
            sources.push(TraceSource::Measured);
            continue;
        }
        let prior = priors
            .get(s)
            .ok_or(CoreError::InsufficientData { service: s })?;
        if m.coverage() >= min_coverage {
            traces.push(m.fill_with(prior)?);
            sources.push(TraceSource::Filled {
                masked_samples: m.len() - m.observed(),
            });
        } else {
            // Check the grid even though the measured samples are unused.
            if prior.len() != m.len() || prior.step_minutes() != m.step_minutes() {
                return Err(CoreError::Trace(TraceError::LengthMismatch {
                    left: m.len(),
                    right: prior.len(),
                }));
            }
            traces.push(prior.clone());
            sources.push(TraceSource::PriorOnly);
        }
    }
    let mean_coverage = coverage_sum / masked.len() as f64;
    Ok((
        traces,
        DegradedReport {
            sources,
            mean_coverage,
        },
    ))
}

/// One-call degraded completion: derives the service priors from the
/// masked traces themselves, then completes every trace against them.
///
/// # Errors
///
/// Propagates the prior derivation's and [`complete_traces`] errors.
pub fn complete_with_derived_priors(
    masked: &[MaskedTrace],
    service_of: &[usize],
    min_coverage: f64,
) -> Result<(Vec<PowerTrace>, DegradedReport), CoreError> {
    let n_services = service_of.iter().copied().max().map_or(0, |m| m + 1);
    let priors = service_priors(masked, service_of, n_services)?;
    complete_traces(masked, service_of, &priors, min_coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(samples: &[f64]) -> MaskedTrace {
        MaskedTrace::from_samples(samples, 60).unwrap()
    }

    #[test]
    fn priors_pool_observed_samples_per_service() {
        let m = vec![
            masked(&[10.0, f64::NAN, 30.0]),
            masked(&[20.0, 40.0, f64::NAN]),
            masked(&[5.0, 5.0, 5.0]), // second service
        ];
        let priors = service_priors(&m, &[0, 0, 1], 2).unwrap();
        // Service 0: t0 mean(10,20)=15; t1 only 40; t2 only 30.
        assert_eq!(priors[0].samples(), &[15.0, 40.0, 30.0]);
        assert_eq!(priors[1].samples(), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn unobserved_positions_fall_back_to_service_mean() {
        let m = vec![masked(&[12.0, f64::NAN, 18.0]), masked(&[f64::NAN; 3])];
        let priors = service_priors(&m, &[0, 0], 1).unwrap();
        // Position 1 was never observed: falls back to mean(12, 18) = 15.
        assert_eq!(priors[0].samples(), &[12.0, 15.0, 18.0]);
    }

    #[test]
    fn service_without_data_errors() {
        let m = vec![masked(&[1.0, 2.0]), masked(&[f64::NAN, f64::NAN])];
        let err = service_priors(&m, &[0, 1], 2).unwrap_err();
        assert_eq!(err, CoreError::InsufficientData { service: 1 });
    }

    #[test]
    fn unrepresented_service_gets_placeholder_prior() {
        // Service 1 has no instances here (sparse ids): not an error, and
        // its placeholder prior is all zeros.
        let m = vec![masked(&[1.0, 2.0]), masked(&[3.0, 4.0])];
        let priors = service_priors(&m, &[0, 2], 3).unwrap();
        assert_eq!(priors[1].samples(), &[0.0, 0.0]);
        assert_eq!(priors[0].samples(), &[1.0, 2.0]);
        assert_eq!(priors[2].samples(), &[3.0, 4.0]);
    }

    #[test]
    fn completion_classifies_sources() {
        let m = vec![
            masked(&[10.0, 20.0, 30.0]),             // complete
            masked(&[10.0, f64::NAN, 30.0]),         // fillable (2/3 coverage)
            masked(&[f64::NAN, f64::NAN, f64::NAN]), // hopeless
            masked(&[12.0, 24.0, 36.0]),             // complete, same service
        ];
        let (traces, report) = complete_with_derived_priors(&m, &[0, 0, 0, 0], 0.5).unwrap();
        assert_eq!(traces.len(), 4);
        assert_eq!(report.sources[0], TraceSource::Measured);
        assert_eq!(report.sources[1], TraceSource::Filled { masked_samples: 1 });
        assert_eq!(report.sources[2], TraceSource::PriorOnly);
        assert_eq!(report.measured(), 2);
        assert_eq!(report.filled(), 1);
        assert!(!report.is_clean());
        // Measured traces pass through bit-for-bit.
        assert_eq!(traces[0].samples(), &[10.0, 20.0, 30.0]);
        // Every completed trace is a valid PowerTrace on the shared grid.
        for t in &traces {
            assert_eq!(t.len(), 3);
            assert!(t.samples().iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    #[test]
    fn filled_trace_matches_observed_level() {
        // Instance observes 2x the prior's level: the fill scales up.
        let m = vec![masked(&[20.0, f64::NAN, 60.0]), masked(&[10.0, 25.0, 30.0])];
        let priors = service_priors(&[m[1].clone()], &[0], 1).unwrap();
        let (traces, _) = complete_traces(&m, &[0, 0], &priors, 0.5).unwrap();
        // Observed mean = 40; prior mean over observed positions = 20.
        // Scale 2x: fill = 25 * 2 = 50.
        assert_eq!(traces[0].samples(), &[20.0, 50.0, 60.0]);
    }

    #[test]
    fn clean_inputs_report_clean() {
        let m = vec![masked(&[1.0, 2.0]), masked(&[3.0, 4.0])];
        let (_, report) = complete_with_derived_priors(&m, &[0, 1], 0.5).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.mean_coverage, 1.0);
    }

    #[test]
    fn mismatched_inputs_error() {
        assert_eq!(
            complete_with_derived_priors(&[], &[], 0.5).unwrap_err(),
            CoreError::EmptySet
        );
        let m = vec![masked(&[1.0, 2.0])];
        assert!(matches!(
            complete_with_derived_priors(&m, &[0, 0], 0.5),
            Err(CoreError::Trace(TraceError::LengthMismatch { .. }))
        ));
        let uneven = vec![masked(&[1.0, 2.0]), masked(&[1.0, 2.0, 3.0])];
        assert!(matches!(
            complete_with_derived_priors(&uneven, &[0, 0], 0.5),
            Err(CoreError::Trace(TraceError::LengthMismatch { .. }))
        ));
    }
}
