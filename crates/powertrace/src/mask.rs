//! Partial power traces: samples with a validity mask.
//!
//! Degraded telemetry (sensor dropout, late data) yields traces where
//! some positions are simply *unknown*. A [`MaskedTrace`] carries the
//! known samples plus a per-position validity mask, so placement and
//! remapping can fall back to a service-level prior ([`fill_with`])
//! instead of erroring out or silently treating missing power as zero.
//!
//! [`fill_with`]: MaskedTrace::fill_with

use crate::error::TraceError;
use crate::grid::TimeGrid;
use crate::trace::PowerTrace;

/// A fixed-step power time series in which individual samples may be
/// missing.
///
/// Masked positions store `0.0` internally; their values are never read.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::{MaskedTrace, PowerTrace};
///
/// // Second sample never arrived.
/// let partial = MaskedTrace::from_samples(&[10.0, f64::NAN, 30.0], 15)?;
/// assert_eq!(partial.observed(), 2);
///
/// // Fill the hole from a service-level prior, scaled to match the
/// // observed samples (prior mean over observed positions is 20 here,
/// // matching the observed mean, so the fill is the prior's own value).
/// let prior = PowerTrace::new(vec![10.0, 20.0, 30.0], 15)?;
/// let filled = partial.fill_with(&prior)?;
/// assert_eq!(filled.samples(), &[10.0, 20.0, 30.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedTrace {
    samples: Vec<f64>,
    valid: Vec<bool>,
    step_minutes: u32,
}

impl MaskedTrace {
    /// Builds a masked trace from samples and a validity mask.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for no samples,
    /// [`TraceError::ZeroStep`] for a zero step,
    /// [`TraceError::LengthMismatch`] when the mask length differs, and
    /// [`TraceError::InvalidSample`] when a *valid* position holds a
    /// non-finite or negative value.
    pub fn new(samples: Vec<f64>, valid: Vec<bool>, step_minutes: u32) -> Result<Self, TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        if step_minutes == 0 {
            return Err(TraceError::ZeroStep);
        }
        if samples.len() != valid.len() {
            return Err(TraceError::LengthMismatch {
                left: samples.len(),
                right: valid.len(),
            });
        }
        let mut samples = samples;
        for (index, (v, &ok)) in samples.iter_mut().zip(&valid).enumerate() {
            if ok {
                if !v.is_finite() || *v < 0.0 {
                    return Err(TraceError::InvalidSample { index, value: *v });
                }
            } else {
                *v = 0.0;
            }
        }
        Ok(Self {
            samples,
            valid,
            step_minutes,
        })
    }

    /// A fully observed masked trace (every position valid).
    pub fn from_trace(trace: &PowerTrace) -> Self {
        Self {
            samples: trace.samples().to_vec(),
            valid: vec![true; trace.len()],
            step_minutes: trace.step_minutes(),
        }
    }

    /// Builds a masked trace from raw readings, masking out every
    /// non-finite or negative sample.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for no samples and
    /// [`TraceError::ZeroStep`] for a zero step.
    pub fn from_samples(samples: &[f64], step_minutes: u32) -> Result<Self, TraceError> {
        let valid: Vec<bool> = samples.iter().map(|v| v.is_finite() && *v >= 0.0).collect();
        let samples = samples
            .iter()
            .zip(&valid)
            .map(|(&v, &ok)| if ok { v } else { 0.0 })
            .collect();
        Self::new(samples, valid, step_minutes)
    }

    /// Number of positions (observed or not).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Always false — construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sampling step in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// The sampling layout of this trace.
    pub fn grid(&self) -> TimeGrid {
        TimeGrid::new(self.step_minutes, self.samples.len())
    }

    /// The sample values (masked positions read as `0.0`).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The validity mask.
    pub fn valid(&self) -> &[bool] {
        &self.valid
    }

    /// Number of observed (valid) positions.
    pub fn observed(&self) -> usize {
        self.valid.iter().filter(|&&ok| ok).count()
    }

    /// Fraction of positions observed, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.observed() as f64 / self.samples.len() as f64
    }

    /// True when every position is observed.
    pub fn is_complete(&self) -> bool {
        self.valid.iter().all(|&ok| ok)
    }

    /// Mean over observed positions; `None` when nothing was observed.
    pub fn observed_mean(&self) -> Option<f64> {
        let observed = self.observed();
        if observed == 0 {
            return None;
        }
        let sum: f64 = self
            .samples
            .iter()
            .zip(&self.valid)
            .filter(|(_, &ok)| ok)
            .map(|(&v, _)| v)
            .sum();
        Some(sum / observed as f64)
    }

    /// Converts to a [`PowerTrace`], requiring full coverage.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::MaskedSamples`] when any position is masked.
    pub fn to_trace(&self) -> Result<PowerTrace, TraceError> {
        let masked = self.samples.len() - self.observed();
        if masked > 0 {
            return Err(TraceError::MaskedSamples {
                masked,
                len: self.samples.len(),
            });
        }
        PowerTrace::new(self.samples.clone(), self.step_minutes)
    }

    /// Fills masked positions from a prior trace (typically the service's
    /// S-trace), scaled so the prior's mean over the *observed* positions
    /// matches the observed mean. Falls back to the unscaled prior when
    /// nothing was observed or the prior is zero where observed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] / [`TraceError::StepMismatch`]
    /// when the prior is on a different grid.
    pub fn fill_with(&self, prior: &PowerTrace) -> Result<PowerTrace, TraceError> {
        if prior.len() != self.samples.len() {
            return Err(TraceError::LengthMismatch {
                left: self.samples.len(),
                right: prior.len(),
            });
        }
        if prior.step_minutes() != self.step_minutes {
            return Err(TraceError::StepMismatch {
                left: self.step_minutes,
                right: prior.step_minutes(),
            });
        }
        let scale = match self.observed_mean() {
            Some(mean) => {
                let prior_sum: f64 = prior
                    .samples()
                    .iter()
                    .zip(&self.valid)
                    .filter(|(_, &ok)| ok)
                    .map(|(&v, _)| v)
                    .sum();
                let prior_mean = prior_sum / self.observed() as f64;
                if prior_mean > 0.0 {
                    mean / prior_mean
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let filled: Vec<f64> = self
            .samples
            .iter()
            .zip(&self.valid)
            .zip(prior.samples())
            .map(|((&v, &ok), &p)| if ok { v } else { (p * scale).max(0.0) })
            .collect();
        PowerTrace::new(filled, self.step_minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_samples_masks_garbage() {
        let m = MaskedTrace::from_samples(&[5.0, f64::NAN, -2.0, 8.0], 10).unwrap();
        assert_eq!(m.valid(), &[true, false, false, true]);
        assert_eq!(m.samples(), &[5.0, 0.0, 0.0, 8.0]);
        assert_eq!(m.observed(), 2);
        assert!((m.coverage() - 0.5).abs() < 1e-12);
        assert!(!m.is_complete());
    }

    #[test]
    fn complete_round_trips_to_trace() {
        let t = PowerTrace::new(vec![1.0, 2.0], 30).unwrap();
        let m = MaskedTrace::from_trace(&t);
        assert!(m.is_complete());
        assert_eq!(m.to_trace().unwrap(), t);
    }

    #[test]
    fn to_trace_rejects_masked() {
        let m = MaskedTrace::from_samples(&[1.0, f64::NAN], 30).unwrap();
        assert_eq!(
            m.to_trace().unwrap_err(),
            TraceError::MaskedSamples { masked: 1, len: 2 }
        );
    }

    #[test]
    fn new_validates() {
        assert_eq!(
            MaskedTrace::new(vec![], vec![], 10).unwrap_err(),
            TraceError::Empty
        );
        assert_eq!(
            MaskedTrace::new(vec![1.0], vec![true], 0).unwrap_err(),
            TraceError::ZeroStep
        );
        assert_eq!(
            MaskedTrace::new(vec![1.0], vec![true, false], 10).unwrap_err(),
            TraceError::LengthMismatch { left: 1, right: 2 }
        );
        assert!(matches!(
            MaskedTrace::new(vec![-1.0], vec![true], 10),
            Err(TraceError::InvalidSample { index: 0, .. })
        ));
        // Garbage at a masked position is fine and normalizes to zero.
        let m = MaskedTrace::new(vec![f64::NAN], vec![false], 10).unwrap();
        assert_eq!(m.samples(), &[0.0]);
    }

    #[test]
    fn fill_with_scales_prior_to_observed_level() {
        // Observed samples run 2x hotter than the prior.
        let m = MaskedTrace::from_samples(&[20.0, f64::NAN, 60.0], 15).unwrap();
        let prior = PowerTrace::new(vec![10.0, 25.0, 30.0], 15).unwrap();
        let filled = m.fill_with(&prior).unwrap();
        assert_eq!(filled.samples(), &[20.0, 50.0, 60.0]);
    }

    #[test]
    fn fill_with_unobserved_uses_prior_directly() {
        let m = MaskedTrace::new(vec![0.0, 0.0], vec![false, false], 15).unwrap();
        let prior = PowerTrace::new(vec![3.0, 4.0], 15).unwrap();
        assert_eq!(m.fill_with(&prior).unwrap().samples(), &[3.0, 4.0]);
    }

    #[test]
    fn fill_with_grid_mismatch() {
        let m = MaskedTrace::from_samples(&[1.0, 2.0], 15).unwrap();
        let short = PowerTrace::new(vec![1.0], 15).unwrap();
        assert!(matches!(
            m.fill_with(&short),
            Err(TraceError::LengthMismatch { .. })
        ));
        let wrong_step = PowerTrace::new(vec![1.0, 2.0], 30).unwrap();
        assert!(matches!(
            m.fill_with(&wrong_step),
            Err(TraceError::StepMismatch { .. })
        ));
    }

    #[test]
    fn observed_mean_matches_hand_value() {
        let m = MaskedTrace::from_samples(&[2.0, f64::NAN, 4.0], 15).unwrap();
        assert_eq!(m.observed_mean(), Some(3.0));
        let none = MaskedTrace::new(vec![0.0], vec![false], 15).unwrap();
        assert_eq!(none.observed_mean(), None);
    }
}
