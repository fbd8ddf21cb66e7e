//! Power slack and energy slack — the paper's utilization metrics (§2.2).
//!
//! *Power slack* at time `t` is `P_budget − P_instant(t)` (Eq. 1): the
//! unused share of a power node's budget. *Energy slack* is its integral
//! over a timespan (Eq. 2). Low slack means the budget is well utilized.

use crate::error::TraceError;
use crate::trace::PowerTrace;

/// Power-slack series and aggregate slack metrics for one power node.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::{PowerTrace, SlackProfile};
///
/// let draw = PowerTrace::new(vec![6.0, 10.0, 4.0], 10)?;
/// let slack = SlackProfile::new(&draw, 10.0)?;
/// assert_eq!(slack.min_slack(), 0.0);
/// assert_eq!(slack.energy_slack_watt_minutes(), 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlackProfile {
    slack: Vec<f64>,
    overdraw: Vec<f64>,
    budget: f64,
    step_minutes: u32,
}

impl SlackProfile {
    /// Computes the slack profile of a power draw against a fixed budget.
    ///
    /// Samples above the budget contribute zero slack and are recorded as
    /// *overdraw* instead (a real node would trip its breaker; see
    /// `so-powertree`'s breaker model).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSample`] if `budget` is negative or not
    /// finite.
    pub fn new(draw: &PowerTrace, budget: f64) -> Result<Self, TraceError> {
        if !budget.is_finite() || budget < 0.0 {
            return Err(TraceError::InvalidSample {
                index: 0,
                value: budget,
            });
        }
        let mut slack = Vec::with_capacity(draw.len());
        let mut overdraw = Vec::with_capacity(draw.len());
        for &p in draw.samples() {
            slack.push((budget - p).max(0.0));
            overdraw.push((p - budget).max(0.0));
        }
        Ok(Self {
            slack,
            overdraw,
            budget,
            step_minutes: draw.step_minutes(),
        })
    }

    /// The budget the slack is measured against.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Per-sample slack values.
    pub fn slack_samples(&self) -> &[f64] {
        &self.slack
    }

    /// Smallest slack over the window (0 when the budget is ever reached).
    pub fn min_slack(&self) -> f64 {
        self.slack.iter().copied().fold(f64::MAX, f64::min)
    }

    /// Mean slack over the window.
    pub fn mean_slack(&self) -> f64 {
        self.slack.iter().sum::<f64>() / self.slack.len() as f64
    }

    /// Energy slack (Eq. 2): integral of power slack, in watt-minutes.
    pub fn energy_slack_watt_minutes(&self) -> f64 {
        self.slack.iter().sum::<f64>() * self.step_minutes as f64
    }

    /// Energy slack restricted to the samples where `mask` is true
    /// (e.g. off-peak hours), in watt-minutes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] if the mask length differs
    /// from the series length.
    pub fn masked_energy_slack(&self, mask: &[bool]) -> Result<f64, TraceError> {
        if mask.len() != self.slack.len() {
            return Err(TraceError::LengthMismatch {
                left: self.slack.len(),
                right: mask.len(),
            });
        }
        Ok(self
            .slack
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .map(|(s, _)| s)
            .sum::<f64>()
            * self.step_minutes as f64)
    }

    /// Whether the draw ever exceeded the budget.
    pub fn has_overdraw(&self) -> bool {
        self.overdraw.iter().any(|&v| v > 0.0)
    }
}

/// Relative energy-slack reduction achieved by an optimization:
/// `(E_before − E_after) / E_before`, in `[.., 1]`.
///
/// Returns 0 when the baseline slack is zero (nothing to reduce).
pub fn slack_reduction(before: &SlackProfile, after: &SlackProfile) -> f64 {
    let b = before.energy_slack_watt_minutes();
    if b == 0.0 {
        return 0.0;
    }
    (b - after.energy_slack_watt_minutes()) / b
}

/// Builds an off-peak mask from a reference activity trace: a sample is
/// off-peak when the reference is at or below its `threshold_quantile`.
///
/// # Errors
///
/// Returns [`TraceError::InvalidQuantile`] for quantiles outside `[0, 1]`.
pub fn off_peak_mask(
    reference: &PowerTrace,
    threshold_quantile: f64,
) -> Result<Vec<bool>, TraceError> {
    let threshold = reference.quantile(threshold_quantile)?;
    Ok(reference
        .samples()
        .iter()
        .map(|&v| v <= threshold)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: &[f64]) -> PowerTrace {
        PowerTrace::new(samples.to_vec(), 10).unwrap()
    }

    #[test]
    fn slack_basics() {
        let t = trace(&[2.0, 8.0, 5.0]);
        let s = SlackProfile::new(&t, 10.0).unwrap();
        assert_eq!(s.slack_samples(), &[8.0, 2.0, 5.0]);
        assert_eq!(s.min_slack(), 2.0);
        assert_eq!(s.mean_slack(), 5.0);
        assert_eq!(s.energy_slack_watt_minutes(), 150.0);
        assert!(!s.has_overdraw());
        assert_eq!(s.budget(), 10.0);
    }

    #[test]
    fn overdraw_is_recorded_not_negative_slack() {
        let t = trace(&[12.0, 8.0]);
        let s = SlackProfile::new(&t, 10.0).unwrap();
        assert_eq!(s.slack_samples(), &[0.0, 2.0]);
        assert!(s.has_overdraw());
    }

    #[test]
    fn invalid_budget_rejected() {
        let t = trace(&[1.0]);
        assert!(SlackProfile::new(&t, -1.0).is_err());
        assert!(SlackProfile::new(&t, f64::NAN).is_err());
    }

    #[test]
    fn masked_energy_slack() {
        let t = trace(&[2.0, 8.0, 5.0]);
        let s = SlackProfile::new(&t, 10.0).unwrap();
        let e = s.masked_energy_slack(&[true, false, true]).unwrap();
        assert_eq!(e, 130.0);
        assert!(s.masked_energy_slack(&[true]).is_err());
    }

    #[test]
    fn slack_reduction_ratio() {
        let before = SlackProfile::new(&trace(&[2.0, 2.0]), 10.0).unwrap();
        let after = SlackProfile::new(&trace(&[6.0, 6.0]), 10.0).unwrap();
        assert!((slack_reduction(&before, &after) - 0.5).abs() < 1e-12);
        let zero = SlackProfile::new(&trace(&[10.0]), 10.0).unwrap();
        assert_eq!(slack_reduction(&zero, &after), 0.0);
    }

    #[test]
    fn off_peak_mask_uses_quantile_threshold() {
        let t = trace(&[1.0, 2.0, 3.0, 4.0]);
        let mask = off_peak_mask(&t, 0.5).unwrap();
        assert_eq!(mask, vec![true, true, false, false]);
        assert!(off_peak_mask(&t, 1.5).is_err());
    }
}
