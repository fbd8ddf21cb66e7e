//! Empirical distributions over power samples.
//!
//! The StatProf baseline (Govindan et al., reproduced in `so-baselines`)
//! models each instance's power profile as a cumulative distribution
//! function and provisions at high percentiles; [`Ecdf`] is that CDF.

use crate::error::TraceError;
use crate::quantile::quantile_sorted;
use crate::trace::PowerTrace;

/// Empirical cumulative distribution function over a trace's samples.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::{Ecdf, PowerTrace};
///
/// let trace = PowerTrace::new(vec![1.0, 2.0, 3.0, 4.0], 10)?;
/// let ecdf = Ecdf::from_trace(&trace);
/// assert_eq!(ecdf.quantile(1.0)?, 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the empirical CDF of a trace's samples.
    pub fn from_trace(trace: &PowerTrace) -> Self {
        let mut sorted = trace.samples().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Self { sorted }
    }

    /// Builds an empirical CDF from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for no samples and
    /// [`TraceError::InvalidSample`] for non-finite or negative samples.
    pub fn from_samples(samples: Vec<f64>) -> Result<Self, TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::InvalidSample { index, value });
            }
        }
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Ok(Self { sorted })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// A valid CDF is never empty; this exists for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear-interpolated quantile under the workspace's shared convention
    /// (see [`crate::quantile`]), `q` in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidQuantile`] for `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64, TraceError> {
        quantile_sorted(&self.sorted, q)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("ecdf is non-empty")
    }
}

/// Summary statistics of a trace, convenient for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Peak (maximum) power.
    pub peak: f64,
    /// Mean power.
    pub mean: f64,
    /// Minimum power.
    pub min: f64,
    /// 95th-percentile power.
    pub p95: f64,
    /// Peak-to-mean ratio; 1.0 for a perfectly flat trace.
    pub peak_to_mean: f64,
}

impl TraceSummary {
    /// Computes the summary of a trace.
    pub fn of(trace: &PowerTrace) -> Self {
        let peak = trace.peak();
        let mean = trace.mean();
        Self {
            peak,
            mean,
            min: trace.min(),
            p95: trace.quantile(0.95).expect("0.95 is a valid quantile"),
            peak_to_mean: if mean > 0.0 { peak / mean } else { 1.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_quantiles_match_trace_quantiles() {
        let t = PowerTrace::new(vec![5.0, 1.0, 3.0, 2.0, 4.0], 10).unwrap();
        let e = Ecdf::from_trace(&t);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(e.quantile(q).unwrap(), t.quantile(q).unwrap());
        }
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 5.0);
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn from_samples_validates() {
        assert!(matches!(Ecdf::from_samples(vec![]), Err(TraceError::Empty)));
        assert!(matches!(
            Ecdf::from_samples(vec![1.0, f64::INFINITY]),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
    }

    #[test]
    fn summary_is_consistent() {
        let t = PowerTrace::new(vec![1.0, 2.0, 3.0], 10).unwrap();
        let s = TraceSummary::of(&t);
        assert_eq!(s.peak, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert!((s.peak_to_mean - 1.5).abs() < 1e-12);
    }
}
