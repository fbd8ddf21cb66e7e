//! Cross-instance percentile bands, the representation behind the paper's
//! Figure 6 (per-service diurnal bands such as p5–p95, p25–p75, p45–p55).

use crate::error::TraceError;
use crate::quantile::quantile_sorted;
use crate::trace::PowerTrace;

/// Per-timestep percentile bands across a population of traces.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::{PercentileBands, PowerTrace};
///
/// let population = vec![
///     PowerTrace::new(vec![1.0, 2.0], 10)?,
///     PowerTrace::new(vec![3.0, 4.0], 10)?,
/// ];
/// let bands = PercentileBands::compute(&population, &[0.0, 0.5, 1.0])?;
/// assert_eq!(bands.series(0.5)?, &[2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileBands {
    percentiles: Vec<f64>,
    /// `series[p][t]`: value of percentile `p` at timestep `t`.
    values: Vec<Vec<f64>>,
    step_minutes: u32,
}

impl PercentileBands {
    /// Computes bands at the given quantiles (each in `[0, 1]`) across the
    /// population, per timestep.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty population or quantile
    /// list, a mismatch error when traces are not on a common grid, and
    /// [`TraceError::InvalidQuantile`] for out-of-range quantiles.
    pub fn compute(population: &[PowerTrace], quantiles: &[f64]) -> Result<Self, TraceError> {
        let first = population.first().ok_or(TraceError::Empty)?;
        if quantiles.is_empty() {
            return Err(TraceError::Empty);
        }
        for &q in quantiles {
            if !(0.0..=1.0).contains(&q) || q.is_nan() {
                return Err(TraceError::InvalidQuantile(q));
            }
        }
        for t in population {
            if t.len() != first.len() {
                return Err(TraceError::LengthMismatch {
                    left: first.len(),
                    right: t.len(),
                });
            }
            if t.step_minutes() != first.step_minutes() {
                return Err(TraceError::StepMismatch {
                    left: first.step_minutes(),
                    right: t.step_minutes(),
                });
            }
        }

        let len = first.len();
        let mut values = vec![vec![0.0; len]; quantiles.len()];
        let mut column = vec![0.0; population.len()];
        #[allow(clippy::needless_range_loop)] // t indexes several columns at once
        for t in 0..len {
            for (i, trace) in population.iter().enumerate() {
                column[i] = trace.samples()[t];
            }
            column.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            for (pi, &q) in quantiles.iter().enumerate() {
                values[pi][t] =
                    quantile_sorted(&column, q).expect("population non-empty, q validated");
            }
        }
        Ok(Self {
            percentiles: quantiles.to_vec(),
            values,
            step_minutes: first.step_minutes(),
        })
    }

    /// The quantiles the bands were computed at.
    pub fn quantiles(&self) -> &[f64] {
        &self.percentiles
    }

    /// Sampling step of the underlying traces, in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// The per-timestep series for quantile `q` (must be one of the
    /// requested quantiles).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidQuantile`] if `q` was not requested at
    /// construction.
    pub fn series(&self, q: f64) -> Result<&[f64], TraceError> {
        self.percentiles
            .iter()
            .position(|&p| p == q)
            .map(|i| self.values[i].as_slice())
            .ok_or(TraceError::InvalidQuantile(q))
    }

    /// Number of timesteps covered.
    pub fn len(&self) -> usize {
        self.values[0].len()
    }

    /// Bands over a valid population are never empty; API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> Vec<PowerTrace> {
        (1..=5)
            .map(|i| PowerTrace::new(vec![i as f64, 2.0 * i as f64], 10).unwrap())
            .collect()
    }

    #[test]
    fn median_band_is_columnwise_median() {
        let bands = PercentileBands::compute(&population(), &[0.5]).unwrap();
        assert_eq!(bands.series(0.5).unwrap(), &[3.0, 6.0]);
        assert_eq!(bands.len(), 2);
        assert_eq!(bands.step_minutes(), 10);
    }

    #[test]
    fn extremes_match_min_max() {
        let bands = PercentileBands::compute(&population(), &[0.0, 1.0]).unwrap();
        assert_eq!(bands.series(0.0).unwrap(), &[1.0, 2.0]);
        assert_eq!(bands.series(1.0).unwrap(), &[5.0, 10.0]);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(PercentileBands::compute(&[], &[0.5]).is_err());
        assert!(PercentileBands::compute(&population(), &[]).is_err());
        assert!(PercentileBands::compute(&population(), &[1.5]).is_err());
        let mut pop = population();
        pop.push(PowerTrace::new(vec![1.0], 10).unwrap());
        assert!(PercentileBands::compute(&pop, &[0.5]).is_err());
    }

    #[test]
    fn unknown_series_is_error() {
        let bands = PercentileBands::compute(&population(), &[0.5]).unwrap();
        assert!(bands.series(0.25).is_err());
    }
}
