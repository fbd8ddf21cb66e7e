//! The [`PowerTrace`] type: a validated, fixed-step power time series.

use std::ops::{Add, AddAssign, Index, Sub};

use crate::error::TraceError;
use crate::grid::TimeGrid;

/// A power time series: one non-negative wattage sample per grid point.
///
/// This is the substrate every SmoothOperator component operates on. The
/// paper calls a per-server series an *instance power trace* (I-trace) and a
/// per-service mean an *service power trace* (S-trace); both are plain
/// `PowerTrace` values here, and — as §3.3 notes — "since power traces are
/// simply vectors, vector arithmetic can be directly applied".
///
/// Invariants (enforced at construction):
///
/// * at least one sample,
/// * a positive sampling step,
/// * every sample finite and non-negative.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::PowerTrace;
///
/// let a = PowerTrace::new(vec![1.0, 3.0, 2.0], 10)?;
/// let b = PowerTrace::new(vec![2.0, 0.0, 1.0], 10)?;
/// let sum = a.try_add(&b)?;
/// assert_eq!(sum.peak(), 3.0);
/// assert_eq!(sum.samples(), &[3.0, 3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    samples: Vec<f64>,
    step_minutes: u32,
}

impl PowerTrace {
    /// Creates a trace from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty sample vector,
    /// [`TraceError::ZeroStep`] for a zero step, and
    /// [`TraceError::InvalidSample`] if any sample is NaN, infinite, or
    /// negative.
    pub fn new(samples: Vec<f64>, step_minutes: u32) -> Result<Self, TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        if step_minutes == 0 {
            return Err(TraceError::ZeroStep);
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::InvalidSample { index, value });
            }
        }
        Ok(Self {
            samples,
            step_minutes,
        })
    }

    /// An all-zero trace covering the given grid.
    pub fn zeros(grid: TimeGrid) -> Self {
        Self {
            samples: vec![0.0; grid.len()],
            step_minutes: grid.step_minutes(),
        }
    }

    /// A constant trace covering the given grid.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or is negative.
    pub fn constant(value: f64, grid: TimeGrid) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "power must be finite and non-negative"
        );
        Self {
            samples: vec![value; grid.len()],
            step_minutes: grid.step_minutes(),
        }
    }

    /// Builds a trace by evaluating `f` at every grid point.
    ///
    /// Negative values produced by `f` are clamped to zero so that additive
    /// noise models cannot produce physically impossible readings.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces a NaN or infinite value.
    pub fn from_fn(grid: TimeGrid, mut f: impl FnMut(usize) -> f64) -> Self {
        let samples: Vec<f64> = grid
            .indices()
            .map(|i| {
                let v = f(i);
                assert!(v.is_finite(), "trace generator produced a non-finite value");
                v.max(0.0)
            })
            .collect();
        Self {
            samples,
            step_minutes: grid.step_minutes(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// A valid trace is never empty; this exists for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sampling step in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// The grid this trace is sampled on.
    pub fn grid(&self) -> TimeGrid {
        TimeGrid::new(self.step_minutes, self.samples.len())
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consume the trace, returning the raw samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Sample at index `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.samples.get(i).copied()
    }

    /// Maximum sample — the trace's *peak power* (the quantity that
    /// provisioning must accommodate).
    pub fn peak(&self) -> f64 {
        crate::aggregate::peak_of_samples(&self.samples)
    }

    /// Index of the (first) peak sample.
    pub fn peak_index(&self) -> usize {
        let peak = self.peak();
        self.samples
            .iter()
            .position(|&v| v == peak)
            .expect("non-empty trace always has a peak")
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::MAX, f64::min)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Integral of power over time, in watt-minutes.
    pub fn energy_watt_minutes(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.step_minutes as f64
    }

    /// Empirical quantile under the workspace's shared linear-interpolation
    /// convention (see [`crate::quantile`]), `q` in `[0, 1]`.
    ///
    /// `quantile(1.0)` equals [`peak`](Self::peak) and `quantile(0.0)` equals
    /// [`min`](Self::min), exactly. Used by the StatProf baseline, which
    /// provisions at the `(100 − u)`-th percentile of each instance's power
    /// profile.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidQuantile`] if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64, TraceError> {
        crate::quantile::quantile(&self.samples, q)
    }

    /// Element-wise sum, checked for matching grids.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] or [`TraceError::StepMismatch`]
    /// when the traces are not on the same grid.
    pub fn try_add(&self, other: &PowerTrace) -> Result<PowerTrace, TraceError> {
        self.check_compatible(other)?;
        let samples = self
            .samples
            .iter()
            .zip(&other.samples)
            .map(|(a, b)| a + b)
            .collect();
        Ok(PowerTrace {
            samples,
            step_minutes: self.step_minutes,
        })
    }

    /// Element-wise difference, clamped at zero (power cannot be negative),
    /// checked for matching grids.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] or [`TraceError::StepMismatch`]
    /// when the traces are not on the same grid.
    fn try_sub(&self, other: &PowerTrace) -> Result<PowerTrace, TraceError> {
        self.check_compatible(other)?;
        let samples = self
            .samples
            .iter()
            .zip(&other.samples)
            .map(|(a, b)| (a - b).max(0.0))
            .collect();
        Ok(PowerTrace {
            samples,
            step_minutes: self.step_minutes,
        })
    }

    /// In-place element-wise accumulation, checked for matching grids.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] or [`TraceError::StepMismatch`]
    /// when the traces are not on the same grid.
    fn try_add_assign(&mut self, other: &PowerTrace) -> Result<(), TraceError> {
        self.check_compatible(other)?;
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += row`, returning the new peak. Exact on the grid of
    /// [`crate::snap_samples`].
    ///
    /// # Errors
    ///
    /// [`TraceError::LengthMismatch`] for a row of another length, and
    /// [`TraceError::InvalidSample`] when a result would be negative or not
    /// finite. The trace is unchanged on error.
    pub fn add_row_in_place(&mut self, row: &[f64]) -> Result<f64, TraceError> {
        self.shift_by_row(row, 1.0)
    }

    /// In-place `self -= row`; see [`add_row_in_place`](Self::add_row_in_place).
    ///
    /// # Errors
    ///
    /// As for [`add_row_in_place`](Self::add_row_in_place).
    pub fn sub_row_in_place(&mut self, row: &[f64]) -> Result<f64, TraceError> {
        self.shift_by_row(row, -1.0)
    }

    fn shift_by_row(&mut self, row: &[f64], sign: f64) -> Result<f64, TraceError> {
        if row.len() != self.samples.len() {
            return Err(TraceError::LengthMismatch {
                left: self.samples.len(),
                right: row.len(),
            });
        }
        // Branch-free passes that vectorize: check every result, write,
        // then refold the peak while the row is still in cache.
        let valid = |v: f64| (0.0..=f64::MAX).contains(&v);
        let shifted = |t: usize| self.samples[t] + sign * row[t];
        let all_valid = self
            .samples
            .iter()
            .zip(row)
            .fold(true, |ok, (&a, &v)| ok & valid(a + sign * v));
        if !all_valid {
            let index = (0..row.len()).find(|&t| !valid(shifted(t))).unwrap_or(0);
            return Err(TraceError::InvalidSample {
                index,
                value: shifted(index),
            });
        }
        for (acc, &v) in self.samples.iter_mut().zip(row) {
            *acc += sign * v;
        }
        Ok(self.peak())
    }

    /// Overwrites the sample at `index`.
    ///
    /// # Errors
    ///
    /// [`TraceError::OutOfBounds`] past the end and
    /// [`TraceError::InvalidSample`] for a NaN, infinite or negative value;
    /// the trace is unchanged on error.
    pub fn set_sample(&mut self, index: usize, value: f64) -> Result<(), TraceError> {
        let len = self.samples.len();
        let slot = self.samples.get_mut(index).ok_or(TraceError::OutOfBounds {
            requested: index,
            len,
        })?;
        if !value.is_finite() || value < 0.0 {
            return Err(TraceError::InvalidSample { index, value });
        }
        *slot = value;
        Ok(())
    }

    /// Multiply every sample by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&self, factor: f64) -> PowerTrace {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        PowerTrace {
            samples: self.samples.iter().map(|v| v * factor).collect(),
            step_minutes: self.step_minutes,
        }
    }

    /// Extract the half-open sample window `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfBounds`] when `end > len`, and
    /// [`TraceError::Empty`] when `start >= end`.
    pub fn window(&self, start: usize, end: usize) -> Result<PowerTrace, TraceError> {
        if end > self.samples.len() {
            return Err(TraceError::OutOfBounds {
                requested: end,
                len: self.samples.len(),
            });
        }
        if start >= end {
            return Err(TraceError::Empty);
        }
        Ok(PowerTrace {
            samples: self.samples[start..end].to_vec(),
            step_minutes: self.step_minutes,
        })
    }

    /// Downsample by an integer factor, averaging each bucket.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ZeroStep`] if `factor` is zero and
    /// [`TraceError::LengthMismatch`] if `factor` does not divide the length.
    pub fn downsample(&self, factor: usize) -> Result<PowerTrace, TraceError> {
        if factor == 0 {
            return Err(TraceError::ZeroStep);
        }
        if self.samples.len() % factor != 0 {
            return Err(TraceError::LengthMismatch {
                left: self.samples.len(),
                right: factor,
            });
        }
        let samples = self
            .samples
            .chunks_exact(factor)
            .map(|chunk| chunk.iter().sum::<f64>() / factor as f64)
            .collect();
        Ok(PowerTrace {
            samples,
            step_minutes: self.step_minutes * factor as u32,
        })
    }

    /// The element-wise mean of several traces on a common grid — the
    /// *averaged instance power trace* of Eq. 4 when applied to the same
    /// time-of-week across weeks, and the *service power trace* of Eq. 5
    /// when applied across a service's instances.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty input and a mismatch error
    /// when the traces are not on a common grid.
    pub fn mean_of<'a>(
        traces: impl IntoIterator<Item = &'a PowerTrace>,
    ) -> Result<PowerTrace, TraceError> {
        let mut iter = traces.into_iter();
        let first = iter.next().ok_or(TraceError::Empty)?;
        let mut acc = first.clone();
        let mut count = 1usize;
        for t in iter {
            acc.try_add_assign(t)?;
            count += 1;
        }
        Ok(acc.scale(1.0 / count as f64))
    }

    /// The element-wise sum of several traces on a common grid — the
    /// aggregate power a shared power node observes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty input and a mismatch error
    /// when the traces are not on a common grid.
    pub fn sum_of<'a>(
        traces: impl IntoIterator<Item = &'a PowerTrace>,
    ) -> Result<PowerTrace, TraceError> {
        let mut iter = traces.into_iter();
        let first = iter.next().ok_or(TraceError::Empty)?;
        let mut acc = first.clone();
        for t in iter {
            acc.try_add_assign(t)?;
        }
        Ok(acc)
    }

    fn check_compatible(&self, other: &PowerTrace) -> Result<(), TraceError> {
        if self.samples.len() != other.samples.len() {
            return Err(TraceError::LengthMismatch {
                left: self.samples.len(),
                right: other.samples.len(),
            });
        }
        if self.step_minutes != other.step_minutes {
            return Err(TraceError::StepMismatch {
                left: self.step_minutes,
                right: other.step_minutes,
            });
        }
        Ok(())
    }
}

impl Index<usize> for PowerTrace {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.samples[i]
    }
}

impl Add<&PowerTrace> for &PowerTrace {
    type Output = PowerTrace;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics when the traces are not on the same grid; use
    /// [`PowerTrace::try_add`] for a checked variant.
    fn add(self, rhs: &PowerTrace) -> PowerTrace {
        self.try_add(rhs).expect("trace grids must match for +")
    }
}

impl AddAssign<&PowerTrace> for PowerTrace {
    /// In-place element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics when the traces are not on the same grid.
    fn add_assign(&mut self, rhs: &PowerTrace) {
        self.try_add_assign(rhs)
            .expect("trace grids must match for +=");
    }
}

impl Sub<&PowerTrace> for &PowerTrace {
    type Output = PowerTrace;

    /// Element-wise difference clamped at zero.
    ///
    /// # Panics
    ///
    /// Panics when the traces are not on the same grid.
    fn sub(self, rhs: &PowerTrace) -> PowerTrace {
        self.try_sub(rhs).expect("trace grids must match for -")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: &[f64]) -> PowerTrace {
        PowerTrace::new(samples.to_vec(), 10).unwrap()
    }

    #[test]
    fn construction_validates_samples() {
        assert_eq!(PowerTrace::new(vec![], 10), Err(TraceError::Empty));
        assert_eq!(PowerTrace::new(vec![1.0], 0), Err(TraceError::ZeroStep));
        assert!(matches!(
            PowerTrace::new(vec![1.0, -0.5], 10),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
        assert!(matches!(
            PowerTrace::new(vec![f64::NAN], 10),
            Err(TraceError::InvalidSample { index: 0, .. })
        ));
    }

    #[test]
    fn in_place_row_updates_keep_the_trace_valid() {
        let mut t = trace(&[1.0, 4.0, 2.0]);
        assert_eq!(t.add_row_in_place(&[3.0, 0.0, 1.0]).unwrap(), 4.0);
        assert_eq!(t.samples(), &[4.0, 4.0, 3.0]);
        assert_eq!(t.sub_row_in_place(&[4.0, 1.0, 3.0]).unwrap(), 3.0);
        assert_eq!(t.samples(), &[0.0, 3.0, 0.0]);
        // Rejected updates leave every sample where it was.
        assert!(matches!(
            t.sub_row_in_place(&[0.0, 3.5, 0.0]),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
        assert!(matches!(
            t.add_row_in_place(&[0.0, f64::NAN, 0.0]),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
        assert!(t.add_row_in_place(&[1.0]).is_err());
        assert!(t.set_sample(3, 1.0).is_err());
        assert!(t.set_sample(0, f64::INFINITY).is_err());
        assert_eq!(t.samples(), &[0.0, 3.0, 0.0]);
        t.set_sample(2, 7.5).unwrap();
        assert_eq!(t.peak(), 7.5);
    }

    #[test]
    fn peak_mean_min_energy() {
        let t = trace(&[1.0, 4.0, 2.0, 1.0]);
        assert_eq!(t.peak(), 4.0);
        assert_eq!(t.peak_index(), 1);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.energy_watt_minutes(), 80.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let t = trace(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.quantile(0.0).unwrap(), 0.0);
        assert_eq!(t.quantile(1.0).unwrap(), 3.0);
        assert_eq!(t.quantile(0.5).unwrap(), 1.5);
        assert!((t.quantile(0.9).unwrap() - 2.7).abs() < 1e-12);
        assert!(t.quantile(1.1).is_err());
        assert!(t.quantile(-0.1).is_err());
    }

    #[test]
    fn arithmetic_checks_grids() {
        let a = trace(&[1.0, 2.0]);
        let b = PowerTrace::new(vec![1.0, 2.0], 5).unwrap();
        assert!(matches!(
            a.try_add(&b),
            Err(TraceError::StepMismatch { .. })
        ));
        let c = trace(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            a.try_add(&c),
            Err(TraceError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn add_sub_scale() {
        let a = trace(&[1.0, 2.0]);
        let b = trace(&[0.5, 3.0]);
        assert_eq!((&a + &b).samples(), &[1.5, 5.0]);
        assert_eq!((&a - &b).samples(), &[0.5, 0.0]);
        assert_eq!(a.scale(2.0).samples(), &[2.0, 4.0]);
        let mut acc = a.clone();
        acc += &b;
        assert_eq!(acc.samples(), &[1.5, 5.0]);
    }

    #[test]
    fn mean_of_and_sum_of() {
        let a = trace(&[1.0, 2.0]);
        let b = trace(&[3.0, 4.0]);
        let mean = PowerTrace::mean_of([&a, &b]).unwrap();
        assert_eq!(mean.samples(), &[2.0, 3.0]);
        let sum = PowerTrace::sum_of([&a, &b]).unwrap();
        assert_eq!(sum.samples(), &[4.0, 6.0]);
        assert!(PowerTrace::mean_of(std::iter::empty()).is_err());
    }

    #[test]
    fn window_and_downsample() {
        let t = trace(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.window(1, 3).unwrap().samples(), &[2.0, 3.0]);
        assert!(t.window(2, 2).is_err());
        assert!(t.window(0, 9).is_err());
        let d = t.downsample(2).unwrap();
        assert_eq!(d.samples(), &[1.5, 3.5]);
        assert_eq!(d.step_minutes(), 20);
        assert!(t.downsample(3).is_err());
        assert!(t.downsample(0).is_err());
    }

    #[test]
    fn from_fn_clamps_negative() {
        let grid = TimeGrid::new(10, 4);
        let t = PowerTrace::from_fn(grid, |i| i as f64 - 1.5);
        assert_eq!(t.samples(), &[0.0, 0.0, 0.5, 1.5]);
    }

    #[test]
    fn trace_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PowerTrace>();
    }
}
