//! Offered-load series for the runtime simulator.
//!
//! The reshaping policies of §4 observe per-LC-server load; this module
//! turns the global user-activity curve into an offered-load series the
//! simulator distributes over LC servers.

use so_powertrace::TimeGrid;

use crate::activity::user_activity;
use crate::rng::{normal, stream_rng};

/// Normalized user-activity series on a grid (no noise), in `[0, 1]`.
pub fn activity_series(grid: TimeGrid) -> Vec<f64> {
    grid.indices()
        .map(|i| user_activity(grid.minute_of_day(i), grid.day_of_week(i)))
        .collect()
}

/// An offered latency-critical load series, in abstract queries per second.
///
/// The series follows the user-activity curve, scaled so its peak equals
/// `peak_qps`, with optional multiplicative noise.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferedLoad {
    qps: Vec<f64>,
    step_minutes: u32,
}

impl OfferedLoad {
    /// Builds an offered-load series with the given peak QPS and relative
    /// noise (`noise_sd` as a fraction of the instantaneous load).
    ///
    /// # Panics
    ///
    /// Panics if `peak_qps` is not positive and finite.
    pub fn diurnal(grid: TimeGrid, peak_qps: f64, noise_sd: f64, seed: u64) -> Self {
        assert!(
            peak_qps.is_finite() && peak_qps > 0.0,
            "peak qps must be positive"
        );
        let activity = activity_series(grid);
        let max = activity.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
        let mut rng = stream_rng(seed, 0x10AD);
        let qps = activity
            .iter()
            .map(|a| {
                let noiseless = a / max * peak_qps;
                (noiseless * (1.0 + normal(&mut rng, 0.0, noise_sd))).max(0.0)
            })
            .collect();
        Self {
            qps,
            step_minutes: grid.step_minutes(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.qps.len()
    }

    /// An offered load always covers a grid; API completeness.
    pub fn is_empty(&self) -> bool {
        self.qps.is_empty()
    }

    /// QPS at sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn qps_at(&self, i: usize) -> f64 {
        self.qps[i]
    }

    /// The full QPS series.
    pub fn series(&self) -> &[f64] {
        &self.qps
    }

    /// Sampling step, minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// Peak offered QPS.
    pub fn peak_qps(&self) -> f64 {
        self.qps.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Returns a copy scaled by `factor` (e.g. to model traffic growth once
    /// extra capacity is provisioned).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative"
        );
        Self {
            qps: self.qps.iter().map(|q| q * factor).collect(),
            step_minutes: self.step_minutes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_series_covers_grid() {
        let grid = TimeGrid::one_week(30);
        let s = activity_series(grid);
        assert_eq!(s.len(), grid.len());
        assert!(s.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn diurnal_load_peaks_near_target() {
        let grid = TimeGrid::one_week(30);
        let load = OfferedLoad::diurnal(grid, 1000.0, 0.0, 1);
        assert!((load.peak_qps() - 1000.0).abs() < 1e-6);
        assert!(load.series().iter().all(|&q| q >= 0.0));
    }

    #[test]
    fn noise_perturbs_but_preserves_shape() {
        let grid = TimeGrid::one_week(30);
        let clean = OfferedLoad::diurnal(grid, 1000.0, 0.0, 1);
        let noisy = OfferedLoad::diurnal(grid, 1000.0, 0.05, 1);
        let mse: f64 = clean
            .series()
            .iter()
            .zip(noisy.series())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            / clean.len() as f64;
        assert!(mse > 0.0);
        assert!(mse.sqrt() < 100.0, "noise rmse {} too large", mse.sqrt());
    }

    #[test]
    fn scaling_scales_peak() {
        let grid = TimeGrid::one_week(60);
        let load = OfferedLoad::diurnal(grid, 100.0, 0.0, 1);
        let double = load.scaled(2.0);
        assert!((double.peak_qps() - 200.0).abs() < 1e-9);
    }
}
