//! Seasonal decomposition of power traces.
//!
//! Splits a trace into its repeating daily template (the diurnal signal
//! SmoothOperator exploits) and the residual (noise plus aperiodic
//! events). Useful for characterizing workloads — a high seasonality
//! fraction means a predictable instance the placement can bank on, a low
//! one means noise-driven behaviour — and for denoising external traces.

use crate::error::TraceError;
use crate::grid::MINUTES_PER_DAY;
use crate::trace::PowerTrace;

/// A trace split into a repeating daily template and a residual.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalDecomposition {
    /// Mean power across the whole trace, watts.
    pub mean: f64,
    /// One day of the repeating diurnal template, centered on zero
    /// (template + mean + residual reconstructs the trace).
    pub daily_template: Vec<f64>,
    /// Residual per sample (trace − mean − template), may be negative.
    pub residual: Vec<f64>,
    step_minutes: u32,
}

impl SeasonalDecomposition {
    /// Decomposes a trace into mean + daily template + residual.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when the trace does not
    /// cover a whole number of days.
    pub fn of(trace: &PowerTrace) -> Result<Self, TraceError> {
        let step = trace.step_minutes();
        if MINUTES_PER_DAY % step != 0 {
            return Err(TraceError::StepMismatch {
                left: step,
                right: MINUTES_PER_DAY,
            });
        }
        let per_day = (MINUTES_PER_DAY / step) as usize;
        if trace.len() % per_day != 0 {
            return Err(TraceError::LengthMismatch {
                left: trace.len(),
                right: per_day,
            });
        }
        let days = trace.len() / per_day;
        let mean = trace.mean();

        // Mean of each slot-of-day across days, centered.
        let mut template = vec![0.0f64; per_day];
        for (i, &v) in trace.samples().iter().enumerate() {
            template[i % per_day] += (v - mean) / days as f64;
        }
        let residual = trace
            .samples()
            .iter()
            .enumerate()
            .map(|(i, &v)| v - mean - template[i % per_day])
            .collect();
        Ok(Self {
            mean,
            daily_template: template,
            residual,
            step_minutes: step,
        })
    }

    /// Fraction of the trace's variance explained by the daily template,
    /// in `[0, 1]` — the *seasonality* of the workload.
    pub fn seasonality(&self) -> f64 {
        let per_day = self.daily_template.len();
        let template_var: f64 =
            self.daily_template.iter().map(|v| v * v).sum::<f64>() / per_day as f64;
        let residual_var: f64 =
            self.residual.iter().map(|v| v * v).sum::<f64>() / self.residual.len() as f64;
        let total = template_var + residual_var;
        if total == 0.0 {
            0.0
        } else {
            template_var / total
        }
    }

    /// Minute-of-day at which the template peaks.
    pub fn peak_minute_of_day(&self) -> u32 {
        let idx = self
            .daily_template
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("template is finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        idx as u32 * self.step_minutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TimeGrid;

    fn diurnal_trace(days: u32, noise: f64) -> PowerTrace {
        let grid = TimeGrid::days(days, 60);
        PowerTrace::from_fn(grid, |i| {
            let m = grid.minute_of_day(i) as f64;
            let season = 100.0 + 50.0 * (2.0 * std::f64::consts::PI * m / 1440.0).sin();
            let jitter = noise * ((i * 2654435761) % 1000) as f64 / 1000.0;
            season + jitter
        })
    }

    #[test]
    fn pure_diurnal_signal_is_fully_seasonal() {
        let t = diurnal_trace(4, 0.0);
        let d = SeasonalDecomposition::of(&t).unwrap();
        assert!(d.seasonality() > 0.999, "seasonality {}", d.seasonality());
        // Reconstruction: mean + template + residual == trace.
        let per_day = d.daily_template.len();
        for (i, &v) in t.samples().iter().enumerate() {
            let rec = d.mean + d.daily_template[i % per_day] + d.residual[i];
            assert!((rec - v).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_lowers_seasonality() {
        let clean = SeasonalDecomposition::of(&diurnal_trace(4, 0.0)).unwrap();
        let noisy = SeasonalDecomposition::of(&diurnal_trace(4, 80.0)).unwrap();
        assert!(noisy.seasonality() < clean.seasonality());
        assert!(noisy.seasonality() > 0.1, "diurnal signal still dominates");
    }

    #[test]
    fn flat_trace_has_zero_seasonality() {
        let grid = TimeGrid::days(2, 60);
        let t = PowerTrace::constant(42.0, grid);
        let d = SeasonalDecomposition::of(&t).unwrap();
        assert_eq!(d.seasonality(), 0.0);
        assert_eq!(d.mean, 42.0);
    }

    #[test]
    fn template_peak_matches_signal_peak() {
        let t = diurnal_trace(3, 0.0);
        let d = SeasonalDecomposition::of(&t).unwrap();
        // sin peaks at a quarter day: 360 minutes.
        assert_eq!(d.peak_minute_of_day(), 360);
    }

    #[test]
    fn partial_days_are_rejected() {
        let t = PowerTrace::new(vec![1.0; 30], 60).unwrap(); // 30 h
        assert!(SeasonalDecomposition::of(&t).is_err());
        let t = PowerTrace::new(vec![1.0; 10], 7).unwrap(); // step !| day
        assert!(SeasonalDecomposition::of(&t).is_err());
    }
}
