//! Per-instance trace synthesis.
//!
//! Instance-level heterogeneity "usually stems from imbalanced accessing
//! pattern or skewed popularity among different instances of a same
//! service" (§3.3); the generator models it with a per-instance phase
//! shift, amplitude scale, and base scale on top of the service's shape.

use rand::Rng;
use so_powertrace::{PowerTrace, TimeGrid, MINUTES_PER_DAY};

use crate::activity::{backup_window, office_hours, user_activity};
use crate::error::WorkloadError;
use crate::rng::{normal, stream_rng};
use crate::service::{DiurnalShape, ServiceClass};

/// Parameters describing one service instance (one server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSpec {
    /// The service this instance belongs to.
    pub service: ServiceClass,
    /// Shift of the diurnal pattern, minutes (popularity skew across
    /// regions/timezones shifts instance peaks).
    pub phase_shift_minutes: f64,
    /// Multiplier on the dynamic (load-driven) power range.
    pub amplitude_scale: f64,
    /// Multiplier on the idle/base power.
    pub base_scale: f64,
    /// Seed for this instance's noise streams.
    pub seed: u64,
}

impl InstanceSpec {
    /// A nominal instance of `service` with no heterogeneity.
    pub fn nominal(service: ServiceClass, seed: u64) -> Self {
        Self {
            service,
            phase_shift_minutes: 0.0,
            amplitude_scale: 1.0,
            base_scale: 1.0,
            seed,
        }
    }

    /// Validates the spec's numeric parameters: the phase shift must be
    /// finite, and both scales finite and non-negative. A spec that fails
    /// this check would drive the trace synthesizer to non-finite power
    /// values (e.g. an infinite amplitude makes the noise model's standard
    /// deviation infinite), which the substrate rejects with a panic — so
    /// fleet generation checks here first and returns an error instead.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let checks = [
            ("phase_shift_minutes", self.phase_shift_minutes, false),
            ("amplitude_scale", self.amplitude_scale, true),
            ("base_scale", self.base_scale, true),
        ];
        for (field, value, must_be_non_negative) in checks {
            if !value.is_finite() || (must_be_non_negative && value < 0.0) {
                return Err(WorkloadError::InvalidSpec { field, value });
            }
        }
        Ok(())
    }

    /// Noise-free utilization in `[0, 1]` of this instance's service shape
    /// at absolute minute `minute` (instance phase shift and the service's
    /// characteristic phase offset applied).
    fn utilization_at(&self, minute: f64) -> f64 {
        let shifted = minute + self.phase_shift_minutes + self.service.phase_offset_minutes();
        let day_minutes = MINUTES_PER_DAY as f64;
        let minute_of_day = shifted.rem_euclid(day_minutes) as u32;
        let day_of_week = (shifted.div_euclid(day_minutes).rem_euclid(7.0)) as u32;
        match self.service.shape() {
            DiurnalShape::UserFacing => user_activity(minute_of_day, day_of_week),
            DiurnalShape::NightBackup => {
                0.10 + 0.08 * user_activity(minute_of_day, day_of_week)
                    + 0.82 * backup_window(minute_of_day)
            }
            DiurnalShape::FlatHigh => {
                // Scheduler-driven: high utilization with a slow per-instance
                // wander whose period is derived from the seed. Periods are
                // chosen to not divide one day, so batch wander carries no
                // spurious diurnal structure.
                let period = 170.0 + (self.seed % 7) as f64 * 50.0;
                0.82 + 0.10 * (2.0 * std::f64::consts::PI * shifted / period).sin()
            }
            DiurnalShape::FlatLow => 0.30,
            DiurnalShape::OfficeHours => 0.08 + 0.88 * office_hours(minute_of_day, day_of_week),
            // The burst clock runs on the *raw* minute (shared service
            // traffic); only the demand envelope follows the instance's
            // shifted clock. See `llm.rs`.
            DiurnalShape::TokenBursty => {
                crate::llm::token_bursty_utilization(self.service, self.seed, minute, shifted)
            }
        }
        .clamp(0.0, 1.0)
    }

    /// Noise-free power (watts) at absolute minute `minute`.
    fn power_at(&self, minute: f64) -> f64 {
        let base = self.service.base_watts() * self.base_scale;
        let dynamic = (self.service.peak_watts() - self.service.base_watts())
            * self.amplitude_scale
            * self.utilization_at(minute);
        base + dynamic
    }

    /// Generates the power trace of week `week` (0-based) on `grid`.
    ///
    /// Noise is an AR(1) process plus white measurement noise, seeded by
    /// `(self.seed, week)` so traces are reproducible and weeks are
    /// independent. The paper averages 2–3 such weekly I-traces into an
    /// averaged I-trace (Eq. 4) to avoid overfitting to any single week.
    pub fn weekly_trace(&self, grid: TimeGrid, week: u32) -> PowerTrace {
        let mut rng = stream_rng(self.seed, week as u64);
        let dynamic_range =
            (self.service.peak_watts() - self.service.base_watts()) * self.amplitude_scale;
        let ar_sd = 0.03 * dynamic_range;
        let white_sd = 0.015 * dynamic_range;
        let rho = 0.92f64;
        let stationary_sd = ar_sd / (1.0 - rho * rho).sqrt();
        let mut ar = normal(&mut rng, 0.0, stationary_sd);
        let week_offset = week as f64 * grid.duration_minutes() as f64;
        PowerTrace::from_fn(grid, |i| {
            ar = rho * ar + normal(&mut rng, 0.0, ar_sd);
            let minute = week_offset + grid.minute_of(i) as f64;
            self.power_at(minute) + ar + normal(&mut rng, 0.0, white_sd)
        })
    }

    /// Generates `weeks` consecutive weekly traces.
    pub fn weekly_traces(&self, grid: TimeGrid, weeks: u32) -> Vec<PowerTrace> {
        (0..weeks).map(|w| self.weekly_trace(grid, w)).collect()
    }
}

/// Draws a heterogeneous instance of `service`: phase shift
/// `~N(0, phase_sd)` minutes and log-normal-ish amplitude/base scales with
/// spread `amplitude_sd`.
pub fn heterogeneous_instance(
    service: ServiceClass,
    phase_sd_minutes: f64,
    amplitude_sd: f64,
    seed: u64,
    rng: &mut impl Rng,
) -> InstanceSpec {
    let phase = normal(rng, 0.0, phase_sd_minutes);
    let amplitude = normal(rng, 0.0, amplitude_sd).exp().clamp(0.4, 2.5);
    let base = normal(rng, 0.0, amplitude_sd * 0.3).exp().clamp(0.7, 1.4);
    InstanceSpec {
        service,
        phase_shift_minutes: phase,
        amplitude_scale: amplitude,
        base_scale: base,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_trace_is_reproducible() {
        let spec = InstanceSpec::nominal(ServiceClass::Frontend, 42);
        let grid = TimeGrid::one_week(30);
        let a = spec.weekly_trace(grid, 0);
        let b = spec.weekly_trace(grid, 0);
        assert_eq!(a, b);
        let c = spec.weekly_trace(grid, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn user_facing_peaks_by_day() {
        let spec = InstanceSpec::nominal(ServiceClass::Frontend, 1);
        // 12:30 Tuesday vs 04:00 Tuesday.
        let day = MINUTES_PER_DAY as f64;
        assert!(spec.power_at(day + 12.5 * 60.0) > spec.power_at(day + 4.0 * 60.0) + 50.0);
    }

    #[test]
    fn db_peaks_at_night() {
        let spec = InstanceSpec::nominal(ServiceClass::Db, 1);
        let day = (MINUTES_PER_DAY * 2) as f64;
        assert!(spec.power_at(day + 2.0 * 60.0) > spec.power_at(day + 14.0 * 60.0));
    }

    #[test]
    fn hadoop_is_flat_and_high() {
        let spec = InstanceSpec::nominal(ServiceClass::Hadoop, 1);
        let grid = TimeGrid::one_week(30);
        let t = spec.weekly_trace(grid, 0);
        let ratio = t.peak() / t.mean();
        assert!(ratio < 1.35, "hadoop peak/mean {ratio} too spiky");
        assert!(t.mean() > 0.7 * ServiceClass::Hadoop.peak_watts());
    }

    #[test]
    fn phase_shift_moves_the_peak() {
        let base = InstanceSpec::nominal(ServiceClass::Frontend, 1);
        let shifted = InstanceSpec {
            phase_shift_minutes: -120.0,
            ..base
        };
        // Noise-free argmax over one weekday: the shifted instance (whose
        // internal clock runs 2h behind) peaks exactly 2h later.
        let day = (MINUTES_PER_DAY * 2) as f64;
        let argmax = |spec: &InstanceSpec| {
            (0..1440)
                .max_by(|&a, &b| {
                    spec.power_at(day + a as f64)
                        .partial_cmp(&spec.power_at(day + b as f64))
                        .unwrap()
                })
                .unwrap() as i64
        };
        let diff = (argmax(&shifted) - argmax(&base)).rem_euclid(1440);
        assert_eq!(diff, 120, "peak shift {diff} minutes");
    }

    #[test]
    fn amplitude_scale_raises_peak_more_than_base() {
        let spec = InstanceSpec::nominal(ServiceClass::Frontend, 1);
        let big = InstanceSpec {
            amplitude_scale: 2.0,
            ..spec
        };
        let night = 4.0 * 60.0;
        let noon = 12.5 * 60.0;
        let night_gain = big.power_at(night) - spec.power_at(night);
        let noon_gain = big.power_at(noon) - spec.power_at(noon);
        assert!(
            noon_gain > 2.0 * night_gain,
            "noon {noon_gain} vs night {night_gain}"
        );
        assert!(noon_gain > 50.0);
    }

    #[test]
    fn utilization_is_bounded() {
        for service in ServiceClass::ALL {
            let spec = InstanceSpec::nominal(service, 9);
            for m in (0..(7 * 1440)).step_by(17) {
                let u = spec.utilization_at(m as f64);
                assert!((0.0..=1.0).contains(&u), "{service} utilization {u}");
            }
        }
    }

    #[test]
    fn invalid_specs_error_instead_of_panicking() {
        let bad_amplitude = InstanceSpec {
            amplitude_scale: f64::NAN,
            ..InstanceSpec::nominal(ServiceClass::Frontend, 1)
        };
        let err = bad_amplitude.validate().unwrap_err();
        match err {
            WorkloadError::InvalidSpec { field, value } => {
                assert_eq!(field, "amplitude_scale");
                assert!(value.is_nan());
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        let bad_phase = InstanceSpec {
            phase_shift_minutes: f64::INFINITY,
            ..InstanceSpec::nominal(ServiceClass::Db, 2)
        };
        assert!(matches!(
            bad_phase.validate(),
            Err(WorkloadError::InvalidSpec {
                field: "phase_shift_minutes",
                ..
            })
        ));
        let negative_base = InstanceSpec {
            base_scale: -0.1,
            ..InstanceSpec::nominal(ServiceClass::Cache, 3)
        };
        assert!(negative_base.validate().is_err());
        assert!(InstanceSpec::nominal(ServiceClass::Hadoop, 4)
            .validate()
            .is_ok());
    }

    #[test]
    fn heterogeneous_instances_vary() {
        let mut rng = crate::rng::stream_rng(5, 5);
        let a = heterogeneous_instance(ServiceClass::Cache, 90.0, 0.3, 1, &mut rng);
        let b = heterogeneous_instance(ServiceClass::Cache, 90.0, 0.3, 2, &mut rng);
        assert_ne!(a.phase_shift_minutes, b.phase_shift_minutes);
        assert!(a.amplitude_scale >= 0.4 && a.amplitude_scale <= 2.5);
    }
}
