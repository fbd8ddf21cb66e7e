//! Per-server power models for the runtime simulator.

use crate::dvfs::DvfsState;

/// Linear load-proportional server power model:
/// `P(load) = (idle + (peak − idle) · load) · dvfs_power_factor`.
///
/// The reshaping policies only observe load and power, so a linear model
/// exercises the same control paths as production power sensors
/// (substitution documented in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerModel {
    /// Idle power, watts.
    pub idle_watts: f64,
    /// Full-load power at the nominal DVFS point, watts.
    pub peak_watts: f64,
}

impl ServerPowerModel {
    /// A model with the given idle and peak wattages.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= idle_watts <= peak_watts` and both are finite.
    pub fn new(idle_watts: f64, peak_watts: f64) -> Self {
        assert!(
            idle_watts.is_finite()
                && peak_watts.is_finite()
                && 0.0 <= idle_watts
                && idle_watts <= peak_watts,
            "power model requires 0 <= idle <= peak"
        );
        Self {
            idle_watts,
            peak_watts,
        }
    }

    /// A typical latency-critical web server (90 W idle, 300 W peak).
    pub fn lc_default() -> Self {
        Self::new(90.0, 300.0)
    }

    /// A typical batch server (160 W idle, 280 W peak — batch servers are
    /// kept busy, so they sit near peak).
    pub fn batch_default() -> Self {
        Self::new(160.0, 280.0)
    }

    /// Power at the given utilization (`load` clamped to `[0, 1]`) and
    /// DVFS state, watts.
    pub fn power(&self, load: f64, dvfs: DvfsState) -> f64 {
        let load = load.clamp(0.0, 1.0);
        (self.idle_watts + (self.peak_watts - self.idle_watts) * load) * dvfs.power_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_monotone_in_load() {
        let m = ServerPowerModel::lc_default();
        assert_eq!(m.power(0.0, DvfsState::Nominal), 90.0);
        assert_eq!(m.power(1.0, DvfsState::Nominal), 300.0);
        assert!(m.power(0.5, DvfsState::Nominal) > m.power(0.2, DvfsState::Nominal));
    }

    #[test]
    fn load_is_clamped() {
        let m = ServerPowerModel::lc_default();
        assert_eq!(m.power(2.0, DvfsState::Nominal), 300.0);
        assert_eq!(m.power(-1.0, DvfsState::Nominal), 90.0);
    }

    #[test]
    fn dvfs_scales_power() {
        let m = ServerPowerModel::batch_default();
        assert!(m.power(1.0, DvfsState::Throttled) < m.power(1.0, DvfsState::Nominal));
        assert!(m.power(1.0, DvfsState::Boosted) > m.power(1.0, DvfsState::Nominal));
    }

    #[test]
    #[should_panic(expected = "idle <= peak")]
    fn invalid_model_panics() {
        let _ = ServerPowerModel::new(300.0, 100.0);
    }
}
