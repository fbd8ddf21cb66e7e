//! Latency model: translating per-server load into response times.
//!
//! The paper manages QoS through the guarded load level `L_conv` — the
//! load "when LC achieves satisfactory QoS" (§4.2). This module supplies
//! the latency side of that statement: an M/M/1-style response-time curve
//! that maps utilization to p50/p99 latency, so telemetry can be read in
//! SLO terms and `L_conv` can be derived from a latency target instead of
//! being guessed.

/// M/M/1-style response-time model for one LC server.
///
/// Mean response time is `S / (1 − ρ)` for service time `S` and
/// utilization `ρ`; tail quantiles follow the exponential sojourn-time
/// distribution of the M/M/1 queue.
///
/// # Examples
///
/// Derive the conversion threshold from a p99 SLO instead of guessing:
///
/// ```
/// use so_sim::LatencyModel;
///
/// let model = LatencyModel::new(5.0);           // 5 ms service time
/// let l_conv = model.max_load_for_p99(150.0);   // 150 ms p99 SLO
/// assert!(l_conv > 0.5 && l_conv < 1.0);
/// assert!(model.p99_latency_ms(l_conv) <= 150.0 * 1.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Mean service time per query, milliseconds.
    pub service_time_ms: f64,
    /// Utilization ceiling used to keep the model finite (loads are
    /// clamped just below 1.0).
    pub max_utilization: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            service_time_ms: 5.0,
            max_utilization: 0.995,
        }
    }
}

impl LatencyModel {
    /// A model with the given mean service time.
    ///
    /// # Panics
    ///
    /// Panics unless the service time is positive and finite.
    pub fn new(service_time_ms: f64) -> Self {
        assert!(
            service_time_ms.is_finite() && service_time_ms > 0.0,
            "service time must be positive"
        );
        Self {
            service_time_ms,
            ..Self::default()
        }
    }

    /// Mean response time at utilization `load`, milliseconds.
    pub fn mean_latency_ms(&self, load: f64) -> f64 {
        let rho = load.clamp(0.0, self.max_utilization);
        self.service_time_ms / (1.0 - rho)
    }

    /// The `q`-quantile response time at utilization `load`, milliseconds.
    ///
    /// The M/M/1 sojourn time is exponential with mean `S / (1 − ρ)`, so
    /// the quantile is `−ln(1 − q)` times the mean.
    ///
    /// # Panics
    ///
    /// Panics for `q` outside `[0, 1)`.
    pub fn quantile_latency_ms(&self, load: f64, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile must lie in [0, 1)");
        -(1.0 - q).ln() * self.mean_latency_ms(load)
    }

    /// p99 response time at utilization `load`, milliseconds.
    pub fn p99_latency_ms(&self, load: f64) -> f64 {
        self.quantile_latency_ms(load, 0.99)
    }

    /// The highest utilization at which the p99 stays within `slo_ms` —
    /// the principled way to pick the conversion threshold `L_conv`.
    ///
    /// Returns 0.0 when even an idle server misses the SLO.
    pub fn max_load_for_p99(&self, slo_ms: f64) -> f64 {
        // p99(ρ) = -ln(0.01) · S / (1 − ρ) ≤ slo  ⇒  ρ ≤ 1 − (-ln(0.01) S / slo)
        let factor = -(0.01f64).ln() * self.service_time_ms;
        if slo_ms <= 0.0 {
            return 0.0;
        }
        (1.0 - factor / slo_ms).clamp(0.0, self.max_utilization)
    }

    /// Maps a per-step load series to p99 latency, milliseconds.
    pub fn p99_series(&self, loads: &[f64]) -> Vec<f64> {
        loads.iter().map(|&l| self.p99_latency_ms(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_load() {
        let m = LatencyModel::new(5.0);
        assert_eq!(m.mean_latency_ms(0.0), 5.0);
        assert!((m.mean_latency_ms(0.5) - 10.0).abs() < 1e-9);
        assert!(m.mean_latency_ms(0.9) > m.mean_latency_ms(0.8));
    }

    #[test]
    fn saturation_is_clamped_finite() {
        let m = LatencyModel::new(5.0);
        assert!(m.mean_latency_ms(1.0).is_finite());
        assert!(m.mean_latency_ms(5.0).is_finite());
    }

    #[test]
    fn p99_dominates_the_mean() {
        let m = LatencyModel::new(5.0);
        for load in [0.0, 0.3, 0.8] {
            assert!(m.p99_latency_ms(load) > m.mean_latency_ms(load));
        }
        // -ln(0.01) ≈ 4.605: p99 is ~4.6x the mean.
        let ratio = m.p99_latency_ms(0.5) / m.mean_latency_ms(0.5);
        assert!((ratio - 4.605).abs() < 0.01);
    }

    #[test]
    fn slo_inversion_roundtrips() {
        let m = LatencyModel::new(5.0);
        let slo = 150.0;
        let l_conv = m.max_load_for_p99(slo);
        assert!(l_conv > 0.5 && l_conv < 1.0, "l_conv {l_conv}");
        // At that load, the p99 meets the SLO (within rounding).
        assert!(m.p99_latency_ms(l_conv) <= slo * 1.001);
        // Slightly above it, the SLO is missed.
        assert!(m.p99_latency_ms((l_conv + 0.02).min(0.99)) > slo);
    }

    #[test]
    fn impossible_slo_yields_zero_load() {
        let m = LatencyModel::new(50.0);
        assert_eq!(m.max_load_for_p99(1.0), 0.0);
        assert_eq!(m.max_load_for_p99(-1.0), 0.0);
    }

    #[test]
    fn series_helper_matches_pointwise() {
        let m = LatencyModel::default();
        let loads = [0.1, 0.5, 0.9];
        let series = m.p99_series(&loads);
        for (l, s) in loads.iter().zip(&series) {
            assert_eq!(*s, m.p99_latency_ms(*l));
        }
    }
}
