//! Bursty-traffic injection (§3.2's power-safety argument).
//!
//! "When bursty traffic arrives, the sudden load change is now shared
//! among all the power nodes" under the optimized placement. This module
//! injects a sudden regional/service traffic burst into a set of test
//! traces so that experiments can compare breaker-trip exposure across
//! placements.

use so_powertrace::PowerTrace;

use crate::fleet::Fleet;
use crate::service::ServiceClass;

/// A sudden traffic burst hitting one service (e.g. a neighbouring
/// datacenter failing over its users).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// The service whose instances absorb the burst.
    pub service: ServiceClass,
    /// First affected sample.
    pub start: usize,
    /// Burst length in samples.
    pub duration: usize,
    /// Multiplier on the affected instances' *dynamic* power during the
    /// burst (1.0 = no burst). Power is capped at each instance's nominal
    /// peak: servers cannot exceed their hardware limit.
    pub intensity: f64,
}

impl BurstSpec {
    /// A burst covering `duration` samples starting at `start`, scaling
    /// the service's dynamic power by `intensity`.
    pub fn new(service: ServiceClass, start: usize, duration: usize, intensity: f64) -> Self {
        Self {
            service,
            start,
            duration,
            intensity,
        }
    }
}

/// Returns a copy of the fleet's test traces with the burst applied to
/// the targeted service's instances.
///
/// # Panics
///
/// Panics if `intensity` is not finite or is negative.
pub fn inject_burst(fleet: &Fleet, burst: BurstSpec) -> Vec<PowerTrace> {
    assert!(
        burst.intensity.is_finite() && burst.intensity >= 0.0,
        "burst intensity must be finite and non-negative"
    );
    let end = burst.start.saturating_add(burst.duration);
    fleet
        .test_traces()
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            if fleet.service_of(i) != burst.service {
                return trace.clone();
            }
            let spec = fleet.spec(i);
            let base = spec.service.base_watts() * spec.base_scale;
            let cap = base
                + (spec.service.peak_watts() - spec.service.base_watts()) * spec.amplitude_scale;
            let samples: Vec<f64> = trace
                .samples()
                .iter()
                .enumerate()
                .map(|(t, &p)| {
                    if t >= burst.start && t < end {
                        let dynamic = (p - base).max(0.0);
                        (base + dynamic * burst.intensity).min(cap.max(p))
                    } else {
                        p
                    }
                })
                .collect();
            PowerTrace::new(samples, trace.step_minutes()).expect("scaled samples stay valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceSpec;
    use so_powertrace::TimeGrid;

    fn fleet() -> Fleet {
        let grid = TimeGrid::one_week(60);
        Fleet::generate(
            vec![
                InstanceSpec::nominal(ServiceClass::Frontend, 1),
                InstanceSpec::nominal(ServiceClass::Db, 2),
            ],
            grid,
            1,
        )
        .unwrap()
    }

    #[test]
    fn burst_raises_only_targeted_service_inside_window() {
        let f = fleet();
        let burst = BurstSpec::new(ServiceClass::Frontend, 10, 5, 1.8);
        let bursty = inject_burst(&f, burst);

        let original = f.test_traces();
        // Frontend rises inside the window (if it had any dynamic power).
        let in_window: f64 = (10..15)
            .map(|t| bursty[0].samples()[t] - original[0].samples()[t])
            .sum();
        assert!(in_window > 0.0, "burst had no effect");
        // Outside the window, unchanged.
        assert_eq!(bursty[0].samples()[0], original[0].samples()[0]);
        assert_eq!(bursty[0].samples()[20], original[0].samples()[20]);
        // The db instance is untouched.
        assert_eq!(bursty[1], original[1]);
    }

    #[test]
    fn burst_respects_hardware_cap() {
        let f = fleet();
        let burst = BurstSpec::new(ServiceClass::Frontend, 0, f.grid().len(), 100.0);
        let bursty = inject_burst(&f, burst);
        let cap = ServiceClass::Frontend.peak_watts();
        for &p in bursty[0].samples() {
            assert!(p <= cap + 30.0, "power {p} far above nominal cap {cap}");
        }
    }

    #[test]
    fn zero_intensity_flattens_to_base() {
        let f = fleet();
        let burst = BurstSpec::new(ServiceClass::Frontend, 0, 5, 0.0);
        let bursty = inject_burst(&f, burst);
        let base = ServiceClass::Frontend.base_watts();
        for t in 0..5 {
            assert!((bursty[0].samples()[t] - base).abs() < 20.0);
        }
    }
}
