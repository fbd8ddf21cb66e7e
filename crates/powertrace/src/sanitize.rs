//! Trace hygiene: detection and repair of degraded power telemetry.
//!
//! Real fleet telemetry never arrives pristine: sensors drop samples
//! (NaN/gaps), glitch (isolated spikes, negative readings), and loggers
//! occasionally emit garbage. Every other component of the workspace
//! assumes the [`PowerTrace`] invariants (finite, non-negative samples),
//! so raw readings pass through a [`TraceSanitizer`] first. The sanitizer
//! classifies bad samples, repairs them under a configurable
//! [`GapPolicy`], and reports exactly what it changed in a
//! [`RepairReport`].
//!
//! Two properties the repair guarantees (both property-tested):
//!
//! * **Idempotence** — sanitizing an already-sanitized trace changes
//!   nothing and reports a clean bill.
//! * **Peak monotonicity** — repairs only ever interpolate, hold, zero,
//!   or drop, so the repaired peak never exceeds the largest valid input
//!   sample.

use crate::error::TraceError;
use crate::trace::PowerTrace;

/// How flagged samples (invalid readings, spikes, and the gaps they form)
/// are repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapPolicy {
    /// Linear interpolation between the nearest valid samples on either
    /// side; boundary gaps hold the nearest valid sample flat.
    Interpolate,
    /// Hold the last valid sample; a leading gap back-fills from the
    /// first valid sample.
    HoldLast,
    /// Replace with zero watts (a machine whose sensor is gone draws an
    /// unknown amount; zero is the conservative floor for budgets derived
    /// from *other* nodes' headroom).
    Zero,
    /// Remove flagged samples entirely, shortening the trace. The sample
    /// step is preserved, so downstream alignment is the caller's
    /// responsibility; intended for offline statistics, not placement.
    Drop,
}

/// Configuration of a [`TraceSanitizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeConfig {
    /// Repair policy for flagged samples.
    pub gap_policy: GapPolicy,
    /// A valid sample is flagged as a spike when it exceeds
    /// `spike_factor × base` plus
    /// [`spike_floor_watts`](Self::spike_floor_watts), where `base` is the
    /// larger of its nearest valid neighbors and the median of all valid
    /// samples (the median keeps samples adjacent to zero-filled gaps from
    /// being misread as spikes). Must be ≥ 1; `f64::INFINITY` disables
    /// spike detection.
    pub spike_factor: f64,
    /// Absolute allowance added to the spike threshold so near-zero
    /// neighborhoods don't flag ordinary noise.
    pub spike_floor_watts: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        Self {
            gap_policy: GapPolicy::Interpolate,
            spike_factor: 10.0,
            spike_floor_watts: 1.0,
        }
    }
}

impl SanitizeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSample`] (index 0) when `spike_factor`
    /// is below 1 or NaN, or `spike_floor_watts` is negative or NaN.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.spike_factor.is_nan() || self.spike_factor < 1.0 {
            return Err(TraceError::InvalidSample {
                index: 0,
                value: self.spike_factor,
            });
        }
        if self.spike_floor_watts.is_nan() || self.spike_floor_watts < 0.0 {
            return Err(TraceError::InvalidSample {
                index: 0,
                value: self.spike_floor_watts,
            });
        }
        Ok(())
    }
}

/// What a sanitization pass found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Samples that were NaN, infinite, or negative.
    pub invalid_samples: usize,
    /// Valid samples flagged as isolated sensor spikes.
    pub spike_samples: usize,
    /// Contiguous flagged runs that were repaired (or dropped).
    pub repaired_runs: usize,
    /// Samples removed under [`GapPolicy::Drop`].
    pub dropped_samples: usize,
    /// True when not a single valid sample existed; the output is all
    /// zeros (for non-drop policies) and should be treated as missing.
    pub all_invalid: bool,
}

impl RepairReport {
    /// True when the input needed no repair at all.
    pub fn is_clean(&self) -> bool {
        self.invalid_samples == 0 && self.spike_samples == 0
    }

    /// Total samples that were touched.
    pub fn flagged(&self) -> usize {
        self.invalid_samples + self.spike_samples
    }
}

/// Detects and repairs degraded samples in raw power readings.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::TraceSanitizer;
///
/// let raw = vec![100.0, f64::NAN, -3.0, 130.0];
/// let (trace, report) = TraceSanitizer::default().sanitize(&raw, 10)?;
/// assert_eq!(trace.samples(), &[100.0, 110.0, 120.0, 130.0]);
/// assert_eq!(report.invalid_samples, 2);
/// assert_eq!(report.repaired_runs, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceSanitizer {
    config: SanitizeConfig,
}

impl TraceSanitizer {
    /// A sanitizer with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SanitizeConfig::validate`] failures.
    pub fn new(config: SanitizeConfig) -> Result<Self, TraceError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &SanitizeConfig {
        &self.config
    }

    /// Sanitizes raw samples into a valid [`PowerTrace`] plus a repair
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for empty input (or when
    /// [`GapPolicy::Drop`] removes every sample) and
    /// [`TraceError::ZeroStep`] for a zero step.
    pub fn sanitize(
        &self,
        samples: &[f64],
        step_minutes: u32,
    ) -> Result<(PowerTrace, RepairReport), TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        if step_minutes == 0 {
            return Err(TraceError::ZeroStep);
        }

        let mut report = RepairReport::default();
        let mut current = samples.to_vec();

        // Detect → repair to a fixed point: repairing a spike lowers a
        // neighbor, which can expose a sample the first pass kept (for
        // example under [`GapPolicy::Zero`]). Running until no sample is
        // flagged makes `sanitize ∘ sanitize == sanitize` hold for every
        // policy by construction. Each round strictly lowers the flagged
        // samples, so the loop converges; the round cap is a defensive
        // bound, not an expected path.
        for _round in 0..=samples.len() {
            let mut flagged = vec![false; current.len()];
            let mut any = false;
            for (i, &v) in current.iter().enumerate() {
                if !v.is_finite() || v < 0.0 {
                    flagged[i] = true;
                    any = true;
                    report.invalid_samples += 1;
                }
            }
            if self.config.spike_factor.is_finite() {
                for i in self.detect_spikes(&current, &flagged) {
                    flagged[i] = true;
                    any = true;
                    report.spike_samples += 1;
                }
            }
            if !any {
                break;
            }
            current = self.repair(&current, &flagged, &mut report);
            if current.is_empty() {
                return Err(TraceError::Empty);
            }
        }

        let trace = PowerTrace::new(current, step_minutes)?;
        if so_telemetry::enabled() {
            so_telemetry::counter_add("so_sanitize_traces_total", &[], 1);
            so_telemetry::counter_add(
                "so_sanitize_invalid_samples_total",
                &[],
                report.invalid_samples as u64,
            );
            so_telemetry::counter_add(
                "so_sanitize_spike_samples_total",
                &[],
                report.spike_samples as u64,
            );
            so_telemetry::counter_add(
                "so_sanitize_repaired_runs_total",
                &[],
                report.repaired_runs as u64,
            );
            so_telemetry::counter_add(
                "so_sanitize_dropped_samples_total",
                &[],
                report.dropped_samples as u64,
            );
            if report.all_invalid {
                so_telemetry::counter_add("so_sanitize_all_invalid_total", &[], 1);
            }
        }
        Ok((trace, report))
    }

    /// Sanitizes an existing (already structurally valid) trace — only
    /// spike repair can apply.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] when [`GapPolicy::Drop`] removes
    /// every sample.
    pub fn sanitize_trace(
        &self,
        trace: &PowerTrace,
    ) -> Result<(PowerTrace, RepairReport), TraceError> {
        self.sanitize(trace.samples(), trace.step_minutes())
    }

    /// Indices of valid samples that tower over both their valid neighbors
    /// and the valid-sample median. The median term keeps repairs from
    /// cascading: a sample next to a zero-filled gap is not a spike as
    /// long as it sits near the trace's typical level.
    fn detect_spikes(&self, samples: &[f64], flagged: &[bool]) -> Vec<usize> {
        let valid: Vec<f64> = samples
            .iter()
            .zip(flagged)
            .filter(|(_, &f)| !f)
            .map(|(&v, _)| v)
            .collect();
        // The shared workspace median (crate::quantile): valid samples are
        // finite, so the only failure mode is an empty slice.
        let median = match crate::quantile::median(&valid) {
            Ok(m) => m,
            Err(_) => return Vec::new(),
        };

        let mut spikes = Vec::new();
        for i in 0..samples.len() {
            if flagged[i] {
                continue;
            }
            let left = (0..i).rev().find(|&j| !flagged[j]).map(|j| samples[j]);
            let right = (i + 1..samples.len())
                .find(|&j| !flagged[j])
                .map(|j| samples[j]);
            let base = match (left, right) {
                (Some(l), Some(r)) => l.max(r),
                (Some(one), None) | (None, Some(one)) => one,
                // The only valid sample has nothing to be judged against.
                (None, None) => continue,
            };
            let base = base.max(median);
            if samples[i] > self.config.spike_factor * base + self.config.spike_floor_watts {
                spikes.push(i);
            }
        }
        spikes
    }

    /// Applies the gap policy to every flagged run.
    fn repair(&self, samples: &[f64], flagged: &[bool], report: &mut RepairReport) -> Vec<f64> {
        let valid_count = flagged.iter().filter(|&&f| !f).count();
        if valid_count == 0 {
            report.all_invalid = true;
            report.repaired_runs = usize::from(!samples.is_empty());
            return match self.config.gap_policy {
                GapPolicy::Drop => {
                    report.dropped_samples = samples.len();
                    Vec::new()
                }
                _ => vec![0.0; samples.len()],
            };
        }

        let mut out = Vec::with_capacity(samples.len());
        let mut i = 0usize;
        while i < samples.len() {
            if !flagged[i] {
                out.push(samples[i]);
                i += 1;
                continue;
            }
            // A maximal flagged run [i, end).
            let mut end = i;
            while end < samples.len() && flagged[end] {
                end += 1;
            }
            report.repaired_runs += 1;
            let left = (0..i).rev().find(|&j| !flagged[j]).map(|j| samples[j]);
            let right = (end..samples.len())
                .find(|&j| !flagged[j])
                .map(|j| samples[j]);
            match self.config.gap_policy {
                GapPolicy::Drop => report.dropped_samples += end - i,
                GapPolicy::Zero => out.extend(std::iter::repeat(0.0).take(end - i)),
                GapPolicy::HoldLast => {
                    let fill = left.or(right).expect("some valid sample exists");
                    out.extend(std::iter::repeat(fill).take(end - i));
                }
                GapPolicy::Interpolate => match (left, right) {
                    (Some(l), Some(r)) => {
                        // Anchors sit one step outside the run on each side.
                        let span = (end - i + 1) as f64;
                        for k in 0..(end - i) {
                            let frac = (k + 1) as f64 / span;
                            out.push((l * (1.0 - frac) + r * frac).max(0.0));
                        }
                    }
                    (Some(one), None) | (None, Some(one)) => {
                        out.extend(std::iter::repeat(one).take(end - i));
                    }
                    (None, None) => unreachable!("a valid sample exists"),
                },
            }
            i = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sanitize(samples: &[f64]) -> (PowerTrace, RepairReport) {
        TraceSanitizer::default().sanitize(samples, 10).unwrap()
    }

    #[test]
    fn clean_input_passes_through() {
        let (t, r) = sanitize(&[1.0, 2.0, 3.0]);
        assert_eq!(t.samples(), &[1.0, 2.0, 3.0]);
        assert!(r.is_clean());
        assert_eq!(r.repaired_runs, 0);
    }

    #[test]
    fn nan_negative_and_infinite_are_repaired() {
        let (t, r) = sanitize(&[10.0, f64::NAN, f64::INFINITY, -5.0, 50.0]);
        assert_eq!(t.samples(), &[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(r.invalid_samples, 3);
        assert_eq!(r.repaired_runs, 1);
        assert!(!r.all_invalid);
    }

    #[test]
    fn boundary_gaps_hold_nearest_valid() {
        let (t, _) = sanitize(&[f64::NAN, 7.0, f64::NAN]);
        assert_eq!(t.samples(), &[7.0, 7.0, 7.0]);
    }

    #[test]
    fn spike_is_flattened() {
        let (t, r) = sanitize(&[100.0, 5000.0, 110.0]);
        assert_eq!(r.spike_samples, 1);
        assert_eq!(t.samples(), &[100.0, 105.0, 110.0]);
    }

    #[test]
    fn plausible_peaks_are_not_spikes() {
        let raw = [100.0, 340.0, 360.0, 120.0];
        let (t, r) = sanitize(&raw);
        assert!(r.is_clean());
        assert_eq!(t.samples(), &raw);
    }

    #[test]
    fn hold_last_policy() {
        let config = SanitizeConfig {
            gap_policy: GapPolicy::HoldLast,
            ..SanitizeConfig::default()
        };
        let s = TraceSanitizer::new(config).unwrap();
        let (t, _) = s.sanitize(&[5.0, f64::NAN, f64::NAN, 9.0], 10).unwrap();
        assert_eq!(t.samples(), &[5.0, 5.0, 5.0, 9.0]);
    }

    #[test]
    fn zero_policy() {
        let config = SanitizeConfig {
            gap_policy: GapPolicy::Zero,
            ..SanitizeConfig::default()
        };
        let s = TraceSanitizer::new(config).unwrap();
        let (t, _) = s.sanitize(&[5.0, -1.0, 9.0], 10).unwrap();
        assert_eq!(t.samples(), &[5.0, 0.0, 9.0]);
    }

    #[test]
    fn drop_policy_shortens() {
        let config = SanitizeConfig {
            gap_policy: GapPolicy::Drop,
            ..SanitizeConfig::default()
        };
        let s = TraceSanitizer::new(config).unwrap();
        let (t, r) = s.sanitize(&[5.0, f64::NAN, 9.0], 10).unwrap();
        assert_eq!(t.samples(), &[5.0, 9.0]);
        assert_eq!(r.dropped_samples, 1);
        // Dropping everything is an error, not an empty trace.
        assert_eq!(
            s.sanitize(&[f64::NAN, -1.0], 10).unwrap_err(),
            TraceError::Empty
        );
    }

    #[test]
    fn all_invalid_yields_zeros_and_flag() {
        let (t, r) = sanitize(&[f64::NAN, -2.0, f64::NEG_INFINITY]);
        assert_eq!(t.samples(), &[0.0, 0.0, 0.0]);
        assert!(r.all_invalid);
        assert_eq!(r.invalid_samples, 3);
    }

    #[test]
    fn sanitize_is_idempotent() {
        let raw = [100.0, f64::NAN, 9000.0, -4.0, 120.0, 130.0];
        let (once, _) = sanitize(&raw);
        let (twice, second) = TraceSanitizer::default().sanitize_trace(&once).unwrap();
        assert_eq!(once, twice);
        assert!(second.is_clean());
    }

    #[test]
    fn repair_never_raises_peak() {
        let raw = [100.0, f64::INFINITY, 90.0, f64::NAN, 80.0];
        let (t, _) = sanitize(&raw);
        assert!(t.peak() <= 100.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let s = TraceSanitizer::default();
        assert_eq!(s.sanitize(&[], 10).unwrap_err(), TraceError::Empty);
        assert_eq!(s.sanitize(&[1.0], 0).unwrap_err(), TraceError::ZeroStep);
        assert!(TraceSanitizer::new(SanitizeConfig {
            spike_factor: 0.5,
            ..SanitizeConfig::default()
        })
        .is_err());
        assert!(TraceSanitizer::new(SanitizeConfig {
            spike_floor_watts: -1.0,
            ..SanitizeConfig::default()
        })
        .is_err());
    }

    #[test]
    fn disabled_spike_detection_keeps_towers() {
        let config = SanitizeConfig {
            spike_factor: f64::INFINITY,
            ..SanitizeConfig::default()
        };
        let s = TraceSanitizer::new(config).unwrap();
        let (t, r) = s.sanitize(&[1.0, 1e6, 1.0], 10).unwrap();
        assert!(r.is_clean());
        assert_eq!(t.peak(), 1e6);
    }
}
