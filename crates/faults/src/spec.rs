//! Fault specification: rates, seeds, and the `--faults` string format.

use crate::error::FaultError;

/// Parameters of a fault-injection campaign.
///
/// All randomness downstream derives from [`seed`](Self::seed) alone, so
/// two runs with equal specs produce bit-identical schedules regardless
/// of thread count or build features.
///
/// # The `--faults` string format
///
/// A comma-separated list of `key=value` pairs; keys may appear at most
/// once and unknown keys are rejected. `"none"` (or an empty string)
/// yields [`FaultSpec::none`]. Example:
///
/// ```
/// use so_faults::FaultSpec;
///
/// let spec = FaultSpec::parse("seed=7,dropout=0.2,trips=2,trip-severity=0.4").unwrap();
/// assert_eq!(spec.seed, 7);
/// assert_eq!(spec.trips, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Base seed; every event stream is derived from it.
    pub seed: u64,
    /// Probability that a given instance suffers one sensor-dropout event
    /// in the window.
    pub dropout_rate: f64,
    /// Probability that a given instance suffers one stuck-sensor event.
    pub stuck_rate: f64,
    /// Probability that a given instance suffers one crash/restart event.
    pub crash_rate: f64,
    /// Number of fleet-wide transient breaker trips in the window.
    pub trips: usize,
    /// Mean length of dropout/stuck/crash events, in steps (sampled
    /// uniformly from `1..=2×mean − 1`).
    pub mean_fault_steps: usize,
    /// Exact length of each breaker trip, in steps.
    pub trip_steps: usize,
    /// Capacity derate applied while a breaker trip is active, in `(0, 1]`.
    pub trip_severity: f64,
}

impl Default for FaultSpec {
    /// A mild default campaign: occasional telemetry faults, one trip.
    fn default() -> Self {
        Self {
            seed: 42,
            dropout_rate: 0.1,
            stuck_rate: 0.05,
            crash_rate: 0.02,
            trips: 1,
            mean_fault_steps: 6,
            trip_steps: 3,
            trip_severity: 0.3,
        }
    }
}

impl FaultSpec {
    /// The empty campaign: no faults at all.
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout_rate: 0.0,
            stuck_rate: 0.0,
            crash_rate: 0.0,
            trips: 0,
            mean_fault_steps: 1,
            trip_steps: 1,
            trip_severity: 0.0,
        }
    }

    /// Whether the campaign schedules nothing.
    pub fn is_none(&self) -> bool {
        self.dropout_rate == 0.0
            && self.stuck_rate == 0.0
            && self.crash_rate == 0.0
            && self.trips == 0
    }

    /// Parses the `--faults` string format (see the type docs). Omitted
    /// keys keep their [`Default`] values, except that `"none"` and the
    /// empty string yield [`FaultSpec::none`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Parse`] for malformed fragments and
    /// [`FaultError::InvalidSpec`] when the parsed values violate a
    /// numeric constraint.
    pub fn parse(spec: &str) -> Result<Self, FaultError> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" || spec == "off" {
            return Ok(Self::none());
        }
        let mut out = Self::default();
        let mut seen: Vec<&str> = Vec::new();
        for fragment in spec.split(',') {
            let fragment = fragment.trim();
            let (key, value) = fragment.split_once('=').ok_or_else(|| FaultError::Parse {
                fragment: fragment.to_string(),
                reason: "expected key=value",
            })?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(FaultError::Parse {
                    fragment: fragment.to_string(),
                    reason: "key appears more than once",
                });
            }
            let value = value.trim();
            let bad_number = |reason| FaultError::Parse {
                fragment: fragment.to_string(),
                reason,
            };
            match key {
                "seed" => out.seed = value.parse().map_err(|_| bad_number("not a u64"))?,
                "dropout" => {
                    out.dropout_rate = value.parse().map_err(|_| bad_number("not a number"))?;
                }
                "stuck" => {
                    out.stuck_rate = value.parse().map_err(|_| bad_number("not a number"))?;
                }
                "crash" => {
                    out.crash_rate = value.parse().map_err(|_| bad_number("not a number"))?;
                }
                "trips" => out.trips = value.parse().map_err(|_| bad_number("not a count"))?,
                "mean-steps" => {
                    out.mean_fault_steps = value.parse().map_err(|_| bad_number("not a count"))?;
                }
                "trip-steps" => {
                    out.trip_steps = value.parse().map_err(|_| bad_number("not a count"))?;
                }
                "trip-severity" => {
                    out.trip_severity = value.parse().map_err(|_| bad_number("not a number"))?;
                }
                _ => {
                    return Err(FaultError::Parse {
                        fragment: fragment.to_string(),
                        reason: "unknown key",
                    });
                }
            }
            // Record the key after the value parsed; `fragment` borrows
            // from `spec`, so the key does too.
            seen.push(key);
        }
        out.validate()?;
        Ok(out)
    }

    /// Validates the numeric constraints.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidSpec`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), FaultError> {
        for rate in [self.dropout_rate, self.stuck_rate, self.crash_rate] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(FaultError::InvalidSpec(
                    "dropout/stuck/crash rates must lie in [0, 1]",
                ));
            }
        }
        if self.mean_fault_steps == 0 {
            return Err(FaultError::InvalidSpec(
                "mean fault length must be at least one step",
            ));
        }
        if self.trip_steps == 0 {
            return Err(FaultError::InvalidSpec(
                "trip length must be at least one step",
            ));
        }
        if self.trips > 0
            && !(self.trip_severity.is_finite()
                && self.trip_severity > 0.0
                && self.trip_severity <= 1.0)
        {
            return Err(FaultError::InvalidSpec(
                "trip severity must lie in (0, 1] when trips are scheduled",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_none_parse_to_no_faults() {
        for s in ["", "none", "off", "  "] {
            let spec = FaultSpec::parse(s).unwrap();
            assert!(spec.is_none(), "spec {s:?}");
        }
        assert!(!FaultSpec::default().is_none());
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = FaultSpec::parse(
            "seed=9,dropout=0.5,stuck=0.25,crash=0.125,trips=3,mean-steps=4,trip-steps=2,trip-severity=0.75",
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.dropout_rate, 0.5);
        assert_eq!(spec.stuck_rate, 0.25);
        assert_eq!(spec.crash_rate, 0.125);
        assert_eq!(spec.trips, 3);
        assert_eq!(spec.mean_fault_steps, 4);
        assert_eq!(spec.trip_steps, 2);
        assert_eq!(spec.trip_severity, 0.75);
    }

    #[test]
    fn partial_spec_keeps_defaults() {
        let spec = FaultSpec::parse("dropout=0.9").unwrap();
        assert_eq!(spec.dropout_rate, 0.9);
        assert_eq!(spec.seed, FaultSpec::default().seed);
        assert_eq!(spec.trips, FaultSpec::default().trips);
    }

    #[test]
    fn malformed_fragments_are_rejected() {
        assert!(matches!(
            FaultSpec::parse("dropout"),
            Err(FaultError::Parse { .. })
        ));
        assert!(matches!(
            FaultSpec::parse("dropout=abc"),
            Err(FaultError::Parse { .. })
        ));
        assert!(matches!(
            FaultSpec::parse("bogus=1"),
            Err(FaultError::Parse { .. })
        ));
        assert!(matches!(
            FaultSpec::parse("seed=1,seed=2"),
            Err(FaultError::Parse { .. })
        ));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        assert!(FaultSpec::parse("dropout=1.5").is_err());
        assert!(FaultSpec::parse("crash=-0.1").is_err());
        assert!(FaultSpec::parse("trips=1,trip-severity=0").is_err());
        assert!(FaultSpec::parse("trip-severity=2").is_err());
        assert!(FaultSpec::parse("mean-steps=0").is_err());
        assert!(FaultSpec::parse("trip-steps=0").is_err());
        // Severity out of range is fine when no trips are scheduled... but
        // parse starts from the default (1 trip), so it still errors.
        let mut spec = FaultSpec::none();
        spec.trip_severity = 9.0;
        assert!(spec.validate().is_ok());
    }
}
