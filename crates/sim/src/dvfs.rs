//! DVFS states used by proactive throttling and boosting (§4.2).
//!
//! Batch clusters run at configurable CPU frequency settings; the paper's
//! reshaping policy throttles them during LC-heavy phases (freeing power
//! budget for extra LC capacity) and boosts them during Batch-heavy phases
//! to win the lost throughput back.

/// A CPU frequency/voltage operating point for Batch servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DvfsState {
    /// Reduced frequency: lower power, lower throughput.
    Throttled,
    /// The default operating point.
    #[default]
    Nominal,
    /// Elevated frequency: higher power, higher throughput.
    Boosted,
}

impl DvfsState {
    /// Multiplier on a server's power draw at this operating point.
    ///
    /// Power scales super-linearly with frequency (P ∝ f·V², V roughly ∝
    /// f), so the throttled point saves more power than throughput and the
    /// boosted point costs more power than it gains.
    pub fn power_factor(self) -> f64 {
        match self {
            DvfsState::Throttled => 0.70,
            DvfsState::Nominal => 1.0,
            DvfsState::Boosted => 1.07,
        }
    }

    /// Multiplier on a Batch server's throughput at this operating point.
    pub fn throughput_factor(self) -> f64 {
        match self {
            DvfsState::Throttled => 0.80,
            DvfsState::Nominal => 1.0,
            DvfsState::Boosted => 1.04,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttling_saves_more_power_than_throughput() {
        let t = DvfsState::Throttled;
        assert!(t.power_factor() < t.throughput_factor());
    }

    #[test]
    fn boosting_costs_more_power_than_it_gains() {
        let b = DvfsState::Boosted;
        assert!(b.power_factor() > b.throughput_factor());
    }

    #[test]
    fn nominal_is_identity_and_default() {
        assert_eq!(DvfsState::default(), DvfsState::Nominal);
        assert_eq!(DvfsState::Nominal.power_factor(), 1.0);
        assert_eq!(DvfsState::Nominal.throughput_factor(), 1.0);
    }

    #[test]
    fn factors_are_ordered() {
        assert!(DvfsState::Throttled.power_factor() < DvfsState::Nominal.power_factor());
        assert!(DvfsState::Nominal.power_factor() < DvfsState::Boosted.power_factor());
    }
}
