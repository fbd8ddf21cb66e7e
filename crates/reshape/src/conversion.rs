//! History-based server conversion (§4.2).
//!
//! Conversion servers are storage-disaggregated: their data lives on
//! separate storage nodes, so switching a compute node between Batch and
//! LC needs no data migration and no reboot. The policy watches the
//! average load over the original LC servers: below the conversion
//! threshold `L_conv` the datacenter is in *Batch-heavy phase* and the
//! conversion servers run Batch; as the load approaches `L_conv` they are
//! converted to LC (*LC-heavy phase*).

use so_sim::{DvfsState, ReshapePolicy, StepDecision, StepObservation};

/// Which phase the conversion state machine is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// LC load is comfortably below `L_conv`; conversion servers do Batch
    /// work.
    BatchHeavy,
    /// LC load is at/near `L_conv`; conversion servers serve LC traffic.
    LcHeavy,
}

/// The server-conversion policy (no throttling/boosting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionPolicy {
    /// Entering LC-heavy when base-LC load exceeds `enter_fraction × L_conv`.
    pub enter_fraction: f64,
    /// Returning to Batch-heavy when it falls below `exit_fraction × L_conv`
    /// (hysteresis, `exit_fraction < enter_fraction`).
    pub exit_fraction: f64,
    phase: Phase,
}

impl Default for ConversionPolicy {
    fn default() -> Self {
        // Proactive thresholds: the phase flips well before the guarded
        // level so conversions (and the batch wind-down that funds their
        // power) complete ahead of the peak, not at it.
        Self {
            enter_fraction: 0.88,
            exit_fraction: 0.78,
            phase: Phase::BatchHeavy,
        }
    }
}

impl ConversionPolicy {
    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Updates the phase from the base-LC load and returns it.
    fn update_phase(&mut self, base_load: f64, l_conv: f64) -> Phase {
        match self.phase {
            Phase::BatchHeavy if base_load >= self.enter_fraction * l_conv => {
                self.phase = Phase::LcHeavy;
            }
            Phase::LcHeavy if base_load < self.exit_fraction * l_conv => {
                self.phase = Phase::BatchHeavy;
            }
            _ => {}
        }
        self.phase
    }

    /// Conversion servers needed to bring the per-server load down to
    /// `L_conv`, given the offered load.
    fn servers_needed(observation: &StepObservation) -> usize {
        let per_server = observation.qps_per_server * observation.l_conv;
        if per_server <= 0.0 {
            return usize::MAX;
        }
        let total_needed = (observation.offered_qps / per_server).ceil() as usize;
        total_needed.saturating_sub(observation.base_lc)
    }
}

impl ReshapePolicy for ConversionPolicy {
    fn decide(&mut self, observation: &StepObservation) -> StepDecision {
        let phase = self.update_phase(observation.base_lc_load(), observation.l_conv);
        match phase {
            Phase::BatchHeavy => StepDecision::all_batch(),
            Phase::LcHeavy => StepDecision {
                conversion_as_lc: Self::servers_needed(observation).min(observation.conversion),
                throttle_funded_as_lc: 0,
                batch_dvfs: DvfsState::Nominal,
            },
        }
    }
}

/// The augmented policy with proactive throttling and boosting (§4.2).
///
/// When conversion servers alone cannot hold the load at `L_conv`, the
/// Batch cluster is throttled (releasing power that funds the `e_th`
/// servers) and `e_th` servers convert to LC. During deep Batch-heavy
/// phases the Batch cluster is boosted to win back the throughput lost to
/// throttling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleBoostPolicy {
    /// The underlying conversion state machine.
    pub conversion: ConversionPolicy,
    /// Boost Batch when base-LC load is below `boost_fraction × L_conv`.
    pub boost_fraction: f64,
}

impl Default for ThrottleBoostPolicy {
    fn default() -> Self {
        Self {
            conversion: ConversionPolicy::default(),
            boost_fraction: 0.55,
        }
    }
}

impl ReshapePolicy for ThrottleBoostPolicy {
    fn decide(&mut self, observation: &StepObservation) -> StepDecision {
        let base_load = observation.base_lc_load();
        let phase = self.conversion.update_phase(base_load, observation.l_conv);
        match phase {
            Phase::BatchHeavy => {
                // Boost only in deep off-peak, compensating throttling losses.
                let dvfs = if base_load < self.boost_fraction * observation.l_conv {
                    DvfsState::Boosted
                } else {
                    DvfsState::Nominal
                };
                StepDecision {
                    conversion_as_lc: 0,
                    throttle_funded_as_lc: 0,
                    batch_dvfs: dvfs,
                }
            }
            Phase::LcHeavy => {
                let needed = ConversionPolicy::servers_needed(observation);
                let conv = needed.min(observation.conversion);
                let still_needed = needed - conv;
                // "We now first throttle the Batch clusters, and then it
                // starts to convert servers in e_th into LC": throttling
                // engages for the whole LC-heavy phase whenever e_th
                // servers exist — the released Batch power is what funds
                // their draw at peak, keeping the node within budget.
                let dvfs = if observation.throttle_funded > 0 {
                    DvfsState::Throttled
                } else {
                    DvfsState::Nominal
                };
                StepDecision {
                    conversion_as_lc: conv,
                    throttle_funded_as_lc: still_needed.min(observation.throttle_funded),
                    batch_dvfs: dvfs,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation(offered: f64) -> StepObservation {
        StepObservation {
            t: 0,
            offered_qps: offered,
            base_lc: 10,
            conversion: 4,
            throttle_funded: 3,
            qps_per_server: 100.0,
            l_conv: 0.8,
            prev_lc_load: 0.0,
            sensor_ok: true,
        }
    }

    #[test]
    fn batch_heavy_keeps_conversion_servers_on_batch() {
        let mut p = ConversionPolicy::default();
        // base load = 300/1000 = 0.3 << 0.8.
        let d = p.decide(&observation(300.0));
        assert_eq!(d, StepDecision::all_batch());
        assert_eq!(p.phase(), Phase::BatchHeavy);
    }

    #[test]
    fn lc_heavy_converts_exactly_enough() {
        let mut p = ConversionPolicy::default();
        // base load = 900/1000 = 0.9 > 0.98*0.8: LC-heavy.
        // Needed: ceil(900/80) = 12 total -> 2 conversions.
        let d = p.decide(&observation(900.0));
        assert_eq!(p.phase(), Phase::LcHeavy);
        assert_eq!(d.conversion_as_lc, 2);
        assert_eq!(d.throttle_funded_as_lc, 0);
    }

    #[test]
    fn conversion_is_capped_by_available_servers() {
        let mut p = ConversionPolicy::default();
        // Needed: ceil(2000/80)=25 -> 15 conversions, capped at 4.
        let d = p.decide(&observation(2000.0));
        assert_eq!(d.conversion_as_lc, 4);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut p = ConversionPolicy::default();
        let _ = p.decide(&observation(900.0)); // -> LcHeavy
        assert_eq!(p.phase(), Phase::LcHeavy);
        // Load drops to 0.75 of capacity: 0.75 > 0.90*0.8=0.72, stay LC-heavy.
        let _ = p.decide(&observation(750.0));
        assert_eq!(p.phase(), Phase::LcHeavy);
        // Load drops to 0.5: below exit threshold, back to Batch-heavy.
        let _ = p.decide(&observation(500.0));
        assert_eq!(p.phase(), Phase::BatchHeavy);
    }

    #[test]
    fn throttle_kicks_in_when_conversion_is_exhausted() {
        let mut p = ThrottleBoostPolicy::default();
        // Needed: ceil(1300/80)=17 -> 7 beyond base; conv=4, still 3 -> e_th.
        let d = p.decide(&observation(1300.0));
        assert_eq!(d.conversion_as_lc, 4);
        assert_eq!(d.throttle_funded_as_lc, 3);
        assert_eq!(d.batch_dvfs, DvfsState::Throttled);
    }

    #[test]
    fn boost_only_in_deep_off_peak() {
        let mut p = ThrottleBoostPolicy::default();
        // Deep off-peak: 0.3 < 0.55*0.8.
        let d = p.decide(&observation(300.0));
        assert_eq!(d.batch_dvfs, DvfsState::Boosted);
        // Shoulder: 0.6 > 0.44, nominal.
        let d = p.decide(&observation(600.0));
        assert_eq!(d.batch_dvfs, DvfsState::Nominal);
    }

    #[test]
    fn lc_heavy_throttles_whenever_e_th_exists() {
        // Power safety: the e_th servers' draw at peak is funded by the
        // throttled Batch cluster, so throttling spans the whole LC-heavy
        // phase — even when conversion servers alone carry the load.
        let mut p = ThrottleBoostPolicy::default();
        let d = p.decide(&observation(900.0));
        assert_eq!(d.batch_dvfs, DvfsState::Throttled);
        assert_eq!(d.throttle_funded_as_lc, 0);

        // Without e_th there is nothing to fund: no throttling.
        let mut p = ThrottleBoostPolicy::default();
        let o = StepObservation {
            throttle_funded: 0,
            ..observation(900.0)
        };
        let d = p.decide(&o);
        assert_eq!(d.batch_dvfs, DvfsState::Nominal);
    }
}
