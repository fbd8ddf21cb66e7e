//! Energy-storage-device (battery) peak shaving — the DistributedUPS-style
//! baseline the paper compares against qualitatively.
//!
//! Prior work places batteries at power nodes and discharges them during
//! peaks. The paper's critique (§1, §6): battery capacity "can only handle
//! peaks that span at most tens of minutes, making it unsuitable for
//! Facebook type of workloads whose peak may last for hours", and
//! unbalanced placements deplete the batteries of hot nodes while cold
//! nodes never use theirs. This module reproduces both effects.

use so_powertrace::PowerTrace;

/// A battery attached to one power node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryModel {
    /// Usable energy, watt-minutes.
    pub capacity_watt_minutes: f64,
    /// Maximum discharge rate, watts.
    pub max_discharge_watts: f64,
    /// Maximum recharge rate, watts.
    pub max_recharge_watts: f64,
    /// Round-trip efficiency in `(0, 1]` (applied on recharge).
    pub efficiency: f64,
}

impl BatteryModel {
    /// A battery sized to carry `minutes` of `watts` overdraw.
    pub fn sized_for(watts: f64, minutes: f64) -> Self {
        Self {
            capacity_watt_minutes: watts * minutes,
            max_discharge_watts: watts,
            max_recharge_watts: watts / 2.0,
            efficiency: 0.9,
        }
    }
}

/// Outcome of shaving one node's power trace with a battery.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaveOutcome {
    /// Samples where the budget was exceeded and the battery could *not*
    /// fully cover the gap.
    pub uncovered_samples: usize,
    /// Total over-budget energy the battery absorbed, watt-minutes.
    pub shaved_watt_minutes: f64,
    /// Total over-budget energy left uncovered, watt-minutes.
    pub uncovered_watt_minutes: f64,
    /// Lowest state of charge reached, watt-minutes.
    pub min_state_of_charge: f64,
}

impl ShaveOutcome {
    /// Whether the battery kept the node within budget throughout.
    pub fn fully_covered(&self) -> bool {
        self.uncovered_samples == 0
    }
}

/// Simulates battery peak shaving of `draw` against `budget_watts`.
///
/// The battery starts full, discharges (up to rate and state of charge)
/// whenever the draw exceeds the budget, and recharges from headroom when
/// below it.
///
/// # Panics
///
/// Panics if the battery parameters or budget are not positive/finite.
pub fn shave_with_battery(
    draw: &PowerTrace,
    budget_watts: f64,
    battery: BatteryModel,
) -> ShaveOutcome {
    assert!(
        budget_watts.is_finite() && budget_watts > 0.0,
        "budget must be positive"
    );
    assert!(
        battery.capacity_watt_minutes > 0.0
            && battery.max_discharge_watts > 0.0
            && battery.max_recharge_watts >= 0.0
            && battery.efficiency > 0.0
            && battery.efficiency <= 1.0,
        "battery parameters must be positive"
    );

    let step = draw.step_minutes() as f64;
    let mut soc = battery.capacity_watt_minutes;
    let mut min_soc = soc;
    let mut uncovered_samples = 0;
    let mut shaved = 0.0;
    let mut uncovered = 0.0;

    for &p in draw.samples() {
        if p > budget_watts {
            let deficit = p - budget_watts;
            let deliverable = battery.max_discharge_watts.min(soc / step).min(deficit);
            soc -= deliverable * step;
            shaved += deliverable * step;
            let remaining = deficit - deliverable;
            if remaining > 1e-9 {
                uncovered_samples += 1;
                uncovered += remaining * step;
            }
        } else {
            let headroom = budget_watts - p;
            let intake = battery.max_recharge_watts.min(headroom);
            soc = (soc + intake * step * battery.efficiency).min(battery.capacity_watt_minutes);
        }
        min_soc = min_soc.min(soc);
    }
    ShaveOutcome {
        uncovered_samples,
        shaved_watt_minutes: shaved,
        uncovered_watt_minutes: uncovered,
        min_state_of_charge: min_soc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: Vec<f64>) -> PowerTrace {
        PowerTrace::new(samples, 10).unwrap()
    }

    #[test]
    fn short_burst_is_fully_covered() {
        // 20 minutes of +100 W overdraw; battery sized for 30 minutes.
        let mut samples = vec![500.0; 30];
        samples[10] = 700.0;
        samples[11] = 700.0;
        let outcome =
            shave_with_battery(&trace(samples), 600.0, BatteryModel::sized_for(100.0, 30.0));
        assert!(outcome.fully_covered());
        assert!((outcome.shaved_watt_minutes - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn hours_long_peak_depletes_the_battery() {
        // 6 hours of +100 W overdraw; battery carries only 30 minutes.
        let samples: Vec<f64> = (0..60)
            .map(|t| if (10..46).contains(&t) { 700.0 } else { 500.0 })
            .collect();
        let outcome =
            shave_with_battery(&trace(samples), 600.0, BatteryModel::sized_for(100.0, 30.0));
        assert!(!outcome.fully_covered());
        assert!(outcome.uncovered_samples > 20, "battery lasted too long");
        assert!(outcome.min_state_of_charge < 1.0);
    }

    #[test]
    fn discharge_rate_limits_tall_spikes() {
        // A single sample of +500 W but the battery can only push 100 W.
        let mut samples = vec![500.0; 10];
        samples[5] = 1_100.0;
        let outcome =
            shave_with_battery(&trace(samples), 600.0, BatteryModel::sized_for(100.0, 60.0));
        assert_eq!(outcome.uncovered_samples, 1);
        assert!((outcome.uncovered_watt_minutes - 4_000.0).abs() < 1e-6);
    }

    #[test]
    fn battery_recharges_between_bursts() {
        // Two 20-minute bursts separated by a long idle valley.
        let mut samples = vec![100.0; 100];
        samples[5..7].fill(700.0);
        samples[80..82].fill(700.0);
        let outcome =
            shave_with_battery(&trace(samples), 600.0, BatteryModel::sized_for(100.0, 25.0));
        assert!(
            outcome.fully_covered(),
            "recharge should cover the second burst"
        );
    }
}
