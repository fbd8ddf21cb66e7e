//! Per-service workload characterization.
//!
//! Summarizes what the placement framework cares about per service: when
//! it peaks, how seasonal it is, how much weekends matter, and how much
//! its instances differ — the quantified version of the paper's §2.3
//! heterogeneity discussion.

use so_powertrace::{PowerTrace, SeasonalDecomposition, TraceError};

use crate::fleet::Fleet;
use crate::service::ServiceClass;

/// Characterization of one service's power behaviour within a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProfile {
    /// The service.
    pub service: ServiceClass,
    /// Instances of the service in the fleet.
    pub instances: usize,
    /// Mean per-instance power, watts.
    pub mean_watts: f64,
    /// Mean per-instance peak, watts.
    pub peak_watts: f64,
    /// Minute-of-day at which the service's aggregate template peaks.
    pub peak_minute_of_day: u32,
    /// Variance fraction the daily template explains, `[0, 1]`.
    pub seasonality: f64,
    /// Coefficient of variation of instance peaks — the instance-level
    /// heterogeneity §3.3 exploits.
    pub peak_cv: f64,
    /// Mean per-instance peak over mean per-instance power — the
    /// burstiness that separates token-level LLM serving (≥ 3×) from the
    /// paper's diurnal web/db/hadoop families.
    pub peak_to_mean: f64,
}

impl ServiceProfile {
    /// Peak hour of day, for display.
    pub fn peak_hour(&self) -> f64 {
        self.peak_minute_of_day as f64 / 60.0
    }
}

/// Profiles every service of a fleet from its averaged training traces,
/// sorted by total power (largest consumer first).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use so_workloads::{profile_services, DcScenario};
///
/// let fleet = DcScenario::dc2().generate_fleet(60)?;
/// for profile in profile_services(&fleet)? {
///     println!(
///         "{}: peaks at {:.1}h, {:.0}% seasonal",
///         profile.service,
///         profile.peak_hour(),
///         100.0 * profile.seasonality
///     );
/// }
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates trace errors (e.g. traces not covering whole days).
pub fn profile_services(fleet: &Fleet) -> Result<Vec<ServiceProfile>, TraceError> {
    let mut profiles = Vec::new();
    for service in fleet.services() {
        let members = fleet.instances_of(service);
        let traces: Vec<&PowerTrace> = members
            .iter()
            .map(|&i| &fleet.averaged_traces()[i])
            .collect();

        let aggregate = PowerTrace::mean_of(traces.iter().copied())?;
        let decomposition = SeasonalDecomposition::of(&aggregate)?;

        let peaks: Vec<f64> = traces.iter().map(|t| t.peak()).collect();
        let mean_peak = peaks.iter().sum::<f64>() / peaks.len() as f64;
        let var = peaks
            .iter()
            .map(|p| (p - mean_peak) * (p - mean_peak))
            .sum::<f64>()
            / peaks.len() as f64;
        let cv = if mean_peak > 0.0 {
            var.sqrt() / mean_peak
        } else {
            0.0
        };

        let mean_of_means =
            traces.iter().map(|t| t.mean()).sum::<f64>() / traces.len().max(1) as f64;
        profiles.push(ServiceProfile {
            service,
            instances: members.len(),
            mean_watts: aggregate.mean(),
            peak_watts: mean_peak,
            peak_minute_of_day: decomposition.peak_minute_of_day(),
            seasonality: decomposition.seasonality(),
            peak_cv: cv,
            peak_to_mean: if mean_of_means > 0.0 {
                mean_peak / mean_of_means
            } else {
                0.0
            },
        });
    }
    profiles.sort_by(|a, b| {
        (b.mean_watts * b.instances as f64)
            .partial_cmp(&(a.mean_watts * a.instances as f64))
            .expect("powers are finite")
    });
    Ok(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DcScenario;

    #[test]
    fn profiles_capture_the_figure_6_story() {
        let fleet = DcScenario::dc2().generate_fleet(200).unwrap();
        let profiles = profile_services(&fleet).unwrap();
        assert_eq!(profiles.len(), fleet.services().len());

        let by_service = |s: ServiceClass| {
            profiles
                .iter()
                .find(|p| p.service == s)
                .expect("service is in the mix")
        };
        let web = by_service(ServiceClass::Frontend);
        let db = by_service(ServiceClass::Db);
        let hadoop = by_service(ServiceClass::Hadoop);

        // Web peaks in the day, db at night, hadoop is barely seasonal.
        assert!(
            (10.0..16.0).contains(&web.peak_hour()),
            "web peak {}",
            web.peak_hour()
        );
        assert!(
            db.peak_hour() < 6.0 || db.peak_hour() > 22.0,
            "db peak {}",
            db.peak_hour()
        );
        assert!(
            hadoop.seasonality < 0.3,
            "hadoop seasonality {}",
            hadoop.seasonality
        );
        assert!(web.seasonality > 0.6, "web seasonality {}", web.seasonality);

        // Heterogeneity exists (amplitude skew).
        assert!(web.peak_cv > 0.02);
    }

    #[test]
    fn llm_profiles_are_far_burstier_than_web() {
        let fleet = DcScenario::llm().generate_fleet(120).unwrap();
        let profiles = profile_services(&fleet).unwrap();
        let chat = profiles
            .iter()
            .find(|p| p.service == ServiceClass::LlmChat)
            .expect("llmchat is in the mix");
        let web = profiles
            .iter()
            .find(|p| p.service == ServiceClass::Frontend)
            .expect("frontend is in the mix");
        assert!(
            chat.peak_to_mean >= 3.0,
            "llmchat peak-to-mean {}",
            chat.peak_to_mean
        );
        assert!(chat.peak_to_mean > web.peak_to_mean + 0.5);
    }

    #[test]
    fn profiles_are_sorted_by_total_power() {
        let fleet = DcScenario::dc1().generate_fleet(150).unwrap();
        let profiles = profile_services(&fleet).unwrap();
        for pair in profiles.windows(2) {
            let a = pair[0].mean_watts * pair[0].instances as f64;
            let b = pair[1].mean_watts * pair[1].instances as f64;
            assert!(a + 1e-9 >= b);
        }
    }
}
