//! Datacenter scenarios: service mixes and heterogeneity presets modeled
//! after the paper's three production datacenters (Figure 5).
//!
//! The three presets encode the qualitative differences the paper reports:
//!
//! * **DC1** — lower instance-level heterogeneity and an already fairly
//!   balanced baseline, so placement gains are modest (2.3% RPP peak
//!   reduction in the paper);
//! * **DC2** — intermediate (7.1%);
//! * **DC3** — high heterogeneity, strictly service-grouped baseline, and
//!   an LC-dominant mix (13.1% peak reduction but the smallest reshaping
//!   gains, since there is little Batch to throttle).

use rand::Rng;
use so_powertrace::TimeGrid;

use crate::error::WorkloadError;
use crate::fleet::Fleet;
use crate::instance::heterogeneous_instance;
use crate::rng::stream_rng;
use crate::service::ServiceClass;

/// A synthetic datacenter scenario: a service mix plus heterogeneity and
/// sampling parameters, from which fleets are generated.
#[derive(Debug, Clone, PartialEq)]
pub struct DcScenario {
    /// Scenario name (e.g. `"DC1"`).
    pub name: String,
    /// Service mix: `(service, fraction)` pairs; fractions are normalized
    /// at generation time.
    pub mix: Vec<(ServiceClass, f64)>,
    /// Standard deviation of per-instance diurnal phase shifts, minutes.
    pub phase_jitter_sd_minutes: f64,
    /// Spread of per-instance amplitude scales (log-scale sd).
    pub amplitude_sd: f64,
    /// Fraction of instances the *baseline* (oblivious) placement happens
    /// to interleave rather than group — DC1's baseline was observed to be
    /// "more balanced" than DC3's (§5.2.1).
    pub baseline_mixing: f64,
    /// Number of training weeks averaged into I-traces (the paper uses
    /// 2–3).
    pub train_weeks: u32,
    /// Trace sampling step, minutes.
    pub step_minutes: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl DcScenario {
    /// The DC1 preset: web-heavy, low heterogeneity, fairly balanced
    /// baseline.
    pub fn dc1() -> Self {
        Self {
            name: "DC1".to_string(),
            mix: vec![
                (ServiceClass::Frontend, 0.21),
                (ServiceClass::LabServer, 0.15),
                (ServiceClass::BatchJob, 0.13),
                (ServiceClass::Hadoop, 0.09),
                (ServiceClass::Db, 0.08),
                (ServiceClass::Dev, 0.08),
                (ServiceClass::Search, 0.07),
                (ServiceClass::MobileDev, 0.05),
                (ServiceClass::Cache, 0.05),
                (ServiceClass::Instagram, 0.05),
                (ServiceClass::PhotoStorage, 0.04),
            ],
            phase_jitter_sd_minutes: 35.0,
            amplitude_sd: 0.15,
            baseline_mixing: 0.40,
            train_weeks: 2,
            step_minutes: 10,
            seed: 0x5d_c1_01,
        }
    }

    /// The DC2 preset: db/batch-heavy, intermediate heterogeneity.
    pub fn dc2() -> Self {
        Self {
            name: "DC2".to_string(),
            mix: vec![
                (ServiceClass::Db, 0.20),
                (ServiceClass::Hadoop, 0.15),
                (ServiceClass::Frontend, 0.12),
                (ServiceClass::SearchIndex, 0.08),
                (ServiceClass::BatchJob, 0.08),
                (ServiceClass::Dev, 0.08),
                (ServiceClass::Cache, 0.08),
                (ServiceClass::LabServer, 0.06),
                (ServiceClass::Search, 0.05),
                (ServiceClass::MobileDev, 0.05),
                (ServiceClass::PhotoStorage, 0.05),
            ],
            phase_jitter_sd_minutes: 60.0,
            amplitude_sd: 0.22,
            baseline_mixing: 0.30,
            train_weeks: 2,
            step_minutes: 10,
            seed: 0x6f_2a_11,
        }
    }

    /// The DC3 preset: LC-dominant, high heterogeneity, strictly grouped
    /// baseline.
    pub fn dc3() -> Self {
        Self {
            name: "DC3".to_string(),
            mix: vec![
                (ServiceClass::Frontend, 0.25),
                (ServiceClass::Hadoop, 0.16),
                (ServiceClass::Search, 0.11),
                (ServiceClass::Cache, 0.11),
                (ServiceClass::Db, 0.11),
                (ServiceClass::Instagram, 0.09),
                (ServiceClass::MobileDev, 0.08),
                (ServiceClass::LabServer, 0.06),
                (ServiceClass::PhotoStorage, 0.03),
            ],
            phase_jitter_sd_minutes: 110.0,
            amplitude_sd: 0.35,
            baseline_mixing: 0.02,
            train_weeks: 2,
            step_minutes: 10,
            seed: 0x7c_33_99,
        }
    }

    /// An LLM-inference-dominant datacenter: the modern mix the paper
    /// never saw. Token-bursty serving tiers dominate power, with a web
    /// front and storage/batch tail. High peak-to-mean and correlated
    /// bursts make this the regime where heterogeneity-aware placement
    /// should beat StatProf the most (`smoothop plan` quantifies it).
    pub fn llm() -> Self {
        Self {
            name: "DC-LLM".to_string(),
            mix: vec![
                (ServiceClass::LlmChat, 0.38),
                (ServiceClass::LlmCode, 0.22),
                (ServiceClass::Frontend, 0.12),
                (ServiceClass::Cache, 0.08),
                (ServiceClass::Db, 0.08),
                (ServiceClass::Hadoop, 0.07),
                (ServiceClass::PhotoStorage, 0.05),
            ],
            phase_jitter_sd_minutes: 45.0,
            amplitude_sd: 0.18,
            baseline_mixing: 0.10,
            train_weeks: 2,
            step_minutes: 10,
            seed: 0x11_a1_77,
        }
    }

    /// The paper's three DC presets, in order. The [`llm`](Self::llm)
    /// preset is deliberately excluded: `all()` feeds the paper-claims
    /// suites, which assert Figure-10/12–14 shapes specific to DC1–DC3.
    pub fn all() -> Vec<DcScenario> {
        vec![Self::dc1(), Self::dc2(), Self::dc3()]
    }

    /// Generates a fleet of `n` instances following the scenario's mix.
    ///
    /// Instances are laid out grouped by service (the order a
    /// service-at-a-time operational rollout produces), which is what the
    /// oblivious baseline placement exploits.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyMix`] / [`WorkloadError::InvalidFraction`]
    /// for malformed mixes and propagates fleet-generation errors.
    pub fn generate_fleet(&self, n: usize) -> Result<Fleet, WorkloadError> {
        if self.mix.is_empty() {
            return Err(WorkloadError::EmptyMix);
        }
        if n == 0 {
            return Err(WorkloadError::ZeroInstances);
        }
        for &(service, fraction) in &self.mix {
            if !fraction.is_finite() || fraction <= 0.0 {
                return Err(WorkloadError::InvalidFraction {
                    service: service.name(),
                    fraction,
                });
            }
        }
        let total: f64 = self.mix.iter().map(|(_, f)| f).sum();

        // Integer quotas by largest remainder so counts sum exactly to n.
        let mut quotas: Vec<(ServiceClass, usize, f64)> = self
            .mix
            .iter()
            .map(|&(s, f)| {
                let exact = f / total * n as f64;
                (s, exact.floor() as usize, exact - exact.floor())
            })
            .collect();
        let assigned: usize = quotas.iter().map(|(_, q, _)| q).sum();
        let mut leftovers = n - assigned;
        quotas.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("remainders are finite"));
        for quota in quotas.iter_mut() {
            if leftovers == 0 {
                break;
            }
            quota.1 += 1;
            leftovers -= 1;
        }
        // Restore mix order so the fleet layout is deterministic.
        quotas.sort_by_key(|(s, _, _)| {
            self.mix
                .iter()
                .position(|(m, _)| m == s)
                .expect("quota services come from the mix")
        });

        let mut rng = stream_rng(self.seed, 0xF1EE7);
        let mut specs = Vec::with_capacity(n);
        for (service, count, _) in quotas {
            let mut block: Vec<_> = (0..count)
                .map(|_| {
                    let seed = rng.gen::<u64>();
                    heterogeneous_instance(
                        service,
                        self.phase_jitter_sd_minutes,
                        self.amplitude_sd,
                        seed,
                        &mut rng,
                    )
                })
                .collect();
            // Within a service, instances are laid out in shard/rollout
            // order, which correlates with regional phase — the reason the
            // paper's DC3 had "synchronous service instances largely placed
            // under the same sub-trees" in its historical placement.
            block.sort_by(|a, b| {
                a.phase_shift_minutes
                    .partial_cmp(&b.phase_shift_minutes)
                    .expect("phases are finite")
            });
            specs.extend(block);
        }
        let grid = TimeGrid::one_week(self.step_minutes);
        Fleet::generate(specs, grid, self.train_weeks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::WorkKind;

    #[test]
    fn llm_preset_is_llm_dominant() {
        let sc = DcScenario::llm();
        let total: f64 = sc.mix.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "mix sums to {total}");
        let llm_share: f64 = sc
            .mix
            .iter()
            .filter(|(s, _)| s.shape() == crate::DiurnalShape::TokenBursty)
            .map(|(_, f)| f)
            .sum();
        assert!(llm_share > 0.5, "LLM share {llm_share}");
        let fleet = sc.generate_fleet(60).unwrap();
        assert_eq!(fleet.len(), 60);
        assert!(!fleet.instances_of(ServiceClass::LlmChat).is_empty());
    }

    #[test]
    fn presets_have_normalizable_mixes() {
        for sc in DcScenario::all() {
            let total: f64 = sc.mix.iter().map(|(_, f)| f).sum();
            assert!(
                (0.9..=1.1).contains(&total),
                "{} mix sums to {total}",
                sc.name
            );
        }
    }

    #[test]
    fn fleet_size_is_exact() {
        let fleet = DcScenario::dc1().generate_fleet(137).unwrap();
        assert_eq!(fleet.len(), 137);
    }

    #[test]
    fn fleet_respects_mix_proportions() {
        let sc = DcScenario::dc3();
        let fleet = sc.generate_fleet(500).unwrap();
        let frontend = fleet.instances_of(ServiceClass::Frontend).len() as f64 / 500.0;
        let expected = sc.mix[0].1 / sc.mix.iter().map(|(_, f)| f).sum::<f64>();
        assert!(
            (frontend - expected).abs() < 0.01,
            "frontend share {frontend} vs {expected}"
        );
    }

    #[test]
    fn dc3_is_lc_dominant_dc2_is_not() {
        let f3 = DcScenario::dc3().generate_fleet(300).unwrap();
        let f2 = DcScenario::dc2().generate_fleet(300).unwrap();
        let lc3 = f3.instances_of_kind(WorkKind::LatencyCritical).len() as f64 / 300.0;
        let lc2 = f2.instances_of_kind(WorkKind::LatencyCritical).len() as f64 / 300.0;
        assert!(lc3 > lc2);
        assert!(lc3 > 0.5);
    }

    #[test]
    fn instances_are_grouped_by_service() {
        let fleet = DcScenario::dc1().generate_fleet(100).unwrap();
        // Grouped layout: the service sequence never revisits an earlier
        // service.
        let mut seen = Vec::new();
        for i in 0..fleet.len() {
            let s = fleet.service_of(i);
            if seen.last() != Some(&s) {
                assert!(!seen.contains(&s), "service {s} appears in two groups");
                seen.push(s);
            }
        }
    }

    #[test]
    fn malformed_mixes_are_rejected() {
        let mut sc = DcScenario::dc1();
        sc.mix.clear();
        assert_eq!(sc.generate_fleet(10).unwrap_err(), WorkloadError::EmptyMix);
        let mut sc = DcScenario::dc1();
        sc.mix[0].1 = -1.0;
        assert!(matches!(
            sc.generate_fleet(10).unwrap_err(),
            WorkloadError::InvalidFraction { .. }
        ));
        assert_eq!(
            DcScenario::dc1().generate_fleet(0).unwrap_err(),
            WorkloadError::ZeroInstances
        );
    }
}
