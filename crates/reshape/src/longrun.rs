//! Long-run operation: continuous monitoring and incremental remapping
//! under mid-/long-term workload drift (§3.6).
//!
//! "After the initial application, our framework can be continuously
//! applied to the datacenter to fine-tune the placement when power
//! consumption patterns start to exhibit middle-term or long-term (e.g.,
//! in weeks or longer) shifts or changes." This module simulates weeks of
//! operation: every week a fraction of instances drifts in phase, the
//! [`DriftMonitor`] re-evaluates the per-level sums of peaks, and — when
//! flagged — a bounded remapping pass repairs the placement.

use rand::Rng;
use so_core::{remap, DriftMonitor, RemapConfig};
use so_powertree::{Assignment, Level, NodeAggregates, PowerTopology};
use so_workloads::rng::{normal, stream_rng};
use so_workloads::{Fleet, InstanceSpec};

use crate::error::ReshapeError;

/// Configuration of a long-run operation simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongRunConfig {
    /// Operation weeks simulated after the initial placement.
    pub weeks: u32,
    /// Probability that any given service's schedule shifts in a week.
    pub drift_fraction: f64,
    /// Standard deviation of a shifting service's common phase delta,
    /// minutes.
    pub drift_minutes_sd: f64,
    /// Relative sum-of-peaks threshold of the drift monitor.
    pub monitor_threshold: f64,
    /// Remap budget applied when the monitor flags.
    pub remap: RemapConfig,
    /// Seed for the drift process.
    pub seed: u64,
}

impl Default for LongRunConfig {
    fn default() -> Self {
        Self {
            weeks: 8,
            drift_fraction: 0.10,
            drift_minutes_sd: 180.0,
            monitor_threshold: 0.03,
            remap: RemapConfig::default(),
            seed: 0x10_4E,
        }
    }
}

/// What happened in one operation week.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeekOutcome {
    /// Operation week (1-based).
    pub week: u32,
    /// Rack-level sum of peaks under the *frozen* initial placement,
    /// watts.
    pub static_sum_of_peaks: f64,
    /// Rack-level sum of peaks under the monitored + remapped placement,
    /// watts.
    pub managed_sum_of_peaks: f64,
    /// Whether the drift monitor recommended a remap this week.
    pub flagged: bool,
    /// Swaps the remapper applied this week.
    pub swaps: usize,
}

/// The full history of a long-run simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LongRunReport {
    /// Rack-level sum of peaks of the initial placement on its own
    /// training data, watts.
    pub initial_sum_of_peaks: f64,
    /// Weekly outcomes, in order.
    pub weeks: Vec<WeekOutcome>,
}

impl LongRunReport {
    /// Total swaps applied over the run.
    pub fn total_swaps(&self) -> usize {
        self.weeks.iter().map(|w| w.swaps).sum()
    }

    /// Mean advantage of the managed placement over the frozen one:
    /// `mean((static − managed) / static)`.
    pub fn mean_managed_advantage(&self) -> f64 {
        if self.weeks.is_empty() {
            return 0.0;
        }
        self.weeks
            .iter()
            .map(|w| (w.static_sum_of_peaks - w.managed_sum_of_peaks) / w.static_sum_of_peaks)
            .sum::<f64>()
            / self.weeks.len() as f64
    }
}

/// Simulates `config.weeks` weeks of drift on top of `fleet`'s specs,
/// starting from `initial` (typically a freshly derived workload-aware
/// placement).
///
/// # Errors
///
/// Propagates fleet-generation, monitoring, and remapping errors.
pub fn operate(
    fleet: &Fleet,
    topology: &PowerTopology,
    initial: &Assignment,
    config: &LongRunConfig,
) -> Result<LongRunReport, ReshapeError> {
    let grid = fleet.grid();
    let mut specs: Vec<InstanceSpec> = fleet.specs().to_vec();
    let mut managed = initial.clone();
    let static_assignment = initial.clone();

    let monitor = DriftMonitor::baseline(
        topology,
        initial,
        fleet.averaged_traces(),
        config.monitor_threshold,
    )?;
    let initial_sum_of_peaks = NodeAggregates::compute(topology, initial, fleet.averaged_traces())?
        .sum_of_peaks(topology, Level::Rack);

    let mut rng = stream_rng(config.seed, 0xD21F7);
    let mut weeks = Vec::with_capacity(config.weeks as usize);
    for week in 1..=config.weeks {
        // Drift: whole services shift their schedules (a backup window
        // moves, a batch pipeline is rescheduled, a region launches).
        // This is the drift that matters: it erodes the *complementarity*
        // the placement exploited — formerly out-of-phase rack-mates
        // start peaking together. Uncorrelated per-instance jitter, by
        // contrast, leaves a mixed placement near-optimal.
        let services: Vec<_> = {
            let mut s: Vec<_> = specs.iter().map(|x| x.service).collect();
            s.sort();
            s.dedup();
            s
        };
        for service in services {
            if rng.gen::<f64>() < config.drift_fraction {
                let delta = normal(&mut rng, 0.0, config.drift_minutes_sd);
                for spec in specs.iter_mut().filter(|x| x.service == service) {
                    spec.phase_shift_minutes += delta;
                }
            }
        }
        // This week's observed traces (fresh noise stream per week).
        let week_traces: Vec<_> = specs
            .iter()
            .map(|s| s.weekly_trace(grid, 100 + week))
            .collect();

        let report = monitor.observe(topology, &managed, &week_traces)?;
        let mut swaps = 0;
        if report.remap_recommended {
            // Remap against the drifted workload: a one-week fleet built
            // from the current specs serves as the remapper's view.
            let drifted_fleet = Fleet::generate(specs.clone(), grid, 1)?;
            let remap_report = remap(&drifted_fleet, topology, &mut managed, config.remap)?;
            swaps = remap_report.swaps.len();
        }

        let static_sum = NodeAggregates::compute(topology, &static_assignment, &week_traces)?
            .sum_of_peaks(topology, Level::Rack);
        let managed_sum = NodeAggregates::compute(topology, &managed, &week_traces)?
            .sum_of_peaks(topology, Level::Rack);
        weeks.push(WeekOutcome {
            week,
            static_sum_of_peaks: static_sum,
            managed_sum_of_peaks: managed_sum,
            flagged: report.remap_recommended,
            swaps,
        });
    }
    Ok(LongRunReport {
        initial_sum_of_peaks,
        weeks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_core::SmoothPlacer;
    use so_workloads::DcScenario;

    fn setup() -> (Fleet, PowerTopology, Assignment) {
        let fleet = DcScenario::dc3().generate_fleet(96).unwrap();
        let topo = PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(2)
            .sbs_per_msb(2)
            .rpps_per_sb(1)
            .racks_per_rpp(3)
            .rack_capacity(10)
            .build()
            .unwrap();
        let placement = SmoothPlacer::default().place(&fleet, &topo).unwrap();
        (fleet, topo, placement)
    }

    #[test]
    fn report_covers_every_week() {
        let (fleet, topo, placement) = setup();
        let config = LongRunConfig {
            weeks: 3,
            ..LongRunConfig::default()
        };
        let report = operate(&fleet, &topo, &placement, &config).unwrap();
        assert_eq!(report.weeks.len(), 3);
        assert!(report.initial_sum_of_peaks > 0.0);
        for (i, w) in report.weeks.iter().enumerate() {
            assert_eq!(w.week as usize, i + 1);
            assert!(w.static_sum_of_peaks > 0.0);
            assert!(w.managed_sum_of_peaks > 0.0);
        }
    }

    #[test]
    fn managed_placement_never_loses_on_average_under_heavy_drift() {
        let (fleet, topo, placement) = setup();
        let config = LongRunConfig {
            weeks: 6,
            drift_fraction: 0.5,
            drift_minutes_sd: 420.0,
            monitor_threshold: 0.01,
            ..LongRunConfig::default()
        };
        let report = operate(&fleet, &topo, &placement, &config).unwrap();
        assert!(
            report.mean_managed_advantage() > -0.01,
            "managed placement fell behind: {:?}",
            report.mean_managed_advantage()
        );
        assert!(
            report.weeks.iter().any(|w| w.flagged),
            "heavy drift never flagged"
        );
    }

    #[test]
    fn zero_drift_never_flags() {
        let (fleet, topo, placement) = setup();
        let config = LongRunConfig {
            weeks: 2,
            drift_fraction: 0.0,
            monitor_threshold: 0.08,
            ..LongRunConfig::default()
        };
        let report = operate(&fleet, &topo, &placement, &config).unwrap();
        assert_eq!(report.total_swaps(), 0);
        assert!(report.weeks.iter().all(|w| !w.flagged));
    }
}
