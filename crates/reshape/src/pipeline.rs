//! The end-to-end SmoothOperator pipeline: placement → headroom → extra
//! servers → runtime reshaping.
//!
//! This is the experiment behind Figures 12–14: derive the workload-aware
//! placement, measure the unlocked leaf-level headroom, size the
//! conversion-server pools, and run the test week under each policy tier
//! (pre-optimization, LC-only addition, server conversion, and conversion
//! plus proactive throttling/boosting).

use so_baselines::oblivious_placement;
use so_core::{PlacementConfig, SmoothPlacer};
use so_powertrace::{off_peak_mask, slack_reduction, PowerTrace};
use so_powertree::{Level, NodeAggregates, PowerTopology};
use so_sim::{simulate, ServerPowerModel, SimConfig, StaticPolicy, Telemetry};
use so_workloads::{DcScenario, Fleet, OfferedLoad, WorkKind};

use crate::capacity::{
    peak_provisioned_budgets, plan_conversion_capacity, throttle_funded_capacity,
};
use crate::conversion::{ConversionPolicy, ThrottleBoostPolicy};
use crate::error::ReshapeError;
use crate::threshold::learn_conversion_threshold;

/// Tuning knobs of the end-to-end pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Placement engine configuration.
    pub placement: PlacementConfig,
    /// QPS one LC server absorbs at full utilization.
    pub qps_per_server: f64,
    /// Quantile used when learning `L_conv` from the training week.
    pub l_conv_quantile: f64,
    /// Relative noise on the offered load.
    pub load_noise_sd: f64,
    /// Seed for offered-load noise.
    pub load_seed: u64,
    /// Utilization the base LC fleet reaches at the training peak.
    pub design_peak_load: f64,
    /// Fraction of throttle-released Batch power that is co-located with
    /// free rack slots and safety margin, hence usable to fund `e_th`.
    pub throttle_funding_fraction: f64,
    /// Fraction of the root budget the pre-optimization peak uses (peak
    /// provisioning keeps a safety margin below the breaker limit).
    pub budget_peak_utilization: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            placement: PlacementConfig::default(),
            qps_per_server: 100.0,
            l_conv_quantile: 0.995,
            load_noise_sd: 0.02,
            load_seed: 0xD0_0D,
            design_peak_load: 0.8,
            throttle_funding_fraction: 0.25,
            budget_peak_utilization: 0.92,
        }
    }
}

/// Everything the pipeline measured for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (DC1/DC2/DC3).
    pub name: String,
    /// Relative sum-of-peaks reduction at the RPP level on the test week.
    pub rpp_peak_reduction: f64,
    /// Relative sum-of-peaks reduction per level, root first.
    pub peak_reduction_by_level: Vec<(Level, f64)>,
    /// Conversion servers the unlocked headroom hosts (`e_conv`).
    pub extra_conversion: usize,
    /// Throttle-funded servers (`e_th`).
    pub extra_throttle_funded: usize,
    /// Learned conversion threshold.
    pub l_conv: f64,
    /// Permanently-LC servers.
    pub base_lc: usize,
    /// Permanently-Batch servers.
    pub base_batch: usize,
    /// Root power budget used for slack accounting, watts.
    pub budget_watts: f64,
    /// Pre-optimization run (original fleet, original traffic).
    pub pre: Telemetry,
    /// Extra servers pinned to LC (§4.1's strawman).
    pub lc_only: Telemetry,
    /// Server conversion (§4.2).
    pub conversion: Telemetry,
    /// Conversion plus proactive throttling and boosting.
    pub throttle_boost: Telemetry,
    /// Off-peak mask (from the offered load) for off-peak slack accounting.
    off_peak: Vec<bool>,
}

impl ScenarioOutcome {
    /// Relative LC-throughput improvement of a run over the
    /// pre-optimization run.
    pub fn lc_improvement(&self, run: &Telemetry) -> f64 {
        run.total_lc_served() / self.pre.total_lc_served() - 1.0
    }

    /// Relative Batch-throughput improvement of a run over the
    /// pre-optimization run.
    pub fn batch_improvement(&self, run: &Telemetry) -> f64 {
        let before = self.pre.total_batch_work();
        if before == 0.0 {
            return 0.0;
        }
        run.total_batch_work() / before - 1.0
    }

    /// Average energy-slack reduction of a run vs the pre-optimization run
    /// (Figure 14, left bars).
    ///
    /// # Errors
    ///
    /// Propagates trace errors.
    pub fn avg_slack_reduction(&self, run: &Telemetry) -> Result<f64, ReshapeError> {
        let before = self.pre.slack(self.budget_watts)?;
        let after = run.slack(self.budget_watts)?;
        Ok(slack_reduction(&before, &after))
    }

    /// Off-peak-hours energy-slack reduction (Figure 14, right bars).
    ///
    /// # Errors
    ///
    /// Propagates trace errors.
    pub fn off_peak_slack_reduction(&self, run: &Telemetry) -> Result<f64, ReshapeError> {
        let before = self
            .pre
            .slack(self.budget_watts)?
            .masked_energy_slack(&self.off_peak)?;
        let after = run
            .slack(self.budget_watts)?
            .masked_energy_slack(&self.off_peak)?;
        if before == 0.0 {
            return Ok(0.0);
        }
        Ok((before - after) / before)
    }
}

/// Runs the full pipeline for one scenario on one topology.
///
/// # Errors
///
/// Propagates placement, planning, and simulation errors;
/// [`ReshapeError::NoLcInstances`] when the scenario has no LC services.
pub fn run_scenario(
    scenario: &DcScenario,
    n_instances: usize,
    topology: &PowerTopology,
    config: &PipelineConfig,
) -> Result<ScenarioOutcome, ReshapeError> {
    let fleet = scenario.generate_fleet(n_instances)?;
    run_fleet(
        scenario.name.clone(),
        &fleet,
        scenario.baseline_mixing,
        topology,
        config,
    )
}

/// Runs the pipeline on an already-generated fleet.
///
/// # Errors
///
/// Same as [`run_scenario`].
fn run_fleet(
    name: String,
    fleet: &Fleet,
    baseline_mixing: f64,
    topology: &PowerTopology,
    config: &PipelineConfig,
) -> Result<ScenarioOutcome, ReshapeError> {
    // 1. Placements: historical (oblivious) vs workload-aware.
    let before = oblivious_placement(fleet, topology, baseline_mixing, 0xB4_5E)?;
    let after = SmoothPlacer::new(config.placement).place(fleet, topology)?;

    // 2. Peak reductions on the held-out test week.
    let test = fleet.test_traces();
    let agg_before = NodeAggregates::compute(topology, &before, test)?;
    let agg_after = NodeAggregates::compute(topology, &after, test)?;
    let peak_reduction_by_level: Vec<(Level, f64)> = Level::ALL
        .iter()
        .map(|&level| {
            let b = agg_before.sum_of_peaks(topology, level);
            let a = agg_after.sum_of_peaks(topology, level);
            (level, so_powertrace::peak_reduction(b, a))
        })
        .collect();
    let rpp_peak_reduction = peak_reduction_by_level
        .iter()
        .find(|(l, _)| *l == Level::Rpp)
        .map(|(_, r)| *r)
        .expect("Level::ALL contains Rpp");

    // 3. Extra capacity inside headroom the placement unlocked (the
    //    infrastructure stays provisioned for the old placement's peaks).
    let lc_model = ServerPowerModel::lc_default();
    let batch_model = ServerPowerModel::batch_default();
    let budgets = peak_provisioned_budgets(topology, &agg_before)?;
    // A new server is charged its *peak-time contribution*: the average
    // per-server share of the rack aggregate peaks under the historical
    // placement. This matches the paper's accounting, where the leaf-level
    // peak reduction "directly translates to the percentage of extra
    // servers that can be hosted" — an added server behaves like an average
    // server of its rack, not like a server pinned at nameplate peak.
    let rpp_budget_total: f64 = topology
        .nodes_at_level(Level::Rpp)
        .iter()
        .map(|&r| agg_before.peak(r))
        .sum::<Result<f64, _>>()?;
    let per_server_charge = (rpp_budget_total / fleet.len() as f64).max(1.0);
    let extra_conversion =
        plan_conversion_capacity(topology, &after, &agg_after, &budgets, per_server_charge)?;

    let base_lc = fleet.instances_of_kind(WorkKind::LatencyCritical).len();
    let base_batch = fleet.instances_of_kind(WorkKind::Batch).len();
    if base_lc == 0 {
        return Err(ReshapeError::NoLcInstances);
    }
    let throttled = so_sim::DvfsState::Throttled;
    let extra_throttle_funded = throttle_funded_capacity(
        base_batch,
        batch_model.peak_watts,
        throttled.power_factor(),
        config.throttle_funding_fraction,
        lc_model.peak_watts,
    )?;

    // 4. Offered loads: the training week sizes L_conv; the test week runs
    //    the policies. Post-optimization traffic grows with capacity.
    let grid = fleet.grid();
    let design_peak_qps = base_lc as f64 * config.qps_per_server * config.design_peak_load;
    let train_load = OfferedLoad::diurnal(grid, design_peak_qps, 0.0, config.load_seed ^ 1);
    let l_conv = learn_conversion_threshold(
        &train_load,
        base_lc,
        config.qps_per_server,
        config.l_conv_quantile,
    )?;
    let pre_load = OfferedLoad::diurnal(
        grid,
        design_peak_qps,
        config.load_noise_sd,
        config.load_seed,
    );
    // Traffic grows in proportion to the whole machine count ("we are able
    // to host up to 13% more machines ... to trade for up to 13% LC
    // throughput"), not to the LC sub-fleet alone.
    let fleet_size = fleet.len() as f64;
    let growth_conv = (fleet_size + extra_conversion as f64) / fleet_size;
    let growth_th = (fleet_size + (extra_conversion + extra_throttle_funded) as f64) / fleet_size;
    let conv_load = pre_load.scaled(growth_conv);
    let th_load = pre_load.scaled(growth_th);

    // 5. The four runs.
    let make_config = |conversion: usize, throttle_funded: usize| SimConfig {
        base_lc,
        base_batch,
        conversion,
        throttle_funded,
        lc_power: lc_model,
        batch_power: batch_model,
        qps_per_server: config.qps_per_server,
        l_conv,
        power_budget_watts: 1.0, // replaced below once the budget is known
        batch_utilization: 0.95,
        conversion_batch_efficiency: 0.5,
        batch_backlog_factor: 0.15,
    };

    let pre = simulate(
        &make_config(0, 0),
        &pre_load,
        &mut StaticPolicy { as_lc: true },
    )?;
    let budget_watts = pre.peak_power() / config.budget_peak_utilization;

    let lc_only = simulate(
        &make_config(extra_conversion, 0),
        &conv_load,
        &mut StaticPolicy { as_lc: true },
    )?;
    let conversion = simulate(
        &make_config(extra_conversion, 0),
        &conv_load,
        &mut ConversionPolicy::default(),
    )?;
    let throttle_boost = simulate(
        &make_config(extra_conversion, extra_throttle_funded),
        &th_load,
        &mut ThrottleBoostPolicy::default(),
    )?;

    // Off-peak mask from the clean diurnal shape.
    let activity = PowerTrace::new(so_workloads::activity_series(grid), grid.step_minutes())?;
    let off_peak = off_peak_mask(&activity, 0.5)?;

    Ok(ScenarioOutcome {
        name,
        rpp_peak_reduction,
        peak_reduction_by_level,
        extra_conversion,
        extra_throttle_funded,
        l_conv,
        base_lc,
        base_batch,
        budget_watts,
        pre,
        lc_only,
        conversion,
        throttle_boost,
        off_peak,
    })
}

/// A topology sized to host `n` instances with `slack_slots` spare rack
/// slots per rack, convenient for pipeline runs.
///
/// # Errors
///
/// Propagates builder errors.
pub fn fitting_topology(n: usize, rack_capacity: usize) -> Result<PowerTopology, ReshapeError> {
    // Shape: 1 suite × 2 MSB × 2 SB × r RPPs × 4 racks, choosing r so the
    // capacity covers n.
    let racks_needed = n.div_ceil(rack_capacity);
    let rpps = racks_needed.div_ceil(2 * 2 * 4).max(1);
    Ok(PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(rpps)
        .racks_per_rpp(4)
        .rack_capacity(rack_capacity)
        .build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_improves_both_throughputs() {
        let scenario = DcScenario::dc2();
        let topo = fitting_topology(160, 12).unwrap();
        let outcome = run_scenario(&scenario, 160, &topo, &PipelineConfig::default()).unwrap();

        assert!(
            outcome.rpp_peak_reduction > 0.0,
            "rpp reduction {}",
            outcome.rpp_peak_reduction
        );
        assert!(
            outcome.extra_conversion > 0,
            "no conversion servers unlocked"
        );

        let lc_gain = outcome.lc_improvement(&outcome.conversion);
        let batch_gain = outcome.batch_improvement(&outcome.conversion);
        assert!(lc_gain > 0.0, "conversion LC gain {lc_gain}");
        assert!(batch_gain > 0.0, "conversion batch gain {batch_gain}");

        // LC-only pins the extra servers to LC: batch sees nothing.
        let lc_only_batch = outcome.batch_improvement(&outcome.lc_only);
        assert!(
            lc_only_batch.abs() < 1e-9,
            "lc-only batch gain {lc_only_batch}"
        );

        // Throttle+boost reaches at least the conversion LC gain.
        let tb_lc = outcome.lc_improvement(&outcome.throttle_boost);
        assert!(tb_lc >= lc_gain - 1e-9, "tb {tb_lc} vs conv {lc_gain}");
    }

    #[test]
    fn pipeline_reduces_slack() {
        let scenario = DcScenario::dc1();
        let topo = fitting_topology(120, 12).unwrap();
        let outcome = run_scenario(&scenario, 120, &topo, &PipelineConfig::default()).unwrap();
        let avg = outcome
            .avg_slack_reduction(&outcome.throttle_boost)
            .unwrap();
        let off_peak = outcome
            .off_peak_slack_reduction(&outcome.throttle_boost)
            .unwrap();
        assert!(avg > 0.0, "avg slack reduction {avg}");
        assert!(off_peak > 0.0, "off-peak slack reduction {off_peak}");
    }

    #[test]
    fn throttle_boost_respects_the_power_budget() {
        // The throttling that funds e_th must keep the total draw at or
        // under the budget (tiny noise-driven excursions tolerated).
        for scenario in DcScenario::all() {
            let topo = fitting_topology(160, 12).unwrap();
            let outcome = run_scenario(&scenario, 160, &topo, &PipelineConfig::default()).unwrap();
            let peak = outcome.throttle_boost.peak_power();
            assert!(
                peak <= outcome.budget_watts * 1.01,
                "{}: throttle/boost peak {peak} overdraws budget {}",
                scenario.name,
                outcome.budget_watts
            );
        }
    }

    #[test]
    fn fitting_topology_covers_fleet() {
        for n in [10, 100, 500, 1000] {
            let t = fitting_topology(n, 10).unwrap();
            assert!(t.server_capacity() >= n);
        }
    }
}
