//! The discrete-time datacenter runtime engine.
//!
//! Steps over an offered-load series, consults a [`ReshapePolicy`] each
//! step, and records the telemetry behind the paper's Figures 12–14:
//! per-LC-server load, LC and Batch throughput, and the total power draw.

use so_faults::{FaultEvent, FaultSchedule};
use so_powertrace::{PowerTrace, SlackProfile, TimeGrid, TraceError};
use so_workloads::OfferedLoad;

use crate::balancer::{route, ServerSlot};
use crate::dvfs::DvfsState;
use crate::error::SimError;
use crate::policy::{ReshapePolicy, StepDecision, StepObservation};
use crate::power::ServerPowerModel;

/// Static configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Permanently-LC servers.
    pub base_lc: usize,
    /// Permanently-Batch servers.
    pub base_batch: usize,
    /// Conversion servers (`e_conv`, storage-disaggregated).
    pub conversion: usize,
    /// Throttle-funded conversion servers (`e_th`).
    pub throttle_funded: usize,
    /// LC server power model.
    pub lc_power: ServerPowerModel,
    /// Batch server power model.
    pub batch_power: ServerPowerModel,
    /// QPS one LC server absorbs at 100% utilization.
    pub qps_per_server: f64,
    /// Guarded per-server load level `L_conv` (QoS holds at or below it).
    pub l_conv: f64,
    /// Root power budget, watts (telemetry reports slack against it).
    pub power_budget_watts: f64,
    /// Utilization Batch servers run at (they are kept busy).
    pub batch_utilization: f64,
    /// Throughput of a conversion/throttle-funded server in Batch mode,
    /// relative to a dedicated Batch server. Opportunistic servers are
    /// bounded by data locality, so they deliver only a fraction of a
    /// dedicated node's work (power draw is the same).
    pub conversion_batch_efficiency: f64,
    /// Spare batch backlog, as a fraction of the dedicated Batch fleet:
    /// at most `ceil(batch_backlog_factor × base_batch)` opportunistic
    /// servers find batch work at any instant; the rest idle. A datacenter
    /// with a small Batch fleet (the paper's DC3) therefore profits less
    /// from conversion servers during off-peak hours.
    pub batch_backlog_factor: f64,
}

impl SimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.base_lc == 0 {
            return Err(SimError::InvalidConfig(
                "at least one base LC server is required",
            ));
        }
        if !(self.qps_per_server.is_finite() && self.qps_per_server > 0.0) {
            return Err(SimError::InvalidConfig("qps_per_server must be positive"));
        }
        if !(self.l_conv.is_finite() && self.l_conv > 0.0 && self.l_conv <= 1.0) {
            return Err(SimError::InvalidConfig("l_conv must lie in (0, 1]"));
        }
        if !(self.power_budget_watts.is_finite() && self.power_budget_watts > 0.0) {
            return Err(SimError::InvalidConfig("power budget must be positive"));
        }
        if !(self.batch_utilization.is_finite() && (0.0..=1.0).contains(&self.batch_utilization)) {
            return Err(SimError::InvalidConfig(
                "batch utilization must lie in [0, 1]",
            ));
        }
        if !(self.conversion_batch_efficiency.is_finite()
            && (0.0..=1.0).contains(&self.conversion_batch_efficiency))
        {
            return Err(SimError::InvalidConfig(
                "conversion batch efficiency must lie in [0, 1]",
            ));
        }
        if !(self.batch_backlog_factor.is_finite() && self.batch_backlog_factor >= 0.0) {
            return Err(SimError::InvalidConfig(
                "batch backlog factor must be non-negative",
            ));
        }
        Ok(())
    }
}

/// A role transition of the conversion pools between two steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConversionEvent {
    /// Step at which the new role split took effect.
    pub step: usize,
    /// Conversion + throttle-funded servers running LC before the step.
    pub lc_before: usize,
    /// Conversion + throttle-funded servers running LC from this step on.
    pub lc_after: usize,
}

/// Recorded series and counters from one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    step_minutes: u32,
    /// Mean per-LC-server load each step (1.0 = fully utilized).
    pub per_lc_server_load: Vec<f64>,
    /// LC queries served each step, QPS.
    pub lc_served_qps: Vec<f64>,
    /// LC queries dropped each step (offered beyond total capacity), QPS.
    pub lc_dropped_qps: Vec<f64>,
    /// Batch work completed each step (server·steps × DVFS factor).
    pub batch_throughput: Vec<f64>,
    /// Total power draw each step, watts.
    pub total_power: Vec<f64>,
    /// Conversion servers running LC each step.
    pub conversion_as_lc: Vec<usize>,
    /// Throttle-funded servers running LC each step.
    pub throttle_funded_as_lc: Vec<usize>,
    /// Batch DVFS state each step.
    pub batch_dvfs: Vec<DvfsState>,
    /// The offered QPS the *policy* observed each step — equal to the
    /// true offered load except under sensor faults.
    pub observed_qps: Vec<f64>,
    /// Whether the telemetry feeding the policy was trustworthy each step
    /// (no sensor dropout or stuck readings active).
    pub sensor_ok: Vec<bool>,
    /// Every fault event of the injected schedule (empty for fault-free
    /// runs).
    pub fault_events: Vec<FaultEvent>,
}

impl Telemetry {
    fn with_capacity(n: usize, step_minutes: u32) -> Self {
        Self {
            step_minutes,
            per_lc_server_load: Vec::with_capacity(n),
            lc_served_qps: Vec::with_capacity(n),
            lc_dropped_qps: Vec::with_capacity(n),
            batch_throughput: Vec::with_capacity(n),
            total_power: Vec::with_capacity(n),
            conversion_as_lc: Vec::with_capacity(n),
            throttle_funded_as_lc: Vec::with_capacity(n),
            batch_dvfs: Vec::with_capacity(n),
            observed_qps: Vec::with_capacity(n),
            sensor_ok: Vec::with_capacity(n),
            fault_events: Vec::new(),
        }
    }

    /// A metric snapshot of the run on the shared registry: the same
    /// numbers the public accessors report, in exportable form. The
    /// accessors below are thin wrappers over this snapshot, so a value
    /// printed by an exporter is bit-identical to the accessor's return.
    pub fn metrics(&self) -> so_telemetry::MetricsRegistry {
        let mut reg = so_telemetry::MetricsRegistry::new();
        reg.counter_add("so_sim_steps_total", &[], self.len() as u64);
        reg.counter_add(
            "so_sim_degraded_steps_total",
            &[],
            self.sensor_ok.iter().filter(|&&ok| !ok).count() as u64,
        );
        reg.counter_add(
            "so_sim_fault_events_total",
            &[],
            self.fault_events.len() as u64,
        );
        reg.counter_add(
            "so_sim_conversion_events_total",
            &[],
            self.conversion_events().len() as u64,
        );
        // These expressions are byte-for-byte the accessors' historical
        // definitions; keeping them verbatim preserves bit-identity (the
        // empty-run peak stays `f64::MIN`, as `peak_of_samples` defines).
        reg.gauge_set(
            "so_sim_total_lc_served",
            &[],
            self.lc_served_qps.iter().sum::<f64>() * self.step_minutes as f64,
        );
        reg.gauge_set(
            "so_sim_total_batch_work",
            &[],
            self.batch_throughput.iter().sum::<f64>() * self.step_minutes as f64,
        );
        reg.gauge_set(
            "so_sim_peak_power_watts",
            &[],
            so_powertrace::peak_of_samples(&self.total_power),
        );
        for &p in &self.total_power {
            reg.observe("so_sim_step_power_watts", &[], p);
        }
        reg
    }

    /// Steps on which the policy ran on degraded telemetry.
    pub fn degraded_steps(&self) -> usize {
        self.metrics().counter("so_sim_degraded_steps_total", &[]) as usize
    }

    /// Number of simulated steps.
    pub fn len(&self) -> usize {
        self.total_power.len()
    }

    /// Whether no steps were simulated.
    pub fn is_empty(&self) -> bool {
        self.total_power.is_empty()
    }

    /// Total LC queries served (QPS · step, arbitrary units).
    pub fn total_lc_served(&self) -> f64 {
        self.metrics()
            .gauge("so_sim_total_lc_served", &[])
            .expect("metrics() always sets this gauge")
    }

    /// Total Batch work completed.
    pub fn total_batch_work(&self) -> f64 {
        self.metrics()
            .gauge("so_sim_total_batch_work", &[])
            .expect("metrics() always sets this gauge")
    }

    /// Peak total power, watts.
    pub fn peak_power(&self) -> f64 {
        self.metrics()
            .gauge("so_sim_peak_power_watts", &[])
            .expect("metrics() always sets this gauge")
    }

    /// Steps on which the mean per-LC-server load exceeded `l_conv`
    /// (QoS-endangered steps).
    pub fn qos_risk_steps(&self, l_conv: f64) -> usize {
        self.per_lc_server_load
            .iter()
            .filter(|&&l| l > l_conv + 1e-9)
            .count()
    }

    /// The total-power series as a [`PowerTrace`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if no steps were simulated.
    pub fn power_trace(&self) -> Result<PowerTrace, TraceError> {
        PowerTrace::new(self.total_power.clone(), self.step_minutes)
    }

    /// Role transitions of the conversion pools over the run — each event
    /// is a batch↔LC conversion of some number of servers (instantaneous
    /// on storage-disaggregated hardware).
    pub fn conversion_events(&self) -> Vec<ConversionEvent> {
        let mut events = Vec::new();
        let mut prev = 0usize;
        for step in 0..self.len() {
            let now = self.conversion_as_lc[step] + self.throttle_funded_as_lc[step];
            if step > 0 && now != prev {
                events.push(ConversionEvent {
                    step,
                    lc_before: prev,
                    lc_after: now,
                });
            }
            prev = now;
        }
        events
    }

    /// Slack profile of the run against a budget.
    ///
    /// # Errors
    ///
    /// Propagates trace errors.
    pub fn slack(&self, budget_watts: f64) -> Result<SlackProfile, TraceError> {
        SlackProfile::new(&self.power_trace()?, budget_watts)
    }
}

/// Runs the simulation over the offered load, consulting `policy` each
/// step.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for bad configurations and
/// [`SimError::EmptyLoad`] for an empty load series.
pub fn simulate(
    config: &SimConfig,
    load: &OfferedLoad,
    policy: &mut dyn ReshapePolicy,
) -> Result<Telemetry, SimError> {
    let schedule = FaultSchedule::empty(load.len(), 1);
    simulate_with_faults(config, load, policy, &schedule)
}

/// Runs the simulation under an injected fault schedule.
///
/// Fault semantics, per step:
///
/// * **sensor dropout / stuck sensors** degrade only what the policy
///   *observes*: dropped sensors read as zero load and stuck sensors
///   repeat the previous step's reading, so `observed_qps` under-reports
///   while routing still serves the true offered load.
///   [`StepObservation::sensor_ok`] is lowered so fault-aware policies
///   (e.g. [`FailSafe`](crate::policy::FailSafe)) can hold a safe
///   decision;
/// * **instance crashes** remove the crashed fraction of the base LC
///   fleet from service (capacity and power);
/// * **breaker trips** de-energize a `severity` fraction of the fleet
///   uniformly: per-server LC capacity, batch throughput, and power all
///   scale by `1 − severity` while the trip is active (§5's transient
///   trips, survived without operator action).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for bad configurations or when the
/// schedule covers a different number of steps than the load, and
/// [`SimError::EmptyLoad`] for an empty load series.
pub fn simulate_with_faults(
    config: &SimConfig,
    load: &OfferedLoad,
    policy: &mut dyn ReshapePolicy,
    schedule: &FaultSchedule,
) -> Result<Telemetry, SimError> {
    // The whole run is serial, so spans and counters are both safe here.
    let _span = so_telemetry::span("sim");
    config.validate()?;
    if load.is_empty() {
        return Err(SimError::EmptyLoad);
    }
    if schedule.n_steps() != load.len() {
        return Err(SimError::InvalidConfig(
            "fault schedule must cover exactly the load series",
        ));
    }
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_sim_runs_total", &[], 1);
        so_telemetry::counter_add(
            "so_sim_fault_events_total",
            &[],
            schedule.events().len() as u64,
        );
    }

    let n = load.len();
    let timeline = schedule.timeline();
    let mut telemetry = Telemetry::with_capacity(n, load.step_minutes());
    telemetry.fault_events = schedule.events().to_vec();
    let mut prev_lc_load = 0.0f64;
    let mut prev_offered = 0.0f64;

    for t in 0..n {
        let offered = load.qps_at(t);
        let dropout = timeline.dropout_frac[t].min(1.0);
        let stuck = timeline.stuck_frac[t].min(1.0 - dropout);
        let crashed = timeline.crashed_frac[t];
        // Fraction of fleet capacity still energized under active trips.
        let energized = (1.0 - timeline.trip_derate[t]).max(f64::EPSILON);

        let sensor_ok = dropout + stuck == 0.0;
        // Dropped sensors report nothing (reads as zero load); stuck
        // sensors repeat the previous step's reading.
        let observed = offered * (1.0 - dropout - stuck) + prev_offered * stuck;

        let observation = StepObservation {
            t,
            offered_qps: observed,
            base_lc: config.base_lc,
            conversion: config.conversion,
            throttle_funded: config.throttle_funded,
            qps_per_server: config.qps_per_server,
            l_conv: config.l_conv,
            prev_lc_load,
            sensor_ok,
        };
        let decision = clamp_decision(policy.decide(&observation), config);

        // Crashed instances leave the base LC fleet entirely (at least one
        // server always survives — the balancer needs a slot to route to).
        let crashed_lc = ((crashed * config.base_lc as f64).round() as usize)
            .min(config.base_lc.saturating_sub(1));
        let lc_active = config.base_lc - crashed_lc
            + decision.conversion_as_lc
            + decision.throttle_funded_as_lc;
        let opportunistic_batch = (config.conversion - decision.conversion_as_lc)
            + (config.throttle_funded - decision.throttle_funded_as_lc);
        // Only as many opportunistic servers as the batch backlog feeds
        // actually work; the rest idle at idle power.
        let backlog_slots =
            (config.batch_backlog_factor * config.base_batch as f64).ceil() as usize;
        let working_opportunistic = opportunistic_batch.min(backlog_slots);
        let idle_opportunistic = opportunistic_batch - working_opportunistic;

        // Route the *true* offered load through the guarded-level balancer
        // (all servers share one capacity class in this aggregate model);
        // an active trip derates every server's usable capacity.
        let slots = vec![ServerSlot::new(config.qps_per_server * energized); lc_active];
        let routing = route(offered, &slots, config.l_conv);
        let served = routing.served_qps;
        let dropped = routing.dropped_qps;
        let lc_load = routing.loads[0];

        let batch_work = energized
            * (config.base_batch as f64
                + working_opportunistic as f64 * config.conversion_batch_efficiency)
            * decision.batch_dvfs.throughput_factor();

        let lc_power =
            energized * lc_active as f64 * config.lc_power.power(lc_load, DvfsState::Nominal);
        let batch_power = energized
            * ((config.base_batch + working_opportunistic) as f64
                * config
                    .batch_power
                    .power(config.batch_utilization, decision.batch_dvfs)
                + idle_opportunistic as f64 * config.lc_power.power(0.0, DvfsState::Nominal));

        if so_telemetry::enabled() {
            let step_power = lc_power + batch_power;
            so_telemetry::counter_add("so_sim_steps_total", &[], 1);
            so_telemetry::counter_add(
                "so_sim_dvfs_steps_total",
                &[("state", dvfs_label(decision.batch_dvfs))],
                1,
            );
            if decision.conversion_as_lc > 0 {
                so_telemetry::counter_add("so_sim_conversion_lc_steps_total", &[], 1);
            }
            if decision.throttle_funded_as_lc > 0 {
                so_telemetry::counter_add("so_sim_throttle_funded_lc_steps_total", &[], 1);
            }
            if !sensor_ok {
                so_telemetry::counter_add("so_sim_degraded_steps_total", &[], 1);
            }
            if dropped > 0.0 {
                so_telemetry::counter_add("so_sim_dropped_load_steps_total", &[], 1);
            }
            so_telemetry::observe("so_sim_step_power_watts", &[], step_power);
            if config.power_budget_watts.is_finite() {
                so_telemetry::observe(
                    "so_sim_step_headroom_watts",
                    &[],
                    config.power_budget_watts - step_power,
                );
            }
        }

        telemetry.per_lc_server_load.push(lc_load);
        telemetry.lc_served_qps.push(served);
        telemetry.lc_dropped_qps.push(dropped);
        telemetry.batch_throughput.push(batch_work);
        telemetry.total_power.push(lc_power + batch_power);
        telemetry.conversion_as_lc.push(decision.conversion_as_lc);
        telemetry
            .throttle_funded_as_lc
            .push(decision.throttle_funded_as_lc);
        telemetry.batch_dvfs.push(decision.batch_dvfs);
        telemetry.observed_qps.push(observed);
        telemetry.sensor_ok.push(sensor_ok);

        prev_lc_load = lc_load;
        prev_offered = offered;
    }
    Ok(telemetry)
}

/// Canonical label value for a DVFS state in exported metrics.
fn dvfs_label(state: DvfsState) -> &'static str {
    match state {
        DvfsState::Throttled => "throttled",
        DvfsState::Nominal => "nominal",
        DvfsState::Boosted => "boosted",
    }
}

fn clamp_decision(decision: StepDecision, config: &SimConfig) -> StepDecision {
    StepDecision {
        conversion_as_lc: decision.conversion_as_lc.min(config.conversion),
        throttle_funded_as_lc: decision.throttle_funded_as_lc.min(config.throttle_funded),
        batch_dvfs: decision.batch_dvfs,
    }
}

/// A convenient default configuration used by tests and examples: the
/// caller supplies the server counts and budget.
pub fn default_config(
    base_lc: usize,
    base_batch: usize,
    conversion: usize,
    throttle_funded: usize,
    power_budget_watts: f64,
) -> SimConfig {
    SimConfig {
        base_lc,
        base_batch,
        conversion,
        throttle_funded,
        lc_power: ServerPowerModel::lc_default(),
        batch_power: ServerPowerModel::batch_default(),
        qps_per_server: 100.0,
        l_conv: 0.8,
        power_budget_watts,
        batch_utilization: 0.95,
        conversion_batch_efficiency: 0.5,
        batch_backlog_factor: 0.15,
    }
}

/// The grid an [`OfferedLoad`] over one week at the given step implies —
/// a convenience for building loads that match the simulation length.
pub fn one_week_grid(step_minutes: u32) -> TimeGrid {
    TimeGrid::one_week(step_minutes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;

    fn load() -> OfferedLoad {
        OfferedLoad::diurnal(TimeGrid::one_week(60), 1000.0, 0.0, 1)
    }

    #[test]
    fn telemetry_covers_every_step() {
        let config = default_config(10, 5, 0, 0, 10_000.0);
        let t = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        assert_eq!(t.len(), 168);
        assert!(!t.is_empty());
        assert!(t.total_power.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn undersized_fleet_drops_queries() {
        // 5 servers × 100 qps = 500 capacity < 1000 peak.
        let config = default_config(5, 0, 0, 0, 10_000.0);
        let t = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        assert!(t.lc_dropped_qps.iter().any(|&d| d > 0.0));
        assert!(t.qos_risk_steps(config.l_conv) > 0);
    }

    #[test]
    fn extra_lc_servers_raise_served_load() {
        let small = default_config(8, 0, 0, 0, 10_000.0);
        let big = default_config(12, 0, 0, 0, 10_000.0);
        let ts = simulate(&small, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        let tb = simulate(&big, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        assert!(tb.total_lc_served() > ts.total_lc_served());
    }

    #[test]
    fn static_lc_policy_keeps_conversion_servers_lc() {
        let config = default_config(10, 5, 3, 0, 10_000.0);
        let t = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        assert!(t.conversion_as_lc.iter().all(|&c| c == 3));
        // Batch throughput comes from the 5 base servers only.
        assert!(t.batch_throughput.iter().all(|&b| (b - 5.0).abs() < 1e-9));
    }

    #[test]
    fn decisions_are_clamped() {
        struct Greedy;
        impl ReshapePolicy for Greedy {
            fn decide(&mut self, _: &StepObservation) -> StepDecision {
                StepDecision {
                    conversion_as_lc: 999,
                    throttle_funded_as_lc: 999,
                    batch_dvfs: DvfsState::Nominal,
                }
            }
        }
        let config = default_config(10, 5, 3, 2, 10_000.0);
        let t = simulate(&config, &load(), &mut Greedy).unwrap();
        assert!(t.conversion_as_lc.iter().all(|&c| c <= 3));
        assert!(t.throttle_funded_as_lc.iter().all(|&c| c <= 2));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = default_config(0, 5, 0, 0, 10_000.0);
        assert!(simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).is_err());
        config = default_config(5, 5, 0, 0, -1.0);
        assert!(config.validate().is_err());
        config = default_config(5, 5, 0, 0, 1.0);
        config.l_conv = 1.5;
        assert!(config.validate().is_err());
    }

    #[test]
    fn conversion_events_capture_role_flips() {
        struct TwoPhase;
        impl ReshapePolicy for TwoPhase {
            fn decide(&mut self, o: &StepObservation) -> StepDecision {
                StepDecision {
                    conversion_as_lc: if o.t < 3 { 0 } else { 2 },
                    throttle_funded_as_lc: 0,
                    batch_dvfs: DvfsState::Nominal,
                }
            }
        }
        let config = default_config(10, 5, 2, 0, 10_000.0);
        let t = simulate(&config, &load(), &mut TwoPhase).unwrap();
        let events = t.conversion_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].step, 3);
        assert_eq!(events[0].lc_before, 0);
        assert_eq!(events[0].lc_after, 2);
    }

    #[test]
    fn fault_free_run_reports_clean_telemetry() {
        let config = default_config(10, 5, 0, 0, 10_000.0);
        let t = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        assert!(t.sensor_ok.iter().all(|&ok| ok));
        assert_eq!(t.degraded_steps(), 0);
        assert!(t.fault_events.is_empty());
        // The policy observed exactly the true offered load.
        let l = load();
        for step in 0..t.len() {
            assert_eq!(t.observed_qps[step], l.qps_at(step));
        }
    }

    #[test]
    fn dropout_degrades_observations_but_not_reality() {
        use so_faults::FaultSpec;
        let spec = FaultSpec::parse("seed=5,dropout=1,stuck=0,crash=0,trips=0").unwrap();
        let schedule = FaultSchedule::generate(&spec, 168, 1);
        let config = default_config(10, 5, 0, 0, 10_000.0);
        let faulty = simulate_with_faults(
            &config,
            &load(),
            &mut StaticPolicy { as_lc: true },
            &schedule,
        )
        .unwrap();
        assert!(faulty.degraded_steps() > 0);
        assert!(!faulty.fault_events.is_empty());
        // With the whole (single-instance) population dropped out, the
        // policy observes zero load during the fault window...
        let degraded_step = faulty.sensor_ok.iter().position(|&ok| !ok).unwrap();
        assert_eq!(faulty.observed_qps[degraded_step], 0.0);
        // ...but serving follows the true load: identical to a clean run
        // under a static policy (which ignores observations).
        let clean = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        assert_eq!(faulty.lc_served_qps, clean.lc_served_qps);
        assert_eq!(faulty.total_power, clean.total_power);
    }

    #[test]
    fn breaker_trip_derates_capacity_and_power() {
        use so_faults::{FaultKind, FaultSpec};
        let spec = FaultSpec::parse(
            "seed=9,dropout=0,stuck=0,crash=0,trips=1,trip-steps=5,trip-severity=0.5",
        )
        .unwrap();
        let schedule = FaultSchedule::generate(&spec, 168, 1);
        let config = default_config(10, 5, 0, 0, 10_000.0);
        let faulty = simulate_with_faults(
            &config,
            &load(),
            &mut StaticPolicy { as_lc: true },
            &schedule,
        )
        .unwrap();
        let clean = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        let trip = schedule
            .events_of(FaultKind::BreakerTrip)
            .next()
            .copied()
            .unwrap();
        for step in trip.start..trip.end() {
            assert!(
                faulty.total_power[step] < clean.total_power[step],
                "step {step} should draw less power during the trip"
            );
            assert!(faulty.batch_throughput[step] < clean.batch_throughput[step]);
            // Sensors are fine during a trip — only capacity is derated.
            assert!(faulty.sensor_ok[step]);
        }
        for step in 0..168 {
            if !trip.active_at(step) {
                assert_eq!(faulty.total_power[step], clean.total_power[step]);
            }
        }
    }

    #[test]
    fn crashes_reduce_serving_capacity() {
        use so_faults::FaultSpec;
        let spec =
            FaultSpec::parse("seed=3,dropout=0,stuck=0,crash=1,trips=0,mean-steps=20").unwrap();
        let schedule = FaultSchedule::generate(&spec, 168, 1);
        // 5 servers × 100 qps barely misses the 1000-qps peak already;
        // crashing the whole base fleet (bar the last survivor) must drop
        // strictly more queries than the clean run.
        let config = default_config(5, 0, 0, 0, 10_000.0);
        let faulty = simulate_with_faults(
            &config,
            &load(),
            &mut StaticPolicy { as_lc: true },
            &schedule,
        )
        .unwrap();
        let clean = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        let faulty_dropped: f64 = faulty.lc_dropped_qps.iter().sum();
        let clean_dropped: f64 = clean.lc_dropped_qps.iter().sum();
        assert!(faulty_dropped > clean_dropped);
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        let config = default_config(10, 5, 0, 0, 10_000.0);
        let schedule = FaultSchedule::empty(99, 1);
        let err = simulate_with_faults(
            &config,
            &load(),
            &mut StaticPolicy { as_lc: true },
            &schedule,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn fail_safe_policy_survives_dropout_without_conversion_flap() {
        use crate::policy::FailSafe;
        use so_faults::FaultSpec;

        // A load-following policy: converts when the observed load
        // exceeds the guard, releases otherwise.
        #[derive(Debug, Default, Clone, Copy)]
        struct Follower;
        impl ReshapePolicy for Follower {
            fn decide(&mut self, o: &StepObservation) -> StepDecision {
                let needs = o.base_lc_load() > o.l_conv;
                StepDecision {
                    conversion_as_lc: if needs { o.conversion } else { 0 },
                    throttle_funded_as_lc: 0,
                    batch_dvfs: DvfsState::Nominal,
                }
            }
        }

        let spec =
            FaultSpec::parse("seed=8,dropout=1,stuck=0,crash=0,trips=0,mean-steps=30").unwrap();
        let schedule = FaultSchedule::generate(&spec, 168, 1);
        let config = default_config(8, 5, 4, 0, 10_000.0);

        // Naked follower: during the dropout it sees zero load and
        // releases its conversion servers even if the true load is high.
        let naked = simulate_with_faults(&config, &load(), &mut Follower, &schedule).unwrap();
        // FailSafe holds the last trustworthy decision through the window.
        let safe = simulate_with_faults(&config, &load(), &mut FailSafe::new(Follower), &schedule)
            .unwrap();

        let window: Vec<usize> = (0..168).filter(|&t| !safe.sensor_ok[t]).collect();
        assert!(!window.is_empty());
        for &t in &window {
            assert_eq!(naked.conversion_as_lc[t], 0, "naked follower flaps at {t}");
        }
        // The wrapped policy never serves less than the naked one.
        assert!(safe.total_lc_served() >= naked.total_lc_served());
    }

    #[test]
    fn slack_is_reported_against_budget() {
        let config = default_config(10, 5, 0, 0, 10_000.0);
        let t = simulate(&config, &load(), &mut StaticPolicy { as_lc: true }).unwrap();
        let slack = t.slack(10_000.0).unwrap();
        assert!(slack.mean_slack() > 0.0);
        assert!(!slack.has_overdraw());
    }
}
