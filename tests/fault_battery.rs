//! The fault battery: end-to-end robustness runs combining sensor
//! dropout, stuck sensors, instance crashes, and breaker trips, checking
//! that the runtime completes cleanly, reports every injected event in
//! telemetry, and stays bit-identical between serial and parallel
//! execution for the same fault seed.

use so_faults::{FaultKind, FaultSchedule, FaultSpec};
use so_parallel::{serial_scope, set_thread_limit};
use so_reshape::ThrottleBoostPolicy;
use so_sim::{
    default_config, one_week_grid, simulate_with_faults, FailSafe, StaticPolicy, Telemetry,
};
use so_workloads::OfferedLoad;

fn battery_spec() -> FaultSpec {
    FaultSpec::parse("seed=7,dropout=0.6,stuck=0.3,crash=0.2,trips=2,trip-severity=0.3").unwrap()
}

fn run_battery(spec: &FaultSpec) -> Telemetry {
    let grid = one_week_grid(60);
    let load = OfferedLoad::diurnal(grid, 2_400.0, 0.0, 11);
    let config = default_config(20, 30, 8, 4, 40_000.0);
    let schedule = FaultSchedule::generate(spec, load.len(), config.base_lc);
    let mut policy = FailSafe::new(ThrottleBoostPolicy::default());
    simulate_with_faults(&config, &load, &mut policy, &schedule).expect("faulted run completes")
}

#[test]
fn faulted_week_completes_and_reports_events() {
    let telemetry = run_battery(&battery_spec());

    // The injected events surface in telemetry, with both sensor and
    // breaker families present at this severity.
    assert!(!telemetry.fault_events.is_empty());
    assert!(telemetry
        .fault_events
        .iter()
        .any(|e| e.kind == FaultKind::SensorDropout));
    assert!(telemetry
        .fault_events
        .iter()
        .any(|e| e.kind == FaultKind::BreakerTrip));
    assert!(telemetry.degraded_steps() > 0, "no step saw a sensor fault");
    assert!(
        telemetry.degraded_steps() < telemetry.len(),
        "faults never clear"
    );

    // Nothing in the outputs is NaN, infinite, or negative.
    for t in 0..telemetry.len() {
        for v in [
            telemetry.per_lc_server_load[t],
            telemetry.lc_served_qps[t],
            telemetry.lc_dropped_qps[t],
            telemetry.batch_throughput[t],
            telemetry.total_power[t],
            telemetry.observed_qps[t],
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "bad telemetry value {v} at step {t}"
            );
        }
    }
    // Observed load under dropout under-reports the true offered load at
    // least somewhere.
    let observed: f64 = telemetry.observed_qps.iter().sum();
    let served_plus_dropped: f64 = telemetry
        .lc_served_qps
        .iter()
        .zip(&telemetry.lc_dropped_qps)
        .map(|(s, d)| s + d)
        .sum();
    assert!(
        observed < served_plus_dropped,
        "sensor faults should under-report: observed {observed} vs true {served_plus_dropped}"
    );
}

#[test]
fn faulted_run_is_bit_identical_across_thread_counts() {
    let spec = battery_spec();
    let serial = serial_scope(|| run_battery(&spec));

    set_thread_limit(4);
    let wide = run_battery(&spec);
    set_thread_limit(1);
    let narrow = run_battery(&spec);
    set_thread_limit(usize::MAX);
    let unbounded = run_battery(&spec);

    assert_eq!(serial, wide);
    assert_eq!(serial, narrow);
    assert_eq!(serial, unbounded);
}

#[test]
fn fault_free_schedule_changes_nothing() {
    let grid = one_week_grid(60);
    let load = OfferedLoad::diurnal(grid, 2_400.0, 0.0, 11);
    let config = default_config(20, 30, 8, 4, 40_000.0);

    let empty = FaultSchedule::empty(load.len(), config.base_lc);
    let mut p1 = StaticPolicy { as_lc: false };
    let via_faults = simulate_with_faults(&config, &load, &mut p1, &empty).unwrap();
    let mut p2 = StaticPolicy { as_lc: false };
    let direct = so_sim::simulate(&config, &load, &mut p2).unwrap();

    assert_eq!(via_faults.total_power, direct.total_power);
    assert_eq!(via_faults.lc_served_qps, direct.lc_served_qps);
    assert_eq!(via_faults.batch_throughput, direct.batch_throughput);
    assert!(via_faults.fault_events.is_empty());
    assert_eq!(via_faults.degraded_steps(), 0);
}
