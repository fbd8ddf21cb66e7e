//! Observability oracles: the live plane's alert engine must report
//! exactly what the engine did.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `clean_stream_fires_no_violation_alert` | a power-admissible stream vs the breaker-budget alert rule | zero fires, zero violations |
//! | `planted_violation_fires_exactly_once` | a deliberate breaker-budget breach vs the alert journal | exactly one `AlertFired` per excursion, with a postmortem dump |
//! | `alert_hysteresis_resolves_and_refires` | alert state across breach → clear → breach | one resolve, then one new fire |
//!
//! The plane never *steers* the engine — attaching one must not change a
//! single placement bit — so every oracle here drives real engines with a
//! plane attached and diffs what the plane *says* against what the engine
//! *did*. The flight ring itself is the engine's event record, and the
//! `online` family replays it.

use rand::rngs::StdRng;
use rand::Rng;
use so_core::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid};
use so_telemetry::{default_online_rules, AlertTransition};

use crate::online::fresh_plane;
use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Observability;

/// Flight-ring capacity of the oracle engines. These oracles read alert
/// transitions, counters and dumps, not the ring's history, so it may
/// wrap.
const FLIGHT_CAPACITY: usize = 48;

/// Runs every observability oracle: the fixture stream drives a
/// plane-attached engine for the alert-silence check, then a dedicated
/// micro-fleet exercises the planted breaker-budget violation (alert
/// exactness + hysteresis).
///
/// # Errors
///
/// Returns [`OracleError`] when an oracle cannot be evaluated at all;
/// failed evaluations are recorded in `report` instead.
pub fn run(
    fixture: &Fixture,
    rng: &mut StdRng,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    fixture_stream_oracles(fixture, rng, report)?;
    planted_violation_oracles(report)
}

/// Index of a rule inside [`default_online_rules`] by name.
fn rule_index(name: &str) -> usize {
    default_online_rules()
        .iter()
        .position(|r| r.name == name)
        .expect("default rule set names are stable")
}

/// Drives a plane-attached engine through the fixture stream, then checks
/// the clean-stream alert silence.
fn fixture_stream_oracles(
    fixture: &Fixture,
    rng: &mut StdRng,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let traces = fixture.traces();
    let grid = traces[0].grid();
    // Generous budgets, mirroring the online family: power never binds,
    // so the stream is violation-free by construction.
    let cap = traces.iter().map(PowerTrace::peak).sum::<f64>() * 2.0 + 100.0;
    let mut engine = OnlineFleet::new(
        fixture.topology.clone(),
        grid,
        OnlineConfig {
            policy: CommitPolicy::BestAsynchrony,
            repair_budget: 2,
            min_gain: 0.0,
            sample_salt: fixture.seed,
        },
    )
    .with_budgets(vec![cap; fixture.topology.len()])
    .map_err(OracleError::Core)?;
    let plane = fresh_plane(FLIGHT_CAPACITY);
    engine.attach_plane(plane.clone());
    let chunk = traces.len().div_ceil(3).max(1);
    for batch in traces.chunks(chunk) {
        let retires: Vec<u64> = (0..batch.len() / 4).map(|_| rng.gen()).collect();
        engine.apply(batch, &retires).map_err(OracleError::Core)?;
        engine
            .observe_batch(Some(&traces[0]))
            .map_err(OracleError::Core)?;
    }

    let breaker = rule_index("breaker_budget_violation") as u64;
    let breaker_fires = plane
        .flight_records(0)
        .iter()
        .filter(|r| matches!(r.kind, so_telemetry::FlightKind::AlertFired) && r.a == breaker)
        .count();
    report.check(
        FAMILY,
        "clean_stream_fires_no_violation_alert",
        plane.breaker_violations() == 0 && breaker_fires == 0,
        || {
            format!(
                "power-admissible stream recorded {} breaker violations and {} breaker alert fires",
                plane.breaker_violations(),
                breaker_fires
            )
        },
    );
    Ok(())
}

/// A 2-rack micro-fleet whose racks have free *slots* but no free
/// *power*: the canonical breaker-budget violation shape.
fn micro_fleet() -> Result<OnlineFleet, OracleError> {
    let topology = so_powertree::PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(1)
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(2)
        .rack_capacity(2)
        .rack_budget_watts(400.0)
        .build()
        .map_err(OracleError::Tree)?;
    let budgets: Vec<f64> = topology
        .nodes()
        .iter()
        .map(|n| {
            if n.level() == so_powertree::Level::Rack {
                400.0
            } else {
                100_000.0
            }
        })
        .collect();
    OnlineFleet::new(
        topology,
        TimeGrid::new(60, 4),
        OnlineConfig {
            policy: CommitPolicy::WorstFit,
            repair_budget: 0,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
    .with_budgets(budgets)
    .map_err(OracleError::Core)
}

fn flat(watts: f64) -> Result<PowerTrace, OracleError> {
    PowerTrace::new(vec![watts; 4], 60).map_err(OracleError::Trace)
}

/// Fired transitions for one rule index within a batch's transitions.
fn fires_for(transitions: &[AlertTransition], rule: usize) -> usize {
    transitions
        .iter()
        .filter(|t| t.fired && t.rule == rule)
        .count()
}

/// Resolve transitions for one rule index.
fn resolves_for(transitions: &[AlertTransition], rule: usize) -> usize {
    transitions
        .iter()
        .filter(|t| !t.fired && t.rule == rule)
        .count()
}

/// Plants breaker-budget violations (a 200 W candidate against racks
/// holding 300 W of a 400 W budget with a slot free) and checks the alert
/// engine's exactness and hysteresis against the transitions it returns.
fn planted_violation_oracles(report: &mut OracleReport) -> Result<(), OracleError> {
    let mut engine = micro_fleet()?;
    let plane = fresh_plane(FLIGHT_CAPACITY);
    engine.attach_plane(plane.clone());
    let breaker = rule_index("breaker_budget_violation");

    // Warm both racks to 300 W: one slot free each, 100 W of headroom.
    for _ in 0..2 {
        let slot = engine.arrive(&flat(300.0)?).map_err(OracleError::Core)?;
        report.check(
            FAMILY,
            "planted_violation_fires_exactly_once",
            slot.is_some(),
            || "warm-up arrival unexpectedly rejected".to_string(),
        );
    }
    let clean = engine.observe_batch(None).map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "clean_stream_fires_no_violation_alert",
        fires_for(&clean, breaker) == 0 && plane.breaker_violations() == 0,
        || "warm-up batch raised a breaker-budget alert".to_string(),
    );

    // First excursion: the 200 W candidate fits a slot on both racks but
    // breaches both 400 W budgets — rejected, and flagged as a violation.
    let outcome = engine.arrive(&flat(200.0)?).map_err(OracleError::Core)?;
    let first = engine.observe_batch(None).map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "planted_violation_fires_exactly_once",
        outcome.is_none() && plane.breaker_violations() == 1 && fires_for(&first, breaker) == 1,
        || {
            format!(
                "planted breach: outcome {outcome:?}, violations {}, breaker fires {}",
                plane.breaker_violations(),
                fires_for(&first, breaker)
            )
        },
    );
    let dumps = plane.dumps();
    report.check(
        FAMILY,
        "planted_violation_fires_exactly_once",
        plane.dumps_total() >= 2
            && dumps.iter().any(|d| {
                d.reason.contains("breaker-budget") && d.jsonl.contains("breaker_violation")
            }),
        || {
            format!(
                "expected a postmortem dump for the violation, got {} dumps",
                plane.dumps_total()
            )
        },
    );

    // Clear batch: the delta signal drops to zero, the alert resolves.
    let cleared = engine.observe_batch(None).map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "alert_hysteresis_resolves_and_refires",
        fires_for(&cleared, breaker) == 0 && resolves_for(&cleared, breaker) == 1,
        || {
            format!(
                "clear batch: {} fires, {} resolves",
                fires_for(&cleared, breaker),
                resolves_for(&cleared, breaker)
            )
        },
    );

    // Second excursion across two consecutive breach batches: fires once
    // on entry, stays active (no re-fire) while the breach persists.
    engine.arrive(&flat(200.0)?).map_err(OracleError::Core)?;
    let refire = engine.observe_batch(None).map_err(OracleError::Core)?;
    engine.arrive(&flat(200.0)?).map_err(OracleError::Core)?;
    let held = engine.observe_batch(None).map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "alert_hysteresis_resolves_and_refires",
        fires_for(&refire, breaker) == 1 && fires_for(&held, breaker) == 0,
        || {
            format!(
                "second excursion: entry fires {}, persistence fires {}",
                fires_for(&refire, breaker),
                fires_for(&held, breaker)
            )
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use so_workloads::DcScenario;

    #[test]
    fn observability_oracles_agree_on_a_small_fixture() {
        let fixture = Fixture::generate(&DcScenario::dc1(), 30, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = OracleReport::new();
        run(&fixture, &mut rng, &mut report).unwrap();
        assert!(report.is_clean(), "{:#?}", report.violations());
        assert!(report.evaluations(OracleFamily::Observability) > 5);
    }

    #[test]
    fn observability_oracles_are_deterministic() {
        let fixture = Fixture::generate(&DcScenario::dc3(), 24, 11).unwrap();
        let mut a = OracleReport::new();
        run(&fixture, &mut StdRng::seed_from_u64(11), &mut a).unwrap();
        let mut b = OracleReport::new();
        run(&fixture, &mut StdRng::seed_from_u64(11), &mut b).unwrap();
        assert_eq!(a, b);
    }
}
