//! Differential oracles: two implementations of one contract, diffed.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `placement_serial_matches_parallel` | `serial_scope` placement vs parallel | bit-identical assignment |
//! | `remap_serial_matches_parallel` | `serial_scope` remap vs parallel | identical report & assignment |
//! | `aggregation_cached_matches_scratch` | tree-cached node sums vs flat `PowerTrace::sum_of` | `1e-6` relative |
//! | `aggregate_peak_matches_trace_peak` | `NodeAggregate::peak` vs `to_trace().peak()` | bit-identical |
//! | `sim_empty_fault_schedule_is_identity` | `simulate` vs `simulate_with_faults` + empty schedule | `Telemetry ==` |
//! | `quantile_matches_reference` | any quantile impl vs an independent naive one | `1e-9` relative |
//!
//! The aggregation tolerance is `1e-6` relative because the tree cache
//! sums bottom-up (instances → racks → … → root) while the from-scratch
//! side sums flat in instance order; everything else is documented to
//! perform identical float work and is diffed exactly.

use so_core::{remap_traces, RemapConfig, SmoothPlacer};
use so_faults::FaultSchedule;
use so_parallel::serial_scope;
use so_powertrace::{NodeAggregate, PowerTrace};
use so_powertree::NodeAggregates;
use so_sim::{default_config, one_week_grid, simulate, simulate_with_faults, StaticPolicy};
use so_workloads::OfferedLoad;

use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Differential;
const AGG_REL_TOL: f64 = 1e-6;

/// Runs every differential oracle over the fixture.
///
/// # Errors
///
/// Returns [`OracleError`] when an oracle cannot be evaluated at all;
/// failed evaluations are recorded in `report` instead.
pub fn run(fixture: &Fixture, report: &mut OracleReport) -> Result<(), OracleError> {
    placement_and_remap(fixture, report)?;
    aggregation(fixture, report)?;
    simulation_identity(fixture, report)?;
    for trace in fixture.traces().iter().take(4) {
        quantile_matches_reference(
            |samples, q| so_powertrace::quantile::quantile(samples, q).ok(),
            trace.samples(),
            report,
        );
    }
    Ok(())
}

/// Serial vs parallel placement and remap must be bit-identical — the
/// determinism contract `so-parallel` documents.
fn placement_and_remap(fixture: &Fixture, report: &mut OracleReport) -> Result<(), OracleError> {
    let placer = SmoothPlacer::default();
    let parallel = placer.place(&fixture.fleet, &fixture.topology)?;
    let serial = serial_scope(|| placer.place(&fixture.fleet, &fixture.topology))?;
    report.check(
        FAMILY,
        "placement_serial_matches_parallel",
        serial.racks() == parallel.racks(),
        || {
            let first = serial
                .racks()
                .iter()
                .zip(parallel.racks())
                .position(|(a, b)| a != b);
            format!("assignments diverge (first differing instance: {first:?})")
        },
    );

    let config = RemapConfig {
        max_swaps: 8,
        ..RemapConfig::default()
    };
    let mut par_assignment = fixture.assignment.clone();
    let par_report = remap_traces(
        fixture.traces(),
        &fixture.topology,
        &mut par_assignment,
        config,
    )?;
    let mut ser_assignment = fixture.assignment.clone();
    let ser_report = serial_scope(|| {
        remap_traces(
            fixture.traces(),
            &fixture.topology,
            &mut ser_assignment,
            config,
        )
    })?;
    report.check(
        FAMILY,
        "remap_serial_matches_parallel",
        par_report == ser_report && par_assignment == ser_assignment,
        || {
            format!(
                "serial remap ({} swaps, final worst {}) != parallel ({} swaps, final worst {})",
                ser_report.swaps.len(),
                ser_report.final_worst_score,
                par_report.swaps.len(),
                par_report.final_worst_score
            )
        },
    );
    Ok(())
}

/// Tree-cached aggregation vs flat from-scratch sums, and the incremental
/// `NodeAggregate` cache vs its own materialized trace.
fn aggregation(fixture: &Fixture, report: &mut OracleReport) -> Result<(), OracleError> {
    let traces = fixture.traces();
    let aggregates = NodeAggregates::compute(&fixture.topology, &fixture.assignment, traces)?;
    for (rack, members) in fixture.assignment.by_rack() {
        let scratch = PowerTrace::sum_of(members.iter().map(|&i| &traces[i]))?;
        let cached = aggregates.trace(rack)?;
        let close = cached
            .samples()
            .iter()
            .zip(scratch.samples())
            .all(|(a, b)| (a - b).abs() <= AGG_REL_TOL * b.abs().max(1.0));
        report.check(FAMILY, "aggregation_cached_matches_scratch", close, || {
            format!(
                "cached aggregate of rack {rack:?} drifts from the from-scratch sum of its {} members",
                members.len()
            )
        });

        let incremental =
            NodeAggregate::from_traces(scratch.grid(), members.iter().map(|&i| &traces[i]))?;
        report.check_exact(
            FAMILY,
            "aggregate_peak_matches_trace_peak",
            incremental.peak(),
            incremental.to_trace()?.peak(),
        );
    }
    // The root aggregate against a flat sum over the whole fleet.
    let scratch_root = PowerTrace::sum_of(traces.iter())?;
    report.check_close(
        FAMILY,
        "aggregation_cached_matches_scratch",
        aggregates.trace(fixture.topology.root())?.peak(),
        scratch_root.peak(),
        AGG_REL_TOL,
    );
    Ok(())
}

/// `simulate` must equal `simulate_with_faults` under an empty schedule —
/// the fault layer's "no faults, no change" contract, diffed through
/// `Telemetry`'s derived `PartialEq` (bit-for-bit per step).
fn simulation_identity(fixture: &Fixture, report: &mut OracleReport) -> Result<(), OracleError> {
    let config = default_config(8, 8, 2, 1, f64::MAX);
    let load = OfferedLoad::diurnal(
        one_week_grid(60),
        8.0 * config.qps_per_server * config.l_conv,
        0.05,
        fixture.seed,
    );
    let schedule = FaultSchedule::empty(load.len(), 8);
    let plain = simulate(&config, &load, &mut StaticPolicy { as_lc: true })?;
    let faulted =
        simulate_with_faults(&config, &load, &mut StaticPolicy { as_lc: true }, &schedule)?;
    report.check(
        FAMILY,
        "sim_empty_fault_schedule_is_identity",
        plain == faulted,
        || "telemetry diverges between simulate and simulate_with_faults(empty)".to_string(),
    );
    Ok(())
}

/// Diffs an arbitrary quantile implementation against an independent,
/// deliberately simple reference (sort + Hyndman–Fan type 7 linear
/// interpolation) over an edge-heavy probability grid.
///
/// The implementation under test returns `None` for inputs it rejects;
/// every probe here is valid, so `None` is itself a violation. This is
/// the mutation-testing entry point: feeding it a subtly broken quantile
/// (nearest-rank, off-by-one indexing, unclamped interpolation) must
/// produce violations — `tests/mutation.rs` pins that.
pub fn quantile_matches_reference<F>(quantile_fn: F, samples: &[f64], report: &mut OracleReport)
where
    F: Fn(&[f64], f64) -> Option<f64>,
{
    const PROBES: [f64; 9] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    for q in PROBES {
        let want = reference_quantile(samples, q);
        let got = quantile_fn(samples, q);
        let pass = got.is_some_and(|g| (g - want).abs() <= 1e-9 * want.abs().max(1.0));
        report.check(FAMILY, "quantile_matches_reference", pass, || {
            format!(
                "quantile({q}) over {} samples: got {got:?}, reference {want}",
                samples.len()
            )
        });
    }
}

/// The independent reference: a from-first-principles re-derivation of the
/// workspace quantile convention, kept free of shared code on purpose.
fn reference_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    let pos = q * (n as f64 - 1.0);
    let lo = (pos.floor() as usize).min(n - 1);
    let hi = (lo + 1).min(n - 1);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_workloads::DcScenario;

    #[test]
    fn differentials_agree_on_a_small_fixture() {
        let fixture = Fixture::generate(&DcScenario::dc1(), 32, 5).unwrap();
        let mut report = OracleReport::new();
        run(&fixture, &mut report).unwrap();
        assert!(report.is_clean(), "{:#?}", report.violations());
        assert!(report.evaluations(OracleFamily::Differential) > 20);
    }

    #[test]
    fn reference_quantile_hits_edges() {
        let samples = [3.0, 1.0, 2.0];
        assert_eq!(reference_quantile(&samples, 0.0), 1.0);
        assert_eq!(reference_quantile(&samples, 1.0), 3.0);
        assert_eq!(reference_quantile(&samples, 0.5), 2.0);
    }
}
