//! Arena oracles: columnar [`TraceArena`] pipelines diffed against their
//! `Vec<PowerTrace>` twins.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `arena_round_trip_is_bit_exact` | `from_traces` → rows / `to_traces` vs originals | bit-identical samples & grid |
//! | `arena_sum_kernel_matches_trace_sum` | `TraceArena::sum_into` vs `PowerTrace::sum_of` per rack | bit-identical samples |
//! | `arena_peak_kernel_matches_trace_peak` | `TraceArena::peak_of_sum` vs materialized sum's peak | bit-identical |
//! | `arena_embedding_matches_trace_embedding` | `score_vectors_arena` vs `score_vectors_from_traces` | bit-identical vectors |
//! | `arena_quantiles_match_trace_quantiles` | `quantile_of_row`/`row_quantiles` vs `PowerTrace::quantile` | bit-identical |
//! | `arena_statprof_is_bit_identical` | `statprof_required_budget` over round-tripped traces vs originals | `ProvisioningReport ==` |
//! | `arena_axpy_matches_scalar_loop` | `TraceArena::axpy_into` vs an element-order scalar loop | bit-identical |
//! | `arena_parallel_synth_is_bit_exact` | `par_extend_rows` (parallel and under `serial_scope`) vs `push_with` | bit-identical samples |
//!
//! Every oracle here is *exact* (`to_bits` or derived `==`): the arena
//! kernels are documented to perform the same float operations in the
//! same order as the trace-based paths, so any ULP of drift is a bug, not
//! a tolerance question. This is what lets the scale tier swap storage
//! layouts without re-validating numerics (the online engine's repair,
//! which reads arena rows in place, is held against a materializing
//! reference by the `online` and `daemon` families).

use so_baselines::{statprof_required_budget, ProvisioningDegrees};
use so_core::{score_vectors_arena, score_vectors_from_traces, ServiceTraces};
use so_powertrace::{PowerTrace, TraceArena};
use so_powertree::Level;

use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Arena;

/// Quantile probes shared by the per-row quantile oracle — edge-heavy on
/// purpose (`0`/`1` must hit min/peak exactly).
const PROBES: [f64; 7] = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0];

/// Runs every arena oracle over the fixture.
///
/// # Errors
///
/// Returns [`OracleError`] when an oracle cannot be evaluated at all;
/// failed evaluations are recorded in `report` instead.
pub fn run(fixture: &Fixture, report: &mut OracleReport) -> Result<(), OracleError> {
    let traces = fixture.traces();
    let arena = TraceArena::from_traces(traces)?;
    round_trip(traces, &arena, report)?;
    sum_kernels(fixture, &arena, report)?;
    embedding(fixture, &arena, report)?;
    quantiles(traces, &arena, report)?;
    statprof(fixture, &arena, report)?;
    axpy(traces, &arena, report)?;
    parallel_synth(traces, &arena, report);
    Ok(())
}

/// Traces → arena → traces must lose nothing: every row aliases the same
/// bits, and the materialized round-trip reproduces grid and samples.
fn round_trip(
    traces: &[PowerTrace],
    arena: &TraceArena,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    report.check(
        FAMILY,
        "arena_round_trip_is_bit_exact",
        arena.len() == traces.len() && arena.step_minutes() == traces[0].step_minutes(),
        || {
            format!(
                "arena shape ({} rows, step {}) != fleet ({} traces, step {})",
                arena.len(),
                arena.step_minutes(),
                traces.len(),
                traces[0].step_minutes()
            )
        },
    );
    let back = arena.to_traces()?;
    for (i, trace) in traces.iter().enumerate() {
        let bits_equal = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        report.check(
            FAMILY,
            "arena_round_trip_is_bit_exact",
            bits_equal(arena.row(i), trace.samples())
                && bits_equal(back[i].samples(), trace.samples())
                && back[i].grid() == trace.grid(),
            || format!("row {i} diverges from its source trace after the round trip"),
        );
    }
    Ok(())
}

/// Batch sum/peak kernels vs the trace layer's `sum_of`, per rack
/// membership of the fixture placement.
fn sum_kernels(
    fixture: &Fixture,
    arena: &TraceArena,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let traces = fixture.traces();
    let mut out = vec![0.0f64; arena.samples_per_trace()];
    for (rack, members) in fixture.assignment.by_rack() {
        if members.is_empty() {
            continue;
        }
        let scratch = PowerTrace::sum_of(members.iter().map(|&i| &traces[i]))?;
        arena.sum_into(&members, &mut out)?;
        report.check(
            FAMILY,
            "arena_sum_kernel_matches_trace_sum",
            out.iter()
                .zip(scratch.samples())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            || {
                format!(
                    "sum_into over rack {rack:?} ({} members) drifts from PowerTrace::sum_of",
                    members.len()
                )
            },
        );
        report.check_exact(
            FAMILY,
            "arena_peak_kernel_matches_trace_peak",
            arena.peak_of_sum(&members)?,
            scratch.peak(),
        );
    }
    Ok(())
}

/// Fused arena embedding vs the trace-slice embedding, cell by cell.
fn embedding(
    fixture: &Fixture,
    arena: &TraceArena,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let members: Vec<usize> = (0..fixture.fleet.len()).collect();
    let straces = ServiceTraces::extract(&fixture.fleet, &members, 4)?;
    let from_traces = score_vectors_from_traces(fixture.traces(), &members, &straces)?;
    let from_arena = score_vectors_arena(arena, &members, &straces)?;
    for (row, (a, b)) in from_arena.iter().zip(&from_traces).enumerate() {
        report.check(
            FAMILY,
            "arena_embedding_matches_trace_embedding",
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            || format!("embedding row {row} diverges between arena and trace paths"),
        );
    }
    Ok(())
}

/// Per-row quantiles (the StatProf kernel): the scratch-reusing
/// `quantile_of_row` and the batch `row_quantiles` against
/// `PowerTrace::quantile`, which all share one HF7 implementation.
fn quantiles(
    traces: &[PowerTrace],
    arena: &TraceArena,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let mut scratch = Vec::new();
    for (i, trace) in traces.iter().enumerate().take(6) {
        for q in PROBES {
            report.check_exact(
                FAMILY,
                "arena_quantiles_match_trace_quantiles",
                arena.quantile_of_row(i, q, &mut scratch)?,
                trace.quantile(q)?,
            );
        }
    }
    let batch = arena.row_quantiles(0.95)?;
    for (i, trace) in traces.iter().enumerate() {
        report.check_exact(
            FAMILY,
            "arena_quantiles_match_trace_quantiles",
            batch[i],
            trace.quantile(0.95)?,
        );
    }
    Ok(())
}

/// `StatProf(0, 0)` over arena round-tripped traces vs the originals: the
/// provisioning report (every level) must compare equal, because the
/// round trip is bit-exact and the baseline is deterministic.
fn statprof(
    fixture: &Fixture,
    arena: &TraceArena,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let from_traces = statprof_required_budget(
        &fixture.topology,
        &fixture.assignment,
        fixture.traces(),
        ProvisioningDegrees::none(),
    )?;
    let round_tripped = arena.to_traces()?;
    let from_arena = statprof_required_budget(
        &fixture.topology,
        &fixture.assignment,
        &round_tripped,
        ProvisioningDegrees::none(),
    )?;
    report.check(
        FAMILY,
        "arena_statprof_is_bit_identical",
        from_traces == from_arena,
        || {
            format!(
                "StatProf(0,0) diverges: datacenter {} vs {}",
                from_traces.at_level(Level::Datacenter),
                from_arena.at_level(Level::Datacenter)
            )
        },
    );
    Ok(())
}

/// `axpy_into` (the 4-wide unrolled scaled-add kernel) vs a plain scalar
/// loop in element order: the unroll touches disjoint elements with one
/// multiply-add each, so reassociation never enters and the results must
/// share every bit.
fn axpy(
    traces: &[PowerTrace],
    arena: &TraceArena,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let width = arena.samples_per_trace();
    let mut fused = vec![0.5f64; width];
    let mut scalar = fused.clone();
    for (i, trace) in traces.iter().enumerate().take(6) {
        let alpha = 1.0 + i as f64 * 0.25;
        arena.axpy_into(alpha, i, &mut fused)?;
        for (out, &x) in scalar.iter_mut().zip(trace.samples()) {
            *out += alpha * x;
        }
        report.check(
            FAMILY,
            "arena_axpy_matches_scalar_loop",
            fused
                .iter()
                .zip(&scalar)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            || format!("axpy_into(alpha={alpha}, row {i}) drifts from the scalar loop"),
        );
    }
    Ok(())
}

/// Parallel synthesis must be bit-identical to serial synthesis: the same
/// per-row generator pushed through `push_with` (row at a time, serial),
/// `par_extend_rows` at the ambient thread budget, and `par_extend_rows`
/// forced serial via `serial_scope` must produce the same buffer bits.
fn parallel_synth(traces: &[PowerTrace], arena: &TraceArena, report: &mut OracleReport) {
    let fill = |r: usize, out: &mut [f64]| out.copy_from_slice(traces[r].samples());

    let mut serial_pushed = TraceArena::with_capacity(arena.grid(), traces.len());
    for trace in traces {
        let samples = trace.samples();
        serial_pushed.push_with(|t| samples[t]);
    }
    let mut parallel = TraceArena::with_capacity(arena.grid(), traces.len());
    parallel.par_extend_rows(traces.len(), fill);
    let mut forced_serial = TraceArena::with_capacity(arena.grid(), traces.len());
    so_parallel::serial_scope(|| forced_serial.par_extend_rows(traces.len(), fill));

    let bits = |arena: &TraceArena| -> Vec<u64> {
        arena.flat_samples().iter().map(|v| v.to_bits()).collect()
    };
    let want = bits(&serial_pushed);
    report.check(
        FAMILY,
        "arena_parallel_synth_is_bit_exact",
        bits(&parallel) == want,
        || {
            format!(
                "par_extend_rows at {} lane(s) diverges from push_with",
                so_parallel::effective_lanes()
            )
        },
    );
    report.check(
        FAMILY,
        "arena_parallel_synth_is_bit_exact",
        bits(&forced_serial) == want,
        || "par_extend_rows under serial_scope diverges from push_with".to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_workloads::DcScenario;

    #[test]
    fn arena_oracles_agree_on_a_small_fixture() {
        let fixture = Fixture::generate(&DcScenario::dc1(), 32, 5).unwrap();
        let mut report = OracleReport::new();
        run(&fixture, &mut report).unwrap();
        assert!(report.is_clean(), "{:#?}", report.violations());
        assert!(report.evaluations(OracleFamily::Arena) > 40);
    }

    #[test]
    fn arena_oracles_are_deterministic() {
        let fixture = Fixture::generate(&DcScenario::dc3(), 24, 11).unwrap();
        let mut a = OracleReport::new();
        run(&fixture, &mut a).unwrap();
        let mut b = OracleReport::new();
        run(&fixture, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
