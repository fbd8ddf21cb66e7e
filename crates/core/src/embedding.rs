//! Embedding of service instances into asynchrony-score space (§3.5).
//!
//! Each instance becomes a `|B|`-dimensional point whose coordinates are
//! its I-to-S asynchrony scores against the top-`|B|` services' S-traces.
//! The paper prefers I-to-S over pairwise I-to-I scores because the latter
//! is quadratic in the fleet size and spans a sparse high-dimensional space
//! that clusters poorly.

use so_parallel::par_map;
use so_powertrace::{PowerTrace, TraceArena};
use so_workloads::Fleet;

use crate::error::CoreError;
use crate::score::{instance_to_service_score, pairwise_score_samples};
use crate::straces::ServiceTraces;

/// Minimum embedding rows per worker thread: each row costs `|B|` trace
/// scans, so a handful already amortizes a spawn.
const ROW_GRAIN: usize = 8;

/// Computes the asynchrony-score vector of every member instance against
/// the given S-traces. Row `r` corresponds to `members[r]`.
///
/// Rows are computed in parallel; each row is a pure function of one
/// instance, so the result is identical to the serial loop.
///
/// # Errors
///
/// Propagates trace errors (grid mismatches).
pub fn score_vectors(
    fleet: &Fleet,
    members: &[usize],
    straces: &ServiceTraces,
) -> Result<Vec<Vec<f64>>, CoreError> {
    score_vectors_from_traces(fleet.averaged_traces(), members, straces)
}

/// Computes the asynchrony-score vector of every member instance against
/// the given S-traces, from an explicit trace slice (one trace per
/// instance), for callers that hold their own traces rather than a
/// [`Fleet`].
///
/// # Errors
///
/// Propagates trace errors (grid mismatches).
pub fn score_vectors_from_traces(
    traces: &[PowerTrace],
    members: &[usize],
    straces: &ServiceTraces,
) -> Result<Vec<Vec<f64>>, CoreError> {
    // Counters only: the placement recursion calls this concurrently, and
    // commutative integer adds stay thread-count independent.
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_embedding_runs_total", &[], 1);
        so_telemetry::counter_add("so_embedding_rows_total", &[], members.len() as u64);
    }
    par_map(members, ROW_GRAIN, |_, &i| {
        straces
            .traces()
            .iter()
            .map(|s| instance_to_service_score(&traces[i], s))
            .collect()
    })
    .into_iter()
    .collect()
}

/// [`score_vectors_from_traces`] over a columnar [`TraceArena`] (row `i`
/// is instance `i`'s averaged I-trace): each coordinate is a fused
/// [`pairwise_score_samples`] between an arena row and an S-trace, so no
/// aggregate trace is materialized per cell. Bit-identical to the
/// trace-slice path on the same samples — the `arena` oracle family pins
/// this.
///
/// # Errors
///
/// Propagates trace errors (length mismatches between arena rows and
/// S-traces).
pub fn score_vectors_arena(
    arena: &TraceArena,
    members: &[usize],
    straces: &ServiceTraces,
) -> Result<Vec<Vec<f64>>, CoreError> {
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_embedding_runs_total", &[], 1);
        so_telemetry::counter_add("so_embedding_rows_total", &[], members.len() as u64);
    }
    par_map(members, ROW_GRAIN, |_, &i| {
        straces
            .traces()
            .iter()
            .map(|s| pairwise_score_samples(arena.row(i), s.samples()))
            .collect()
    })
    .into_iter()
    .collect()
}

/// Computes pairwise I-to-I score vectors (each instance against every
/// member instance). Quadratic; retained for the embedding ablation that
/// justifies the paper's I-to-S choice. Row-parallel like [`score_vectors`].
///
/// # Errors
///
/// Propagates trace errors (grid mismatches).
pub fn pairwise_score_vectors(
    fleet: &Fleet,
    members: &[usize],
) -> Result<Vec<Vec<f64>>, CoreError> {
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_embedding_pairwise_runs_total", &[], 1);
        so_telemetry::counter_add("so_embedding_rows_total", &[], members.len() as u64);
    }
    let traces = fleet.averaged_traces();
    par_map(members, ROW_GRAIN, |_, &i| {
        members
            .iter()
            .map(|&j| crate::score::pairwise_score(&traces[i], &traces[j]))
            .collect()
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertrace::TimeGrid;
    use so_workloads::{InstanceSpec, ServiceClass};

    fn fleet() -> Fleet {
        let grid = TimeGrid::one_week(120);
        let specs = vec![
            InstanceSpec::nominal(ServiceClass::Frontend, 1),
            InstanceSpec::nominal(ServiceClass::Frontend, 2),
            InstanceSpec::nominal(ServiceClass::Db, 3),
            InstanceSpec::nominal(ServiceClass::Hadoop, 4),
        ];
        Fleet::generate(specs, grid, 1).unwrap()
    }

    #[test]
    fn vectors_have_strace_dimensionality() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &members, 3).unwrap();
        let vs = score_vectors(&f, &members, &st).unwrap();
        assert_eq!(vs.len(), 4);
        assert!(vs.iter().all(|v| v.len() == 3));
        // Scores live in (1, 2] for pairs.
        for v in &vs {
            for &s in v {
                assert!((1.0..=2.0).contains(&s), "score {s} out of pair range");
            }
        }
    }

    #[test]
    fn same_service_instances_embed_close() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &members, 3).unwrap();
        let vs = score_vectors(&f, &members, &st).unwrap();
        let d = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        // The two frontend instances are nearer each other than either is
        // to the db instance.
        assert!(d(&vs[0], &vs[1]) < d(&vs[0], &vs[2]));
        assert!(d(&vs[0], &vs[1]) < d(&vs[1], &vs[3]));
    }

    #[test]
    fn arena_vectors_are_bit_identical_to_trace_vectors() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &members, 3).unwrap();
        let from_traces = score_vectors_from_traces(f.averaged_traces(), &members, &st).unwrap();
        let arena = TraceArena::from_traces(f.averaged_traces()).unwrap();
        let from_arena = score_vectors_arena(&arena, &members, &st).unwrap();
        assert_eq!(from_arena.len(), from_traces.len());
        for (a, b) in from_arena.iter().zip(&from_traces) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn pairwise_vectors_are_symmetric_with_unit_diagonal() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let vs = pairwise_score_vectors(&f, &members).unwrap();
        for (r, row) in vs.iter().enumerate() {
            assert!((row[r] - 1.0).abs() < 1e-9, "diagonal should be 1.0");
            for (c, &v) in row.iter().enumerate() {
                assert!((v - vs[c][r]).abs() < 1e-9);
            }
        }
    }
}
