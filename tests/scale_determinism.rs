//! Determinism contract of the scale tier across execution shapes: the
//! deterministic outputs (`sum_of_group_peaks`, `checksum`) must be
//! bit-identical at any thread count and any streaming chunk size. This
//! is what lets CI compare checksums produced on differently-sized
//! runners against one committed baseline.
//!
//! Each test sets the lane budget of its own thread
//! ([`so_parallel::set_thread_limit`]), so the harness may run them
//! concurrently.

use smoothoperator::scale::{run_scale, ScaleConfig, ScaleWorkload};

fn config() -> ScaleConfig {
    ScaleConfig {
        instances: vec![480, 1008],
        samples_per_trace: 84,
        step_minutes: 120,
        seed: 11,
        group_size: 12,
        swap_probes: 128,
        workload: ScaleWorkload::Llm,
        chunk_rows: 96,
    }
}

fn digests(config: &ScaleConfig) -> Vec<(u64, u64)> {
    run_scale(config)
        .unwrap()
        .points
        .iter()
        .map(|p| (p.checksum.to_bits(), p.sum_of_group_peaks.to_bits()))
        .collect()
}

#[test]
fn scale_outputs_are_bit_identical_across_thread_counts() {
    let config = config();
    let mut runs = Vec::new();
    for lanes in [1usize, 2, 8] {
        so_parallel::set_thread_limit(lanes);
        runs.push((lanes, digests(&config)));
    }
    let serial_scoped = so_parallel::serial_scope(|| digests(&config));

    let (_, reference) = &runs[0];
    for (lanes, run) in &runs {
        assert_eq!(
            run, reference,
            "digests changed between 1 and {lanes} thread lane(s)"
        );
    }
    assert_eq!(
        &serial_scoped, reference,
        "digests changed under serial_scope"
    );
}

#[test]
fn scale_outputs_are_bit_identical_across_chunk_and_mode_combinations() {
    // Chunk size interacts with the parallel fill's window layout; the
    // cross product of chunk sizes and lane counts must still agree.
    let mut config = config();
    so_parallel::set_thread_limit(1);
    let reference = digests(&config);
    for lanes in [2usize, 8] {
        for chunk_rows in [12usize, 180, 1008, 4096] {
            so_parallel::set_thread_limit(lanes);
            config.chunk_rows = chunk_rows;
            assert_eq!(
                digests(&config),
                reference,
                "digests changed at {lanes} lane(s), chunk_rows {chunk_rows}"
            );
        }
    }
}
