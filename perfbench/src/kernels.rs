//! Timed calls into the `TraceArena` batch kernels over a rung-sized
//! fleet, streamed through one chunk-sized arena the way `smoothop scale`
//! streams it.

use std::time::Instant;

use so_core::differential_score_excluding;
use so_powertrace::{TimeGrid, TraceArena};

use crate::stats::{Rng, Samples};

const CHUNK_ROWS: usize = 65_544;
const GROUP: usize = 12;
const SWAP_PROBES: usize = 4_096;

/// Runs every kernel over `rows` seeded diurnal rows of `samples`
/// hourly samples and records per-kernel wall time and bytes read.
pub fn measure(rows: usize, samples: usize, seed: u64, layers: &mut Samples) -> Result<(), String> {
    let grid = TimeGrid::new(60, samples);
    let mut arena = TraceArena::with_capacity(grid, CHUNK_ROWS.min(rows));
    // Per-sample basis tables, so a row costs multiply-adds only.
    let day = |t: usize| std::f64::consts::TAU * t as f64 / 24.0;
    let day_sin: Vec<f64> = (0..samples).map(|t| day(t).sin()).collect();
    let day_cos: Vec<f64> = (0..samples).map(|t| day(t).cos()).collect();
    let fill = |row: usize, out: &mut [f64]| {
        let mut h = Rng::new(seed, row as u64);
        let (base, amp, phase) = (h.range(120.0, 200.0), h.range(40.0, 100.0), h.unit());
        let (s, c) = (std::f64::consts::TAU * phase).sin_cos();
        for (t, v) in out.iter_mut().enumerate() {
            *v = base + amp * (day_sin[t] * c + day_cos[t] * s);
        }
    };

    let mut times = [0.0f64; 5];
    let mut digest = 0.0f64;
    let mut members = Vec::with_capacity(GROUP);
    let mut group_sum = vec![0.0f64; samples];
    let mut rng = Rng::new(seed, 0x5CA1E);
    let mut start = 0;
    while start < rows {
        let n = CHUNK_ROWS.min(rows - start);
        let t0 = Instant::now();
        arena.clear();
        arena.par_extend_rows(n, |r, out| fill(start + r, out));
        times[0] += ms_since(t0);

        let t0 = Instant::now();
        digest += arena.row_peaks().iter().sum::<f64>();
        times[1] += ms_since(t0);

        let t0 = Instant::now();
        let q99 = arena.row_quantiles(0.99).map_err(|e| e.to_string())?;
        digest += q99.iter().sum::<f64>();
        times[2] += ms_since(t0);

        let t0 = Instant::now();
        for g in (0..n).step_by(GROUP) {
            members.clear();
            members.extend(g..(g + GROUP).min(n));
            digest += arena.peak_of_sum(&members).map_err(|e| e.to_string())?;
        }
        times[3] += ms_since(t0);

        // This chunk's share of the sampled remap inner loop.
        let t0 = Instant::now();
        let groups = n / GROUP;
        for _ in 0..(SWAP_PROBES * n).div_ceil(rows) {
            if groups == 0 {
                break;
            }
            let g = rng.below(groups) * GROUP;
            members.clear();
            members.extend(g..g + GROUP);
            arena
                .sum_into(&members, &mut group_sum)
                .map_err(|e| e.to_string())?;
            let i = g + rng.below(GROUP);
            digest += differential_score_excluding(arena.row(i), &group_sum, arena.row(i), GROUP)
                .map_err(|e| e.to_string())?;
        }
        times[4] += ms_since(t0);
        start += n;
    }
    std::hint::black_box(digest);
    for (name, ms) in [
        "synth",
        "row_peaks",
        "row_quantiles",
        "peak_of_sum",
        "swap_probe",
    ]
    .iter()
    .zip(times)
    {
        layers.push(&format!("kernels.{name}_ms"), ms);
    }
    // Peaks, quantiles and peak-of-sum each read every sample once; a
    // swap probe reads its group plus the probed row.
    let row_bytes = (samples * 8) as f64;
    let bytes = 3.0 * rows as f64 * row_bytes + (SWAP_PROBES * (GROUP + 1)) as f64 * row_bytes;
    layers.push("kernels.bytes_read", bytes);
    Ok(())
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
