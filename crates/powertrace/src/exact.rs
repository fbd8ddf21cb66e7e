//! The exact sample grid behind resident aggregates.
//!
//! Float addition is not associative, so a running sum that adds and
//! removes members in whatever order events arrive drifts away from a
//! from-scratch sum. The online engine avoids the drift by making every
//! sum exact instead of ordered: each resident sample is snapped to a
//! multiple of [`SAMPLE_QUANTUM_WATTS`] (2^-10 W) and capped at
//! [`MAX_SAMPLE_WATTS`] (2^20 W). A sum of at most [`MAX_EXACT_SLOTS`]
//! such samples, plus one more for a probed candidate, is a multiple of
//! 2^-10 no larger than 2^43, that is an integer multiple of the quantum
//! below 2^53, which an `f64` holds exactly. Every partial sum and every
//! difference of two such sums is then exact, so its bits do not depend
//! on the order of addition, and `agg += row`, `agg -= row` and
//! `agg[t] += new - old` land on the same bits as a fresh recompute.
//!
//! Snapping moves a sample by at most half a quantum (2^-11 W), so a
//! sum of `n` snapped samples lies within `n · 2^-11` W of the sum of
//! the raw samples.

use crate::error::TraceError;

/// The grid every resident sample is snapped to: 2^-10 W (about 1 mW).
pub const SAMPLE_QUANTUM_WATTS: f64 = 1.0 / 1024.0;

/// The largest sample the exact grid accepts: 2^20 W (about 1 MW).
pub const MAX_SAMPLE_WATTS: f64 = 1_048_576.0;

/// The most live slots an exact resident state may hold:
/// `(MAX_EXACT_SLOTS + 1) · MAX_SAMPLE_WATTS <= 2^43` W, so a node that
/// holds every slot still sums exactly with one candidate on top.
pub const MAX_EXACT_SLOTS: usize = (1 << 23) - 1;

/// 2^52: adding it to a non-negative `x < 2^52` rounds `x` to an integer
/// (ties to even), and subtracting it again is exact.
const ROUND_TO_INTEGER: f64 = 4_503_599_627_370_496.0;

/// Snaps `samples` onto the exact grid: each value is rounded to the
/// nearest multiple of [`SAMPLE_QUANTUM_WATTS`] (ties to even), and
/// `-0.0` becomes `+0.0`. Snapping is idempotent.
///
/// The whole slice is range-checked before anything is returned: a value
/// that is NaN, negative or above [`MAX_SAMPLE_WATTS`] is rejected, never
/// rounded into range.
///
/// # Errors
///
/// [`TraceError::InvalidSample`] for the first out-of-range value, with
/// its index in `samples`.
///
/// # Examples
///
/// ```
/// use so_powertrace::{snap_samples, MAX_SAMPLE_WATTS};
///
/// assert_eq!(snap_samples(&[0.1, 2.0]).unwrap(), vec![102.0 / 1024.0, 2.0]);
/// assert!(snap_samples(&[1.0, 2.0 * MAX_SAMPLE_WATTS]).is_err());
/// ```
pub fn snap_samples(samples: &[f64]) -> Result<Vec<f64>, TraceError> {
    // NaN fails both comparisons. The non-short-circuiting `&` keeps the
    // common all-valid pass branch-free, so it vectorizes.
    let in_range = |v: f64| (0.0..=MAX_SAMPLE_WATTS).contains(&v);
    if !samples.iter().fold(true, |ok, &v| ok & in_range(v)) {
        let index = samples.iter().position(|&v| !in_range(v)).unwrap_or(0);
        return Err(TraceError::InvalidSample {
            index,
            value: samples[index],
        });
    }
    Ok(samples
        .iter()
        .map(|&v| {
            (v / SAMPLE_QUANTUM_WATTS + ROUND_TO_INTEGER - ROUND_TO_INTEGER) * SAMPLE_QUANTUM_WATTS
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snaps_to_the_nearest_quantum_and_is_idempotent() {
        let raw = [
            0.0,
            -0.0,
            1e-9,
            0.4 / 1024.0,
            0.6 / 1024.0,
            123.456,
            MAX_SAMPLE_WATTS,
            0.5 / 1024.0,
            1.5 / 1024.0,
        ];
        let snapped = snap_samples(&raw).unwrap();
        assert_eq!(snapped[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(snapped[1].to_bits(), 0.0f64.to_bits(), "-0.0 becomes +0.0");
        assert_eq!(snapped[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(snapped[3], 0.0);
        assert_eq!(snapped[4], SAMPLE_QUANTUM_WATTS);
        assert_eq!(snapped[6], MAX_SAMPLE_WATTS);
        // Ties go to the even quantum.
        assert_eq!(snapped[7].to_bits(), 0.0f64.to_bits());
        assert_eq!(snapped[8], 2.0 * SAMPLE_QUANTUM_WATTS);
        for (&s, &r) in snapped.iter().zip(&raw) {
            assert!((s - r).abs() <= SAMPLE_QUANTUM_WATTS / 2.0);
            assert_eq!((s / SAMPLE_QUANTUM_WATTS).fract(), 0.0);
        }
        assert_eq!(snap_samples(&snapped).unwrap(), snapped);
    }

    #[test]
    fn out_of_range_values_are_rejected_not_rounded() {
        for (bad, index) in [
            (vec![1.0, f64::NAN], 1),
            (vec![-1e-12], 0),
            (vec![f64::INFINITY, 1.0], 0),
            (vec![2.0, 3.0, MAX_SAMPLE_WATTS + SAMPLE_QUANTUM_WATTS], 2),
        ] {
            match snap_samples(&bad) {
                Err(TraceError::InvalidSample { index: got, .. }) => assert_eq!(got, index),
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn sums_of_snapped_samples_do_not_depend_on_order() {
        // Irregular raw values: unsnapped, the two orders disagree.
        let raw: Vec<f64> = (0..400u32)
            .map(|i| f64::from(i.wrapping_mul(2_654_435_761) % 100_003) * 0.37 + 0.1)
            .collect();
        let forward = |v: &[f64]| v.iter().fold(0.0, |acc, x| acc + x);
        let backward = |v: &[f64]| v.iter().rev().fold(0.0, |acc, x| acc + x);
        assert_ne!(forward(&raw).to_bits(), backward(&raw).to_bits());
        let snapped = snap_samples(&raw).unwrap();
        assert_eq!(forward(&snapped).to_bits(), backward(&snapped).to_bits());
        // Removing every value again returns exactly +0.0.
        let mut sum = forward(&snapped);
        for v in &snapped {
            sum -= v;
        }
        assert_eq!(sum.to_bits(), 0.0f64.to_bits());
        // The largest admissible sum is still exact.
        let top = MAX_SAMPLE_WATTS * (MAX_EXACT_SLOTS + 1) as f64;
        assert_eq!(top, 2f64.powi(43));
        assert_eq!(top - SAMPLE_QUANTUM_WATTS + SAMPLE_QUANTUM_WATTS, top);
    }
}
