//! The workspace's single quantile convention.
//!
//! Three subsystems need quantiles of power samples — [`PowerTrace`]
//! percentiles, the [`Ecdf`] behind the StatProf(u, δ) baseline, and the
//! scale tier's per-row p99 — and they must agree: StatProf
//! budgets are compared against trace-level percentiles, and a convention
//! mismatch (nearest-rank in one place, interpolated in another) silently
//! shifts provisioning numbers. Every quantile in the workspace therefore
//! goes through this module.
//!
//! # Convention
//!
//! The **linear-interpolation** estimator over order statistics, also known
//! as Hyndman–Fan type 7 (the default of R, NumPy, and Julia): for `n`
//! sorted samples `x[0] ≤ … ≤ x[n−1]` and `q ∈ [0, 1]`,
//!
//! ```text
//! pos  = q · (n − 1)
//! Q(q) = x[⌊pos⌋] + (pos − ⌊pos⌋) · (x[⌊pos⌋ + 1] − x[⌊pos⌋])
//! ```
//!
//! Guaranteed edge behavior (regression-tested, relied on by oracles):
//!
//! * `Q(0) == x[0]` (the minimum) and `Q(1) == x[n−1]` (the maximum) —
//!   **exactly**, with no interpolation arithmetic applied;
//! * a single-sample input returns that sample for every `q`;
//! * `Q` is monotone non-decreasing in `q` and bounded by `[min, max]`;
//! * index arithmetic is clamped, so floating-point round-off in
//!   `q · (n − 1)` can never index out of bounds or double-count a sample
//!   when the interpolation window degenerates to a single index.

use crate::error::TraceError;

#[cfg(doc)]
use crate::{stats::Ecdf, trace::PowerTrace};

/// Linear-interpolated quantile of **already sorted** samples (ascending).
///
/// This is the fast path for callers that keep samples sorted (e.g.
/// [`Ecdf`]); everyone else should use [`quantile`]. The input order is
/// trusted, not checked (a debug assertion guards tests).
///
/// # Errors
///
/// Returns [`TraceError::Empty`] for an empty slice and
/// [`TraceError::InvalidQuantile`] for `q` outside `[0, 1]` or NaN.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64, TraceError> {
    if sorted.is_empty() {
        return Err(TraceError::Empty);
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(TraceError::InvalidQuantile(q));
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted requires ascending input"
    );
    let n = sorted.len();
    // Exact edges first: no interpolation arithmetic may perturb them.
    if q == 0.0 || n == 1 {
        return Ok(sorted[0]);
    }
    if q == 1.0 {
        return Ok(sorted[n - 1]);
    }
    let pos = q * (n - 1) as f64;
    // Clamp the index window: `pos` is mathematically in [0, n−1], but the
    // multiplication can round up to exactly n−1 for q just below 1, and a
    // defensive bound keeps any future caller from indexing past the end.
    let lo = (pos.floor() as usize).min(n - 1);
    let hi = (lo + 1).min(n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    if hi == lo || frac == 0.0 {
        // Degenerate window: the estimate is one order statistic; summing
        // the two interpolation terms here would double-count its weight
        // (and `0.0 * f64::MAX`-style products could produce NaN).
        return Ok(sorted[lo]);
    }
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Linear-interpolated quantile of unsorted samples.
///
/// Sorts a copy (`O(n log n)`); callers needing many quantiles of the same
/// data should sort once and use [`quantile_sorted`], and callers needing
/// one quantile of many rows should use the `O(n)` [`quantile_select`].
///
/// # Errors
///
/// Returns [`TraceError::Empty`] for an empty slice,
/// [`TraceError::InvalidQuantile`] for `q` outside `[0, 1]`, and
/// [`TraceError::InvalidSample`] if a sample is NaN (unsortable).
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, TraceError> {
    quantile_sorted(&sorted_copy(samples)?, q)
}

/// [`quantile`] via selection instead of a full sort: `O(n)` per call.
///
/// The HF7 estimate needs at most two order statistics, `x[lo]` and
/// `x[lo+1]`; this path finds them with `select_nth_unstable` (plus a
/// min-fold over the upper partition) instead of sorting the whole row.
/// Both the sort and the selection order samples by [`f64::total_cmp`], so
/// the k-th order statistic is a unique bit pattern and the result is
/// **bit-identical** to [`quantile`] on every NaN-free input — the arena
/// oracle family pins this against `PowerTrace::quantile`.
///
/// `scratch` is clobbered and reused across calls; once grown to one row
/// the call allocates nothing.
///
/// # Errors
///
/// Same as [`quantile`].
pub fn quantile_select(samples: &[f64], q: f64, scratch: &mut Vec<f64>) -> Result<f64, TraceError> {
    if samples.is_empty() {
        return Err(TraceError::Empty);
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(TraceError::InvalidQuantile(q));
    }
    if let Some(index) = samples.iter().position(|v| v.is_nan()) {
        return Err(TraceError::InvalidSample {
            index,
            value: samples[index],
        });
    }
    let n = samples.len();
    // Exact edges first, mirroring `quantile_sorted`: Q(0) and Q(1) are the
    // extreme order statistics, found with a fold instead of a selection.
    if q == 0.0 || n == 1 {
        return Ok(samples
            .iter()
            .copied()
            .reduce(|a, b| if b.total_cmp(&a).is_lt() { b } else { a })
            .expect("non-empty"));
    }
    if q == 1.0 {
        return Ok(samples
            .iter()
            .copied()
            .reduce(|a, b| if b.total_cmp(&a).is_gt() { b } else { a })
            .expect("non-empty"));
    }
    let pos = q * (n - 1) as f64;
    let lo = (pos.floor() as usize).min(n - 1);
    let hi = (lo + 1).min(n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    scratch.clear();
    scratch.extend_from_slice(samples);
    let (_, &mut x_lo, upper) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    if hi == lo || frac == 0.0 {
        return Ok(x_lo);
    }
    // x[lo+1] is the minimum of the upper partition left by the selection.
    let x_hi = upper
        .iter()
        .copied()
        .reduce(|a, b| if b.total_cmp(&a).is_lt() { b } else { a })
        .expect("hi < n implies a non-empty upper partition");
    Ok(x_lo + frac * (x_hi - x_lo))
}

/// Sorts a copy of `samples` ascending, rejecting NaN.
///
/// Ordering is [`f64::total_cmp`] (so `-0.0` sorts before `0.0`): on
/// NaN-free input it agrees with the numeric order everywhere else, and it
/// makes every order statistic a *unique bit pattern*, which is what lets
/// the selection path ([`quantile_select`]) match this sort bit-for-bit.
fn sorted_copy(samples: &[f64]) -> Result<Vec<f64>, TraceError> {
    if let Some(index) = samples.iter().position(|v| v.is_nan()) {
        return Err(TraceError::InvalidSample {
            index,
            value: samples[index],
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_exact_order_statistics() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 3.0);
    }

    #[test]
    fn single_sample_is_constant_in_q() {
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(quantile(&[7.5], q).unwrap(), 7.5);
        }
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let v = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5).unwrap(), 1.5);
        assert!((quantile(&v, 0.9).unwrap() - 2.7).abs() < 1e-12);
    }

    #[test]
    fn q_just_below_one_stays_in_bounds() {
        // q·(n−1) rounds to exactly n−1 here; the clamped window must not
        // read past the end.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let q = 1.0 - f64::EPSILON / 4.0;
        let got = quantile(&v, q).unwrap();
        assert!((0.0..=999.0).contains(&got));
    }

    #[test]
    fn degenerate_window_returns_the_order_statistic_once() {
        // pos lands exactly on an integer: the result is that sample, not
        // a sum of two weighted copies.
        let v = [0.0, 10.0, 20.0];
        assert_eq!(quantile(&v, 0.5).unwrap(), 10.0);
    }

    #[test]
    fn select_is_bit_identical_to_sort() {
        let mut scratch = Vec::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [1usize, 2, 3, 7, 64, 168, 501] {
            let samples: Vec<f64> = (0..n).map(|_| next() * 300.0).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let want = quantile(&samples, q).unwrap();
                let got = quantile_select(&samples, q, &mut scratch).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} q={q}");
            }
        }
        // Duplicates and signed zeros order identically under total_cmp.
        let ties = [0.0, -0.0, 5.0, 5.0, -0.0, 0.0, 5.0];
        for q in [0.0, 0.3, 0.5, 0.8, 1.0] {
            assert_eq!(
                quantile_select(&ties, q, &mut scratch).unwrap().to_bits(),
                quantile(&ties, q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn select_rejects_bad_inputs_like_sort() {
        let mut scratch = Vec::new();
        assert_eq!(
            quantile_select(&[], 0.5, &mut scratch),
            Err(TraceError::Empty)
        );
        assert_eq!(
            quantile_select(&[1.0], 1.5, &mut scratch),
            Err(TraceError::InvalidQuantile(1.5))
        );
        assert!(matches!(
            quantile_select(&[1.0, f64::NAN], 0.5, &mut scratch),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(quantile(&[], 0.5), Err(TraceError::Empty));
        assert_eq!(quantile(&[1.0], 1.5), Err(TraceError::InvalidQuantile(1.5)));
        assert_eq!(
            quantile(&[1.0], -0.1),
            Err(TraceError::InvalidQuantile(-0.1))
        );
        assert!(matches!(
            quantile(&[1.0], f64::NAN),
            Err(TraceError::InvalidQuantile(_))
        ));
        assert!(matches!(
            quantile(&[1.0, f64::NAN], 0.5),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
    }
}
