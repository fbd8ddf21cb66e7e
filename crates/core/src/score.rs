//! The asynchrony score function (§3.4, Eq. 6–7).
//!
//! For a set of power traces `M`:
//!
//! ```text
//! A_M = Σ_{j∈M} peak(P_j) / peak(Σ_{j∈M} P_j)
//! ```
//!
//! The score is 1.0 when every component peaks simultaneously (worst case)
//! and `|M|` when aggregation leaves the group peak equal to each
//! component's peak (perfect complementarity).

use so_powertrace::{peak_of_samples, PowerTrace, TraceError};

use crate::error::CoreError;

/// Asynchrony score of a set of traces (Eq. 6).
///
/// # Errors
///
/// Returns [`CoreError::EmptySet`] for an empty set and propagates grid
/// mismatches. A set whose aggregate is identically zero scores `|M|` (the
/// degenerate best case: adding it to anything changes no peak).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_core::CoreError> {
/// use so_core::asynchrony_score;
/// use so_powertrace::PowerTrace;
///
/// let a = PowerTrace::new(vec![4.0, 0.0], 10)?;
/// let b = PowerTrace::new(vec![0.0, 4.0], 10)?;
/// // Perfectly out-of-phase: score 2.0 (the maximum for two traces).
/// assert_eq!(asynchrony_score([&a, &b])?, 2.0);
/// // Perfectly synchronous: score 1.0 (the minimum).
/// assert_eq!(asynchrony_score([&a, &a])?, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn asynchrony_score<'a>(
    traces: impl IntoIterator<Item = &'a PowerTrace> + Clone,
) -> Result<f64, CoreError> {
    let mut count = 0usize;
    let mut peak_sum = 0.0;
    for t in traces.clone() {
        peak_sum += t.peak();
        count += 1;
    }
    if count == 0 {
        return Err(CoreError::EmptySet);
    }
    let aggregate = PowerTrace::sum_of(traces)?;
    Ok(asynchrony_from_peaks(peak_sum, aggregate.peak(), count))
}

/// The asynchrony score of `count` members from their peak sum and their
/// aggregate's peak: `peak_sum / aggregate_peak`, and `count` for a zero
/// aggregate. Every asynchrony score in the workspace ends here, so a
/// caller that holds the two peaks (remap's node states, the online
/// engine's resident racks) gets the bits of [`asynchrony_score`] without
/// reading a trace.
pub(crate) fn asynchrony_from_peaks(peak_sum: f64, aggregate_peak: f64, count: usize) -> f64 {
    if aggregate_peak == 0.0 {
        return count as f64;
    }
    peak_sum / aggregate_peak
}

/// Pairwise asynchrony score between two traces (Eq. 7).
///
/// # Errors
///
/// Propagates grid mismatches.
pub fn pairwise_score(a: &PowerTrace, b: &PowerTrace) -> Result<f64, CoreError> {
    asynchrony_score([a, b])
}

/// The instance-to-service (I-to-S) asynchrony score: how an instance's
/// averaged I-trace interacts with one service's S-trace. This is the
/// coordinate function of the `|B|`-dimensional embedding of §3.5.
///
/// # Errors
///
/// Propagates grid mismatches.
pub fn instance_to_service_score(
    instance: &PowerTrace,
    service: &PowerTrace,
) -> Result<f64, CoreError> {
    pairwise_score(instance, service)
}

/// The differential asynchrony score of instance `i` against power node `N`
/// (§3.6): the pairwise score between the instance's I-trace and the
/// *averaged aggregate* trace `PA_{i,N}` of the node's other instances.
///
/// `peer_mean` must already exclude instance `i` (see
/// [`averaged_peer_trace`]).
///
/// # Errors
///
/// Propagates grid mismatches.
pub fn differential_score(instance: &PowerTrace, peer_mean: &PowerTrace) -> Result<f64, CoreError> {
    pairwise_score(instance, peer_mean)
}

/// [`pairwise_score`] over raw sample rows (e.g. [`TraceArena`] rows or
/// borrowed trace samples), fused: the aggregate `a[t] + b[t]` is never
/// materialized — its peak is folded directly in time order, which is the
/// exact float work of `PowerTrace::sum_of([a, b])?.peak()`. Bit-identical
/// to [`pairwise_score`] on the same samples; the `arena` oracle family
/// pins this.
///
/// [`TraceArena`]: so_powertrace::TraceArena
///
/// # Errors
///
/// Returns [`CoreError::Trace`] (length mismatch) when the rows differ in
/// length. Steps are the caller's responsibility — rows of one arena always
/// share a grid.
pub fn pairwise_score_samples(a: &[f64], b: &[f64]) -> Result<f64, CoreError> {
    let aggregate_peak = peak_of_sum_samples(a, b)?;
    Ok(pairwise_score_from_peaks(
        peak_of_samples(a),
        peak_of_samples(b),
        aggregate_peak,
    ))
}

/// The pairwise asynchrony score from its three peaks — the two members'
/// and their aggregate's — with [`asynchrony_score`]'s float operations:
/// the member peaks are added onto `0.0` in order, and a zero aggregate
/// scores `2.0`. [`pairwise_score_samples`] is this function over three
/// folds, so a caller that already holds the peaks (the online engine
/// caches every node's) gets the same bits without re-reading either row.
///
/// A lower bound on the aggregate peak gives an upper bound on the score,
/// which is how the online engine prunes arrival probes: for
/// non-negative peaks a smaller positive `aggregate_peak` never scores
/// lower (correctly rounded division is monotone), and a real aggregate
/// peaks at least as high as each member, so no score exceeds the `2.0`
/// of a zero aggregate.
pub fn pairwise_score_from_peaks(peak_a: f64, peak_b: f64, aggregate_peak: f64) -> f64 {
    let mut peak_sum = 0.0;
    peak_sum += peak_a;
    peak_sum += peak_b;
    if aggregate_peak == 0.0 {
        return 2.0;
    }
    peak_sum / aggregate_peak
}

/// Peak of the element-wise sum of two sample rows, fused: the aggregate
/// `a[t] + b[t]` is never materialized — its peak is folded directly with
/// [`peak_of_samples`]' 4-lane reduction, which is the exact float work of
/// `a.try_add(b)?.peak()`. This is the O(T) admissibility probe of online
/// placement: "what would this node's peak be if the candidate landed in
/// its subtree?" evaluated against a cached aggregate row.
///
/// # Errors
///
/// Returns [`CoreError::Trace`] (length mismatch) when the rows differ in
/// length. Steps are the caller's responsibility — rows of one arena always
/// share a grid.
pub fn peak_of_sum_samples(a: &[f64], b: &[f64]) -> Result<f64, CoreError> {
    if a.len() != b.len() {
        return Err(CoreError::Trace(TraceError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        }));
    }
    let mut lanes = [f64::MIN; 4];
    let mut a_chunks = a.chunks_exact(4);
    let mut b_chunks = b.chunks_exact(4);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        lanes[0] = lanes[0].max(ca[0] + cb[0]);
        lanes[1] = lanes[1].max(ca[1] + cb[1]);
        lanes[2] = lanes[2].max(ca[2] + cb[2]);
        lanes[3] = lanes[3].max(ca[3] + cb[3]);
    }
    let mut peak = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    for (&x, &y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        peak = peak.max(x + y);
    }
    Ok(peak)
}

/// The differential asynchrony score of one instance against a node it may
/// join or sit in, fused over raw sample rows: given the node's running
/// `sum` (a [`NodeAggregate::sum_samples`] buffer) over `count` members,
/// scores `instance` against the mean of the members *excluding*
/// `excluded` — without materializing the peer-mean trace or the pairwise
/// aggregate.
///
/// Per element the peer mean is `((sum[t] − excluded[t]) · 1/(count−1))
/// .max(0.0)` — the exact expression of [`NodeAggregate::mean_excluding`] —
/// and the three peaks (instance, peer mean, their sum) are folded in time
/// order exactly as the materializing
/// `differential_score(instance, &agg.mean_excluding(excluded)?)` path
/// computes them, so the two agree bit-for-bit.
///
/// Pass `excluded == instance` with the instance's own node to score it in
/// place, or `excluded` = some other member with a foreign node's sum to
/// score a hypothetical arrival replacing that member.
///
/// [`NodeAggregate::sum_samples`]: so_powertrace::NodeAggregate::sum_samples
/// [`NodeAggregate::mean_excluding`]: so_powertrace::NodeAggregate::mean_excluding
///
/// # Errors
///
/// Returns [`CoreError::EmptySet`] when `count < 2` (no peers) and
/// [`CoreError::Trace`] when the rows differ in length.
pub fn differential_score_excluding(
    instance: &[f64],
    sum: &[f64],
    excluded: &[f64],
    count: usize,
) -> Result<f64, CoreError> {
    if count < 2 {
        return Err(CoreError::EmptySet);
    }
    for row in [instance, excluded] {
        if row.len() != sum.len() {
            return Err(CoreError::Trace(TraceError::LengthMismatch {
                left: sum.len(),
                right: row.len(),
            }));
        }
    }
    let scale = 1.0 / (count - 1) as f64;
    // Three fused peak folds, each mirroring `peak_of_samples`' 4-lane
    // reduction; the per-element peer mean `((s − e) · scale).max(0)` is
    // unchanged, so the result stays bit-identical to materializing
    // `mean_excluding` and scoring it.
    let mut li = [f64::MIN; 4];
    let mut lm = [f64::MIN; 4];
    let mut la = [f64::MIN; 4];
    let mut x_chunks = instance.chunks_exact(4);
    let mut s_chunks = sum.chunks_exact(4);
    let mut e_chunks = excluded.chunks_exact(4);
    for ((cx, cs), ce) in (&mut x_chunks).zip(&mut s_chunks).zip(&mut e_chunks) {
        for lane in 0..4 {
            let m = ((cs[lane] - ce[lane]) * scale).max(0.0);
            li[lane] = li[lane].max(cx[lane]);
            lm[lane] = lm[lane].max(m);
            la[lane] = la[lane].max(cx[lane] + m);
        }
    }
    let mut peak_instance = li[0].max(li[1]).max(li[2].max(li[3]));
    let mut peak_mean = lm[0].max(lm[1]).max(lm[2].max(lm[3]));
    let mut peak_aggregate = la[0].max(la[1]).max(la[2].max(la[3]));
    for ((&x, &s), &e) in x_chunks
        .remainder()
        .iter()
        .zip(s_chunks.remainder())
        .zip(e_chunks.remainder())
    {
        let m = ((s - e) * scale).max(0.0);
        peak_instance = peak_instance.max(x);
        peak_mean = peak_mean.max(m);
        peak_aggregate = peak_aggregate.max(x + m);
    }
    let mut peak_sum = 0.0;
    peak_sum += peak_instance;
    peak_sum += peak_mean;
    if peak_aggregate == 0.0 {
        return Ok(2.0);
    }
    Ok(peak_sum / peak_aggregate)
}

/// The averaged aggregate trace `PA_{i,N}` of §3.6: the mean of the traces
/// of all peers of `i` under node `N` (excluding `i` itself).
///
/// # Errors
///
/// Returns [`CoreError::EmptySet`] when `i` has no peers and propagates
/// grid mismatches.
pub fn averaged_peer_trace(
    traces: &[PowerTrace],
    members: &[usize],
    i: usize,
) -> Result<PowerTrace, CoreError> {
    let peers = members.iter().filter(|&&j| j != i).map(|&j| &traces[j]);
    PowerTrace::mean_of(peers).map_err(|e| match e {
        so_powertrace::TraceError::Empty => CoreError::EmptySet,
        other => CoreError::Trace(other),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: &[f64]) -> PowerTrace {
        PowerTrace::new(samples.to_vec(), 10).unwrap()
    }

    #[test]
    fn score_bounds_examples() {
        let a = trace(&[4.0, 0.0, 2.0]);
        let b = trace(&[0.0, 4.0, 2.0]);
        let score = asynchrony_score([&a, &b]).unwrap();
        assert!(score > 1.0 && score <= 2.0);
    }

    #[test]
    fn synchronous_traces_score_one() {
        let a = trace(&[1.0, 3.0]);
        let b = a.scale(2.5);
        let score = asynchrony_score([&a, &b]).unwrap();
        assert!((score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_aggregate_scores_cardinality() {
        let z = trace(&[0.0, 0.0]);
        assert_eq!(asynchrony_score([&z, &z, &z]).unwrap(), 3.0);
    }

    #[test]
    fn singleton_set_scores_exactly_one() {
        // |M| = 1: peak(P) / peak(P) must be exactly 1.0, not a ratio that
        // happens to round there.
        let t = trace(&[0.25, 3.75, 1.5]);
        assert_eq!(asynchrony_score([&t]).unwrap(), 1.0);
        // ... and a zero singleton scores its cardinality, 1.0 again.
        let z = trace(&[0.0, 0.0, 0.0]);
        assert_eq!(asynchrony_score([&z]).unwrap(), 1.0);
    }

    #[test]
    fn mixed_zero_members_do_not_disturb_bounds() {
        // A zero trace in a non-zero set contributes 0 to both numerator
        // and denominator; the bounds 1 ≤ A_M ≤ |M| still hold.
        let a = trace(&[2.0, 0.0]);
        let z = trace(&[0.0, 0.0]);
        let score = asynchrony_score([&a, &z]).unwrap();
        assert!((1.0..=2.0).contains(&score));
        assert_eq!(score, 1.0);
    }

    #[test]
    fn empty_set_is_error() {
        assert_eq!(
            asynchrony_score(std::iter::empty::<&PowerTrace>()).unwrap_err(),
            CoreError::EmptySet
        );
    }

    #[test]
    fn swap_example_from_figure_3() {
        // Figure 3: instances 1,2 synchronous; 3,4 perfectly out of phase.
        let i1 = trace(&[2.0, 0.0]);
        let i2 = trace(&[2.0, 0.0]);
        let i3 = trace(&[2.0, 0.0]);
        let i4 = trace(&[0.0, 2.0]);
        // Poor placement: {1,2} and {3,4}... wait, {3,4} is already good.
        // Paper's poor case groups synchronous pairs: {1,3} vs {2,4} after
        // the swap gives score ~2 at both nodes.
        let poor_a = asynchrony_score([&i1, &i2]).unwrap();
        let good_a = asynchrony_score([&i1, &i4]).unwrap();
        let good_b = asynchrony_score([&i2, &i3]).unwrap();
        assert!((poor_a - 1.0).abs() < 1e-12);
        assert_eq!(good_a, 2.0);
        assert!((good_b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_score_samples_is_bit_identical_to_pairwise_score() {
        let cases = [
            (trace(&[4.0, 0.0, 2.0]), trace(&[0.0, 4.0, 2.0])),
            (trace(&[1.0, 3.0]), trace(&[2.5, 7.5])),
            (trace(&[0.0, 0.0]), trace(&[0.0, 0.0])),
            (trace(&[0.1, 0.7, 0.3]), trace(&[0.0, 0.0, 0.0])),
        ];
        for (a, b) in &cases {
            let want = pairwise_score(a, b).unwrap();
            let got = pairwise_score_samples(a.samples(), b.samples()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(pairwise_score_samples(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn peak_of_sum_samples_is_bit_identical_to_try_add_peak() {
        let cases = [
            (trace(&[4.0, 0.0, 2.0]), trace(&[0.0, 4.0, 2.0])),
            (trace(&[1.0, 3.0]), trace(&[2.5, 7.5])),
            (trace(&[0.0, 0.0]), trace(&[0.0, 0.0])),
            (
                trace(&[0.1, 0.7, 0.3, 0.9, 0.4, 0.6]),
                trace(&[0.2, 0.0, 0.5, 0.1, 0.8, 0.3]),
            ),
        ];
        for (a, b) in &cases {
            let want = a.try_add(b).unwrap().peak();
            let got = peak_of_sum_samples(a.samples(), b.samples()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(peak_of_sum_samples(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn differential_score_excluding_matches_materializing_path() {
        use so_powertrace::NodeAggregate;

        let members = [
            trace(&[4.0, 0.0, 1.0]),
            trace(&[0.0, 4.0, 1.0]),
            trace(&[2.0, 2.0, 2.0]),
            trace(&[0.5, 1.5, 3.5]),
        ];
        let agg = NodeAggregate::from_traces(members[0].grid(), &members).unwrap();
        for excluded in &members {
            for instance in &members {
                let want =
                    differential_score(instance, &agg.mean_excluding(excluded).unwrap()).unwrap();
                let got = differential_score_excluding(
                    instance.samples(),
                    agg.sum_samples(),
                    excluded.samples(),
                    agg.count(),
                )
                .unwrap();
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        assert_eq!(
            differential_score_excluding(&[1.0], &[1.0], &[1.0], 1).unwrap_err(),
            CoreError::EmptySet
        );
        assert!(differential_score_excluding(&[1.0], &[1.0, 2.0], &[1.0], 2).is_err());
    }

    #[test]
    fn differential_score_and_peer_mean() {
        let traces = vec![trace(&[4.0, 0.0]), trace(&[0.0, 4.0]), trace(&[0.0, 4.0])];
        let members = vec![0, 1, 2];
        let peers_of_0 = averaged_peer_trace(&traces, &members, 0).unwrap();
        assert_eq!(peers_of_0.samples(), &[0.0, 4.0]);
        let d = differential_score(&traces[0], &peers_of_0).unwrap();
        assert_eq!(d, 2.0);

        let lonely = averaged_peer_trace(&traces, &[1], 1);
        assert_eq!(lonely.unwrap_err(), CoreError::EmptySet);
    }
}
