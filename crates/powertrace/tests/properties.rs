//! Property-based tests for the power-trace substrate.

use proptest::prelude::*;
use so_powertrace::{
    off_peak_mask, peak_of_sum, sum_of_peaks, Ecdf, NodeAggregate, PercentileBands, PowerTrace,
    SlackProfile, TraceArena, TraceView,
};

fn sample_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1000.0, len..=len)
}

fn trace_pair(len: usize) -> impl Strategy<Value = (PowerTrace, PowerTrace)> {
    (sample_vec(len), sample_vec(len)).prop_map(|(a, b)| {
        (
            PowerTrace::new(a, 10).expect("valid samples"),
            PowerTrace::new(b, 10).expect("valid samples"),
        )
    })
}

/// An independent, deliberately simple re-derivation of the shared
/// linear-interpolation (Hyndman–Fan type 7) quantile, used as the
/// reference the production implementation must agree with.
fn naive_reference_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    let pos = q * (n as f64 - 1.0);
    let lo = (pos.floor() as usize).min(n - 1);
    let hi = (lo + 1).min(n - 1);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

proptest! {
    /// The shared quantile agrees with the naive reference implementation
    /// on random inputs (including single-sample traces).
    #[test]
    fn shared_quantile_matches_naive_reference(
        v in prop::collection::vec(0.0f64..1000.0, 1..120),
        q in 0.0f64..=1.0,
    ) {
        let got = so_powertrace::quantile::quantile(&v, q).unwrap();
        let want = naive_reference_quantile(&v, q);
        prop_assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "quantile({q}) = {got}, reference = {want}"
        );
    }

    /// The shared quantile is monotone non-decreasing in p and bounded by
    /// the sample extremes; p = 0 and p = 1 hit them exactly.
    #[test]
    fn shared_quantile_monotone_in_p(
        v in prop::collection::vec(0.0f64..1000.0, 1..120),
        qs in prop::collection::vec(0.0f64..=1.0, 2..12),
    ) {
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).expect("quantiles are finite"));
        let values: Vec<f64> = qs
            .iter()
            .map(|&q| so_powertrace::quantile::quantile(&v, q).unwrap())
            .collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12, "not monotone: {values:?} at {qs:?}");
        }
        let min = v.iter().copied().fold(f64::MAX, f64::min);
        let max = v.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(values.iter().all(|&x| (min..=max).contains(&x)));
        prop_assert_eq!(so_powertrace::quantile::quantile(&v, 0.0).unwrap(), min);
        prop_assert_eq!(so_powertrace::quantile::quantile(&v, 1.0).unwrap(), max);
    }

    /// peak(a + b) <= peak(a) + peak(b): aggregation can only cancel peaks.
    #[test]
    fn peak_is_subadditive((a, b) in trace_pair(64)) {
        let sum = a.try_add(&b).unwrap();
        prop_assert!(sum.peak() <= a.peak() + b.peak() + 1e-9);
    }

    /// peak(a + b) >= max(peak(a), peak(b)) for non-negative traces.
    #[test]
    fn aggregate_peak_dominates_components((a, b) in trace_pair(64)) {
        let sum = a.try_add(&b).unwrap();
        prop_assert!(sum.peak() + 1e-9 >= a.peak().max(b.peak()));
    }

    /// sum_of_peaks >= peak_of_sum for any population.
    #[test]
    fn sum_of_peaks_dominates_peak_of_sum(vs in prop::collection::vec(sample_vec(32), 1..8)) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let sp = sum_of_peaks(traces.iter()).unwrap();
        let ps = peak_of_sum(traces.iter()).unwrap();
        prop_assert!(sp + 1e-9 >= ps);
    }

    /// Quantiles are monotone in q and bounded by [min, peak].
    #[test]
    fn quantiles_are_monotone(v in sample_vec(50), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let t = PowerTrace::new(v, 10).unwrap();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = t.quantile(lo).unwrap();
        let b = t.quantile(hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        prop_assert!(t.min() - 1e-9 <= a && b <= t.peak() + 1e-9);
    }

    /// Ecdf quantiles agree with trace quantiles.
    #[test]
    fn ecdf_matches_trace(v in sample_vec(40), q in 0.0f64..=1.0) {
        let t = PowerTrace::new(v, 10).unwrap();
        let e = Ecdf::from_trace(&t);
        prop_assert!((e.quantile(q).unwrap() - t.quantile(q).unwrap()).abs() < 1e-9);
    }

    /// Slack is non-negative and bounded by the budget; energy slack
    /// equals budget*duration minus bounded energy.
    #[test]
    fn slack_bounds(v in sample_vec(40), budget in 0.0f64..2000.0) {
        let t = PowerTrace::new(v, 10).unwrap();
        let s = SlackProfile::new(&t, budget).unwrap();
        for &x in s.slack_samples() {
            prop_assert!(x >= 0.0 && x <= budget + 1e-9);
        }
        let full_mask = vec![true; t.len()];
        let masked = s.masked_energy_slack(&full_mask).unwrap();
        prop_assert!((masked - s.energy_slack_watt_minutes()).abs() < 1e-6);
    }

    /// The off-peak mask marks at least the minimum sample and never the
    /// strict maximum when threshold < 1.
    #[test]
    fn off_peak_mask_is_sane(v in sample_vec(40)) {
        let t = PowerTrace::new(v, 10).unwrap();
        let mask = off_peak_mask(&t, 0.5).unwrap();
        prop_assert_eq!(mask.len(), t.len());
        // The min sample is always <= the median threshold.
        let min_idx = t
            .samples()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assert!(mask[min_idx]);
    }

    /// mean_of is bounded by component extremes, per timestep.
    #[test]
    fn mean_of_is_bounded((a, b) in trace_pair(32)) {
        let m = PowerTrace::mean_of([&a, &b]).unwrap();
        for i in 0..m.len() {
            let lo = a.samples()[i].min(b.samples()[i]);
            let hi = a.samples()[i].max(b.samples()[i]);
            prop_assert!(lo - 1e-9 <= m.samples()[i] && m.samples()[i] <= hi + 1e-9);
        }
    }

    /// Percentile bands are ordered: series(q1) <= series(q2) when q1 <= q2.
    #[test]
    fn bands_are_ordered(vs in prop::collection::vec(sample_vec(16), 2..6)) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let bands = PercentileBands::compute(&traces, &[0.25, 0.75]).unwrap();
        let lo = bands.series(0.25).unwrap();
        let hi = bands.series(0.75).unwrap();
        for i in 0..lo.len() {
            prop_assert!(lo[i] <= hi[i] + 1e-9);
        }
    }

    /// Downsampling preserves total energy.
    #[test]
    fn downsample_preserves_energy(v in sample_vec(64)) {
        let t = PowerTrace::new(v, 10).unwrap();
        let d = t.downsample(4).unwrap();
        prop_assert!((t.energy_watt_minutes() - d.energy_watt_minutes()).abs() < 1e-6);
    }

    /// An arbitrary add/remove sequence on a [`NodeAggregate`] matches a
    /// from-scratch `PowerTrace::sum_of` over the live members at every
    /// step: the incremental cache never drifts from the ground truth.
    #[test]
    fn node_aggregate_matches_from_scratch_sum(
        vs in prop::collection::vec(sample_vec(24), 1..10),
        ops in prop::collection::vec(0usize..2048, 1..40),
    ) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let mut agg = NodeAggregate::new(traces[0].grid());
        let mut live: Vec<usize> = Vec::new();

        for op in ops {
            let (is_add, pick) = (op % 2 == 0, op / 2);
            if is_add || live.is_empty() {
                let idx = pick % traces.len();
                agg.add(&traces[idx]).unwrap();
                live.push(idx);
            } else {
                let at = pick % live.len();
                let idx = live.swap_remove(at);
                agg.remove(&traces[idx]).unwrap();
            }

            prop_assert_eq!(agg.count(), live.len());
            if live.is_empty() {
                prop_assert!((agg.peak() - 0.0).abs() < 1e-6);
                continue;
            }
            let expected = PowerTrace::sum_of(live.iter().map(|&i| &traces[i])).unwrap();
            prop_assert!(
                (agg.peak() - expected.peak()).abs() < 1e-6,
                "cached peak {} vs from-scratch {}", agg.peak(), expected.peak()
            );
            let got = agg.to_trace().unwrap();
            for (a, b) in got.samples().iter().zip(expected.samples()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }

    /// Traces survive the columnar round trip bit-for-bit: arena rows,
    /// zero-copy views, and materialized traces all reproduce the source
    /// samples exactly (single-sample traces included).
    #[test]
    fn arena_round_trip_is_bit_exact(
        vs in (1usize..24).prop_flat_map(|len| prop::collection::vec(sample_vec(len), 1..6)),
    ) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let arena = TraceArena::from_traces(&traces).unwrap();
        prop_assert_eq!(arena.len(), traces.len());
        let back = arena.to_traces().unwrap();
        for (i, t) in traces.iter().enumerate() {
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(arena.row(i)), bits(t.samples()));
            prop_assert_eq!(bits(arena.view(i).samples()), bits(t.samples()));
            prop_assert_eq!(bits(back[i].samples()), bits(t.samples()));
            prop_assert_eq!(back[i].grid(), t.grid());
            prop_assert_eq!(TraceView::from_trace(t).peak().to_bits(), t.peak().to_bits());
        }
    }

    /// The batch sum kernel matches a naive per-timestep accumulation in
    /// member order, bit for bit — the order `PowerTrace::sum_of` uses.
    #[test]
    fn arena_sum_into_matches_naive_reference(
        vs in prop::collection::vec(sample_vec(24), 1..8),
        picks in prop::collection::vec(0usize..64, 1..12),
    ) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let arena = TraceArena::from_traces(&traces).unwrap();
        let members: Vec<usize> = picks.iter().map(|&p| p % traces.len()).collect();

        let mut naive = vec![0.0f64; arena.samples_per_trace()];
        for &m in &members {
            for (acc, &v) in naive.iter_mut().zip(traces[m].samples()) {
                *acc += v;
            }
        }
        let mut out = vec![f64::NAN; arena.samples_per_trace()];
        arena.sum_into(&members, &mut out).unwrap();
        for (a, b) in out.iter().zip(&naive) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The fused blocked peak kernel equals the peak of the materialized
    /// sum, bit for bit, for any member multiset (duplicates allowed).
    #[test]
    fn arena_peak_of_sum_matches_naive_reference(
        vs in prop::collection::vec(sample_vec(40), 1..8),
        picks in prop::collection::vec(0usize..64, 1..12),
    ) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let arena = TraceArena::from_traces(&traces).unwrap();
        let members: Vec<usize> = picks.iter().map(|&p| p % traces.len()).collect();

        let mut sum = vec![0.0f64; arena.samples_per_trace()];
        arena.sum_into(&members, &mut sum).unwrap();
        let naive_peak = sum.iter().copied().fold(f64::MIN, f64::max);
        prop_assert_eq!(arena.peak_of_sum(&members).unwrap().to_bits(), naive_peak.to_bits());
    }

    /// Arena row quantiles agree bit-for-bit with the trace-layer quantile
    /// on the same samples.
    #[test]
    fn arena_quantiles_match_trace_quantiles(
        vs in prop::collection::vec(sample_vec(30), 1..5),
        q in 0.0f64..=1.0,
    ) {
        let traces: Vec<PowerTrace> =
            vs.into_iter().map(|v| PowerTrace::new(v, 10).unwrap()).collect();
        let arena = TraceArena::from_traces(&traces).unwrap();
        let mut scratch = Vec::new();
        let batch = arena.row_quantiles(q).unwrap();
        for (i, t) in traces.iter().enumerate() {
            let want = t.quantile(q).unwrap();
            prop_assert_eq!(arena.quantile_of_row(i, q, &mut scratch).unwrap().to_bits(), want.to_bits());
            prop_assert_eq!(batch[i].to_bits(), want.to_bits());
        }
    }
}

/// Deterministic edge cases the strategies above cannot reach.
#[test]
fn arena_edge_cases() {
    // An empty trace slice cannot define a grid.
    assert!(TraceArena::from_traces(&[]).is_err());

    // Empty member set has no sum.
    let t = PowerTrace::new(vec![1.0, 2.0], 10).unwrap();
    let arena = TraceArena::from_traces(std::slice::from_ref(&t)).unwrap();
    let mut out = vec![0.0; 2];
    assert!(arena.sum_into(&[], &mut out).is_err());
    assert!(arena.peak_of_sum(&[]).is_err());

    // Single-sample rows: quantiles collapse to the sample for every q.
    let single = PowerTrace::new(vec![7.5], 10).unwrap();
    let arena = TraceArena::from_traces(std::slice::from_ref(&single)).unwrap();
    let mut scratch = Vec::new();
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(arena.quantile_of_row(0, q, &mut scratch).unwrap(), 7.5);
    }
    assert_eq!(arena.peak_of_sum(&[0, 0]).unwrap(), 15.0);
}

proptest! {
    /// The selection-based quantile is bit-for-bit the full-sort quantile
    /// for every sample set and probe — the contract that lets the scale
    /// tier's hot path use `select_nth_unstable` while the oracles keep
    /// pinning against the sorted reference.
    #[test]
    fn select_quantile_is_bitwise_the_sort_quantile(
        v in prop::collection::vec(0.0f64..1000.0, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut scratch = Vec::new();
        let got = so_powertrace::quantile::quantile_select(&v, q, &mut scratch).unwrap();
        let want = so_powertrace::quantile::quantile(&v, q).unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "q={}", q);
    }
}
