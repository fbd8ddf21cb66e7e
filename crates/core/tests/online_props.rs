//! Property-based tests for the online placement engine: algebraic laws
//! that must hold for *any* event stream, not just the curated examples.

use proptest::prelude::*;
use so_core::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid};
use so_powertree::PowerTopology;

const STEP: u32 = 60;
const LEN: usize = 6;

/// 8 racks × 3 slots, 400 W rack budgets (ancestor budgets are child
/// sums, so with samples capped well below 400/3 only capacity binds).
fn topo() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(1)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(3)
        .rack_budget_watts(400.0)
        .build()
        .unwrap()
}

fn engine(policy: CommitPolicy) -> OnlineFleet {
    OnlineFleet::new(
        topo(),
        TimeGrid::new(STEP, LEN),
        OnlineConfig {
            policy,
            repair_budget: 0,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
}

fn batch(n: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<PowerTrace>> {
    prop::collection::vec(prop::collection::vec(0.0f64..120.0, LEN..=LEN), n).prop_map(|vs| {
        vs.into_iter()
            .map(|v| PowerTrace::new(v, STEP).expect("valid samples"))
            .collect()
    })
}

/// Every node trace's sample bits, in node order.
fn aggregate_bits(fleet: &OnlineFleet) -> Vec<u64> {
    fleet
        .topology()
        .nodes()
        .iter()
        .map(|n| n.id())
        .flat_map(|node| {
            fleet
                .aggregates()
                .trace(node)
                .expect("every node has a trace")
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrive∘retire is the identity on the resident aggregates — not
    /// merely within 1e-9, but bit-for-bit, because resident samples sit
    /// on the exact grid, where adding and then subtracting a row is
    /// exact.
    #[test]
    fn arrive_then_retire_is_identity(warm in batch(0..=8), t in batch(1..=1)) {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        fleet.apply(&warm, &[]).unwrap();
        let before = aggregate_bits(&fleet);
        if let Some(slot) = fleet.arrive(&t[0]).unwrap() {
            fleet.retire(slot).unwrap();
        }
        let after = aggregate_bits(&fleet);
        prop_assert_eq!(before, after);
        let drift = after_drift(&fleet, &warm);
        prop_assert!(drift <= 1e-9, "drift {drift} vs from-scratch recompute");
    }

    /// Deterministic policies are equivariant under permutation of the
    /// batch contents: `apply` canonicalizes arrival order (sample-bit
    /// digest) and retirement draws (resolved against the batch-entry
    /// snapshot, deduped ascending), so rotating and reversing the inputs
    /// must produce bit-identical end states.
    #[test]
    fn apply_is_permutation_equivariant(
        warm in batch(2..=6),
        arrivals in batch(0..=6),
        retires in prop::collection::vec(0u64..1_000_000, 0..=4),
        rot in 0usize..6,
    ) {
        for policy in [CommitPolicy::BestAsynchrony, CommitPolicy::FirstFit, CommitPolicy::WorstFit] {
            let mut a = engine(policy);
            let mut b = engine(policy);
            a.apply(&warm, &[]).unwrap();
            b.apply(&warm, &[]).unwrap();

            let mut permuted = arrivals.clone();
            if !permuted.is_empty() {
                let rot = rot % permuted.len();
                permuted.rotate_left(rot);
                permuted.reverse();
            }
            let mut retires_rev = retires.clone();
            retires_rev.reverse();

            a.apply(&arrivals, &retires).unwrap();
            b.apply(&permuted, &retires_rev).unwrap();
            prop_assert_eq!(a.live_len(), b.live_len());
            prop_assert_eq!(aggregate_bits(&a), aggregate_bits(&b));
        }
    }

    /// Retiring everything returns every node aggregate to exactly zero —
    /// no floating-point residue survives a full churn cycle.
    #[test]
    fn retire_all_is_exactly_zero(
        first in batch(1..=8),
        second in batch(0..=8),
        retires in prop::collection::vec(0u64..1_000_000, 0..=3),
    ) {
        let mut fleet = engine(CommitPolicy::WorstFit);
        fleet.apply(&first, &[]).unwrap();
        fleet.apply(&second, &retires).unwrap();
        for slot in fleet.live_slots() {
            fleet.retire(slot).unwrap();
        }
        prop_assert_eq!(fleet.live_len(), 0);
        for bits in aggregate_bits(&fleet) {
            prop_assert_eq!(bits, 0.0f64.to_bits());
        }
    }
}

/// Max absolute deviation between the resident root aggregate and a
/// from-scratch recompute of the live view (documented 1e-9 bound; in
/// practice exact).
fn after_drift(fleet: &OnlineFleet, _warm: &[PowerTrace]) -> f64 {
    let (traces, assignment, _) = fleet.live_view().unwrap();
    if traces.is_empty() {
        return 0.0;
    }
    let offline =
        so_powertree::NodeAggregates::compute(fleet.topology(), &assignment, &traces).unwrap();
    let root = fleet.topology().root();
    fleet
        .aggregates()
        .trace(root)
        .unwrap()
        .samples()
        .iter()
        .zip(offline.trace(root).unwrap().samples())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}
