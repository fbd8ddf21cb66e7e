//! Property-based tests for the online placement engine: algebraic laws
//! that must hold for *any* event stream, not just the curated examples.

use proptest::prelude::*;
use so_core::{OnlineConfig, OnlineFleet};
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

/// An engine that probes every rack and never repairs.
fn engine() -> OnlineFleet {
    OnlineFleet::new(
        topo(),
        TimeGrid::new(STEP, LEN),
        OnlineConfig {
            repair_budget: 0,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
}

/// Offers `traces` in order.
fn arrive_all(fleet: &mut OnlineFleet, traces: &[PowerTrace]) {
    for t in traces {
        fleet.arrive(t).unwrap();
    }
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
        let mut fleet = engine();
        arrive_all(&mut fleet, &warm);
        let before = aggregate_bits(&fleet);
        if let Some(slot) = fleet.arrive(&t[0]).unwrap() {
            fleet.retire(slot).unwrap();
        }
        let after = aggregate_bits(&fleet);
        prop_assert_eq!(before, after);
        let drift = after_drift(&fleet, &warm);
        prop_assert!(drift <= 1e-9, "drift {drift} vs from-scratch recompute");
    }

    /// Retiring everything returns every node aggregate to exactly zero —
    /// no floating-point residue survives a full churn cycle.
    #[test]
    fn retire_all_is_exactly_zero(
        first in batch(1..=8),
        second in batch(0..=8),
        retires in prop::collection::vec(0u64..1_000_000, 0..=3),
    ) {
        let mut fleet = engine();
        arrive_all(&mut fleet, &first);
        let live = fleet.live_slots();
        let mut slots: Vec<usize> = retires
            .iter()
            .map(|&r| live[(r % live.len() as u64) as usize])
            .collect();
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            fleet.retire(slot).unwrap();
        }
        arrive_all(&mut fleet, &second);
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
