//! Exact resident aggregates: raw (unsnapped) random input driven through
//! random interleavings of arrive, retire, ingest and repair must leave
//! every node's aggregate and cached peak bit-identical to a from-scratch
//! [`NodeAggregates::compute`] of the live view after every event, and
//! every rack's peak sum bit-identical to a fresh sum of its members' row
//! peaks. Retiring everything must leave `+0.0` bits at every node and in
//! every rack's peak sum, and the snapped aggregates must stay within
//! `n · 2^-11` W, plus the rounding of the unsnapped sum itself, of a
//! recompute from the raw inputs.

use proptest::prelude::*;
use so_core::daemon::{DaemonFleet, SampleUpdate};
use so_core::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{peak_of_samples, PowerTrace, TimeGrid, SAMPLE_QUANTUM_WATTS};
use so_powertree::{NodeAggregates, PowerTopology};

/// Samples per window.
const T: usize = 6;

/// 1 suite × 2 MSB × 1 SB × 2 RPP × 2 racks of 3 slots: 24 slots, so
/// long streams fill racks and exercise rejection too.
fn topo() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(3)
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
enum Event {
    Arrive(Vec<f64>),
    /// Retires the live slot at this ordinal (mod the live count).
    Retire(usize),
    /// `(live ordinal, watts)` readings, one ingest batch.
    Ingest(Vec<(usize, f64)>),
    Repair,
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => prop::collection::vec(0.0f64..500.0, T..=T).prop_map(Event::Arrive),
        2 => (0usize..64).prop_map(Event::Retire),
        3 => prop::collection::vec((0usize..64, 0.0f64..500.0), 1..12).prop_map(Event::Ingest),
        1 => Just(Event::Repair),
    ]
}

/// One probe up to every rack (`topo()` has 8) and one past.
fn policy() -> impl Strategy<Value = CommitPolicy> {
    (1usize..=9).prop_map(|probes| CommitPolicy::Sampling { probes })
}

/// `NodeAggregates::compute` of the fleet's live view with `rows`
/// standing in for each live slot's window.
fn recompute(fleet: &OnlineFleet, rows: impl Fn(usize) -> Vec<f64>) -> NodeAggregates {
    let (_, assignment, slots) = fleet.live_view().unwrap();
    if slots.is_empty() {
        return NodeAggregates::zeros(fleet.topology(), fleet.grid());
    }
    let traces: Vec<PowerTrace> = slots
        .iter()
        .map(|&s| PowerTrace::new(rows(s), 60).unwrap())
        .collect();
    NodeAggregates::compute(fleet.topology(), &assignment, &traces).unwrap()
}

/// Every rack's peak sum, and a fresh sum of its members' row peaks.
fn peak_sum_bits(fleet: &OnlineFleet) -> (Vec<u64>, Vec<u64>) {
    let mut fresh = vec![0.0f64; fleet.topology().len()];
    for slot in fleet.live_slots() {
        let rack = fleet.rack_of(slot).unwrap();
        fresh[rack.index()] += peak_of_samples(fleet.row(slot));
    }
    let racks = fleet.topology().racks();
    (
        racks.iter().map(|&r| fleet.peak_sum(r).to_bits()).collect(),
        racks.iter().map(|r| fresh[r.index()].to_bits()).collect(),
    )
}

fn bits(agg: &NodeAggregates, fleet: &OnlineFleet) -> Vec<(Vec<u64>, u64)> {
    fleet
        .topology()
        .nodes()
        .iter()
        .map(|n| {
            let trace = agg.trace(n.id()).unwrap();
            let samples = trace.samples().iter().map(|v| v.to_bits()).collect();
            (samples, agg.peak(n.id()).unwrap().to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_maintained_aggregates_are_exact_under_any_interleaving(
        events in prop::collection::vec(event(), 1..48),
        policy in policy(),
    ) {
        let topology = topo();
        let config = OnlineConfig {
            policy,
            repair_budget: 2,
            min_gain: 0.0,
            sample_salt: 5,
        };
        let fleet = OnlineFleet::new(topology.clone(), TimeGrid::new(60, T), config)
            .with_budgets(vec![1e6; topology.len()])
            .unwrap();
        let mut daemon = DaemonFleet::new(fleet);
        // The raw inputs per slot, ring writes mirrored by hand.
        let mut raw: Vec<Vec<f64>> = Vec::new();
        let mut cursor: Vec<usize> = Vec::new();
        for event in events {
            let live = daemon.fleet().live_slots();
            match event {
                Event::Arrive(row) => {
                    let trace = PowerTrace::new(row.clone(), 60).unwrap();
                    if let Some(slot) = daemon.arrive(&trace).unwrap() {
                        prop_assert_eq!(slot, raw.len());
                        raw.push(row);
                        cursor.push(0);
                    }
                }
                Event::Retire(k) if !live.is_empty() => {
                    daemon.retire(live[k % live.len()]).unwrap();
                }
                Event::Ingest(readings) if !live.is_empty() => {
                    let updates: Vec<SampleUpdate> = readings
                        .iter()
                        .map(|&(k, watts)| SampleUpdate { slot: live[k % live.len()], watts })
                        .collect();
                    daemon.ingest_batch(&updates).unwrap();
                    for u in &updates {
                        raw[u.slot][cursor[u.slot]] = u.watts;
                        cursor[u.slot] = (cursor[u.slot] + 1) % T;
                    }
                }
                Event::Repair => {
                    daemon.repair().unwrap();
                }
                _ => {}
            }
            let fleet = daemon.fleet();
            let want = recompute(fleet, |s| fleet.row(s).to_vec());
            prop_assert_eq!(bits(fleet.aggregates(), fleet), bits(&want, fleet));
            let (resident, fresh) = peak_sum_bits(fleet);
            prop_assert_eq!(resident, fresh);
        }

        // Snapped vs raw: each node sums `n` live rows, each moved by at
        // most half a quantum; the raw sum rounds by at most
        // `(n - 1) · u` of itself, bounded here by `n · ε`.
        let fleet = daemon.fleet();
        let unsnapped = recompute(fleet, |s| raw[s].clone());
        let mut terms = vec![0usize; topology.len()];
        for slot in fleet.live_slots() {
            let rack = fleet.rack_of(slot).unwrap();
            terms[rack.index()] += 1;
            for node in topology.ancestors(rack).unwrap() {
                terms[node.index()] += 1;
            }
        }
        for node in topology.nodes().iter().map(|n| n.id()) {
            let n = terms[node.index()] as f64;
            let got = fleet.aggregates().trace(node).unwrap().samples();
            let exact = unsnapped.trace(node).unwrap().samples();
            for (&g, &x) in got.iter().zip(exact) {
                let bound = n * SAMPLE_QUANTUM_WATTS / 2.0 + n * f64::EPSILON * x;
                prop_assert!((g - x).abs() <= bound, "node {}: {} vs raw {} (bound {})", node, g, x, bound);
            }
        }

        for slot in fleet.live_slots() {
            daemon.retire(slot).unwrap();
        }
        for node in topology.nodes().iter().map(|n| n.id()) {
            let agg = daemon.fleet().aggregates();
            prop_assert!(agg.trace(node).unwrap().samples().iter().all(|v| v.to_bits() == 0));
            prop_assert_eq!(agg.peak(node).unwrap().to_bits(), 0);
        }
        for &rack in topology.racks() {
            prop_assert_eq!(daemon.fleet().peak_sum(rack).to_bits(), 0);
        }
    }
}
