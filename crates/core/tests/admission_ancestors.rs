//! Regression: admission must reject a candidate whose *ancestor* budget
//! would be breached even when the rack itself has room — the per-level
//! capping the paper's power tree exists to enforce. Pins the behaviour
//! at the RPP and MSB levels for both the materializing
//! [`admission_decisions`] path and the fused [`OnlineFleet`] evaluation,
//! and pins the fused path's O(1) budget shortcut
//! (`peak(node) + peak(candidate) <= budget`) and shared ancestor checks
//! as exact: budgets placed on, one ulp either side of, and far from the
//! shortcut bound give the materializing path's decisions bit for bit.
//! The reference side sees the candidate snapped onto the exact grid, as
//! the engine does, so the bounds it builds sit exactly on the engine's.
//! Tie-heavy fleets (flat and repeated rows) hold the bound-pruned arrival
//! search to the same choice and breaker-violation flag as a full scan,
//! and a last proptest pins the one-sample bound the search prunes with.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use so_core::{
    admission_decisions, offline_choose, pairwise_score_from_peaks, sample_racks, CommitPolicy,
    LeafDecision, OnlineConfig, OnlineFleet,
};
use so_powertrace::{peak_of_samples, snap_samples, PowerTrace, TimeGrid};
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology};
use so_telemetry::{default_online_rules, LivePlane, RecordingSink};

/// 1 suite × 2 MSB × 1 SB × 1 RPP × 2 racks: racks 0–1 share one
/// RPP/SB/MSB path, racks 2–3 the other.
fn topo() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(2)
        .rack_capacity(4)
        .rack_budget_watts(400.0)
        .build()
        .unwrap()
}

/// Per-node budgets: 400 W racks, `rpp`/`msb` watts at those levels, and
/// effectively unconstrained everywhere else.
fn budgets(topology: &PowerTopology, rpp: f64, msb: f64) -> Vec<f64> {
    topology
        .nodes()
        .iter()
        .map(|n| match n.level() {
            Level::Rack => 400.0,
            Level::Rpp => rpp,
            Level::Msb => msb,
            _ => 100_000.0,
        })
        .collect()
}

fn flat(watts: f64) -> PowerTrace {
    PowerTrace::new(vec![watts; 4], 60).unwrap()
}

/// One 300 W instance on rack 0, then a 200 W candidate probed.
fn fixture(topology: &PowerTopology) -> (Vec<PowerTrace>, Assignment, NodeAggregates) {
    let traces = vec![flat(300.0)];
    let assignment = Assignment::new(vec![topology.racks()[0]], topology).unwrap();
    let aggregates = NodeAggregates::compute(topology, &assignment, &traces).unwrap();
    (traces, assignment, aggregates)
}

#[test]
fn rpp_budget_rejects_a_rack_level_fit() {
    let topology = topo();
    // RPP budget 450 W: rack 1 alone could host the 200 W candidate
    // (200 ≤ 400), but its RPP already carries rack 0's 300 W, and
    // 300 + 200 = 500 > 450.
    let budgets = budgets(&topology, 450.0, 100_000.0);
    let (traces, assignment, aggregates) = fixture(&topology);
    let candidate = flat(200.0);
    let decisions =
        admission_decisions(&topology, &assignment, &aggregates, &budgets, &candidate).unwrap();
    let racks = topology.racks();
    let of = |rack| decisions.iter().find(|d| d.rack == rack).unwrap();
    assert!(!of(racks[0]).fits, "rack 0 breaches its own 400 W budget");
    assert!(
        !of(racks[1]).fits,
        "rack 1 fits locally but must be rejected at the RPP"
    );
    assert!(of(racks[2]).fits, "the sibling RPP is unconstrained");
    assert!(of(racks[3]).fits);
    let _ = traces;
}

#[test]
fn msb_budget_rejects_a_rack_level_fit() {
    let topology = topo();
    // Same shape one level up: the RPPs are generous, the loaded MSB is
    // capped at 450 W.
    let budgets = budgets(&topology, 100_000.0, 450.0);
    let (_, assignment, aggregates) = fixture(&topology);
    let candidate = flat(200.0);
    let decisions =
        admission_decisions(&topology, &assignment, &aggregates, &budgets, &candidate).unwrap();
    let racks = topology.racks();
    let of = |rack| decisions.iter().find(|d| d.rack == rack).unwrap();
    assert!(!of(racks[1]).fits, "MSB budget must veto the local fit");
    assert!(of(racks[2]).fits && of(racks[3]).fits);
}

#[test]
fn online_engine_agrees_with_ancestor_rejection() {
    let topology = topo();
    let budgets = budgets(&topology, 450.0, 100_000.0);
    let mut engine = OnlineFleet::new(
        topology.clone(),
        TimeGrid::new(60, 4),
        OnlineConfig {
            policy: CommitPolicy::WorstFit,
            repair_budget: 0,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
    .with_budgets(budgets)
    .unwrap();
    // Pin the 300 W instance onto rack 0: with equal headroom everywhere
    // WorstFit's ascending tie-break picks the first rack.
    let slot = engine.arrive(&flat(300.0)).unwrap().unwrap();
    assert_eq!(engine.rack_of(slot).unwrap(), topology.racks()[0]);
    let decisions = engine.decisions(&flat(200.0)).unwrap();
    let of = |rack| decisions.iter().find(|d| d.rack == rack).unwrap();
    assert!(!of(topology.racks()[0]).fits);
    assert!(
        !of(topology.racks()[1]).fits,
        "fused path must apply the same RPP veto"
    );
    assert!(of(topology.racks()[2]).fits && of(topology.racks()[3]).fits);
    // The commit itself lands under the open RPP.
    let committed = engine.arrive(&flat(200.0)).unwrap().unwrap();
    let rack = engine.rack_of(committed).unwrap();
    assert!(rack == topology.racks()[2] || rack == topology.racks()[3]);
}

/// A candidate that peaks at the third step, against a rack peaking at
/// the first: the shortcut bound (sum of peaks) overstates the combined
/// peak, so a budget one ulp under the bound must still admit — only the
/// exact O(T) fallback can say so.
#[test]
fn budget_under_the_peak_bound_still_admits_an_asynchronous_candidate() {
    let topology = topo();
    let day = PowerTrace::new(vec![300.0, 100.0, 50.0, 100.0], 60).unwrap();
    let night = PowerTrace::new(vec![20.0, 60.0, 200.0, 60.0], 60).unwrap();
    let mut engine = OnlineFleet::new(
        topology.clone(),
        TimeGrid::new(60, 4),
        OnlineConfig {
            policy: CommitPolicy::FirstFit,
            repair_budget: 0,
            ..OnlineConfig::default()
        },
    );
    let slot = engine.arrive(&day).unwrap().unwrap();
    let rack = engine.rack_of(slot).unwrap();
    let bound = |node: NodeId| engine.aggregates().peak(node).unwrap() + 200.0;
    let under: Vec<f64> = topology
        .nodes()
        .iter()
        .map(|n| ulp_down(bound(n.id())))
        .collect();
    let tight = engine.clone().with_budgets(under).unwrap();
    let decision = tight.evaluate(rack, night.samples()).unwrap();
    assert_eq!(decision.new_peak_watts, 320.0, "the peaks do not coincide");
    assert!(decision.fits, "the exact probe admits under the bound");
    // A budget under the true combined peak still rejects.
    let below: Vec<f64> = topology.nodes().iter().map(|_| 319.0).collect();
    let tighter = engine.with_budgets(below).unwrap();
    assert!(!tighter.evaluate(rack, night.samples()).unwrap().power_ok);
}

/// The next float above `x >= 0`.
fn ulp_up(x: f64) -> f64 {
    assert!(x >= 0.0 && x.is_finite());
    f64::from_bits(if x == 0.0 { 1 } else { x.to_bits() + 1 })
}

/// The next float below `x >= 0`.
fn ulp_down(x: f64) -> f64 {
    assert!(x >= 0.0 && x.is_finite());
    if x == 0.0 {
        -f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// A budget placed relative to the shortcut bound `peak(node) +
/// peak(candidate)`: on it (the O(1) branch decides), one ulp above or
/// below (below, only the O(T) probe can decide), far above, far below,
/// or non-finite.
fn budget_at(bound: f64, mode: u8) -> f64 {
    match mode {
        0 => bound,
        1 => ulp_up(bound),
        2 => ulp_down(bound),
        3 => 4.0 * bound + 1_000.0,
        4 => 0.25 * bound - 1.0,
        5 => f64::NAN,
        6 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..150.0, 4..=4)
}

/// A fleet of rows and a candidate: random, or tie-heavy — every row one
/// of a few flat levels, one random shape, or that shape with its first
/// sample dropped to zero — so that asynchrony and peak-increase ties
/// occur and one-sample bounds are both tight and loose.
fn rows_and_candidate() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    let random = (prop::collection::vec(samples(), 0..=10), samples());
    let tied = (
        samples(),
        prop::collection::vec(0usize..5, 0..=10),
        0usize..5,
    )
        .prop_map(|(shape, picks, pick)| {
            let mut dipped = shape.clone();
            dipped[0] = 0.0;
            let pool = [vec![25.0; 4], vec![50.0; 4], vec![75.0; 4], shape, dipped];
            let fleet = picks.iter().map(|&i| pool[i].clone()).collect();
            (fleet, pool[pick].clone())
        });
    prop_oneof![random, tied]
}

fn policy() -> impl Strategy<Value = CommitPolicy> {
    prop_oneof![
        Just(CommitPolicy::BestAsynchrony),
        Just(CommitPolicy::FirstFit),
        Just(CommitPolicy::WorstFit),
        Just(CommitPolicy::Sampling { probes: 3 }),
    ]
}

fn bits(d: &LeafDecision) -> (usize, bool, bool, bool, [u64; 4]) {
    (
        d.rack.index(),
        d.fits,
        d.has_slot,
        d.power_ok,
        [
            d.new_peak_watts.to_bits(),
            d.peak_increase_watts.to_bits(),
            d.headroom_watts.to_bits(),
            d.asynchrony.to_bits(),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `LeafDecision` field of `decisions()` and `evaluate()` equals
    /// the materializing reference under `to_bits`, and `arrive` commits
    /// where `offline_choose` says, for budgets on, next to and far from
    /// the shortcut bound — one uniform placement per pass (all on the
    /// bound: the O(1) branch everywhere; all one ulp under: the O(T)
    /// fallback everywhere) and one random per-node mix.
    #[test]
    fn shortcut_and_shared_checks_match_materialized_admission(
        (fleet, candidate) in rows_and_candidate(),
        mix in prop::collection::vec(0u8..8, 12..=12),
        policy in policy(),
    ) {
        let topology = topo();
        let mut engine = OnlineFleet::new(
            topology.clone(),
            TimeGrid::new(60, 4),
            OnlineConfig {
                policy,
                repair_budget: 0,
                sample_salt: 3,
                ..OnlineConfig::default()
            },
        );
        let plane = Arc::new(LivePlane::new(
            Arc::new(RecordingSink::with_virtual_clock()),
            16,
            default_online_rules(),
        ));
        engine.attach_plane(plane.clone());
        for row in fleet {
            engine.arrive(&PowerTrace::new(row, 60).unwrap()).unwrap();
        }
        let candidate = PowerTrace::new(snap_samples(&candidate).unwrap(), 60).unwrap();
        let candidate_peak = peak_of_samples(candidate.samples());
        let (traces, assignment, _) = engine.live_view().unwrap();
        let aggregates = if traces.is_empty() {
            NodeAggregates::zeros(&topology, engine.grid())
        } else {
            NodeAggregates::compute(&topology, &assignment, &traces).unwrap()
        };
        let occupancy: BTreeMap<NodeId, usize> = assignment
            .by_rack()
            .into_iter()
            .map(|(rack, members)| (rack, members.len()))
            .collect();
        prop_assert_eq!(mix.len(), topology.len());

        let passes: Vec<Vec<u8>> = (0..8u8)
            .map(|mode| vec![mode; topology.len()])
            .chain(std::iter::once(mix))
            .collect();
        for modes in passes {
            let budgets: Vec<f64> = topology
                .nodes()
                .iter()
                .zip(&modes)
                .map(|(n, &mode)| {
                    budget_at(engine.aggregates().peak(n.id()).unwrap() + candidate_peak, mode)
                })
                .collect();
            let probe = engine.clone().with_budgets(budgets.clone()).unwrap();
            let reference =
                admission_decisions(&topology, &assignment, &aggregates, &budgets, &candidate)
                    .unwrap();
            let scan = probe.decisions(&candidate).unwrap();
            prop_assert_eq!(scan.len(), topology.racks().len());
            // Per rack, `has_slot && !power_ok` on the reference side.
            let mut breaker_bound = BTreeMap::new();
            for (d, &rack) in scan.iter().zip(topology.racks()) {
                let single = probe.evaluate(rack, candidate.samples()).unwrap();
                prop_assert_eq!(bits(&single), bits(d), "evaluate vs decisions, modes {:?}", modes);
                let o = reference.iter().find(|o| o.rack == rack).unwrap();
                // The materializing path, node by node, with no shortcut:
                // the rack holds when `peak <= budget`, an ancestor vetoes
                // when `peak > budget` (so a NaN ancestor budget admits).
                let peak_with = |n: NodeId| {
                    aggregates.trace(n).unwrap().try_add(&candidate).unwrap().peak()
                };
                let vetoed = topology
                    .ancestors(rack)
                    .unwrap()
                    .into_iter()
                    .any(|n| peak_with(n) > budgets[n.index()]);
                let power_ok = peak_with(rack) <= budgets[rack.index()] && !vetoed;
                let has_slot = occupancy.get(&rack).copied().unwrap_or(0)
                    < topology.rack_capacity();
                let want = (
                    rack.index(),
                    o.fits,
                    has_slot,
                    power_ok,
                    [
                        o.new_peak_watts.to_bits(),
                        o.peak_increase_watts.to_bits(),
                        (budgets[rack.index()] - o.new_peak_watts).to_bits(),
                        o.asynchrony.to_bits(),
                    ],
                );
                prop_assert_eq!(bits(d), want, "rack {} under modes {:?}: {:?} vs {:?}", rack, modes, bits(d), want);
                breaker_bound.insert(rack, has_slot && !power_ok);
            }

            let chosen = offline_choose(
                &topology,
                &budgets,
                &aggregates,
                &occupancy,
                &candidate,
                &policy,
                3,
                probe.arrivals_seen(),
            )
            .unwrap();
            let probed = match policy {
                CommitPolicy::Sampling { probes } => {
                    sample_racks(topology.racks(), 3, probe.arrivals_seen(), probes)
                }
                _ => topology.racks().to_vec(),
            };
            let violated = probed.iter().any(|rack| breaker_bound[rack]);
            let mut committing = probe;
            let before = plane.breaker_violations();
            let slot = committing.arrive(&candidate).unwrap();
            prop_assert_eq!(
                slot.map(|s| committing.rack_of(s).unwrap()),
                chosen,
                "arrive vs offline_choose under modes {:?}",
                modes
            );
            prop_assert_eq!(
                plane.breaker_violations() - before,
                u64::from(slot.is_none() && violated),
                "breaker-violation flag under modes {:?}",
                modes
            );
        }
    }

    /// The bound the arrival and `/admit` searches prune with: for any
    /// index `t`, `lb = max(agg[t] + cand[t], old_peak + min(cand))` never
    /// exceeds the rack's new peak, so the key built from it never ranks
    /// below the exact decision — asynchrony bound ≥ score, increase bound
    /// ≤ increase, headroom bound ≥ headroom — under the same float
    /// operations as the exact path. For a flat candidate the bound is
    /// the new peak itself.
    #[test]
    fn one_sample_bound_never_ranks_below_the_exact_decision(
        (fleet, candidate) in rows_and_candidate(),
        t in 0usize..4,
    ) {
        let topology = topo();
        let mut engine = OnlineFleet::new(
            topology.clone(),
            TimeGrid::new(60, 4),
            OnlineConfig {
                policy: CommitPolicy::BestAsynchrony,
                repair_budget: 0,
                ..OnlineConfig::default()
            },
        );
        for row in fleet {
            engine.arrive(&PowerTrace::new(row, 60).unwrap()).unwrap();
        }
        let candidate = snap_samples(&candidate).unwrap();
        let candidate_peak = peak_of_samples(&candidate);
        let floor = candidate.iter().copied().fold(f64::INFINITY, f64::min);
        let flat = vec![candidate[t]; candidate.len()];
        for &rack in topology.racks() {
            let exact = engine.evaluate(rack, &candidate).unwrap();
            let old_peak = engine.aggregates().peak(rack).unwrap();
            let sample = engine.aggregates().trace(rack).unwrap().samples()[t] + candidate[t];
            prop_assert!(old_peak + floor <= exact.new_peak_watts);
            let lb = sample.max(old_peak + floor);
            prop_assert!(lb <= exact.new_peak_watts);
            let flat_peak = engine.evaluate(rack, &flat).unwrap().new_peak_watts;
            prop_assert_eq!((old_peak + flat[0]).to_bits(), flat_peak.to_bits());
            let asynchrony = if old_peak > 0.0 {
                pairwise_score_from_peaks(old_peak, candidate_peak, lb)
            } else {
                2.0
            };
            prop_assert!(asynchrony >= exact.asynchrony, "rack {}: {} < {}", rack, asynchrony, exact.asynchrony);
            prop_assert!(lb - old_peak <= exact.peak_increase_watts);
            prop_assert!(engine.budgets()[rack.index()] - lb >= exact.headroom_watts);
        }
    }
}
