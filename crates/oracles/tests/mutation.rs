//! Mutation smoke test: the oracle harness is only worth its keep if a
//! deliberately broken implementation actually trips it. Each test plants
//! a classic bug — quantile convention drift, a stale online aggregate, a
//! path delta that stops at the rack, an ingest write that skips the
//! snap, a wrong-leaf commit, a repair swap with the wrong partner, a
//! move recorded with its racks swapped, a flight ring too small for its
//! run, a rack asynchrony one ULP off, an arrival search that stops on a
//! tied bound — and asserts at least one oracle objects; the production
//! implementations pass the same probes untouched.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use so_core::{
    pairwise_score_from_peaks, sample_racks, select_decision, CommitPolicy, CoreError, EventRecord,
    LeafDecision, OnlineConfig, OnlineFleet, RemapConfig,
};
use so_oracles::differential::quantile_matches_reference;
use so_oracles::online::{
    check_commit_decision, check_event_replay, check_flight_replay, check_pruned_selection,
    check_rack_asynchrony, check_repair, check_resident_aggregates, check_shuffled_recompute,
    engine_arrival, record_rows, reference_repair,
};
use so_oracles::{Fixture, OracleFamily, OracleReport};
use so_powertrace::{peak_of_samples, snap_samples, PowerTrace};
use so_powertree::{NodeAggregates, NodeId};
use so_telemetry::{default_online_rules, LivePlane, RecordingSink};
use so_workloads::DcScenario;

fn samples() -> Vec<f64> {
    // Irregular but deterministic: enough spread that interpolation,
    // indexing, and edge handling all matter.
    (0..57).map(|i| ((i * 37) % 101) as f64 + 0.25).collect()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s
}

#[test]
fn nearest_rank_quantile_is_caught() {
    // Bug: nearest-rank via truncation instead of linear interpolation —
    // the very convention drift the shared quantile module removed.
    let broken = |samples: &[f64], q: f64| {
        let s = sorted(samples);
        let idx = ((q * s.len() as f64) as usize).min(s.len() - 1);
        Some(s[idx])
    };
    let mut report = OracleReport::new();
    quantile_matches_reference(broken, &samples(), &mut report);
    assert!(
        !report.is_clean(),
        "broken quantile slipped past the oracle"
    );
    assert!(report
        .violations()
        .iter()
        .all(|v| v.family == OracleFamily::Differential));
}

#[test]
fn unclamped_ceil_indexing_is_caught() {
    // Bug: the pre-fix `interpolated_quantile` edge case — `ceil` lands
    // one past the end at q = 1, here "fixed" by wrapping instead of
    // clamping.
    let broken = |samples: &[f64], q: f64| {
        let s = sorted(samples);
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, (pos.ceil() as usize + 1) % s.len());
        let frac = pos - pos.floor();
        Some(s[lo] * (1.0 - frac) + s[hi] * frac)
    };
    let mut report = OracleReport::new();
    quantile_matches_reference(broken, &samples(), &mut report);
    assert!(!report.is_clean());
}

#[test]
fn off_by_one_position_is_caught() {
    // Bug: `q · n` instead of `q · (n − 1)` — shifts every interior
    // quantile upward.
    let broken = |samples: &[f64], q: f64| {
        let s = sorted(samples);
        let pos = (q * s.len() as f64).min((s.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(s.len() - 1);
        let frac = pos - lo as f64;
        Some(s[lo] * (1.0 - frac) + s[hi] * frac)
    };
    let mut report = OracleReport::new();
    quantile_matches_reference(broken, &samples(), &mut report);
    assert!(!report.is_clean());
}

/// A small fixture-driven engine with every fixture trace committed —
/// the live state the online mutation probes corrupt.
fn driven_engine() -> (OnlineFleet, Vec<PowerTrace>) {
    let fixture = Fixture::generate(&DcScenario::dc1(), 16, 9).unwrap();
    let traces = fixture.traces().to_vec();
    let grid = traces[0].grid();
    let cap = traces.iter().map(PowerTrace::peak).sum::<f64>() * 2.0 + 100.0;
    let mut engine = OnlineFleet::new(
        fixture.topology.clone(),
        grid,
        OnlineConfig {
            policy: CommitPolicy::BestAsynchrony,
            repair_budget: 0,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
    .with_budgets(vec![cap; fixture.topology.len()])
    .unwrap();
    engine.apply(&traces, &[]).unwrap();
    assert_eq!(engine.live_len(), traces.len());
    (engine, traces)
}

fn live_racks(engine: &OnlineFleet) -> Vec<NodeId> {
    engine
        .live_slots()
        .iter()
        .map(|&s| engine.rack_of(s).unwrap())
        .collect()
}

#[test]
fn stale_aggregate_after_retirement_is_caught() {
    // Bug: an engine that skips the aggregate subtraction on retirement —
    // modeled by snapshotting the aggregates, retiring an instance, and
    // presenting the stale snapshot as the claimed resident state.
    let (mut engine, _) = driven_engine();
    let stale = engine.aggregates().clone();
    let victim = engine.live_slots()[0];
    engine.retire(victim).unwrap();
    let (traces, _, _) = engine.live_view().unwrap();
    let racks = live_racks(&engine);
    let mut report = OracleReport::new();
    check_resident_aggregates(
        engine.topology(),
        engine.grid(),
        &traces,
        &racks,
        &stale,
        &mut report,
    )
    .unwrap();
    assert!(
        !report.is_clean(),
        "stale aggregates slipped past the oracle"
    );
    assert!(report
        .violations()
        .iter()
        .all(|v| v.family == OracleFamily::Online));
}

#[test]
fn delta_applied_to_the_rack_but_not_its_ancestors_is_caught() {
    // Bug: a commit whose row delta lands on the rack and stops there —
    // modeled by snapshotting the aggregates, committing an arrival, and
    // bringing only the chosen rack of the snapshot up to date.
    let (mut engine, traces) = driven_engine();
    let mut broken = engine.aggregates().clone();
    let slot = engine.arrive(&traces[0]).unwrap().expect("admissible");
    let rack = engine.rack_of(slot).unwrap();
    let members: Vec<&[f64]> = engine
        .live_slots()
        .into_iter()
        .filter(|&s| engine.rack_of(s) == Some(rack))
        .map(|s| engine.row(s))
        .collect();
    broken
        .refresh_rack(engine.topology(), rack, members)
        .unwrap();
    let (live, _, _) = engine.live_view().unwrap();
    let rows: Vec<&[f64]> = live.iter().map(PowerTrace::samples).collect();
    let racks = live_racks(&engine);
    let mut report = OracleReport::new();
    check_resident_aggregates(
        engine.topology(),
        engine.grid(),
        &live,
        &racks,
        &broken,
        &mut report,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    check_shuffled_recompute(
        OracleFamily::Online,
        engine.topology(),
        &rows,
        &racks,
        &broken,
        &mut rng,
        &mut report,
    )
    .unwrap();
    // The rack itself is right; each of its ancestors is stale, in both
    // checkers, samples and peak.
    let path = engine.topology().ancestors(rack).unwrap().len();
    assert_eq!(report.violations_in(OracleFamily::Online), 4 * path);

    let mut clean = OracleReport::new();
    check_shuffled_recompute(
        OracleFamily::Online,
        engine.topology(),
        &rows,
        &racks,
        engine.aggregates(),
        &mut rng,
        &mut clean,
    )
    .unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations());
}

#[test]
fn ingest_write_that_skips_the_snap_is_caught() {
    // Bug: an ingest path that writes raw readings and shifts the rack
    // path by the raw difference — off the exact grid, the resident sums
    // then depend on the order the samples came in.
    let (engine, _) = driven_engine();
    let topology = engine.topology();
    let (live, _, _) = engine.live_view().unwrap();
    let mut rows: Vec<Vec<f64>> = live.iter().map(|t| t.samples().to_vec()).collect();
    let racks = live_racks(&engine);
    let mut broken = engine.aggregates().clone();
    for k in 0..64usize {
        let (i, pos) = (k % rows.len(), k % engine.grid().len());
        let raw = 100.0 / 3.0 + k as f64 * 0.1;
        broken
            .shift_path_sample(topology, racks[i], pos, rows[i][pos], raw)
            .unwrap();
        rows[i][pos] = raw;
    }
    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let mut report = OracleReport::new();
    check_shuffled_recompute(
        OracleFamily::Daemon,
        topology,
        &rows,
        &racks,
        &broken,
        &mut StdRng::seed_from_u64(9),
        &mut report,
    )
    .unwrap();
    assert!(
        !report.is_clean(),
        "an unsnapped ingest write slipped past the oracle"
    );
    assert!(report
        .violations()
        .iter()
        .all(|v| v.family == OracleFamily::Daemon));
}

#[test]
fn wrong_leaf_commit_is_caught() {
    // Bug: an engine that evaluates the policy but commits to some other
    // admissible rack — the flight ring claims a leaf the offline replay
    // of the same pre-state would never pick.
    let (engine, traces) = driven_engine();
    let candidate = &traces[0];
    let decisions = engine.decisions(candidate).unwrap();
    let best = so_core::select_decision(&engine.config().policy, &decisions)
        .expect("candidate is admissible somewhere")
        .rack;
    let wrong = decisions
        .iter()
        .find(|d| d.fits && d.rack != best)
        .expect("more than one admissible rack")
        .rack;
    let (pre_traces, _, _) = engine.live_view().unwrap();
    let pre_racks = live_racks(&engine);
    let mut report = OracleReport::new();
    check_commit_decision(
        engine.topology(),
        engine.budgets(),
        engine.grid(),
        &pre_traces,
        &pre_racks,
        candidate,
        &engine.config().policy,
        engine.config().sample_salt,
        engine.arrivals_seen(),
        Some(wrong),
        &mut report,
    )
    .unwrap();
    assert!(
        !report.is_clean(),
        "wrong-leaf commit slipped past the oracle"
    );
    assert_eq!(report.violations_in(OracleFamily::Online), 1);

    // The engine's actual choice passes the same probe.
    let mut clean = OracleReport::new();
    check_commit_decision(
        engine.topology(),
        engine.budgets(),
        engine.grid(),
        &pre_traces,
        &pre_racks,
        candidate,
        &engine.config().policy,
        engine.config().sample_salt,
        engine.arrivals_seen(),
        Some(best),
        &mut clean,
    )
    .unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations());
}

/// A first-fit engine with every fixture trace committed and no repair
/// run yet: first fit packs synchronous neighbours together, so its next
/// repair pass swaps.
fn fragmented_engine() -> OnlineFleet {
    recorded_fragmented_engine(64).0
}

/// The 16 fixture instances first-fit onto a plane with a `ring`-record
/// flight ring, and every committed row as the replay reads it.
fn recorded_fragmented_engine(ring: usize) -> (OnlineFleet, BTreeMap<usize, PowerTrace>) {
    let fixture = Fixture::generate(&DcScenario::dc1(), 16, 9).unwrap();
    let traces = fixture.traces();
    let cap = traces.iter().map(PowerTrace::peak).sum::<f64>() * 2.0 + 100.0;
    let mut engine = OnlineFleet::new(
        fixture.topology.clone(),
        traces[0].grid(),
        OnlineConfig {
            policy: CommitPolicy::FirstFit,
            repair_budget: 4,
            min_gain: 0.0,
            ..OnlineConfig::default()
        },
    )
    .with_budgets(vec![cap; fixture.topology.len()])
    .unwrap();
    engine.attach_plane(Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        ring,
        default_online_rules(),
    )));
    for trace in traces {
        engine.arrive(trace).unwrap().expect("admissible");
    }
    let mut rows = BTreeMap::new();
    record_rows(&engine, 0, &mut rows).unwrap();
    (engine, rows)
}

#[test]
fn moved_record_with_swapped_racks_is_caught() {
    // Bug: a flight encoding that writes a move's racks the wrong way
    // round — modeled by decoding the production ring after a repair pass
    // and swapping one `Moved` record's `from` and `to`.
    let (mut engine, rows) = recorded_fragmented_engine(64);
    assert!(!engine.repair().unwrap().swaps.is_empty());
    let mut clean = OracleReport::new();
    check_flight_replay(&engine, &rows, &mut clean).unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations());

    let mut events: Vec<EventRecord> = engine
        .plane()
        .unwrap()
        .flight_records(0)
        .iter()
        .filter_map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c))
        .collect();
    let (from, to) = events
        .iter_mut()
        .find_map(|e| match e {
            EventRecord::Moved { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .expect("the pass moved a slot");
    std::mem::swap(from, to);
    let mut report = OracleReport::new();
    check_event_replay(&engine, &events, &rows, &mut report).unwrap();
    assert!(
        !report.is_clean(),
        "a move with swapped racks slipped past the replay"
    );
    assert!(report
        .violations()
        .iter()
        .all(|v| v.family == OracleFamily::Online));
}

#[test]
fn a_flight_ring_too_small_for_the_run_is_caught() {
    // Bug: a ring sized below the run it must replay drops the oldest
    // records, so a replay of what is left would start mid-stream.
    let (engine, rows) = recorded_fragmented_engine(8);
    let mut report = OracleReport::new();
    check_flight_replay(&engine, &rows, &mut report).unwrap();
    assert_eq!(
        report.violations_in(OracleFamily::Online),
        1,
        "a ring that dropped records passed the replay"
    );
}

fn occupancy(engine: &OnlineFleet) -> BTreeMap<usize, NodeId> {
    engine
        .live_slots()
        .into_iter()
        .map(|s| (s, engine.rack_of(s).unwrap()))
        .collect()
}

#[test]
fn repair_swap_with_a_wrong_partner_is_caught() {
    // Bug: a repair pass that reports (and records) a partner rack other
    // than the one the swap search chose — modeled by running the real
    // pass and rewriting the first swap's partner in its report.
    let mut engine = fragmented_engine();
    let mut want_occupancy = occupancy(&engine);
    let traces: BTreeMap<usize, PowerTrace> = want_occupancy
        .keys()
        .map(|&s| (s, PowerTrace::new(engine.row(s).to_vec(), 60).unwrap()))
        .collect();
    let config = RemapConfig {
        max_swaps: engine.config().repair_budget,
        min_gain: engine.config().min_gain,
        ..RemapConfig::default()
    };
    let want = reference_repair(engine.topology(), &traces, &mut want_occupancy, &config).unwrap();
    let got = engine.repair().unwrap();
    assert!(!got.swaps.is_empty(), "the fragmented engine must swap");

    let mut clean = OracleReport::new();
    check_repair(
        OracleFamily::Online,
        &got,
        &occupancy(&engine),
        &want,
        &want_occupancy,
        &mut clean,
    );
    assert!(clean.is_clean(), "{:#?}", clean.violations());

    let mut broken = got.clone();
    let first = &mut broken.swaps[0];
    first.partner = *engine
        .topology()
        .racks()
        .iter()
        .find(|&&r| r != first.partner && r != first.node)
        .unwrap();
    let mut report = OracleReport::new();
    check_repair(
        OracleFamily::Online,
        &broken,
        &occupancy(&engine),
        &want,
        &want_occupancy,
        &mut report,
    );
    assert_eq!(report.violations_in(OracleFamily::Online), 1);
}

#[test]
fn rack_asynchrony_off_by_one_ulp_is_caught() {
    // Bug: a peak sum that drifts by one ULP (an inexact running sum) —
    // modeled by nudging one rack's O(1) score to the next float.
    let (engine, _) = driven_engine();
    let (traces, _, _) = engine.live_view().unwrap();
    let racks = live_racks(&engine);
    let nudged = racks[0];
    let claimed = |rack: NodeId| {
        let score = engine.rack_asynchrony(rack)?;
        Ok(if rack == nudged {
            f64::from_bits(score.to_bits() + 1)
        } else {
            score
        })
    };
    let mut report = OracleReport::new();
    check_rack_asynchrony(
        OracleFamily::Daemon,
        engine.topology(),
        &traces,
        &racks,
        claimed,
        engine.mean_rack_asynchrony(),
        &mut report,
    )
    .unwrap();
    assert_eq!(report.violations_in(OracleFamily::Daemon), 1);

    let mut clean = OracleReport::new();
    check_rack_asynchrony(
        OracleFamily::Daemon,
        engine.topology(),
        &traces,
        &racks,
        |rack| engine.rack_asynchrony(rack),
        engine.mean_rack_asynchrony(),
        &mut clean,
    )
    .unwrap();
    assert!(clean.is_clean(), "{:#?}", clean.violations());
}

#[test]
fn production_online_engine_is_clean() {
    let (engine, _) = driven_engine();
    let (traces, _, _) = engine.live_view().unwrap();
    let racks = live_racks(&engine);
    let mut report = OracleReport::new();
    check_resident_aggregates(
        engine.topology(),
        engine.grid(),
        &traces,
        &racks,
        engine.aggregates(),
        &mut report,
    )
    .unwrap();
    assert!(report.is_clean(), "{:#?}", report.violations());
    assert!(report.evaluations(OracleFamily::Online) > 0);

    // An empty claim against an empty fleet is clean too (the zeros path).
    let empty = OnlineFleet::new(engine.topology().clone(), engine.grid(), *engine.config());
    let mut zero_report = OracleReport::new();
    check_resident_aggregates(
        empty.topology(),
        empty.grid(),
        &[],
        &[],
        &NodeAggregates::zeros(empty.topology(), empty.grid()),
        &mut zero_report,
    )
    .unwrap();
    assert!(zero_report.is_clean(), "{:#?}", zero_report.violations());

    // The bound-pruned arrival search against the full scan.
    let mut pruned_report = OracleReport::new();
    check_pruned_selection(7, engine_arrival, &mut pruned_report).unwrap();
    assert!(
        pruned_report.is_clean(),
        "{:#?}",
        pruned_report.violations()
    );
    assert!(pruned_report.evaluations(OracleFamily::Online) > 0);
}

/// The arrival search with one planted bug: it stops at the first rack
/// whose bound does not beat the best fitting decision on the policy's key
/// alone, so a rack whose bound *ties* that key is dropped even when its
/// lower id would win the tie. Bounds and keys are built as the engine
/// builds them, from `lb = agg[c] + peak(candidate)`.
fn equal_bound_search(
    engine: &OnlineFleet,
    candidate: &PowerTrace,
) -> Result<Option<NodeId>, CoreError> {
    let policy = engine.config().policy;
    let row = snap_samples(candidate.samples())?;
    let peak = peak_of_samples(&row);
    let at = row.iter().position(|&v| v == peak).unwrap();
    let key = |asynchrony: f64, increase: f64, headroom: f64| match policy {
        CommitPolicy::FirstFit => (0.0, 0.0),
        CommitPolicy::WorstFit => (headroom, 0.0),
        _ => (asynchrony, increase),
    };
    let probed = match policy {
        CommitPolicy::Sampling { probes } => sample_racks(
            engine.topology().racks(),
            engine.config().sample_salt,
            engine.arrivals_seen(),
            probes,
        ),
        _ => engine.topology().racks().to_vec(),
    };
    let mut order = Vec::new();
    for rack in probed {
        let occupied = engine
            .live_slots()
            .iter()
            .filter(|&&s| engine.rack_of(s) == Some(rack))
            .count();
        if occupied >= engine.topology().rack_capacity() {
            continue;
        }
        let aggregates = engine.aggregates();
        let lb = aggregates.trace(rack).unwrap().samples()[at] + row[at];
        let old = aggregates.peak(rack).unwrap();
        let asynchrony = if old > 0.0 {
            pairwise_score_from_peaks(old, peak, lb)
        } else {
            2.0
        };
        let headroom = engine.budgets()[rack.index()] - lb;
        order.push((key(asynchrony, lb - old, headroom), rack));
    }
    order.sort_by(|(a, ra), (b, rb)| {
        b.0.total_cmp(&a.0)
            .then(a.1.total_cmp(&b.1))
            .then(ra.cmp(rb))
    });
    let mut evaluated: Vec<LeafDecision> = Vec::new();
    let mut best: Option<((f64, f64), NodeId)> = None;
    for (bound, rack) in order {
        if let Some((top, _)) = best {
            // Bug: a tie on the key stops the search; the rack id is
            // never compared.
            if !(bound.0 > top.0 || (bound.0 == top.0 && bound.1 < top.1)) {
                break;
            }
        }
        let d = engine.evaluate(rack, candidate.samples())?;
        let exact = key(d.asynchrony, d.peak_increase_watts, d.headroom_watts);
        let better = best.map_or(true, |(top, id)| {
            exact.0 > top.0
                || (exact.0 == top.0 && (exact.1 < top.1 || (exact.1 == top.1 && rack < id)))
        });
        if d.fits && better {
            best = Some((exact, rack));
        }
        evaluated.push(d);
    }
    evaluated.sort_by_key(|d| d.rack);
    Ok(select_decision(&policy, &evaluated).map(|d| d.rack))
}

#[test]
fn pruned_search_that_stops_on_a_tied_bound_is_caught() {
    let mut report = OracleReport::new();
    check_pruned_selection(
        7,
        |engine, candidate| {
            let claim = equal_bound_search(engine, candidate)?;
            let (_, violations) = engine_arrival(engine, candidate)?;
            Ok((claim, violations))
        },
        &mut report,
    )
    .unwrap();
    assert!(!report.is_clean(), "a tie-dropping search slipped past");
    assert!(report
        .violations()
        .iter()
        .all(|v| v.oracle == "pruned_selection_matches_full_scan"));
}

#[test]
fn production_quantile_is_clean() {
    let mut report = OracleReport::new();
    quantile_matches_reference(
        |s, q| so_powertrace::quantile::quantile(s, q).ok(),
        &samples(),
        &mut report,
    );
    assert!(report.is_clean(), "{:#?}", report.violations());
    assert!(report.evaluations(OracleFamily::Differential) > 0);
}

#[test]
fn off_by_one_sweep_fit_is_caught() {
    // Bug: the plan sweep loop admits one rack past the cap (`k + 1`
    // fitted where `k` fit) — the classic off-by-one in "largest k with
    // required[k-1] ≤ cap". The budget sits exactly on a sweep point so
    // the inclusive-boundary law is exercised too.
    let required = [80.0, 100.0, 120.0, 140.0];
    let deltas = so_oracles::plan::PLAN_DELTAS;
    let one_past = |series: &[f64], budget: f64, delta: f64| {
        (so_oracles::plan::reference_racks_fit(series, budget, delta) + 1).min(series.len())
    };
    let mut report = OracleReport::new();
    so_oracles::plan::check_sweep_fit(&one_past, &required, 100.0, &deltas, &mut report);
    assert!(!report.is_clean(), "off-by-one sweep fit slipped past");
    assert!(report
        .violations()
        .iter()
        .all(|v| v.family == OracleFamily::Plan));

    // Bug variant: strict `<` at the cap — a rack whose requirement
    // exactly equals the overbooked budget must still fit.
    let exclusive = |series: &[f64], budget: f64, delta: f64| {
        let cap = budget * (1.0 + delta);
        series.iter().take_while(|&&req| req < cap).count()
    };
    let mut strict_report = OracleReport::new();
    so_oracles::plan::check_sweep_fit(&exclusive, &required, 100.0, &deltas, &mut strict_report);
    assert!(
        !strict_report.is_clean(),
        "exclusive cap comparison slipped past"
    );

    // The reference itself passes the same probe clean.
    let mut clean = OracleReport::new();
    so_oracles::plan::check_sweep_fit(
        &so_oracles::plan::reference_racks_fit,
        &required,
        100.0,
        &deltas,
        &mut clean,
    );
    assert!(clean.is_clean(), "{:#?}", clean.violations());
    assert!(clean.evaluations(OracleFamily::Plan) > 0);
}
