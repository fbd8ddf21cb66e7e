//! Online oracles: the resident [`OnlineFleet`] engine diffed against
//! offline recomputes of everything it claims.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `resident_aggregates_match_offline_recompute` | engine aggregates after an event stream vs [`NodeAggregates::compute`] on the final live fleet | bit-identical samples |
//! | `resident_peaks_match_offline_recompute` | cached per-node peaks vs the recomputed aggregates' peaks | bit-identical |
//! | `aggregates_match_shuffled_recompute` | engine aggregates and peaks vs a recompute adding live rows and children in a seeded random order | bit-identical |
//! | `rack_asynchrony_matches_materialized_score` | O(1) [`OnlineFleet::rack_asynchrony`] vs [`asynchrony_score`] over materialized member traces | bit-identical |
//! | `mean_rack_asynchrony_matches_materialized` | [`OnlineFleet::mean_rack_asynchrony`] vs the mean of the materialized scores in rack order | bit-identical |
//! | `resident_repair_matches_reference` | [`OnlineFleet::repair`] on the resident state vs [`reference_repair`] on materialized traces, for every policy with repair enabled | same swaps (slots, racks, gain bits), worst-score bits and final occupancy |
//! | `flight_ring_holds_the_whole_run` | the engine's flight ring after the stream | no record dropped |
//! | `flight_commit_matches_offline_choice` | each commit in the flight ring vs [`offline_choose`] replayed against the reconstructed pre-state | same rack |
//! | `flight_retirement_names_the_hosting_rack` | ring replay occupancy at each `Retired`/`Moved` record | exact |
//! | `flight_replay_reconstructs_the_live_set` | final replayed occupancy vs [`OnlineFleet::live_view`] | exact |
//! | `rejection_is_agreed_by_offline_replay` | an over-budget probe arrival vs the offline replay | both reject |
//! | `decisions_match_admission_decisions` | fused [`OnlineFleet::decisions`] vs the materializing [`admission_decisions`] | bit-identical fields |
//! | `arrive_then_retire_is_identity` | aggregate bits before vs after an arrive∘retire round trip | bit-identical |
//! | `retiring_everything_zeroes_aggregates` | every node trace after full retirement | exactly `0.0` |
//! | `counters_account_for_every_event` | commits + rejections vs arrivals, and commits − retirements vs live | exact |
//! | `fragmentation_is_bounded` | per-level stranded watts vs headroom | `0 ≤ stranded ≤ headroom` |
//! | `pruned_selection_matches_full_scan` | each bound-pruned [`OnlineFleet::arrive`] on a tie-heavy 128-rack fleet (64-probe sampling and every full-scan policy, tight RPP/SB budgets, flat and repeated rows, empty and full racks) vs [`select_decision`] over [`OnlineFleet::evaluate`] of every probed rack on the pre-state | same rack, same breaker-violation count |
//! | `pruned_admit_matches_full_scan` | the bound-pruned [`OnlineFleet::admit`] of a flat candidate (including one no rack admits) on the same fleet before each arrival vs [`select_decision`] over [`OnlineFleet::decisions`] | bit-identical decision |
//!
//! Everything except the two bounds checks is *exact*: resident samples
//! sit on the exact grid of [`so_powertrace::snap_samples`], where every
//! order of addition gives the same bits, and the fused probes perform
//! the same float operations as the offline paths, so any ULP of drift
//! is a bug.
//!
//! The replay reads the engine's one event record, the flight ring of its
//! attached [`LivePlane`] — what smoothopd serves at `/flight` — decoded
//! with [`EventRecord::from_flight`], so an encoding fault fails it
//! directly. Each battery engine's ring holds the whole run, and a probe
//! clone gets a ring of its own before it mutates, since clones share
//! their plane.
//!
//! [`check_resident_aggregates`], [`check_shuffled_recompute`],
//! [`check_commit_decision`], [`check_rack_asynchrony`], [`check_repair`],
//! [`check_flight_replay`], [`check_event_replay`] and
//! [`check_pruned_selection`] are exported so mutation tests can feed
//! deliberately broken states, records or searches through the same
//! checkers the battery runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use so_core::{
    admission_decisions, asynchrony_score, differential_score, offline_choose, sample_racks,
    select_decision, CommitPolicy, CoreError, EventRecord, LeafDecision, OnlineConfig, OnlineFleet,
    RemapConfig, RemapReport, SwapRecord,
};
use so_powertrace::{peak_of_samples, NodeAggregate, PowerTrace, TimeGrid, MAX_SAMPLE_WATTS};
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology, TreeError};
use so_telemetry::{default_online_rules, LivePlane, RecordingSink};

use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Online;

/// Cap on how many recorded commits are replayed offline per policy (the
/// replay recomputes the full pre-state per commit, so it is the one
/// super-linear oracle here; a deterministic stride keeps it bounded).
const MAX_COMMIT_REPLAYS: usize = 48;

/// Flight-ring capacity of a probe clone's own plane: nothing reads it.
const PROBE_RING: usize = 16;

/// A virtual-clock plane with the default online rules and a flight ring
/// of `capacity` records.
pub(crate) fn fresh_plane(capacity: usize) -> Arc<LivePlane> {
    Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        capacity,
        default_online_rules(),
    ))
}

/// `engine` cloned onto a plane of its own, so the probe's events stay
/// out of the ring the replay reads.
fn probe_of(engine: &OnlineFleet) -> OnlineFleet {
    let mut probe = engine.clone();
    probe.attach_plane(fresh_plane(PROBE_RING));
    probe
}

/// Runs every online oracle over the fixture: one engine per commit
/// policy is driven through the same batched arrival/retirement stream
/// (retirement draws come from `rng`, so distinct battery seeds exercise
/// distinct churn), then each engine's resident state, flight ring, and
/// fused decisions are held against offline recomputes. After every
/// batch, a repairing policy's next repair pass (on a clone) is held
/// against the reference pass.
///
/// # Errors
///
/// Returns [`OracleError`] when an oracle cannot be evaluated at all;
/// failed evaluations are recorded in `report` instead.
pub fn run(
    fixture: &Fixture,
    rng: &mut StdRng,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let traces = fixture.traces();
    let grid = traces[0].grid();
    // Generous budgets: every arrival is admissible on power (capacity can
    // still bind), so the stream commits deeply; the rejection oracle
    // probes the over-budget path explicitly.
    let cap = traces.iter().map(PowerTrace::peak).sum::<f64>() * 2.0 + 100.0;
    let policies = [
        (CommitPolicy::BestAsynchrony, 2usize),
        (CommitPolicy::FirstFit, 0),
        (CommitPolicy::WorstFit, 0),
        (CommitPolicy::Sampling { probes: 3 }, 2),
    ];
    for (policy, repair_budget) in policies {
        let config = OnlineConfig {
            policy,
            repair_budget,
            min_gain: 0.0,
            sample_salt: fixture.seed,
        };
        let mut engine = OnlineFleet::new(fixture.topology.clone(), grid, config)
            .with_budgets(vec![cap; fixture.topology.len()])
            .map_err(OracleError::Core)?;
        // Room for every record of the stream: one per arrival, at most
        // one retirement per four arrivals, and two per repair swap.
        engine.attach_plane(fresh_plane(2 * traces.len() + 64));
        let mut rows = BTreeMap::new();
        let chunk = traces.len().div_ceil(3).max(1);
        for batch in traces.chunks(chunk) {
            let retires: Vec<u64> = (0..batch.len() / 4).map(|_| rng.gen()).collect();
            let issued = engine.slot_count();
            engine.apply(batch, &retires).map_err(OracleError::Core)?;
            record_rows(&engine, issued, &mut rows)?;
            if repair_budget > 0 && engine.live_len() >= 2 {
                let mut probe = probe_of(&engine);
                let (want, want_occupancy) = reference_pass(&probe)?;
                let got = probe.repair()?;
                check_repair(
                    FAMILY,
                    &got,
                    &occupancy(&probe),
                    &want,
                    &want_occupancy,
                    report,
                );
            }
        }
        state_matches_offline(&engine, report)?;
        shuffled_recompute_matches(FAMILY, &engine, rng, report)?;
        asynchrony_matches_materialized(&engine, report)?;
        check_flight_replay(&engine, &rows, report)?;
        rejection_is_agreed(&engine, cap, report)?;
        counters_account(&engine, report);
        fragmentation_is_bounded(&engine, &traces[0], report)?;
        if policy == CommitPolicy::BestAsynchrony {
            decisions_match_admission(&engine, report)?;
            arrive_retire_identity(&engine, &traces[0], report)?;
        }
        retire_all_zeroes(engine, report)?;
    }
    check_pruned_selection(fixture.seed, engine_arrival, report)
}

/// One arrival's outcome as a claim: the rack it was committed to (`None`
/// for a rejection) and the breaker-budget violations it recorded.
pub type ArrivalClaim = (Option<NodeId>, u64);

/// The production claim: [`OnlineFleet::arrive`]'s rack, and the count by
/// which the attached plane's `breaker_violations` rose.
///
/// # Errors
///
/// Propagates arrival errors.
pub fn engine_arrival(
    engine: &mut OnlineFleet,
    candidate: &PowerTrace,
) -> Result<ArrivalClaim, CoreError> {
    let violations = |engine: &OnlineFleet| engine.plane().map_or(0, |p| p.breaker_violations());
    let before = violations(engine);
    let slot = engine.arrive(candidate)?;
    let rack = slot.and_then(|s| engine.rack_of(s));
    Ok((rack, violations(engine) - before))
}

/// Arrivals per policy in [`check_pruned_selection`]; one in four steps
/// also retires a live instance.
const PRUNED_ARRIVALS: usize = 480;

/// Drives a tie-heavy fleet under 64-probe sampling and under every
/// full-scan policy, and holds each arrival's claim against the full scan
/// on the pre-state: [`select_decision`] over [`OnlineFleet::evaluate`] of
/// every probed rack, with one breaker-budget violation exactly when no
/// probe fits and some probe has a slot but not the power. `arrive` makes
/// the claim for one arrival and must leave it committed (the production
/// claim is [`engine_arrival`]).
///
/// The fleet has 128 racks of 3 slots under RPP and SB budgets tight
/// enough to veto, starts empty and fills racks to capacity. Candidates
/// repeat, drawn from flat rows, the same rows with their first sample
/// zeroed and a few seeded shapes, so probes tie on asynchrony and peak
/// increase while their one-sample bounds are tight for some racks and
/// loose for others.
///
/// Before each arrival, the `/admit` search ([`OnlineFleet::admit`]) of
/// one flat candidate, in turn 8 to 32 W, the 100 W rack budget and a
/// 150 W draw no rack admits, is held against [`select_decision`] over
/// the full [`OnlineFleet::decisions`].
///
/// # Errors
///
/// Propagates engine and claim errors.
pub fn check_pruned_selection(
    seed: u64,
    mut arrive: impl FnMut(&mut OnlineFleet, &PowerTrace) -> Result<ArrivalClaim, CoreError>,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let topology = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(4)
        .racks_per_rpp(8)
        .rack_capacity(3)
        .rack_budget_watts(100.0)
        .name("pruned-selection")
        .build()?;
    let budgets: Vec<f64> = topology
        .nodes()
        .iter()
        .map(|n| match n.level() {
            Level::Rack => 100.0,
            Level::Rpp => 320.0,
            Level::Sb => 1_000.0,
            _ => 100_000.0,
        })
        .collect();
    let grid = TimeGrid::new(60, 8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let mut pool: Vec<Vec<f64>> = [8.0, 16.0, 24.0, 32.0].map(|w| vec![w; 8]).to_vec();
    pool.extend((0..4).map(|_| (0..8).map(|_| f64::from(rng.gen_range(0u8..40))).collect()));
    for i in 0..pool.len() {
        let mut dipped = pool[i].clone();
        dipped[0] = 0.0;
        pool.push(dipped);
    }
    let pool = pool
        .into_iter()
        .map(|row| PowerTrace::new(row, grid.step_minutes()))
        .collect::<Result<Vec<_>, _>>()?;
    let flats = [8.0, 16.0, 24.0, 32.0, 100.0, 150.0]
        .map(|w| PowerTrace::new(vec![w; grid.len()], grid.step_minutes()))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    for policy in [
        CommitPolicy::Sampling { probes: 64 },
        CommitPolicy::BestAsynchrony,
        CommitPolicy::FirstFit,
        CommitPolicy::WorstFit,
    ] {
        let config = OnlineConfig {
            policy,
            repair_budget: 0,
            sample_salt: seed,
            ..OnlineConfig::default()
        };
        let mut engine = OnlineFleet::new(topology.clone(), grid, config)
            .with_budgets(budgets.clone())
            .map_err(OracleError::Core)?;
        engine.attach_plane(fresh_plane(16));
        for step in 0..PRUNED_ARRIVALS {
            if step % 4 == 3 {
                let live = engine.live_slots();
                if !live.is_empty() {
                    engine
                        .retire(live[rng.gen_range(0..live.len())])
                        .map_err(OracleError::Core)?;
                }
            }
            let flat = &flats[step % flats.len()];
            let admitted = engine.admit(&policy, flat).map_err(OracleError::Core)?;
            let decisions = engine.decisions(flat).map_err(OracleError::Core)?;
            let scanned = select_decision(&policy, &decisions).copied();
            report.check(
                FAMILY,
                "pruned_admit_matches_full_scan",
                decision_bits(admitted.as_ref()) == decision_bits(scanned.as_ref()),
                || {
                    format!(
                        "policy {}, step {step}, flat {} W: admit {admitted:?}, the full scan gives {scanned:?}",
                        policy.name(),
                        flat.peak()
                    )
                },
            );

            let candidate = &pool[rng.gen_range(0..pool.len())];
            let probed = match policy {
                CommitPolicy::Sampling { probes } => {
                    sample_racks(topology.racks(), seed, engine.arrivals_seen(), probes)
                }
                _ => topology.racks().to_vec(),
            };
            let scan = probed
                .iter()
                .map(|&rack| engine.evaluate(rack, candidate.samples()))
                .collect::<Result<Vec<LeafDecision>, _>>()
                .map_err(OracleError::Core)?;
            let want_rack = select_decision(&policy, &scan).map(|d| d.rack);
            let violated = scan.iter().any(|d| d.has_slot && !d.power_ok);
            let want = (want_rack, u64::from(want_rack.is_none() && violated));
            let got = arrive(&mut engine, candidate).map_err(OracleError::Core)?;
            report.check(FAMILY, "pruned_selection_matches_full_scan", got == want, || {
                format!(
                    "policy {}, arrival {step}: claimed (rack, breaker violations) {got:?}, the full scan gives {want:?}",
                    policy.name()
                )
            });
        }
    }
    Ok(())
}

/// A decision's fields as bits, so `-0.0` and `0.0` differ.
fn decision_bits(d: Option<&LeafDecision>) -> Option<(NodeId, [bool; 3], [u64; 4])> {
    d.map(|d| {
        (
            d.rack,
            [d.fits, d.has_slot, d.power_ok],
            [
                d.new_peak_watts.to_bits(),
                d.peak_increase_watts.to_bits(),
                d.headroom_watts.to_bits(),
                d.asynchrony.to_bits(),
            ],
        )
    })
}

/// Diffs a claimed [`NodeAggregates`] against a from-scratch
/// [`NodeAggregates::compute`] of `(traces, racks)` — every node's samples
/// and peak must agree bit-for-bit. Exported so mutation tests can present
/// deliberately stale aggregates to the same checker the battery runs.
///
/// # Errors
///
/// Propagates assignment/aggregation errors (the *claimed* side is only
/// read, never validated).
pub fn check_resident_aggregates(
    topology: &PowerTopology,
    grid: TimeGrid,
    traces: &[PowerTrace],
    racks: &[NodeId],
    claimed: &NodeAggregates,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let offline = if traces.is_empty() {
        NodeAggregates::zeros(topology, grid)
    } else {
        let assignment = Assignment::new(racks.to_vec(), topology)?;
        NodeAggregates::compute(topology, &assignment, traces)?
    };
    for node in topology.nodes().iter().map(|n| n.id()) {
        let got = claimed.trace(node)?.samples();
        let want = offline.trace(node)?.samples();
        report.check(
            FAMILY,
            "resident_aggregates_match_offline_recompute",
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
            || format!("node {node}: resident aggregate drifts from the offline recompute"),
        );
        report.check_exact(
            FAMILY,
            "resident_peaks_match_offline_recompute",
            claimed.peak(node)?,
            offline.peak(node)?,
        );
    }
    Ok(())
}

/// Diffs `claimed` against a recompute that starts from zero, adds each
/// rack's live `rows` (hosted on `racks`, positionally) and then each
/// internal node's children, every list in a seeded random order. On the
/// exact grid every order lands on the same bits, so a difference means a
/// path update went astray or a row was never snapped. Exported so
/// mutation tests can present broken states to the battery's checker.
///
/// # Errors
///
/// Propagates tree lookups on the claimed side.
pub fn check_shuffled_recompute(
    family: OracleFamily,
    topology: &PowerTopology,
    rows: &[&[f64]],
    racks: &[NodeId],
    claimed: &NodeAggregates,
    rng: &mut StdRng,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let window = claimed.trace(topology.root())?.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); topology.len()];
    for (i, rack) in racks.iter().enumerate() {
        members[rack.index()].push(i);
    }
    let mut sums = vec![vec![0.0f64; window]; topology.len()];
    let add = |acc: &mut Vec<f64>, row: &[f64]| acc.iter_mut().zip(row).for_each(|(a, v)| *a += v);
    for &rack in topology.racks() {
        members[rack.index()].shuffle(rng);
        for &i in &members[rack.index()] {
            add(&mut sums[rack.index()], rows[i]);
        }
    }
    let mut level = Some(Level::Rpp);
    while let Some(current) = level {
        for &id in topology.nodes_at_level(current) {
            let mut children = topology.node(id)?.children().to_vec();
            children.shuffle(rng);
            let mut acc = vec![0.0f64; window];
            for child in children {
                add(&mut acc, &sums[child.index()]);
            }
            sums[id.index()] = acc;
        }
        level = current.parent();
    }
    for node in topology.nodes().iter().map(|n| n.id()) {
        let got = claimed.trace(node)?.samples();
        let want = &sums[node.index()];
        report.check(
            family,
            "aggregates_match_shuffled_recompute",
            got.iter()
                .map(|v| v.to_bits())
                .eq(want.iter().map(|v| v.to_bits())),
            || format!("node {node}: aggregate depends on the order of addition"),
        );
        report.check_exact(
            family,
            "aggregates_match_shuffled_recompute",
            claimed.peak(node)?,
            peak_of_samples(want),
        );
    }
    Ok(())
}

/// Replays one commit decision offline — a from-scratch
/// [`NodeAggregates::compute`] of the pre-state, then [`offline_choose`]
/// with the **materializing** arithmetic — and checks the claimed outcome
/// (`Some(rack)` for a commit, `None` for a rejection). `offline_choose`
/// snaps the candidate as the engine does, so a raw candidate replays the
/// engine's decision. Exported so mutation tests can claim wrong-leaf
/// commits against the same checker.
///
/// # Errors
///
/// Propagates assignment/aggregation/replay errors.
#[allow(clippy::too_many_arguments)]
pub fn check_commit_decision(
    topology: &PowerTopology,
    budgets: &[f64],
    grid: TimeGrid,
    pre_traces: &[PowerTrace],
    pre_racks: &[NodeId],
    candidate: &PowerTrace,
    policy: &CommitPolicy,
    sample_salt: u64,
    ordinal: u64,
    claimed: Option<NodeId>,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let aggregates = if pre_traces.is_empty() {
        NodeAggregates::zeros(topology, grid)
    } else {
        let assignment = Assignment::new(pre_racks.to_vec(), topology)?;
        NodeAggregates::compute(topology, &assignment, pre_traces)?
    };
    let mut occupancy: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &rack in pre_racks {
        *occupancy.entry(rack).or_insert(0) += 1;
    }
    let want = offline_choose(
        topology,
        budgets,
        &aggregates,
        &occupancy,
        candidate,
        policy,
        sample_salt,
        ordinal,
    )
    .map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "flight_commit_matches_offline_choice",
        want == claimed,
        || {
            format!(
                "policy {}: offline replay of arrival {ordinal} picks {want:?}, the claim is {claimed:?}",
                policy.name()
            )
        },
    );
    Ok(())
}

/// The engine's resident aggregates after the stream vs a from-scratch
/// recompute of its own live view.
fn state_matches_offline(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, _, slots) = engine.live_view().map_err(OracleError::Core)?;
    let racks: Vec<NodeId> = slots
        .iter()
        .map(|&s| engine.rack_of(s).expect("live slot has a rack"))
        .collect();
    check_resident_aggregates(
        engine.topology(),
        engine.grid(),
        &traces,
        &racks,
        engine.aggregates(),
        report,
    )
}

/// The engine's aggregates vs [`check_shuffled_recompute`] over its own
/// live view, reported under `family`.
pub(crate) fn shuffled_recompute_matches(
    family: OracleFamily,
    engine: &OnlineFleet,
    rng: &mut StdRng,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, _, slots) = engine.live_view().map_err(OracleError::Core)?;
    let rows: Vec<&[f64]> = traces.iter().map(PowerTrace::samples).collect();
    let racks: Vec<NodeId> = slots.iter().filter_map(|&s| engine.rack_of(s)).collect();
    check_shuffled_recompute(
        family,
        engine.topology(),
        &rows,
        &racks,
        engine.aggregates(),
        rng,
        report,
    )
}

/// The engine's per-rack and mean asynchrony vs [`check_rack_asynchrony`]
/// over its own live view.
fn asynchrony_matches_materialized(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, assignment, _) = engine.live_view()?;
    let racks: Vec<NodeId> = (0..traces.len())
        .map(|i| assignment.rack_of(i))
        .collect::<Result<_, _>>()?;
    check_rack_asynchrony(
        FAMILY,
        engine.topology(),
        &traces,
        &racks,
        |rack| engine.rack_asynchrony(rack),
        engine.mean_rack_asynchrony(),
        report,
    )
}

/// Holds claimed rack asynchrony scores against [`asynchrony_score`] over
/// the materialized member traces of a live view (`traces[i]` hosted on
/// `racks[i]`): `claimed(rack)` for every non-empty rack, and
/// `claimed_mean` against the mean of those scores in rack order, bit for
/// bit. Exported so mutation tests can present off-by-one-ULP scores to
/// the checker the battery runs.
///
/// # Errors
///
/// Propagates scoring errors on either side.
pub fn check_rack_asynchrony(
    family: OracleFamily,
    topology: &PowerTopology,
    traces: &[PowerTrace],
    racks: &[NodeId],
    claimed: impl Fn(NodeId) -> Result<f64, CoreError>,
    claimed_mean: Option<f64>,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &rack in topology.racks() {
        let members: Vec<&PowerTrace> = traces
            .iter()
            .zip(racks)
            .filter(|&(_, &r)| r == rack)
            .map(|(t, _)| t)
            .collect();
        if members.is_empty() {
            continue;
        }
        let want = asynchrony_score(members)?;
        report.check_exact(
            family,
            "rack_asynchrony_matches_materialized_score",
            claimed(rack)?,
            want,
        );
        sum += want;
        count += 1;
    }
    let want_mean = (count > 0).then(|| sum / count as f64);
    report.check(
        family,
        "mean_rack_asynchrony_matches_materialized",
        claimed_mean.map(f64::to_bits) == want_mean.map(f64::to_bits),
        || format!("claimed mean {claimed_mean:?}, materialized mean {want_mean:?}"),
    );
    Ok(())
}

/// The live occupancy of `engine`: slot → hosting rack.
pub(crate) fn occupancy(engine: &OnlineFleet) -> BTreeMap<usize, NodeId> {
    engine
        .live_slots()
        .into_iter()
        .filter_map(|s| engine.rack_of(s).map(|rack| (s, rack)))
        .collect()
}

/// [`reference_repair`] of `engine`'s live fleet under its own repair
/// budget and minimum gain: the reference report and the occupancy the
/// reference's swaps leave.
///
/// # Errors
///
/// Propagates materialization and scoring errors.
pub(crate) fn reference_pass(
    engine: &OnlineFleet,
) -> Result<(RemapReport, BTreeMap<usize, NodeId>), OracleError> {
    let mut occupancy = occupancy(engine);
    let step = engine.grid().step_minutes();
    let traces = occupancy
        .keys()
        .map(|&s| Ok((s, PowerTrace::new(engine.row(s).to_vec(), step)?)))
        .collect::<Result<BTreeMap<_, _>, OracleError>>()?;
    let config = RemapConfig {
        max_swaps: engine.config().repair_budget,
        min_gain: engine.config().min_gain,
        ..RemapConfig::default()
    };
    let report = reference_repair(engine.topology(), &traces, &mut occupancy, &config)?;
    Ok((report, occupancy))
}

/// The §3.6 repair pass written plainly over materialized traces — the
/// reference [`OnlineFleet::repair`] is held against. `traces` maps each
/// live slot to its trace and `occupancy` each live slot to its rack;
/// accepted swaps are applied to `occupancy`. Swap records name slots.
///
/// Each round re-derives everything from `occupancy`: racks with at least
/// two members are ranked by [`asynchrony_score`] over their member
/// traces (a stable sort, in [`PowerTopology::racks`] order), and for each
/// of the `nodes_per_round` worst, every candidate is scored with
/// `differential_score(instance, &agg.mean_excluding(excluded)?)` over a
/// fresh [`NodeAggregate`] of the rack's members — the materializing path
/// that the engine's fused `differential_score_excluding` is documented
/// bit-identical to. The first rack with an admissible swap takes its
/// best one (the first largest combined gain in (partner, member) order).
///
/// # Errors
///
/// Propagates aggregation and scoring errors.
pub fn reference_repair(
    topology: &PowerTopology,
    traces: &BTreeMap<usize, PowerTrace>,
    occupancy: &mut BTreeMap<usize, NodeId>,
    config: &RemapConfig,
) -> Result<RemapReport, OracleError> {
    let initial_worst_score = reference_worst(traces, occupancy)?;
    let mut swaps = Vec::new();
    'rounds: while swaps.len() < config.max_swaps {
        let members = rack_members(occupancy);
        let mut ranked = Vec::new();
        for &rack in topology.racks() {
            if let Some(slots) = members.get(&rack).filter(|s| s.len() >= 2) {
                ranked.push((rack, asynchrony_score(slots.iter().map(|s| &traces[s]))?));
            }
        }
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        for &(rack, _) in ranked.iter().take(config.nodes_per_round) {
            if let Some(swap) = reference_swap(topology, traces, &members, rack, config.min_gain)? {
                occupancy.insert(swap.instance_out, swap.partner);
                occupancy.insert(swap.instance_in, swap.node);
                swaps.push(swap);
                continue 'rounds;
            }
        }
        break;
    }
    Ok(RemapReport {
        swaps,
        initial_worst_score,
        final_worst_score: reference_worst(traces, occupancy)?,
    })
}

/// Live slots per rack, ascending.
fn rack_members(occupancy: &BTreeMap<usize, NodeId>) -> BTreeMap<NodeId, Vec<usize>> {
    let mut members: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (&slot, &rack) in occupancy {
        members.entry(rack).or_default().push(slot);
    }
    members
}

/// The lowest [`asynchrony_score`] of a rack with at least two members,
/// or `INFINITY`.
fn reference_worst(
    traces: &BTreeMap<usize, PowerTrace>,
    occupancy: &BTreeMap<usize, NodeId>,
) -> Result<f64, OracleError> {
    let mut worst = f64::INFINITY;
    for slots in rack_members(occupancy).values() {
        if slots.len() >= 2 {
            worst = worst.min(asynchrony_score(slots.iter().map(|s| &traces[s]))?);
        }
    }
    Ok(worst)
}

/// The best admissible swap out of `rack`, or `None`.
fn reference_swap(
    topology: &PowerTopology,
    traces: &BTreeMap<usize, PowerTrace>,
    members: &BTreeMap<NodeId, Vec<usize>>,
    rack: NodeId,
    min_gain: f64,
) -> Result<Option<SwapRecord>, OracleError> {
    let aggregate = |slots: &[usize]| -> Result<NodeAggregate, OracleError> {
        let grid = traces[&slots[0]].grid();
        Ok(NodeAggregate::from_traces(
            grid,
            slots.iter().map(|s| &traces[s]),
        )?)
    };
    // AD(slot, N) against the members of N other than `excluded`.
    let ad = |slot: usize, node: &NodeAggregate, excluded: usize| -> Result<f64, OracleError> {
        let peers = node.mean_excluding(&traces[&excluded])?;
        Ok(differential_score(&traces[&slot], &peers)?)
    };
    let own = &members[&rack];
    let here = aggregate(own)?;
    let mut worst: Option<(usize, f64)> = None;
    for &i in own {
        let score = ad(i, &here, i)?;
        if worst.map_or(true, |(_, w)| score < w) {
            worst = Some((i, score));
        }
    }
    let Some((out, out_score)) = worst else {
        return Ok(None);
    };
    let mut best: Option<SwapRecord> = None;
    for &partner in topology.racks() {
        let Some(theirs) = members.get(&partner).filter(|s| s.len() >= 2) else {
            continue;
        };
        if partner == rack {
            continue;
        }
        let there = aggregate(theirs)?;
        for &j in theirs {
            let gain_node = ad(j, &here, out)? - out_score;
            let gain_partner = ad(out, &there, j)? - ad(j, &there, j)?;
            let better = best.map_or(true, |b| {
                gain_node + gain_partner > b.gain_node + b.gain_partner
            });
            if gain_node > min_gain && gain_partner > min_gain && better {
                best = Some(SwapRecord {
                    instance_out: out,
                    instance_in: j,
                    node: rack,
                    partner,
                    gain_node,
                    gain_partner,
                });
            }
        }
    }
    Ok(best)
}

/// Holds a claimed repair pass against the reference: the same swaps in
/// the same order (slots, racks and both gains' bits), the same initial
/// and final worst-score bits, and the same final slot → rack occupancy.
/// Exported so mutation tests can present tampered reports to the checker
/// the battery runs.
pub fn check_repair(
    family: OracleFamily,
    claimed: &RemapReport,
    claimed_occupancy: &BTreeMap<usize, NodeId>,
    want: &RemapReport,
    want_occupancy: &BTreeMap<usize, NodeId>,
    report: &mut OracleReport,
) {
    let key = |s: &SwapRecord| {
        (
            s.instance_out,
            s.instance_in,
            s.node,
            s.partner,
            s.gain_node.to_bits(),
            s.gain_partner.to_bits(),
        )
    };
    report.check(
        family,
        "resident_repair_matches_reference",
        claimed.swaps.iter().map(key).eq(want.swaps.iter().map(key)),
        || format!("swaps {:?}, reference {:?}", claimed.swaps, want.swaps),
    );
    report.check_exact(
        family,
        "resident_repair_matches_reference",
        claimed.initial_worst_score,
        want.initial_worst_score,
    );
    report.check_exact(
        family,
        "resident_repair_matches_reference",
        claimed.final_worst_score,
        want.final_worst_score,
    );
    report.check(
        family,
        "resident_repair_matches_reference",
        claimed_occupancy == want_occupancy,
        || "the pass leaves a different occupancy than the reference".to_string(),
    );
}

/// Adds the snapped row of every slot `engine` issued from `from` on to
/// `rows`. Call it right after the arrivals that committed them, while
/// they are all live: a retired slot's row is reused by a later commit,
/// so the engine cannot show it again.
///
/// # Errors
///
/// Propagates trace construction errors.
pub fn record_rows(
    engine: &OnlineFleet,
    from: usize,
    rows: &mut BTreeMap<usize, PowerTrace>,
) -> Result<(), OracleError> {
    for slot in from..engine.slot_count() {
        let row = engine.row(slot).to_vec();
        rows.insert(slot, PowerTrace::new(row, engine.grid().step_minutes())?);
    }
    Ok(())
}

/// Replays the flight ring of `engine`'s plane, every record decoded with
/// [`EventRecord::from_flight`], through [`check_event_replay`]. The
/// replay starts from the empty fleet, so a ring that dropped records
/// (or a missing plane) is a violation, and nothing is replayed.
///
/// # Errors
///
/// Propagates [`check_event_replay`]'s errors.
pub fn check_flight_replay(
    engine: &OnlineFleet,
    rows: &BTreeMap<usize, PowerTrace>,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let Some(plane) = engine.plane() else {
        report.check(FAMILY, "flight_ring_holds_the_whole_run", false, || {
            "the engine has no plane attached".to_string()
        });
        return Ok(());
    };
    let (held, total, dropped) = plane.flight_counts();
    report.check(
        FAMILY,
        "flight_ring_holds_the_whole_run",
        dropped == 0,
        || format!("the flight ring holds {held} of {total} records"),
    );
    if dropped > 0 {
        return Ok(());
    }
    let events: Vec<EventRecord> = plane
        .flight_records(0)
        .iter()
        .filter_map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c))
        .collect();
    check_event_replay(engine, &events, rows, report)
}

/// Walks `events`, the engine's whole event record, front to back,
/// maintaining an independent slot→rack occupancy: a strided sample of
/// commits is replayed through [`check_commit_decision`] against the
/// reconstructed pre-state, every retirement/move must name the rack the
/// replay says the slot lives on, and the final occupancy must reproduce
/// the engine's live view. The replay reads every committed slot's row
/// from `rows`, the caller's own record ([`record_rows`]), never from the
/// engine.
///
/// # Errors
///
/// Propagates materialization and commit-replay errors; a commit whose
/// slot has no recorded row is [`TreeError::UnknownInstance`].
pub fn check_event_replay(
    engine: &OnlineFleet,
    events: &[EventRecord],
    rows: &BTreeMap<usize, PowerTrace>,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let commits = events
        .iter()
        .filter(|e| matches!(e, EventRecord::Committed { .. }))
        .count();
    let stride = commits.div_ceil(MAX_COMMIT_REPLAYS).max(1);
    let mut live: BTreeMap<usize, NodeId> = BTreeMap::new();
    let mut commit_idx = 0usize;
    for event in events {
        match *event {
            EventRecord::Committed {
                slot,
                ordinal,
                rack,
            } => {
                if commit_idx % stride == 0 {
                    let (pre_traces, pre_racks) = materialize(rows, &live)?;
                    let candidate = rows
                        .get(&slot)
                        .ok_or(OracleError::Tree(TreeError::UnknownInstance(slot)))?;
                    check_commit_decision(
                        engine.topology(),
                        engine.budgets(),
                        engine.grid(),
                        &pre_traces,
                        &pre_racks,
                        candidate,
                        &engine.config().policy,
                        engine.config().sample_salt,
                        ordinal,
                        Some(rack),
                        report,
                    )?;
                }
                commit_idx += 1;
                live.insert(slot, rack);
            }
            // Rejected arrivals leave no trace row behind; the rejection
            // path is replayed by `rejection_is_agreed` instead.
            EventRecord::Rejected { .. } => {}
            EventRecord::Retired { slot, rack } => {
                let was = live.remove(&slot);
                report.check(
                    FAMILY,
                    "flight_retirement_names_the_hosting_rack",
                    was == Some(rack),
                    || {
                        format!(
                            "slot {slot}: the ring retires it from {rack}, replay hosts {was:?}"
                        )
                    },
                );
            }
            EventRecord::Moved { slot, from, to } => {
                let was = live.insert(slot, to);
                report.check(
                    FAMILY,
                    "flight_retirement_names_the_hosting_rack",
                    was == Some(from),
                    || format!("slot {slot}: the ring moves it from {from}, replay hosts {was:?}"),
                );
            }
        }
    }
    let (_, assignment, slots) = engine.live_view().map_err(OracleError::Core)?;
    let replayed: Vec<usize> = live.keys().copied().collect();
    let racks_agree = slots
        .iter()
        .enumerate()
        .all(|(i, &s)| assignment.rack_of(i).ok() == live.get(&s).copied());
    report.check(
        FAMILY,
        "flight_replay_reconstructs_the_live_set",
        replayed == slots && racks_agree,
        || {
            format!(
                "ring replay yields {} live slots, engine reports {}",
                replayed.len(),
                slots.len()
            )
        },
    );
    Ok(())
}

/// An arrival whose flat draw exceeds every budget must be rejected by
/// the engine *and* by the offline replay of the same decision. The draw
/// is the largest the exact grid admits, against budgets at most half of
/// it, so the probe stays in range at any fixture size.
fn rejection_is_agreed(
    engine: &OnlineFleet,
    cap: f64,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let budget = cap.min(MAX_SAMPLE_WATTS / 2.0);
    let mut probe = probe_of(engine)
        .with_budgets(vec![budget; engine.topology().len()])
        .map_err(OracleError::Core)?;
    let too_big = PowerTrace::new(
        vec![MAX_SAMPLE_WATTS; engine.grid().len()],
        engine.grid().step_minutes(),
    )?;
    let ordinal = probe.arrivals_seen();
    let outcome = probe.arrive(&too_big).map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "rejection_is_agreed_by_offline_replay",
        outcome.is_none(),
        || format!("engine admitted an arrival over its {budget} W budgets as slot {outcome:?}"),
    );
    let (pre_traces, _, slots) = engine.live_view().map_err(OracleError::Core)?;
    let pre_racks: Vec<NodeId> = slots
        .iter()
        .map(|&s| engine.rack_of(s).expect("live slot has a rack"))
        .collect();
    check_commit_decision(
        engine.topology(),
        probe.budgets(),
        engine.grid(),
        &pre_traces,
        &pre_racks,
        &too_big,
        &engine.config().policy,
        engine.config().sample_salt,
        ordinal,
        None,
        report,
    )
}

/// Fused [`OnlineFleet::decisions`] vs the materializing
/// [`admission_decisions`] over the same live view: `fits`, peaks, peak
/// increases, and asynchrony must share every bit.
fn decisions_match_admission(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, assignment, _) = engine.live_view().map_err(OracleError::Core)?;
    if traces.is_empty() {
        return Ok(());
    }
    let aggregates = NodeAggregates::compute(engine.topology(), &assignment, &traces)?;
    let candidate = &traces[0];
    let online = engine.decisions(candidate).map_err(OracleError::Core)?;
    let offline = admission_decisions(
        engine.topology(),
        &assignment,
        &aggregates,
        engine.budgets(),
        candidate,
    )
    .map_err(OracleError::Core)?;
    for d in &online {
        let Some(o) = offline.iter().find(|o| o.rack == d.rack) else {
            report.check(FAMILY, "decisions_match_admission_decisions", false, || {
                format!("rack {}: no offline admission decision", d.rack)
            });
            continue;
        };
        report.check(
            FAMILY,
            "decisions_match_admission_decisions",
            d.fits == o.fits,
            || {
                format!(
                    "rack {}: fused fits {} vs offline {}",
                    d.rack, d.fits, o.fits
                )
            },
        );
        report.check_exact(
            FAMILY,
            "decisions_match_admission_decisions",
            d.new_peak_watts,
            o.new_peak_watts,
        );
        report.check_exact(
            FAMILY,
            "decisions_match_admission_decisions",
            d.peak_increase_watts,
            o.peak_increase_watts,
        );
        report.check_exact(
            FAMILY,
            "decisions_match_admission_decisions",
            d.asynchrony,
            o.asynchrony,
        );
    }
    Ok(())
}

/// Arrive-then-retire must leave every aggregate bit where it was: the
/// path update adds and then subtracts one snapped row, so the round trip
/// is exact, not merely close.
fn arrive_retire_identity(
    engine: &OnlineFleet,
    candidate: &PowerTrace,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let mut probe = probe_of(engine);
    let before = aggregate_bits(&probe);
    if let Some(slot) = probe.arrive(candidate).map_err(OracleError::Core)? {
        probe.retire(slot).map_err(OracleError::Core)?;
    }
    report.check(
        FAMILY,
        "arrive_then_retire_is_identity",
        aggregate_bits(&probe) == before,
        || "aggregate bits drift across an arrive/retire round trip".to_string(),
    );
    Ok(())
}

/// Retiring the whole fleet must return every node trace to exactly zero
/// — no residue from the churn that came before.
fn retire_all_zeroes(
    mut engine: OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    for slot in engine.live_slots() {
        engine.retire(slot).map_err(OracleError::Core)?;
    }
    let clean = engine
        .topology()
        .nodes()
        .iter()
        .map(|n| n.id())
        .all(|node| {
            engine
                .aggregates()
                .trace(node)
                .map(|t| t.samples().iter().all(|v| v.to_bits() == 0.0f64.to_bits()))
                .unwrap_or(false)
        });
    report.check(
        FAMILY,
        "retiring_everything_zeroes_aggregates",
        clean && engine.live_len() == 0,
        || "aggregates keep non-zero bits after the whole fleet retired".to_string(),
    );
    Ok(())
}

/// Engine counters vs each other: every arrival is either a commit or a
/// rejection, and the live count is commits minus retirements.
fn counters_account(engine: &OnlineFleet, report: &mut OracleReport) {
    report.check(
        FAMILY,
        "counters_account_for_every_event",
        engine.committed() + engine.rejected() == engine.arrivals_seen()
            && engine.live_len() as u64 == engine.committed() - engine.retired(),
        || {
            format!(
                "committed {} + rejected {} != arrivals {} (live {}, retired {})",
                engine.committed(),
                engine.rejected(),
                engine.arrivals_seen(),
                engine.live_len(),
                engine.retired()
            )
        },
    );
}

/// Stranded power is a sub-quantity of headroom: `0 ≤ stranded ≤
/// headroom` and the ratio lives in `[0, 1]` at every level.
fn fragmentation_is_bounded(
    engine: &OnlineFleet,
    reference: &PowerTrace,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    for level in engine.fragmentation(reference).map_err(OracleError::Core)? {
        report.check(
            FAMILY,
            "fragmentation_is_bounded",
            level.stranded_watts >= 0.0
                && level.stranded_watts <= level.headroom_watts + 1e-9
                && (0.0..=1.0).contains(&level.ratio),
            || {
                format!(
                    "level {:?}: stranded {} of headroom {} (ratio {})",
                    level.level, level.stranded_watts, level.headroom_watts, level.ratio
                )
            },
        );
    }
    Ok(())
}

/// Materializes a replayed occupancy into `(traces, racks)` in ascending
/// slot order — the pre-state [`check_commit_decision`] consumes — from
/// the recorded `rows`.
fn materialize(
    rows: &BTreeMap<usize, PowerTrace>,
    live: &BTreeMap<usize, NodeId>,
) -> Result<(Vec<PowerTrace>, Vec<NodeId>), OracleError> {
    let mut traces = Vec::with_capacity(live.len());
    let mut racks = Vec::with_capacity(live.len());
    for (&slot, &rack) in live {
        traces.push(
            rows.get(&slot)
                .ok_or(OracleError::Tree(TreeError::UnknownInstance(slot)))?
                .clone(),
        );
        racks.push(rack);
    }
    Ok((traces, racks))
}

/// Every node trace's sample bits, in node order — the engine-state
/// digest the identity oracle compares.
fn aggregate_bits(engine: &OnlineFleet) -> Vec<u64> {
    engine
        .topology()
        .nodes()
        .iter()
        .map(|n| n.id())
        .flat_map(|node| {
            engine
                .aggregates()
                .trace(node)
                .expect("engine covers every node")
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use so_workloads::DcScenario;

    #[test]
    fn online_oracles_agree_on_a_small_fixture() {
        let fixture = Fixture::generate(&DcScenario::dc1(), 30, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = OracleReport::new();
        run(&fixture, &mut rng, &mut report).unwrap();
        assert!(report.is_clean(), "{:#?}", report.violations());
        assert!(report.evaluations(OracleFamily::Online) > 100);
    }

    #[test]
    fn online_oracles_are_deterministic() {
        let fixture = Fixture::generate(&DcScenario::dc3(), 24, 11).unwrap();
        let mut a = OracleReport::new();
        run(&fixture, &mut StdRng::seed_from_u64(11), &mut a).unwrap();
        let mut b = OracleReport::new();
        run(&fixture, &mut StdRng::seed_from_u64(11), &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn checkers_flag_a_corrupted_claim() {
        let fixture = Fixture::generate(&DcScenario::dc2(), 12, 3).unwrap();
        let traces = fixture.traces();
        let grid = traces[0].grid();
        let racks: Vec<NodeId> = (0..traces.len())
            .map(|i| fixture.assignment.rack_of(i).unwrap())
            .collect();
        // Claim all-zero aggregates for a non-empty fleet: every node's
        // samples and peak disagree with the recompute.
        let zeros = NodeAggregates::zeros(&fixture.topology, grid);
        let mut report = OracleReport::new();
        check_resident_aggregates(&fixture.topology, grid, traces, &racks, &zeros, &mut report)
            .unwrap();
        assert!(!report.is_clean());
    }
}
