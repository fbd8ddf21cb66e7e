//! Online oracles: the resident [`OnlineFleet`] engine diffed against
//! offline recomputes of everything it claims.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `resident_aggregates_match_offline_recompute` | engine aggregates after an event stream vs [`NodeAggregates::compute`] on the final live fleet | bit-identical samples |
//! | `resident_peaks_match_offline_recompute` | cached per-node peaks vs the recomputed aggregates' peaks | bit-identical |
//! | `aggregates_match_shuffled_recompute` | engine aggregates and peaks vs a recompute adding live rows and children in a seeded random order | bit-identical |
//! | `rack_asynchrony_matches_materialized_score` | fused [`OnlineFleet::rack_asynchrony`] vs [`asynchrony_score`] over materialized member traces | bit-identical |
//! | `journal_commit_matches_offline_choice` | each journaled commit vs [`offline_choose`] replayed against the reconstructed pre-state | same rack |
//! | `journal_retirement_names_the_hosting_rack` | journal replay occupancy at each `Retired`/`Moved` event | exact |
//! | `journal_replay_reconstructs_the_live_set` | final replayed occupancy vs [`OnlineFleet::live_view`] | exact |
//! | `rejection_is_agreed_by_offline_replay` | an over-budget probe arrival vs the offline replay | both reject |
//! | `decisions_match_admission_decisions` | fused [`OnlineFleet::decisions`] vs the materializing [`admission_decisions`] | bit-identical fields |
//! | `arrive_then_retire_is_identity` | aggregate bits before vs after an arrive∘retire round trip | bit-identical |
//! | `retiring_everything_zeroes_aggregates` | every node trace after full retirement | exactly `0.0` |
//! | `counters_account_for_every_event` | engine counters vs journal arithmetic | exact |
//! | `fragmentation_is_bounded` | per-level stranded watts vs headroom | `0 ≤ stranded ≤ headroom` |
//!
//! Everything except the two bounds checks is *exact*: resident samples
//! sit on the exact grid of [`so_powertrace::snap_samples`], where every
//! order of addition gives the same bits, and the fused probes perform
//! the same float operations as the offline paths, so any ULP of drift
//! is a bug. [`check_resident_aggregates`], [`check_shuffled_recompute`]
//! and [`check_commit_decision`] are exported so mutation tests can feed
//! deliberately broken states through the same checkers the battery runs.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use so_core::{
    admission_decisions, asynchrony_score, offline_choose, CommitPolicy, EventRecord, OnlineConfig,
    OnlineFleet,
};
use so_powertrace::{peak_of_samples, PowerTrace, TimeGrid, MAX_SAMPLE_WATTS};
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology};

use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Online;

/// Cap on how many journaled commits are replayed offline per policy (the
/// replay recomputes the full pre-state per commit, so it is the one
/// super-linear oracle here; a deterministic stride keeps it bounded).
const MAX_COMMIT_REPLAYS: usize = 48;

/// Runs every online oracle over the fixture: one engine per commit
/// policy is driven through the same batched arrival/retirement stream
/// (retirement draws come from `rng`, so distinct battery seeds exercise
/// distinct churn), then each engine's resident state, journal, and fused
/// decisions are held against offline recomputes.
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
            ..OnlineConfig::default()
        };
        let mut engine = OnlineFleet::new(fixture.topology.clone(), grid, config)
            .with_budgets(vec![cap; fixture.topology.len()])
            .map_err(OracleError::Core)?;
        let chunk = traces.len().div_ceil(3).max(1);
        for batch in traces.chunks(chunk) {
            let retires: Vec<u64> = (0..batch.len() / 4).map(|_| rng.gen()).collect();
            engine.apply(batch, &retires).map_err(OracleError::Core)?;
        }
        state_matches_offline(&engine, report)?;
        shuffled_recompute_matches(FAMILY, &engine, rng, report)?;
        asynchrony_matches_materialized(&engine, report)?;
        journal_replays_offline(&engine, report)?;
        rejection_is_agreed(&engine, cap, report)?;
        counters_account(&engine, report);
        fragmentation_is_bounded(&engine, &traces[0], report)?;
        if policy == CommitPolicy::BestAsynchrony {
            decisions_match_admission(&engine, report)?;
            arrive_retire_identity(&engine, &traces[0], report)?;
        }
        retire_all_zeroes(engine, report)?;
    }
    Ok(())
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
        "journal_commit_matches_offline_choice",
        want == claimed,
        || {
            format!(
                "policy {}: offline replay of arrival {ordinal} picks {want:?}, journal claims {claimed:?}",
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

/// Fused per-rack asynchrony vs [`asynchrony_score`] over the
/// materialized member traces.
fn asynchrony_matches_materialized(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, assignment, _) = engine.live_view().map_err(OracleError::Core)?;
    if traces.is_empty() {
        return Ok(());
    }
    for (rack, members) in assignment.by_rack() {
        if members.is_empty() {
            continue;
        }
        let want =
            asynchrony_score(members.iter().map(|&i| &traces[i])).map_err(OracleError::Core)?;
        let got = engine.rack_asynchrony(rack).map_err(OracleError::Core)?;
        report.check_exact(
            FAMILY,
            "rack_asynchrony_matches_materialized_score",
            got,
            want,
        );
    }
    Ok(())
}

/// Walks the journal front to back, maintaining an independent slot→rack
/// occupancy: a strided sample of commits is replayed through
/// [`check_commit_decision`] against the reconstructed pre-state, every
/// retirement/move must name the rack the replay says the slot lives on,
/// and the final occupancy must reproduce the engine's live view.
pub(crate) fn journal_replays_offline(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let commits = engine
        .journal()
        .iter()
        .filter(|e| matches!(e, EventRecord::Committed { .. }))
        .count();
    let stride = commits.div_ceil(MAX_COMMIT_REPLAYS).max(1);
    let mut live: BTreeMap<usize, NodeId> = BTreeMap::new();
    let mut commit_idx = 0usize;
    for event in engine.journal() {
        match *event {
            EventRecord::Committed {
                slot,
                ordinal,
                rack,
            } => {
                if commit_idx % stride == 0 {
                    let (pre_traces, pre_racks) = materialize(engine, &live)?;
                    let candidate =
                        PowerTrace::new(engine.row(slot).to_vec(), engine.grid().step_minutes())?;
                    check_commit_decision(
                        engine.topology(),
                        engine.budgets(),
                        engine.grid(),
                        &pre_traces,
                        &pre_racks,
                        &candidate,
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
                    "journal_retirement_names_the_hosting_rack",
                    was == Some(rack),
                    || format!("slot {slot}: journal retires from {rack}, replay hosts {was:?}"),
                );
            }
            EventRecord::Moved { slot, from, to } => {
                let was = live.insert(slot, to);
                report.check(
                    FAMILY,
                    "journal_retirement_names_the_hosting_rack",
                    was == Some(from),
                    || format!("slot {slot}: journal moves from {from}, replay hosts {was:?}"),
                );
            }
            // A compaction checkpoint pins one live slot directly — the
            // exact occupancy the discarded journal prefix had produced
            // — so replay inserts it without a commit decision to check.
            EventRecord::Checkpoint { slot, rack } => {
                live.insert(slot, rack);
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
        "journal_replay_reconstructs_the_live_set",
        replayed == slots && racks_agree,
        || {
            format!(
                "journal replay yields {} live slots, engine reports {}",
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
    let mut probe = engine
        .clone()
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
    let mut probe = engine.clone();
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

/// Engine counters vs journal arithmetic: every arrival is either a
/// commit or a rejection, and the live count is commits minus
/// retirements.
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
/// slot order — the pre-state [`check_commit_decision`] consumes.
fn materialize(
    engine: &OnlineFleet,
    live: &BTreeMap<usize, NodeId>,
) -> Result<(Vec<PowerTrace>, Vec<NodeId>), OracleError> {
    let mut traces = Vec::with_capacity(live.len());
    let mut racks = Vec::with_capacity(live.len());
    for (&slot, &rack) in live {
        traces.push(PowerTrace::new(
            engine.row(slot).to_vec(),
            engine.grid().step_minutes(),
        )?);
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
