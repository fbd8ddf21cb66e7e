//! Daemon oracles: the resident [`DaemonFleet`] streaming-ingest path
//! diffed against batch recomputes of everything it maintains.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `ring_replay_reconstructs_every_window_cell` | arena rows after an ingest stream, with rows of retired slots reused by later arrivals, vs an independent ring-replay model | same live slots, bit-identical cells |
//! | `retired_ids_never_resolve` | [`OnlineFleet::rack_of`](so_core::online::OnlineFleet::rack_of) of every slot the model has retired | `None` |
//! | `ingest_aggregates_match_batch_recompute` | resident aggregates after ingest vs [`NodeAggregates::compute`] on the materialized windows | bit-identical samples |
//! | `ingest_peaks_match_batch_recompute` | resident per-node peaks vs the recomputed aggregates' peaks | bit-identical |
//! | `aggregates_match_shuffled_recompute` | resident aggregates and peaks vs a recompute adding live rows and children in a seeded random order | bit-identical |
//! | `rack_asynchrony_matches_materialized_score` | [`DaemonFleet::rack_asynchrony`] from the resident peak sums vs [`asynchrony_score`](so_core::asynchrony_score) over the materialized member windows | bit-identical |
//! | `mean_rack_asynchrony_matches_materialized` | [`DaemonFleet::mean_rack_asynchrony`] vs the mean of the materialized scores in rack order | bit-identical |
//! | `resident_repair_matches_reference` | [`DaemonFleet::repair`] after ingest rewrote rows in place vs [`reference_repair`] on the materialized windows | same swaps, worst-score bits and final occupancy |
//! | `empty_ingest_is_identity` | root aggregate bits before vs after an empty batch | bit-identical |
//! | `malformed_batch_rejects_without_mutation` | root aggregate bits around a NaN-bearing batch | rejected + bit-identical |
//! | `ingest_accounting_is_exact` | per-batch applied/dropped vs the model's live set and lifetime counters | exact |
//!
//! Every identity here is *exact*: ingest snaps each reading onto the
//! exact grid of [`snap_samples`] and shifts its rack path by delta, so
//! the resident state after any stream — including ring wrap-around and
//! interleaved arrival/retirement churn — must match a from-scratch
//! recompute, in any order of addition, to the bit. The ring-replay model
//! snaps its inputs with the same function.
//!
//! [`reference_repair`]: crate::online::reference_repair

use rand::rngs::StdRng;
use rand::Rng;
use so_core::daemon::{DaemonFleet, SampleUpdate};
use so_core::online::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{snap_samples, PowerTrace};
use so_powertree::{NodeAggregates, NodeId};

use crate::online::{check_rack_asynchrony, check_repair, occupancy, reference_pass};
use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Daemon;

/// Streamed ingest rounds per battery run.
const ROUNDS: usize = 6;

/// Retire+arrive pairs before each round's ingest batch. Each arrival
/// takes the row the retirement just freed, so every round ingests into
/// reused rows.
const CHURN: usize = 3;

/// One slot of the ring-replay model: its window, its cursor and whether
/// it is live.
struct ModelSlot {
    window: Vec<f64>,
    cursor: usize,
    live: bool,
}

/// Runs every daemon oracle over the fixture: a [`DaemonFleet`] is
/// seeded with the fixture fleet, driven through `ROUNDS` randomized
/// sample batches (watt draws come from `rng`, so distinct battery seeds
/// exercise distinct streams), each after `CHURN` retire+arrive pairs,
/// with a repair pass mid-stream, while an independent ring-replay model
/// shadows every window write and keeps its own live set. The resident
/// state is then held against batch recomputes after every round, and
/// the mid-stream repair pass, which reads the rewritten rows in place,
/// against the materializing reference repair.
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
    // Generous budgets so the stream commits deeply; the ingest oracles
    // probe maintenance, not admission (the online family covers that).
    let cap = traces.iter().map(PowerTrace::peak).sum::<f64>() * 2.0 + 100.0;
    let config = OnlineConfig {
        policy: CommitPolicy::BestAsynchrony,
        repair_budget: 1,
        min_gain: 0.0,
        sample_salt: fixture.seed,
    };
    let engine = OnlineFleet::new(fixture.topology.clone(), grid, config)
        .with_budgets(vec![cap; fixture.topology.len()])
        .map_err(OracleError::Core)?;
    let mut daemon = DaemonFleet::new(engine);

    // The independent ring-replay model: per-slot window, cursor and
    // liveness, indexed by slot id and maintained with nothing but slice
    // writes and modular arithmetic. A slot enters it fresh at cursor 0,
    // whatever row the engine gives it.
    let mut model: Vec<ModelSlot> = Vec::new();
    for trace in traces {
        arrive(&mut daemon, trace, &mut model)?;
    }

    let window = daemon.window();
    for round in 0..ROUNDS {
        for _ in 0..CHURN {
            let live: Vec<usize> = (0..model.len()).filter(|&s| model[s].live).collect();
            let victim = live[rng.gen_range(0..live.len())];
            daemon.retire(victim).map_err(OracleError::Core)?;
            model[victim].live = false;
            arrive(
                &mut daemon,
                &traces[rng.gen_range(0..traces.len())],
                &mut model,
            )?;
        }

        let slot_count = daemon.fleet().slot_count();
        let batch_len = (slot_count / 2).max(1) + round;
        let mut updates = Vec::with_capacity(batch_len + 2);
        for _ in 0..batch_len {
            updates.push(SampleUpdate {
                slot: rng.gen_range(0..slot_count),
                watts: rng.gen_range(0.0..400.0),
            });
        }
        // Two deliberate drops: a never-committed slot and (after the
        // churn round below) retired slots hit the same skip path.
        updates.push(SampleUpdate {
            slot: slot_count + 7,
            watts: 1.0,
        });
        let submitted = updates.len();
        let outcome = daemon.ingest_batch(&updates).map_err(OracleError::Core)?;
        let watts = snap_samples(&updates.iter().map(|u| u.watts).collect::<Vec<_>>())?;
        let mut expect_applied = 0usize;
        for (update, watts) in updates.iter().zip(watts) {
            if let Some(slot) = model.get_mut(update.slot).filter(|m| m.live) {
                slot.window[slot.cursor] = watts;
                slot.cursor = (slot.cursor + 1) % window;
                expect_applied += 1;
            }
        }
        report.check(
            FAMILY,
            "ingest_accounting_is_exact",
            outcome.applied == expect_applied && outcome.applied + outcome.dropped == submitted,
            || {
                format!(
                    "round {round}: applied {} dropped {} of {submitted} submitted, expected {expect_applied} applied",
                    outcome.applied, outcome.dropped
                )
            },
        );

        if round == ROUNDS / 2 {
            // One repair pass mid-stream: it must take the reference's
            // swaps, and must not disturb the bit-identity of later
            // recomputes.
            let (want, want_occupancy) = reference_pass(daemon.fleet())?;
            let got = daemon.repair()?;
            let got_occupancy = occupancy(daemon.fleet());
            check_repair(FAMILY, &got, &got_occupancy, &want, &want_occupancy, report);
        }

        check_ring_replay(&daemon, &model, report);
        check_daemon_state(&daemon, report)?;
        crate::online::shuffled_recompute_matches(FAMILY, daemon.fleet(), rng, report)?;
    }

    empty_ingest_is_identity(&mut daemon, report)?;
    malformed_batch_rejects(&mut daemon, report)?;
    counters_cover_lifetime(&daemon, report);
    Ok(())
}

/// Commits `trace` through the daemon and, when it is admitted, enters
/// the new slot into the model: the next id, fresh at cursor 0.
fn arrive(
    daemon: &mut DaemonFleet,
    trace: &PowerTrace,
    model: &mut Vec<ModelSlot>,
) -> Result<(), OracleError> {
    if let Some(slot) = daemon.arrive(trace).map_err(OracleError::Core)? {
        debug_assert_eq!(slot, model.len(), "slot ids are commit ordinals");
        model.push(ModelSlot {
            window: snap_samples(trace.samples())?,
            cursor: 0,
            live: true,
        });
    }
    Ok(())
}

/// The daemon's live slots must be the model's, and each one's arena row
/// must equal the model's window bit-for-bit: the daemon's cursor
/// arithmetic and row reuse and the model's were written independently,
/// so any indexing bug shows up as a cell diff. No retired id may
/// resolve to a rack.
fn check_ring_replay(daemon: &DaemonFleet, model: &[ModelSlot], report: &mut OracleReport) {
    let live = daemon.fleet().live_slots();
    let want_live: Vec<usize> = (0..model.len()).filter(|&s| model[s].live).collect();
    report.check(
        FAMILY,
        "ring_replay_reconstructs_every_window_cell",
        live == want_live,
        || format!("live slots {live:?}, the model's {want_live:?}"),
    );
    for (slot, _) in model.iter().enumerate().filter(|(_, m)| !m.live) {
        let rack = daemon.fleet().rack_of(slot);
        report.check(FAMILY, "retired_ids_never_resolve", rack.is_none(), || {
            format!("retired slot {slot} still resolves to rack {rack:?}")
        });
    }
    for slot in live {
        let Some(ModelSlot { window: want, .. }) = model.get(slot) else {
            continue;
        };
        let got = daemon.fleet().row(slot);
        report.check(
            FAMILY,
            "ring_replay_reconstructs_every_window_cell",
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
            || format!("slot {slot}: resident window diverges from the ring-replay model"),
        );
    }
}

/// Diffs a daemon's incrementally maintained state against batch
/// recomputes: aggregates and peaks vs [`NodeAggregates::compute`] of
/// the materialized windows, rack and mean asynchrony vs
/// [`asynchrony_score`](so_core::asynchrony_score) over the materialized member windows.
///
/// # Errors
///
/// Propagates assignment/aggregation errors (the *claimed* side is only
/// read, never validated).
fn check_daemon_state(daemon: &DaemonFleet, report: &mut OracleReport) -> Result<(), OracleError> {
    let engine = daemon.fleet();
    let (traces, assignment, _) = engine.live_view().map_err(OracleError::Core)?;
    let offline = if traces.is_empty() {
        NodeAggregates::zeros(engine.topology(), engine.grid())
    } else {
        NodeAggregates::compute(engine.topology(), &assignment, &traces)?
    };
    for node in engine.topology().nodes().iter().map(|n| n.id()) {
        let got = engine.aggregates().trace(node)?.samples();
        let want = offline.trace(node)?.samples();
        report.check(
            FAMILY,
            "ingest_aggregates_match_batch_recompute",
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
            || format!("node {node}: resident aggregate drifts from the batch recompute"),
        );
        report.check_exact(
            FAMILY,
            "ingest_peaks_match_batch_recompute",
            engine.aggregates().peak(node)?,
            offline.peak(node)?,
        );
    }
    let racks: Vec<NodeId> = (0..traces.len())
        .map(|i| assignment.rack_of(i))
        .collect::<Result<_, _>>()?;
    check_rack_asynchrony(
        FAMILY,
        engine.topology(),
        &traces,
        &racks,
        |rack| daemon.rack_asynchrony(rack),
        daemon.mean_rack_asynchrony(),
        report,
    )
}

/// An empty batch must be a perfect no-op on the resident aggregates.
fn empty_ingest_is_identity(
    daemon: &mut DaemonFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let before = root_bits(daemon)?;
    daemon.ingest_batch(&[]).map_err(OracleError::Core)?;
    let after = root_bits(daemon)?;
    report.check(FAMILY, "empty_ingest_is_identity", before == after, || {
        "an empty ingest batch perturbed the root aggregate".to_string()
    });
    Ok(())
}

/// A batch containing one malformed reading must be rejected whole —
/// the error surfaces *before* any window write, so no partial state
/// leaks.
fn malformed_batch_rejects(
    daemon: &mut DaemonFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let before = root_bits(daemon)?;
    let ingested = daemon.samples_ingested();
    let live = daemon.fleet().live_slots();
    let mut updates: Vec<SampleUpdate> = live
        .iter()
        .take(3)
        .map(|&slot| SampleUpdate { slot, watts: 5.0 })
        .collect();
    updates.push(SampleUpdate {
        slot: live[0],
        watts: f64::NAN,
    });
    let rejected = daemon.ingest_batch(&updates).is_err();
    let after = root_bits(daemon)?;
    report.check(
        FAMILY,
        "malformed_batch_rejects_without_mutation",
        rejected && before == after && daemon.samples_ingested() == ingested,
        || "a NaN-bearing batch was not rejected atomically".to_string(),
    );
    Ok(())
}

/// Lifetime counters must be plain sums of what the battery streamed.
fn counters_cover_lifetime(daemon: &DaemonFleet, report: &mut OracleReport) {
    report.check(
        FAMILY,
        "ingest_accounting_is_exact",
        daemon.batches_ingested() >= ROUNDS as u64 && daemon.samples_ingested() > 0,
        || {
            format!(
                "lifetime counters implausible: {} batches, {} samples",
                daemon.batches_ingested(),
                daemon.samples_ingested()
            )
        },
    );
}

fn root_bits(daemon: &DaemonFleet) -> Result<Vec<u64>, OracleError> {
    let root = daemon.fleet().topology().root();
    Ok(daemon
        .fleet()
        .aggregates()
        .trace(root)?
        .samples()
        .iter()
        .map(|s| s.to_bits())
        .collect())
}
