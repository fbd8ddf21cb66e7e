//! Differential oracle for the online placement engine at the workspace
//! level: after any seeded arrival/departure stream, the resident
//! engine's aggregates, peaks, and asynchrony scores must be
//! bit-identical to a from-scratch offline recompute of the final fleet —
//! and the whole run must produce the same bits at any thread count.
//!
//! Each test sets the lane budget of its own thread
//! ([`so_parallel::set_thread_limit`]), so the harness may run them
//! concurrently.

use rand::Rng;
use so_core::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_oracles::online::drive_batch;
use so_oracles::{run_battery, BatteryConfig, OracleFamily};
use so_powertree::{NodeAggregates, PowerTopology};
use so_workloads::rng::stream_rng;
use so_workloads::DcScenario;

/// Arrival batches per run, and arrivals and retirement draws per batch.
const BATCHES: usize = 4;
const ARRIVALS: usize = 12;
const RETIREMENTS: usize = 3;

fn topology() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(2)
        .rack_capacity(16)
        .name("online-battery")
        .build()
        .unwrap()
}

/// The racks of [`topology`].
fn racks() -> usize {
    topology().racks().len()
}

/// Drives a fresh engine probing `probes` racks per arrival through a
/// stream drawn from a DC2 fleet seeded with `seed`, batch by batch with
/// the oracles' [`drive_batch`], and returns the final engine.
fn drive(probes: usize, seed: u64) -> OnlineFleet {
    let scenario = DcScenario {
        seed,
        ..DcScenario::dc2()
    };
    let fleet = scenario.generate_fleet(BATCHES * ARRIVALS).unwrap();
    let traces = fleet.averaged_traces();
    let cap = traces.iter().map(|t| t.peak()).sum::<f64>() * 2.0 + 100.0;
    let topology = topology();
    let budgets = vec![cap; topology.len()];
    let mut engine = OnlineFleet::new(
        topology,
        fleet.grid(),
        OnlineConfig {
            policy: CommitPolicy::Sampling { probes },
            repair_budget: 2,
            min_gain: 0.0,
            sample_salt: seed,
        },
    )
    .with_budgets(budgets)
    .unwrap();
    let mut rng = stream_rng(seed, 0);
    for batch in traces.chunks(ARRIVALS) {
        let draws: Vec<u64> = (0..RETIREMENTS).map(|_| rng.gen()).collect();
        drive_batch(&mut engine, batch, &draws).unwrap();
    }
    engine
}

/// Bits of every node aggregate, peaks, and per-rack asynchrony — the
/// full deterministic output of a run.
fn digest(engine: &OnlineFleet) -> Vec<u64> {
    let mut out = Vec::new();
    for node in engine.topology().nodes().iter().map(|n| n.id()) {
        let trace = engine.aggregates().trace(node).unwrap();
        out.extend(trace.samples().iter().map(|v| v.to_bits()));
        out.push(engine.aggregates().peak(node).unwrap().to_bits());
    }
    for &rack in engine.topology().racks() {
        match engine.rack_asynchrony(rack) {
            Ok(score) => out.push(score.to_bits()),
            Err(_) => out.push(u64::MAX),
        }
    }
    out.push(engine.live_len() as u64);
    out.push(engine.committed());
    out.push(engine.rejected());
    out
}

/// The engine's end state must be bit-identical to an offline recompute
/// of its own live view.
fn assert_matches_offline(engine: &OnlineFleet) {
    let (traces, assignment, _) = engine.live_view().unwrap();
    assert!(engine.live_len() > 0, "stream must leave live instances");
    let offline = NodeAggregates::compute(engine.topology(), &assignment, &traces).unwrap();
    for node in engine.topology().nodes().iter().map(|n| n.id()) {
        let got = engine.aggregates().trace(node).unwrap().samples();
        let want = offline.trace(node).unwrap().samples();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "node {node} drifts from recompute"
            );
        }
        assert_eq!(
            engine.aggregates().peak(node).unwrap().to_bits(),
            offline.peak(node).unwrap().to_bits()
        );
    }
}

#[test]
fn online_end_state_is_bit_identical_across_thread_counts() {
    for probes in [racks(), 2] {
        let mut runs = Vec::new();
        for lanes in [1usize, 2, 8] {
            so_parallel::set_thread_limit(lanes);
            let engine = drive(probes, 17);
            assert_matches_offline(&engine);
            runs.push((lanes, digest(&engine)));
        }
        let (_, reference) = &runs[0];
        for (lanes, run) in &runs {
            assert_eq!(
                run, reference,
                "{probes} probes: digest diverges at {lanes} lane(s)"
            );
        }
    }
}

#[test]
fn online_streams_with_distinct_seeds_diverge() {
    so_parallel::set_thread_limit(2);
    let a = digest(&drive(racks(), 17));
    let b = digest(&drive(racks(), 18));
    assert_ne!(a, b, "seed must drive the stream contents");
}

#[test]
fn battery_covers_the_online_family() {
    so_parallel::set_thread_limit(2);
    let outcome = run_battery(&BatteryConfig {
        seed: 12,
        instances: 48,
    })
    .unwrap();
    assert!(
        outcome.report.is_clean(),
        "{:#?}",
        outcome.report.violations()
    );
    assert!(outcome.report.evaluations(OracleFamily::Online) > 0);
}
