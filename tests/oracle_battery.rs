//! Workspace-level smoke test of the correctness-oracle battery: a small
//! seeded fleet must come back with zero violations across all three
//! oracle families, and battery runs must show up in telemetry — in the
//! sink of the thread that ran them and in no other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smoothoperator::prelude::*;
use so_telemetry::RecordingSink;

/// How long one scoped battery waits for its peer at each handshake.
const HANDSHAKE: Duration = Duration::from_secs(60);

#[test]
fn seeded_battery_is_clean() {
    let outcome = run_battery(&BatteryConfig {
        seed: 7,
        instances: 72,
    })
    .expect("battery runs");
    assert!(
        outcome.report.is_clean(),
        "oracle violations: {:#?}",
        outcome.report.violations()
    );
    for family in OracleFamily::ALL {
        assert!(
            outcome.report.evaluations(family) > 0,
            "family {family} never evaluated"
        );
    }
}

/// Asserts that `sink` counted exactly the evaluations and violations of
/// `report`, family by family.
fn assert_counts_match(sink: &RecordingSink, report: &OracleReport) {
    let metrics = sink.snapshot();
    let mut counted = 0;
    for family in OracleFamily::ALL {
        let evaluations =
            metrics.counter("so_oracle_evaluations_total", &[("family", family.label())]);
        assert_eq!(evaluations, report.evaluations(family), "{family}");
        assert_eq!(
            metrics.counter("so_oracle_violations_total", &[("family", family.label())]),
            report.violations_in(family) as u64,
            "{family}"
        );
        counted += evaluations;
    }
    assert_eq!(counted, report.total_evaluations());
}

#[test]
fn battery_emits_oracle_counters() {
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let outcome = so_telemetry::with_sink(sink.clone(), || {
        run_battery(&BatteryConfig {
            seed: 12,
            instances: 48,
        })
        .expect("battery runs")
    });
    assert_counts_match(&sink, &outcome.report);
}

/// Runs one battery on a new thread under its own sink. Inside the scope
/// it meets its peer twice — on entering and before leaving — so the two
/// scopes are open at the same time for the whole of both batteries.
fn scoped_battery(
    config: BatteryConfig,
    to_peer: Sender<()>,
    from_peer: Receiver<()>,
) -> JoinHandle<(Arc<RecordingSink>, OracleReport)> {
    std::thread::spawn(move || {
        let meet = |stage: &str| {
            to_peer.send(()).ok();
            from_peer
                .recv_timeout(HANDSHAKE)
                .unwrap_or_else(|e| panic!("peer never {stage} its sink scope: {e}"));
        };
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        let report = so_telemetry::with_sink(sink.clone(), || {
            meet("entered");
            let outcome = run_battery(&config).expect("battery runs");
            meet("finished inside");
            outcome.report
        });
        (sink, report)
    })
}

#[test]
fn concurrent_batteries_count_into_their_own_sinks() {
    // A battery with no sink keeps running on a third thread throughout.
    let running = Arc::new(AtomicBool::new(true));
    let bystander = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let mut runs = 0u32;
            while runs == 0 || running.load(Ordering::Acquire) {
                run_battery(&BatteryConfig {
                    seed: 7,
                    instances: 40,
                })
                .expect("battery runs");
                runs += 1;
            }
            runs
        })
    };

    let (a_tx, a_rx) = mpsc::channel();
    let (b_tx, b_rx) = mpsc::channel();
    let a = scoped_battery(
        BatteryConfig {
            seed: 12,
            instances: 48,
        },
        a_tx,
        b_rx,
    );
    let b = scoped_battery(
        BatteryConfig {
            seed: 13,
            instances: 36,
        },
        b_tx,
        a_rx,
    );
    let (a, b) = (a.join(), b.join());
    running.store(false, Ordering::Release);
    assert!(bystander.join().expect("bystander battery") > 0);

    let (a_sink, a_report) = a.expect("battery a");
    let (b_sink, b_report) = b.expect("battery b");
    assert_ne!(a_report.total_evaluations(), b_report.total_evaluations());
    assert_counts_match(&a_sink, &a_report);
    assert_counts_match(&b_sink, &b_report);
}
