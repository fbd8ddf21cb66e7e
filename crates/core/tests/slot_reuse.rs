//! Slot ids across row reuse: a retirement frees its arena row and the
//! next commit overwrites it, but the retired id never resolves again,
//! and the new id behaves exactly as a fresh row would.

use std::sync::Arc;

use so_core::daemon::{DaemonFleet, SampleUpdate};
use so_core::{CommitPolicy, CoreError, EventRecord, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid};
use so_powertree::{PowerTopology, TreeError};
use so_telemetry::{default_online_rules, LivePlane, RecordingSink};

const T: usize = 6;

/// 4 racks × 3 slots with budgets nothing here reaches.
fn engine() -> OnlineFleet {
    let topology = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(1)
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(3)
        .build()
        .unwrap();
    let nodes = topology.len();
    OnlineFleet::new(
        topology,
        TimeGrid::new(60, T),
        OnlineConfig {
            policy: CommitPolicy::FirstFit,
            repair_budget: 0,
            ..OnlineConfig::default()
        },
    )
    .with_budgets(vec![1e9; nodes])
    .unwrap()
}

fn trace(samples: [f64; T]) -> PowerTrace {
    PowerTrace::new(samples.to_vec(), 60).unwrap()
}

#[test]
fn a_reused_row_takes_a_new_id_and_the_old_id_never_resolves() {
    let mut fleet = engine();
    let plane = Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        16,
        default_online_rules(),
    ));
    fleet.attach_plane(plane.clone());
    for w in [10.0, 20.0, 30.0] {
        fleet.arrive(&trace([w; T])).unwrap().unwrap();
    }
    fleet.retire(1).unwrap();
    // Off the 2^-10 W grid, so the row holds the snapped candidate.
    let candidate = trace([5.0001, 6.0, 7.0, 8.0, 9.0, 10.0]);
    let slot = fleet.arrive(&candidate).unwrap().unwrap();

    assert_eq!(slot, 3, "ids are commit ordinals, never reused");
    assert_eq!(fleet.slot_count(), 4);
    assert_eq!(fleet.arena_rows(), 3, "the commit reused slot 1's row");
    assert_eq!(fleet.live_slots(), vec![0, 2, 3]);
    assert_eq!(fleet.rack_of(1), None);
    assert!(matches!(
        fleet.retire(1),
        Err(CoreError::Tree(TreeError::UnknownInstance(1)))
    ));
    let snapped = so_powertrace::snap_samples(candidate.samples()).unwrap();
    assert_eq!(fleet.row(3), snapped.as_slice());
    assert!(std::panic::catch_unwind(|| fleet.row(1).to_vec()).is_err());
    let newest = plane.flight_records(1)[0];
    assert_eq!(
        EventRecord::from_flight(newest.kind, newest.a, newest.b, newest.c),
        Some(EventRecord::Committed {
            slot: 3,
            ordinal: 3,
            rack: fleet.rack_of(3).unwrap(),
        })
    );

    // A rejected arrival takes neither a row nor an id.
    let mut tight = fleet
        .clone()
        .with_budgets(vec![1.0; fleet.topology().len()])
        .unwrap();
    assert_eq!(tight.arrive(&candidate).unwrap(), None);
    assert_eq!((tight.slot_count(), tight.arena_rows()), (4, 3));
}

#[test]
fn ingest_into_a_reused_row_starts_at_column_zero_and_drops_the_old_id() {
    let mut daemon = DaemonFleet::new(engine());
    for w in [10.0, 20.0] {
        daemon.arrive(&trace([w; T])).unwrap().unwrap();
    }
    // Move slot 1's cursor to column 3.
    for w in [1.0, 2.0, 3.0] {
        daemon
            .ingest_batch(&[SampleUpdate { slot: 1, watts: w }])
            .unwrap();
    }
    daemon.retire(1).unwrap();
    let slot = daemon.arrive(&trace([40.0; T])).unwrap().unwrap();
    assert_eq!((slot, daemon.fleet().arena_rows()), (2, 2));

    let report = daemon
        .ingest_batch(&[
            SampleUpdate { slot, watts: 99.0 },
            SampleUpdate {
                slot: 1,
                watts: 77.0,
            },
        ])
        .unwrap();
    assert_eq!((report.applied, report.dropped), (1, 1));
    assert_eq!(
        daemon.fleet().row(slot),
        &[99.0, 40.0, 40.0, 40.0, 40.0, 40.0]
    );
    assert_eq!(daemon.fleet().row(0), &[10.0; T]);
}
