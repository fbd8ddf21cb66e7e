//! Live-heap soak test for a resident daemon under arrival churn.
//!
//! A retirement frees its arena row and the next commit overwrites it, so
//! a `DaemonFleet` whose live count stays put holds a fixed number of rows
//! however many instances come and go. Ten rounds each retire and re-admit
//! the whole fleet, ingest one sample per instance and run one repair
//! pass. A counting global allocator holds every round's peak live heap
//! within 1% of the first round's; a row appended per arrival, and the
//! per-slot state beside it, would add about 1.4 KB per pair, 2.8 MB a
//! round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use so_core::daemon::{DaemonFleet, SampleUpdate};
use so_core::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid};
use so_powertree::PowerTopology;

struct LiveBytes;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // Counted as a fresh block plus a release of the old one, so a copying
    // reallocation shows its transient peak.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Samples per window: one week of hours.
const T: usize = 168;

/// Live instances, and retire+arrive pairs per round.
const INSTANCES: usize = 2_000;

/// Churn rounds.
const ROUNDS: usize = 10;

/// A day-periodic draw whose phase and amplitude vary per instance.
fn trace(i: usize) -> PowerTrace {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    let phase = (h % 24) as f64;
    let amplitude = 60.0 + (h % 97) as f64;
    let samples = (0..T)
        .map(|t| {
            let angle = std::f64::consts::TAU * (t as f64 - phase) / 24.0;
            40.0 + amplitude * angle.sin().max(0.0)
        })
        .collect();
    PowerTrace::new(samples, 60).unwrap()
}

// One test function on purpose: the counters are process-global, and the
// default harness runs separate #[test]s on concurrent threads.
#[test]
fn churn_keeps_rows_and_live_heap_bounded_by_the_live_fleet() {
    so_parallel::set_thread_limit(1);
    // The online rung's shape, 1 suite × 2 MSB × 2 SB × r RPP × 4 racks of
    // 12 slots, with r = 32 (512 racks, 6 144 slots).
    let topology = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(32)
        .racks_per_rpp(4)
        .rack_capacity(12)
        .build()
        .unwrap();
    let capacity = topology.server_capacity();
    let config = OnlineConfig {
        policy: CommitPolicy::Sampling { probes: 64 },
        repair_budget: 8,
        min_gain: 0.0,
        sample_salt: 1,
    };
    let nodes = topology.len();
    let fleet = OnlineFleet::new(topology, TimeGrid::new(60, T), config)
        .with_budgets(vec![1e9; nodes])
        .unwrap();
    let mut daemon = DaemonFleet::new(fleet);
    let arrivals: Vec<PowerTrace> = (0..2 * INSTANCES).map(trace).collect();
    let mut live = VecDeque::with_capacity(INSTANCES + 1);
    for candidate in &arrivals[..INSTANCES] {
        live.push_back(
            daemon
                .arrive(candidate)
                .unwrap()
                .expect("generous budgets admit"),
        );
    }
    let mut updates = Vec::with_capacity(INSTANCES);

    let mut peaks = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
        for pair in 0..INSTANCES {
            let oldest = live.pop_front().unwrap();
            daemon.retire(oldest).unwrap();
            let candidate = &arrivals[(round + pair) % arrivals.len()];
            live.push_back(
                daemon
                    .arrive(candidate)
                    .unwrap()
                    .expect("a freed slot admits"),
            );
            assert!(daemon.fleet().arena_rows() <= capacity);
        }
        assert_eq!(daemon.fleet().arena_rows(), INSTANCES, "round {round}");
        updates.clear();
        updates.extend(live.iter().map(|&slot| SampleUpdate {
            slot,
            watts: 50.0 + (slot % 50) as f64,
        }));
        let report = daemon.ingest_batch(&updates).unwrap();
        assert_eq!(report.applied, INSTANCES);
        daemon.repair().unwrap();
        peaks.push(PEAK.load(Ordering::Relaxed));
    }

    let first = peaks[0];
    for (round, &peak) in peaks.iter().enumerate().skip(1) {
        assert!(
            peak.abs_diff(first) * 100 <= first,
            "round {round} peaked at {peak} B of live heap, round 0 at {first} B \
             (every round retires and re-admits {INSTANCES} instances); peaks {peaks:?}"
        );
    }
}
