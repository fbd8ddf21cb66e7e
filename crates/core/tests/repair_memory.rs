//! Live-heap regression test for the online engine's repair pass.
//!
//! `OnlineFleet::repair` runs the §3.6 swap search on the resident racks:
//! member rows are read from the arena in place and every swap moves rows
//! along the resident power paths by delta. A pass allocates per-rack and
//! per-member bookkeeping only, never a row copy (`live × T` samples) or a
//! re-summed rack (`racks × T`). A counting global allocator holds the
//! pass's peak live-heap growth under `64 × (live + racks)` bytes; a
//! compact copy of the live rows alone would need `live × 8 × T`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Instances offered; every tenth is retired before the pass.
const INSTANCES: usize = 4_000;

/// A day-periodic draw whose phase and amplitude vary per instance, so
/// racks mix peak hours and the pass has swaps to make.
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
fn repair_pass_copies_no_rows() {
    so_parallel::set_thread_limit(1);
    // The online rung's shape, 1 suite × 2 MSB × 2 SB × r RPP × 4 racks of
    // 12 slots, with r = 32 (512 racks) so 64 sampled probes always find
    // a free slot.
    let topology = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(32)
        .racks_per_rpp(4)
        .rack_capacity(12)
        .build()
        .unwrap();
    let racks = topology.racks().len();
    let config = OnlineConfig {
        policy: CommitPolicy::Sampling { probes: 64 },
        repair_budget: 8,
        min_gain: 0.0,
        sample_salt: 1,
    };
    let nodes = topology.len();
    let mut fleet = OnlineFleet::new(topology, TimeGrid::new(60, T), config)
        .with_budgets(vec![1e9; nodes])
        .unwrap();
    for i in 0..INSTANCES {
        fleet
            .arrive(&trace(i))
            .unwrap()
            .expect("generous budgets admit");
    }
    for slot in (0..INSTANCES).step_by(10) {
        fleet.retire(slot).unwrap();
    }
    let live = fleet.live_len();

    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = fleet.repair().unwrap();
    let growth = PEAK.load(Ordering::Relaxed) - before;

    assert!(
        !report.swaps.is_empty(),
        "the pass must swap to be measured"
    );
    let bound = 64 * (live + racks);
    assert!(
        growth < bound,
        "repair grew the live heap by {growth} B for {live} live instances on {racks} racks \
         (bound {bound} B; a copy of the live rows is {} B)",
        live * T * 8
    );
}
