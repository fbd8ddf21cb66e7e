//! Workers run under their caller's lane budget and telemetry sink.
//!
//! One test in its own binary so that no other test holds live workers
//! while it runs: the lane grant comes from a count shared by every
//! thread, and this test asserts that the calls really spawned.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

use so_parallel::{par_fill_chunks, par_map, set_thread_limit, thread_limit};
use so_telemetry::{counter_add, with_sink, RecordingSink};

#[test]
fn workers_inherit_the_callers_budget_and_sink() {
    // Another thread holds a different budget for the whole test.
    let (release, parked) = mpsc::channel::<()>();
    let (ready, holding) = mpsc::channel();
    let other = std::thread::spawn(move || {
        set_thread_limit(1);
        ready.send(thread_limit()).unwrap();
        parked.recv_timeout(Duration::from_secs(60)).ok();
        thread_limit()
    });
    assert_eq!(holding.recv_timeout(Duration::from_secs(60)).unwrap(), 1);

    set_thread_limit(4);
    let caller = std::thread::current().id();
    let sink = Arc::new(RecordingSink::with_virtual_clock());
    let items: Vec<u64> = (1..=1_000).collect();
    let (mapped, filled) = with_sink(sink.clone(), || {
        let mapped: Vec<(ThreadId, usize)> = par_map(&items, 1, |_, &x| {
            counter_add("so_test_map_total", &[], x);
            (std::thread::current().id(), thread_limit())
        });
        let mut filled = vec![(caller, 0usize); 4_096];
        par_fill_chunks(&mut filled, 64, |c, chunk| {
            counter_add("so_test_fill_total", &[], chunk.len() as u64 + c as u64);
            chunk.fill((std::thread::current().id(), thread_limit()));
        });
        (mapped, filled)
    });

    let snapshot = sink.snapshot();
    assert_eq!(snapshot.counter("so_test_map_total", &[]), 500_500);
    // 4 096 slots in 64 chunks, plus the chunk indices 0..64.
    assert_eq!(
        snapshot.counter("so_test_fill_total", &[]),
        4_096 + 63 * 64 / 2
    );
    for (what, seen) in [("par_map", &mapped), ("par_fill_chunks", &filled)] {
        assert!(
            seen.iter().all(|&(_, lanes)| lanes == 4),
            "{what}: a worker saw another thread's lane budget"
        );
        assert!(
            seen.iter().any(|&(id, _)| id != caller),
            "{what}: no worker was spawned"
        );
    }

    release.send(()).unwrap();
    assert_eq!(
        other.join().unwrap(),
        1,
        "the other thread kept its own budget"
    );
}
