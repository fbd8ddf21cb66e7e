//! Deterministic data-parallel helpers over `std::thread::scope`.
//!
//! The placement → clustering → remap pipeline parallelizes with two
//! primitives whose results are **bit-identical** to a serial loop no
//! matter how many worker threads actually run:
//!
//! * [`par_map`] — positional map: `out[i] = f(i, &items[i])`. Each
//!   worker fills a disjoint contiguous slice of the output, so thread
//!   count and scheduling can never reorder results.
//! * [`par_chunk_map`] — canonically chunked map for reductions. The
//!   input is cut into fixed-size chunks whose boundaries depend only
//!   on `chunk_len` (never on the worker count); callers fold the
//!   per-chunk partials **in chunk order**, which pins the
//!   floating-point association once for serial and parallel alike.
//!
//! Each thread carries its own lane budget ([`set_thread_limit`],
//! defaulting to [`std::thread::available_parallelism`]). Workers run
//! under the budget and telemetry sink of the thread that spawned them
//! ([`ThreadContext`]), and every helper draws its workers from one count
//! of live workers, so nested calls — e.g. per-child placement recursion
//! invoking parallel k-means — share one pool-sized allotment instead of
//! multiplying threads. When no lane is free, at a lane budget of 1, or
//! inside [`serial_scope`], every helper degenerates to the plain serial
//! loop and produces the same bits.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use so_telemetry::RecordingSink;

/// Spawned worker threads currently alive across all helpers. The one
/// process-wide value here: it counts real threads, not configuration.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's lane budget; 0 means "unset, use the machine's
    /// available parallelism".
    static LIMIT: Cell<usize> = const { Cell::new(0) };
    /// Nesting depth of [`serial_scope`] on this thread.
    static SERIAL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Maximum number of lanes (caller thread + spawned workers) a helper
/// called on this thread may use. Defaults to the machine's available
/// parallelism.
pub fn thread_limit() -> usize {
    match LIMIT.get() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Overrides [`thread_limit`] for this thread and the workers it spawns.
/// `1` disables spawning.
///
/// Intended for tests and benchmarks that need a fixed lane count
/// regardless of the host's core count (e.g. exercising the threaded
/// path on a single-core CI runner).
pub fn set_thread_limit(lanes: usize) {
    LIMIT.set(lanes.max(1));
}

/// The calling thread's lane budget and telemetry sink, captured so that
/// other threads can run under them: every helper here enters its
/// spawner's context in each worker, and a service that starts its own
/// threads does the same with one `capture` and an `enter` per thread.
#[derive(Clone)]
pub struct ThreadContext {
    limit: usize,
    sink: Option<Arc<RecordingSink>>,
}

impl ThreadContext {
    /// Captures the calling thread's lane budget and installed sink.
    pub fn capture() -> Self {
        Self {
            limit: LIMIT.get(),
            sink: so_telemetry::current_sink(),
        }
    }

    /// Runs `f` on this thread under the captured budget and sink, then
    /// restores this thread's own — including when `f` panics. A context
    /// captured with no sink leaves this thread's sink as it is, which
    /// for a newly spawned thread means none.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                LIMIT.set(self.0);
            }
        }
        let _restore = Restore(LIMIT.replace(self.limit));
        match &self.sink {
            Some(sink) => so_telemetry::with_sink(Arc::clone(sink), f),
            None => f(),
        }
    }
}

/// True when the current thread is inside a [`serial_scope`].
fn is_serial() -> bool {
    SERIAL_DEPTH.with(|depth| depth.get() > 0)
}

/// Runs `f` with all helpers on this thread forced to their serial
/// path. Because the serial path spawns nothing, the force extends to
/// everything `f` calls. Scopes nest; panics restore the previous
/// state.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SERIAL_DEPTH.with(|depth| depth.set(depth.get() - 1));
        }
    }
    SERIAL_DEPTH.with(|depth| depth.set(depth.get() + 1));
    let _guard = Guard;
    f()
}

/// A reservation of spawned-worker slots against the caller's budget.
struct Permit {
    count: usize,
}

impl Permit {
    /// Tries to reserve up to `want` worker slots; `None` when the
    /// budget is exhausted (the caller then runs serially).
    fn acquire(want: usize) -> Option<Permit> {
        if want == 0 {
            return None;
        }
        // The caller thread itself occupies one lane, so only
        // `limit - 1` spawned workers may exist at once.
        let budget = thread_limit().saturating_sub(1);
        let mut current = ACTIVE.load(Ordering::Relaxed);
        loop {
            let grant = want.min(budget.saturating_sub(current));
            if grant == 0 {
                return None;
            }
            match ACTIVE.compare_exchange_weak(
                current,
                current + grant,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit { count: grant }),
                Err(actual) => current = actual,
            }
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(self.count, Ordering::Relaxed);
    }
}

/// Lane count for a task that splits into `parts` independent pieces:
/// at most one lane per piece, capped by the budget, and 1 whenever
/// threading is off for any reason.
fn lanes_for(parts: usize) -> usize {
    if parts < 2 || is_serial() {
        1
    } else {
        parts.min(thread_limit())
    }
}

/// Computes `produce(i)` for `i in 0..count` into a positional output,
/// splitting the index range contiguously across `lanes` threads.
fn run<R: Send>(count: usize, lanes: usize, produce: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if lanes <= 1 || count < 2 {
        return (0..count).map(produce).collect();
    }
    let permit = match Permit::acquire(lanes - 1) {
        Some(permit) => permit,
        None => return (0..count).map(produce).collect(),
    };
    let lanes = permit.count + 1;
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    {
        // Hand each lane a disjoint `&mut` window of the output so
        // results land positionally without any post-hoc reordering.
        let mut windows: Vec<(usize, &mut [Option<R>])> = Vec::with_capacity(lanes);
        let mut rest = out.as_mut_slice();
        let mut start = 0usize;
        for lane in 0..lanes {
            let len = count / lanes + usize::from(lane < count % lanes);
            let (head, tail) = rest.split_at_mut(len);
            windows.push((start, head));
            start += len;
            rest = tail;
        }
        let produce = &produce;
        let context = &ThreadContext::capture();
        std::thread::scope(|scope| {
            let mut windows = windows.into_iter();
            let (first_base, first_window) = windows.next().expect("lanes >= 1");
            for (base, window) in windows {
                scope.spawn(move || {
                    context.enter(|| {
                        for (offset, slot) in window.iter_mut().enumerate() {
                            *slot = Some(produce(base + offset));
                        }
                    });
                });
            }
            // The caller thread works the first window instead of
            // blocking on the join.
            for (offset, slot) in first_window.iter_mut().enumerate() {
                *slot = Some(produce(first_base + offset));
            }
        });
    }
    drop(permit);
    out.into_iter()
        .map(|slot| slot.expect("every lane fills its window"))
        .collect()
}

/// Positional parallel map: returns `[f(0, &items[0]), f(1, &items[1]), ..]`.
///
/// `grain` is the minimum number of items worth giving one thread; the
/// call runs serially unless at least two grains of work exist. Use a
/// small grain for coarse items (placement subtrees, candidate nodes)
/// and a large one for cheap element-wise work (distance evaluations).
pub fn par_map<T, R, F>(items: &[T], grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let lanes = lanes_for(items.len() / grain.max(1));
    run(items.len(), lanes, |i| f(i, &items[i]))
}

/// Number of lanes a data-parallel helper would use right now: `1`
/// inside a [`serial_scope`], the current [`thread_limit`] otherwise.
/// Reporting only — the actual grant still depends on the shared budget
/// at call time.
pub fn effective_lanes() -> usize {
    if is_serial() {
        1
    } else {
        thread_limit()
    }
}

/// Fills canonical fixed-size chunks of `out` in parallel: chunk `c` is
/// `out[c * chunk_len .. min((c + 1) * chunk_len, n)]` — the same layout
/// as [`par_chunk_map`] — and `f(c, chunk)` writes it.
///
/// Because every element is written exactly once, by one call, from a
/// chunk index that depends only on `chunk_len`, the result is
/// bit-identical at any thread count: this is the deterministic parallel
/// *synthesis* primitive (the write-side dual of [`par_chunk_map`]'s
/// read-side reductions), used to generate trace populations row-by-row.
pub fn par_fill_chunks<T, F>(out: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n = out.len();
    let chunks = n.div_ceil(chunk_len);
    let lanes = lanes_for(chunks);
    let serial = |out: &mut [T]| {
        for (c, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(c, chunk);
        }
    };
    if lanes <= 1 || chunks < 2 {
        return serial(out);
    }
    let permit = match Permit::acquire(lanes - 1) {
        Some(permit) => permit,
        None => return serial(out),
    };
    let lanes = permit.count + 1;
    // Hand each lane a contiguous run of whole chunks, as a disjoint
    // `&mut` window of the output.
    let f = &f;
    let context = &ThreadContext::capture();
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut chunk_base = 0usize;
        let mut first: Option<(usize, &mut [T])> = None;
        for lane in 0..lanes {
            let lane_chunks = chunks / lanes + usize::from(lane < chunks % lanes);
            let take = (lane_chunks * chunk_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            if lane == 0 {
                first = Some((chunk_base, head));
            } else {
                let base = chunk_base;
                scope.spawn(move || {
                    context.enter(|| {
                        for (offset, chunk) in head.chunks_mut(chunk_len).enumerate() {
                            f(base + offset, chunk);
                        }
                    });
                });
            }
            chunk_base += lane_chunks;
        }
        // The caller thread works the first window instead of blocking
        // on the join.
        let (base, head) = first.expect("lanes >= 1");
        for (offset, chunk) in head.chunks_mut(chunk_len).enumerate() {
            f(base + offset, chunk);
        }
    });
    drop(permit);
}

/// Parallel map over canonical fixed-size chunks of `items`.
///
/// Chunk `c` is `items[c * chunk_len .. min((c + 1) * chunk_len, n)]` —
/// a layout that depends only on `chunk_len`, never on how many threads
/// run. Folding the returned partials in order therefore reproduces the
/// serial result bit-for-bit, which is how the k-means update step and
/// trace summations keep parallel floating-point math deterministic.
pub fn par_chunk_map<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n = items.len();
    let chunks = n.div_ceil(chunk_len);
    let lanes = lanes_for(chunks);
    run(chunks, lanes, |c| {
        let lo = c * chunk_len;
        f(c, &items[lo..(lo + chunk_len).min(n)])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_is_positional() {
        set_thread_limit(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 1, |i, &x| x * 2 + i as u64);
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 2 + i as u64)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn chunk_layout_is_canonical() {
        set_thread_limit(4);
        let items: Vec<usize> = (0..10).collect();
        let chunks = par_chunk_map(&items, 4, |c, chunk| (c, chunk.to_vec()));
        assert_eq!(
            chunks,
            vec![
                (0, vec![0, 1, 2, 3]),
                (1, vec![4, 5, 6, 7]),
                (2, vec![8, 9])
            ]
        );
    }

    #[test]
    fn chunked_float_sums_match_serial_bits() {
        set_thread_limit(4);
        let items: Vec<f64> = (0..4097).map(|i| (i as f64).sin() * 1e-3 + 0.1).collect();
        let sum = |partials: Vec<f64>| partials.into_iter().fold(0.0f64, |a, b| a + b);
        let parallel = sum(par_chunk_map(&items, 256, |_, chunk| {
            chunk.iter().fold(0.0f64, |a, b| a + b)
        }));
        let serial = serial_scope(|| {
            sum(par_chunk_map(&items, 256, |_, chunk| {
                chunk.iter().fold(0.0f64, |a, b| a + b)
            }))
        });
        assert_eq!(parallel.to_bits(), serial.to_bits());
    }

    #[test]
    fn serial_scope_spawns_nothing() {
        set_thread_limit(4);
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..256).collect();
        let ids = serial_scope(|| par_map(&items, 1, |_, _| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
        assert!(!is_serial(), "scope restores the previous state");
    }

    #[test]
    fn nested_calls_share_the_budget() {
        set_thread_limit(3);
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(&outer, 1, |_, &row| {
            let inner: Vec<usize> = (0..64).collect();
            par_map(&inner, 1, |_, &x| x + row).iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer
            .iter()
            .map(|&row| (0..64).map(|x| x + row).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn fill_chunks_matches_serial_bits() {
        set_thread_limit(4);
        let n = 4097;
        let gen = |c: usize, chunk: &mut [f64]| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = ((c * 31 + i) as f64).sin() * 0.5 + c as f64;
            }
        };
        let mut parallel = vec![0.0f64; n];
        par_fill_chunks(&mut parallel, 64, gen);
        let mut serial = vec![0.0f64; n];
        serial_scope(|| par_fill_chunks(&mut serial, 64, gen));
        assert!(parallel
            .iter()
            .zip(&serial)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn fill_chunks_layout_is_canonical() {
        set_thread_limit(4);
        let mut out = vec![0usize; 10];
        par_fill_chunks(&mut out, 4, |c, chunk| chunk.fill(c + 1));
        assert_eq!(out, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
        let mut empty: Vec<u8> = Vec::new();
        par_fill_chunks(&mut empty, 8, |_, chunk| chunk.fill(1));
        assert!(empty.is_empty());
    }

    #[test]
    fn effective_lanes_respects_serial_scope() {
        set_thread_limit(4);
        assert_eq!(effective_lanes(), 4);
        assert_eq!(serial_scope(effective_lanes), 1);
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        set_thread_limit(4);
        let none: Vec<u8> = Vec::new();
        assert!(par_map(&none, 1, |_, &x| x).is_empty());
        assert!(par_chunk_map(&none, 8, |_, c: &[u8]| c.len()).is_empty());
        assert_eq!(par_map(&[7u8], 1, |_, &x| x), vec![7]);
    }
}
