//! [`TraceArena`]: columnar storage for large trace populations.
//!
//! The placement pipeline is bulk arithmetic over an `n × T` sample matrix
//! (embedding rows, k-means distances, node sums, swap probes). Storing the
//! fleet as `Vec<PowerTrace>` scatters those `n` rows across the heap —
//! one allocation per instance plus pointer-chasing on every kernel — which
//! caps practical fleet sizes well below the ROADMAP's million-instance
//! target. A `TraceArena` stores all samples in **one contiguous buffer**
//! (row-major, one row per trace) and hands out typed views:
//!
//! * [`TraceView`] / [`TraceViewMut`] — borrowed handles with the familiar
//!   trace operations (peak, mean, quantile), zero-copy in both directions
//!   ([`TraceView::from_trace`] borrows a [`PowerTrace`]'s samples without
//!   copying);
//! * batch kernels — [`sum_into`](TraceArena::sum_into),
//!   [`peak_of_sum`](TraceArena::peak_of_sum) (allocation-free, time-blocked),
//!   [`axpy_into`](TraceArena::axpy_into),
//!   [`row_peaks`](TraceArena::row_peaks) and
//!   [`row_quantiles`](TraceArena::row_quantiles) (canonically chunked over
//!   rows via `so-parallel`, reusing the shared HF7 [`crate::quantile`]
//!   convention).
//!
//! # Bit-exactness contract
//!
//! Every kernel performs the *same floating-point operations in the same
//! order* as its `Vec<PowerTrace>` counterpart:
//!
//! * [`sum_into`](TraceArena::sum_into) accumulates members **sequentially
//!   in index order**, the association of [`PowerTrace::sum_of`] and
//!   [`NodeAggregate::add`](crate::NodeAggregate::add) loops;
//! * [`peak_of_sum`](TraceArena::peak_of_sum) blocks over the *time* axis
//!   only — each element's sum keeps the member-order association, and the
//!   peak fold visits elements in time order, exactly like
//!   [`peak_of_samples`](crate::peak_of_samples) over the materialized sum;
//! * the row-parallel kernels chunk *canonically* (fixed blocks of
//!   [`ROW_BLOCK`] rows), so serial and parallel runs are bit-identical —
//!   the `so-parallel` determinism contract; per-row work inside a block
//!   uses the shared 4-lane [`peak_of_samples`] fold and the `O(T)`
//!   selection quantile ([`crate::quantile::quantile_select`]), both
//!   bit-identical to their scalar/sorting predecessors;
//! * [`par_extend_rows`](TraceArena::par_extend_rows) synthesizes rows in
//!   parallel into disjoint buffer windows (each row a pure function of its
//!   index), and [`clear`](TraceArena::clear) recycles the buffer so
//!   chunked/streaming synthesis keeps peak RSS bounded.
//!
//! The `arena` oracle family in `so-oracles` diffs every kernel against the
//! materializing path bit-for-bit on seeded fleets.

use so_parallel::{par_chunk_map, par_fill_chunks};

use crate::aggregate::peak_of_samples;
use crate::error::TraceError;
use crate::grid::TimeGrid;
use crate::quantile;
use crate::trace::PowerTrace;

/// Time-axis block width for allocation-free fused kernels. Small enough to
/// live on the stack and stay cache-resident, large enough to amortize the
/// member loop. The value affects performance only — per-element float
/// association is independent of the block layout.
const TIME_BLOCK: usize = 512;

/// Rows per parallel work item in the batch row kernels ([`row_peaks`],
/// [`row_quantiles`]): large enough that each item amortizes its partial
/// `Vec` (and, for quantiles, one scratch buffer) over many rows, small
/// enough to load-balance a million-row arena across lanes. Chunking is
/// canonical (row blocks depend only on this constant), so the flattened
/// result is bit-identical at any thread count.
///
/// [`row_peaks`]: TraceArena::row_peaks
/// [`row_quantiles`]: TraceArena::row_quantiles
const ROW_BLOCK: usize = 4096;

/// Columnar storage for `n` equally-gridded power traces: one contiguous
/// row-major `n × T` sample buffer.
///
/// All rows share one [`TimeGrid`]; pushing enforces the same invariants as
/// [`PowerTrace::new`] (finite, non-negative samples), so every view is a
/// valid trace.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::{PowerTrace, TimeGrid, TraceArena};
///
/// let a = PowerTrace::new(vec![4.0, 0.0], 15)?;
/// let b = PowerTrace::new(vec![0.0, 4.0], 15)?;
/// let arena = TraceArena::from_traces(&[a.clone(), b])?;
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.view(0).samples(), a.samples());
/// // Batch kernel: peak of the members' elementwise sum, allocation-free.
/// assert_eq!(arena.peak_of_sum(&[0, 1])?, 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    /// Row-major samples: trace `i` occupies `i*T .. (i+1)*T`.
    samples: Vec<f64>,
    samples_per_trace: usize,
    step_minutes: u32,
}

impl TraceArena {
    /// An empty arena whose rows will live on `grid`.
    pub fn new(grid: TimeGrid) -> Self {
        Self {
            samples: Vec::new(),
            samples_per_trace: grid.len(),
            step_minutes: grid.step_minutes(),
        }
    }

    /// An empty arena with room for `traces` rows reserved up front — one
    /// allocation for the whole population.
    pub fn with_capacity(grid: TimeGrid, traces: usize) -> Self {
        Self {
            samples: Vec::with_capacity(grid.len() * traces),
            samples_per_trace: grid.len(),
            step_minutes: grid.step_minutes(),
        }
    }

    /// Builds an arena holding a copy of every trace, in order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty slice and a mismatch error
    /// when the traces do not share one grid.
    pub fn from_traces(traces: &[PowerTrace]) -> Result<Self, TraceError> {
        let first = traces.first().ok_or(TraceError::Empty)?;
        let mut arena = Self::with_capacity(first.grid(), traces.len());
        for t in traces {
            arena.push_trace(t)?;
        }
        Ok(arena)
    }

    /// Appends a copy of `trace` as a new row, returning its index.
    ///
    /// # Errors
    ///
    /// Returns a mismatch error when `trace` is not on the arena's grid.
    fn push_trace(&mut self, trace: &PowerTrace) -> Result<usize, TraceError> {
        if trace.step_minutes() != self.step_minutes {
            return Err(TraceError::StepMismatch {
                left: self.step_minutes,
                right: trace.step_minutes(),
            });
        }
        self.push_samples(trace.samples())
    }

    /// Appends raw samples as a new row, returning its index. Samples are
    /// validated like [`PowerTrace::new`] (finite, non-negative).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when `samples` is not one grid
    /// row long and [`TraceError::InvalidSample`] for a NaN, infinite, or
    /// negative sample.
    pub fn push_samples(&mut self, samples: &[f64]) -> Result<usize, TraceError> {
        if samples.len() != self.samples_per_trace {
            return Err(TraceError::LengthMismatch {
                left: self.samples_per_trace,
                right: samples.len(),
            });
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::InvalidSample { index, value });
            }
        }
        self.samples.extend_from_slice(samples);
        Ok(self.len() - 1)
    }

    /// Appends a row by evaluating `f` at every grid point — the
    /// allocation-free synthesis path for scale runs (no intermediate
    /// `Vec` per instance). Negative values are clamped to zero, matching
    /// [`PowerTrace::from_fn`].
    ///
    /// # Panics
    ///
    /// Panics if `f` produces a NaN or infinite value.
    pub fn push_with(&mut self, mut f: impl FnMut(usize) -> f64) -> usize {
        self.samples.reserve(self.samples_per_trace);
        for i in 0..self.samples_per_trace {
            let v = f(i);
            assert!(v.is_finite(), "trace generator produced a non-finite value");
            self.samples.push(v.max(0.0));
        }
        self.len() - 1
    }

    /// Appends `rows` rows at once, generating each row's samples in
    /// parallel: `fill(r, row)` writes row `base + r` (where `base` is the
    /// arena length before the call) directly into the buffer. This is the
    /// scale tier's synthesis path — one `Vec` grow for the whole batch,
    /// rows distributed over `so-parallel`'s canonical chunks, **bit-
    /// identical at any thread count** because every row is produced by a
    /// pure function of its index into a disjoint window.
    ///
    /// After `fill` returns, each row is validated and clamped exactly like
    /// [`Self::push_with`]: negative samples become `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves a NaN or infinite value in a row.
    pub fn par_extend_rows(&mut self, rows: usize, fill: impl Fn(usize, &mut [f64]) + Sync) {
        let t = self.samples_per_trace;
        let old_len = self.samples.len();
        self.samples.resize(old_len + rows * t, 0.0);
        par_fill_chunks(&mut self.samples[old_len..], t, |r, row| {
            fill(r, row);
            for v in row.iter_mut() {
                assert!(v.is_finite(), "trace generator produced a non-finite value");
                *v = v.max(0.0);
            }
        });
    }

    /// Removes every row, keeping the allocated buffer for reuse — the
    /// chunked/streaming synthesis loop recycles one arena across chunks so
    /// peak RSS stays bounded by the chunk size, not the fleet size.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Number of traces (rows) in the arena.
    #[allow(clippy::len_without_is_empty)] // is_empty provided below
    pub fn len(&self) -> usize {
        self.samples
            .len()
            .checked_div(self.samples_per_trace)
            .unwrap_or(0)
    }

    /// True when no trace has been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples per trace (the grid length `T`).
    pub fn samples_per_trace(&self) -> usize {
        self.samples_per_trace
    }

    /// Sampling step in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// The grid every row is sampled on.
    pub fn grid(&self) -> TimeGrid {
        TimeGrid::new(self.step_minutes, self.samples_per_trace)
    }

    /// The whole contiguous sample buffer (row-major).
    pub fn flat_samples(&self) -> &[f64] {
        &self.samples
    }

    /// Raw samples of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds (like slice indexing).
    pub fn row(&self, i: usize) -> &[f64] {
        let t = self.samples_per_trace;
        &self.samples[i * t..(i + 1) * t]
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds (like slice indexing).
    pub fn view(&self, i: usize) -> TraceView<'_> {
        TraceView {
            samples: self.row(i),
            step_minutes: self.step_minutes,
        }
    }

    /// Borrowed view of row `i`, or an error for an out-of-bounds index.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfBounds`] when `i >= len`.
    fn try_view(&self, i: usize) -> Result<TraceView<'_>, TraceError> {
        if i >= self.len() {
            return Err(TraceError::OutOfBounds {
                requested: i,
                len: self.len(),
            });
        }
        Ok(self.view(i))
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds (like slice indexing).
    pub fn view_mut(&mut self, i: usize) -> TraceViewMut<'_> {
        let t = self.samples_per_trace;
        TraceViewMut {
            samples: &mut self.samples[i * t..(i + 1) * t],
            step_minutes: self.step_minutes,
        }
    }

    /// Materializes row `i` as an owned [`PowerTrace`] (copies one row).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfBounds`] when `i >= len`; re-validation
    /// errors can only arise after a mutable view injected invalid samples.
    pub fn to_trace(&self, i: usize) -> Result<PowerTrace, TraceError> {
        self.try_view(i)?.to_trace()
    }

    /// Materializes every row as an owned trace — the bridge back to
    /// `Vec<PowerTrace>` call sites.
    ///
    /// # Errors
    ///
    /// Same as [`to_trace`](Self::to_trace) per row.
    pub fn to_traces(&self) -> Result<Vec<PowerTrace>, TraceError> {
        (0..self.len()).map(|i| self.to_trace(i)).collect()
    }

    /// Elementwise sum of the member rows into `out`, accumulating members
    /// **sequentially in slice order** — bit-identical to
    /// [`PowerTrace::sum_of`] over the same members (and therefore to
    /// [`NodeAggregate`](crate::NodeAggregate)'s incremental sum).
    ///
    /// `O(|members| · T)`, zero allocations; each row is read contiguously.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty member list,
    /// [`TraceError::LengthMismatch`] when `out` is not one row long, and
    /// [`TraceError::OutOfBounds`] for a member index past the end.
    pub fn sum_into(&self, members: &[usize], out: &mut [f64]) -> Result<(), TraceError> {
        if members.is_empty() {
            return Err(TraceError::Empty);
        }
        if out.len() != self.samples_per_trace {
            return Err(TraceError::LengthMismatch {
                left: self.samples_per_trace,
                right: out.len(),
            });
        }
        self.check_members(members)?;
        out.fill(0.0);
        for &m in members {
            add_assign(out, self.row(m));
        }
        Ok(())
    }

    /// Peak of the member rows' elementwise sum, without materializing the
    /// sum: the time axis is processed in fixed stack-resident blocks, each
    /// block accumulated member-by-member in slice order. Per-element float
    /// association is identical to [`sum_into`](Self::sum_into) +
    /// [`peak_of_samples`](crate::peak_of_samples), so the result is
    /// bit-identical to `PowerTrace::sum_of(members).peak()`.
    ///
    /// `O(|members| · T)`, zero allocations.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty member list and
    /// [`TraceError::OutOfBounds`] for a member index past the end.
    pub fn peak_of_sum(&self, members: &[usize]) -> Result<f64, TraceError> {
        if members.is_empty() {
            return Err(TraceError::Empty);
        }
        self.check_members(members)?;
        let t_len = self.samples_per_trace;
        let mut block = [0.0f64; TIME_BLOCK];
        let mut peak = f64::MIN;
        let mut start = 0;
        while start < t_len {
            let width = TIME_BLOCK.min(t_len - start);
            block[..width].fill(0.0);
            for &m in members {
                let row = &self.samples[m * t_len + start..m * t_len + start + width];
                add_assign(&mut block[..width], row);
            }
            // `max` is exactly associative over validated samples, so
            // folding the block peak through `peak_of_samples`' 4-lane
            // reduction returns the same bits as the sequential fold.
            peak = peak.max(peak_of_samples(&block[..width]));
            start += width;
        }
        Ok(peak)
    }

    /// `out += alpha · row(i)` — the BLAS `axpy` over one row, used to
    /// accumulate scaled traces (e.g. running means) without intermediates.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when `out` is not one row
    /// long, [`TraceError::OutOfBounds`] for an out-of-range row, and
    /// [`TraceError::InvalidSample`] for a non-finite `alpha`.
    pub fn axpy_into(&self, alpha: f64, i: usize, out: &mut [f64]) -> Result<(), TraceError> {
        if !alpha.is_finite() {
            return Err(TraceError::InvalidSample {
                index: 0,
                value: alpha,
            });
        }
        if out.len() != self.samples_per_trace {
            return Err(TraceError::LengthMismatch {
                left: self.samples_per_trace,
                right: out.len(),
            });
        }
        if i >= self.len() {
            return Err(TraceError::OutOfBounds {
                requested: i,
                len: self.len(),
            });
        }
        let row = self.row(i);
        // Element-wise: each `out[t]` has its own accumulation chain, so
        // the 4-wide unroll cannot reassociate anything.
        let mut out_chunks = out.chunks_exact_mut(4);
        let mut row_chunks = row.chunks_exact(4);
        for (acc, src) in (&mut out_chunks).zip(&mut row_chunks) {
            acc[0] += alpha * src[0];
            acc[1] += alpha * src[1];
            acc[2] += alpha * src[2];
            acc[3] += alpha * src[3];
        }
        for (acc, &v) in out_chunks
            .into_remainder()
            .iter_mut()
            .zip(row_chunks.remainder())
        {
            *acc += alpha * v;
        }
        Ok(())
    }

    /// Peak of every row, computed row-parallel over canonical blocks of
    /// `ROW_BLOCK` rows, bit-identical to the serial loop — the
    /// `so-parallel` determinism contract. Each row's peak is the shared
    /// [`peak_of_samples`] 4-lane fold.
    pub fn row_peaks(&self) -> Vec<f64> {
        if self.is_empty() {
            return Vec::new();
        }
        let t = self.samples_per_trace;
        let blocks = par_chunk_map(&self.samples, t * ROW_BLOCK, |_, block| {
            block.chunks(t).map(peak_of_samples).collect::<Vec<f64>>()
        });
        let mut out = Vec::with_capacity(self.len());
        for block in blocks {
            out.extend_from_slice(&block);
        }
        out
    }

    /// The `q`-quantile of every row under the workspace's shared HF7
    /// convention ([`crate::quantile`]), computed row-parallel over
    /// canonical blocks of `ROW_BLOCK` rows. Each row uses the `O(T)`
    /// selection path ([`quantile::quantile_select`]) with one scratch
    /// buffer per block — bit-identical to the full-sort
    /// [`PowerTrace::quantile`], which the arena oracle family pins.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidQuantile`] for `q` outside `[0, 1]`.
    pub fn row_quantiles(&self, q: f64) -> Result<Vec<f64>, TraceError> {
        if !(0.0..=1.0).contains(&q) || q.is_nan() {
            return Err(TraceError::InvalidQuantile(q));
        }
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let t = self.samples_per_trace;
        let blocks = par_chunk_map(&self.samples, t * ROW_BLOCK, |_, block| {
            let mut scratch = Vec::with_capacity(t);
            block
                .chunks(t)
                .map(|row| quantile::quantile_select(row, q, &mut scratch))
                .collect::<Result<Vec<f64>, TraceError>>()
        });
        let mut out = Vec::with_capacity(self.len());
        for block in blocks {
            out.extend_from_slice(&block?);
        }
        Ok(out)
    }

    /// The `q`-quantile of row `i`, reusing `scratch` for the selection so
    /// repeated calls allocate nothing once the scratch has grown to one
    /// row. Agrees bit-for-bit with [`PowerTrace::quantile`] (`O(T)`
    /// selection of the same order statistics, same HF7 interpolation —
    /// see [`quantile::quantile_select`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfBounds`] for an out-of-range row and the
    /// shared quantile errors ([`TraceError::InvalidQuantile`], NaN
    /// samples).
    pub fn quantile_of_row(
        &self,
        i: usize,
        q: f64,
        scratch: &mut Vec<f64>,
    ) -> Result<f64, TraceError> {
        if i >= self.len() {
            return Err(TraceError::OutOfBounds {
                requested: i,
                len: self.len(),
            });
        }
        quantile::quantile_select(self.row(i), q, scratch)
    }

    fn check_members(&self, members: &[usize]) -> Result<(), TraceError> {
        let n = self.len();
        for &m in members {
            if m >= n {
                return Err(TraceError::OutOfBounds {
                    requested: m,
                    len: n,
                });
            }
        }
        Ok(())
    }
}

/// `out[t] += src[t]` with an explicit 4-wide unroll. Element-wise: each
/// output element keeps its own accumulation chain, so this is
/// bit-identical to the scalar zip loop while letting the compiler keep
/// the adds in `f64x4` registers.
fn add_assign(out: &mut [f64], src: &[f64]) {
    debug_assert_eq!(out.len(), src.len());
    let mut out_chunks = out.chunks_exact_mut(4);
    let mut src_chunks = src.chunks_exact(4);
    for (acc, s) in (&mut out_chunks).zip(&mut src_chunks) {
        acc[0] += s[0];
        acc[1] += s[1];
        acc[2] += s[2];
        acc[3] += s[3];
    }
    for (acc, &v) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *acc += v;
    }
}

/// A borrowed, read-only trace: one arena row (or a borrowed
/// [`PowerTrace`]) plus its step. `Copy`, pointer-sized — pass by value.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    samples: &'a [f64],
    step_minutes: u32,
}

impl<'a> TraceView<'a> {
    /// Zero-copy view of an owned trace — the bridge *from* the existing
    /// trace type (no samples are copied).
    pub fn from_trace(trace: &'a PowerTrace) -> Self {
        Self {
            samples: trace.samples(),
            step_minutes: trace.step_minutes(),
        }
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &'a [f64] {
        self.samples
    }

    /// Number of samples.
    #[allow(clippy::len_without_is_empty)] // views of valid rows are never empty
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Sampling step in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// The grid this view is sampled on.
    pub fn grid(&self) -> TimeGrid {
        TimeGrid::new(self.step_minutes, self.samples.len())
    }

    /// Maximum sample — same fold as [`PowerTrace::peak`].
    pub fn peak(&self) -> f64 {
        peak_of_samples(self.samples)
    }

    /// Minimum sample — same fold as [`PowerTrace::min`].
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::MAX, f64::min)
    }

    /// Arithmetic mean — same expression as [`PowerTrace::mean`].
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Empirical quantile under the shared HF7 convention.
    ///
    /// # Errors
    ///
    /// Same as [`crate::quantile::quantile`].
    pub fn quantile(&self, q: f64) -> Result<f64, TraceError> {
        quantile::quantile(self.samples, q)
    }

    /// Materializes the view as an owned [`PowerTrace`] (copies the row).
    ///
    /// # Errors
    ///
    /// Returns validation errors only if a mutable view previously injected
    /// invalid samples.
    pub fn to_trace(&self) -> Result<PowerTrace, TraceError> {
        PowerTrace::new(self.samples.to_vec(), self.step_minutes)
    }
}

/// A borrowed, mutable trace row.
///
/// Mutation can violate the non-negativity invariant; conversions back to
/// [`PowerTrace`] re-validate, so invalid samples surface as errors there
/// rather than propagating silently.
#[derive(Debug)]
pub struct TraceViewMut<'a> {
    samples: &'a mut [f64],
    step_minutes: u32,
}

impl TraceViewMut<'_> {
    /// Borrow the raw samples mutably.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        self.samples
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        self.samples
    }

    /// Sampling step in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// Multiply every sample by `factor` in place, preserving invariants.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite (like
    /// [`PowerTrace::scale`]).
    pub fn scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        for v in self.samples.iter_mut() {
            *v *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: &[f64]) -> PowerTrace {
        PowerTrace::new(samples.to_vec(), 10).unwrap()
    }

    fn arena3() -> TraceArena {
        TraceArena::from_traces(&[
            trace(&[1.0, 4.0, 2.0]),
            trace(&[3.0, 0.0, 5.0]),
            trace(&[2.0, 2.0, 2.0]),
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_traces_bit_exactly() {
        let traces = [trace(&[1.5, 0.25, 3.0]), trace(&[0.0, 7.0, 0.125])];
        let arena = TraceArena::from_traces(&traces).unwrap();
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.grid(), traces[0].grid());
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(arena.view(i).samples(), t.samples());
            assert_eq!(&arena.to_trace(i).unwrap(), t);
        }
        assert_eq!(arena.to_traces().unwrap(), traces.to_vec());
    }

    #[test]
    fn view_matches_trace_statistics() {
        let t = trace(&[1.0, 7.0, 3.0, 5.0]);
        let v = TraceView::from_trace(&t);
        assert_eq!(v.peak(), t.peak());
        assert_eq!(v.min(), t.min());
        assert_eq!(v.mean(), t.mean());
        assert_eq!(v.grid(), t.grid());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(v.quantile(q).unwrap(), t.quantile(q).unwrap());
        }
        assert_eq!(v.to_trace().unwrap(), t);
    }

    #[test]
    fn sum_into_matches_sum_of() {
        let arena = arena3();
        let traces = arena.to_traces().unwrap();
        let mut out = vec![0.0; 3];
        for members in [vec![0], vec![0, 1], vec![2, 0, 1]] {
            arena.sum_into(&members, &mut out).unwrap();
            let want = PowerTrace::sum_of(members.iter().map(|&i| &traces[i])).unwrap();
            assert_eq!(out.as_slice(), want.samples());
            assert_eq!(arena.peak_of_sum(&members).unwrap(), want.peak());
        }
    }

    #[test]
    fn peak_of_sum_blocks_across_the_time_axis() {
        // A grid longer than one TIME_BLOCK exercises the block loop.
        let len = TIME_BLOCK + 37;
        let grid = TimeGrid::new(10, len);
        let mut arena = TraceArena::new(grid);
        arena.push_with(|i| (i % 97) as f64);
        arena.push_with(|i| ((len - i) % 89) as f64);
        let a = arena.to_trace(0).unwrap();
        let b = arena.to_trace(1).unwrap();
        let want = PowerTrace::sum_of([&a, &b]).unwrap().peak();
        assert_eq!(arena.peak_of_sum(&[0, 1]).unwrap(), want);
    }

    #[test]
    fn axpy_accumulates_scaled_rows() {
        let arena = arena3();
        let mut out = vec![1.0; 3];
        arena.axpy_into(0.5, 1, &mut out).unwrap();
        assert_eq!(out, vec![1.0 + 1.5, 1.0, 1.0 + 2.5]);
        assert!(arena.axpy_into(f64::NAN, 0, &mut out).is_err());
        assert!(arena.axpy_into(1.0, 9, &mut out).is_err());
    }

    #[test]
    fn row_peaks_and_quantiles_match_traces() {
        let arena = arena3();
        let traces = arena.to_traces().unwrap();
        let peaks = arena.row_peaks();
        assert_eq!(peaks.len(), 3);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(peaks[i], t.peak());
        }
        let mut scratch = Vec::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            let qs = arena.row_quantiles(q).unwrap();
            for (i, t) in traces.iter().enumerate() {
                assert_eq!(qs[i], t.quantile(q).unwrap());
                assert_eq!(
                    arena.quantile_of_row(i, q, &mut scratch).unwrap(),
                    t.quantile(q).unwrap()
                );
            }
        }
        assert!(arena.row_quantiles(1.5).is_err());
    }

    #[test]
    fn par_extend_rows_matches_push_with() {
        let grid = TimeGrid::new(10, 7);
        let gen = |row: usize, t: usize| ((row * 31 + t) as f64).sin() * 3.0 + row as f64;
        let mut serial = TraceArena::new(grid);
        for row in 0..100 {
            serial.push_with(|t| gen(row, t));
        }
        let mut parallel = TraceArena::new(grid);
        parallel.par_extend_rows(100, |row, out| {
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = gen(row, t);
            }
        });
        assert_eq!(parallel.len(), 100);
        assert!(parallel
            .flat_samples()
            .iter()
            .zip(serial.flat_samples())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Appending respects the existing base offset.
        parallel.par_extend_rows(3, |row, out| {
            for (t, slot) in out.iter_mut().enumerate() {
                *slot = gen(100 + row, t);
            }
        });
        assert_eq!(parallel.len(), 103);
        assert_eq!(
            parallel.row(102)[3].to_bits(),
            gen(102, 3).max(0.0).to_bits()
        );
    }

    #[test]
    fn clear_retains_capacity_for_reuse() {
        let mut arena = TraceArena::with_capacity(TimeGrid::new(10, 4), 8);
        arena.push_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let cap = arena.samples.capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.samples.capacity(), cap);
        arena.push_samples(&[5.0, 6.0, 7.0, 8.0]).unwrap();
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.row(0), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn row_kernels_cross_block_boundaries() {
        // More rows than one ROW_BLOCK would be too slow for a unit test;
        // instead shrink the effective block by using many short rows and
        // checking the flattening logic against per-row calls.
        let grid = TimeGrid::new(10, 5);
        let mut arena = TraceArena::new(grid);
        for row in 0..1030 {
            arena.push_with(|t| ((row * 7 + t * 3) % 23) as f64);
        }
        let peaks = arena.row_peaks();
        let q = arena.row_quantiles(0.9).unwrap();
        assert_eq!(peaks.len(), 1030);
        assert_eq!(q.len(), 1030);
        let mut scratch = Vec::new();
        for i in [0usize, 1, 512, 1023, 1029] {
            assert_eq!(peaks[i].to_bits(), arena.view(i).peak().to_bits());
            assert_eq!(
                q[i].to_bits(),
                arena
                    .quantile_of_row(i, 0.9, &mut scratch)
                    .unwrap()
                    .to_bits()
            );
        }
        assert!(arena.row_quantiles(1.5).is_err());
    }

    #[test]
    fn push_with_clamps_like_from_fn() {
        let grid = TimeGrid::new(10, 4);
        let mut arena = TraceArena::new(grid);
        let i = arena.push_with(|t| t as f64 - 1.0);
        assert_eq!(arena.view(i).samples(), &[0.0, 0.0, 1.0, 2.0]);
        let direct = PowerTrace::from_fn(grid, |t| t as f64 - 1.0);
        assert_eq!(arena.to_trace(i).unwrap(), direct);
    }

    #[test]
    fn view_mut_edits_in_place() {
        let mut arena = arena3();
        arena.view_mut(1).scale(2.0);
        assert_eq!(arena.view(1).samples(), &[6.0, 0.0, 10.0]);
    }

    #[test]
    fn invalid_pushes_are_rejected() {
        let mut arena = TraceArena::new(TimeGrid::new(10, 2));
        assert!(arena.push_samples(&[1.0]).is_err());
        assert!(arena.push_samples(&[1.0, -1.0]).is_err());
        assert!(arena.push_samples(&[1.0, f64::NAN]).is_err());
        assert!(arena
            .push_trace(&PowerTrace::new(vec![1.0, 1.0], 5).unwrap())
            .is_err());
        assert_eq!(arena.len(), 0);
        assert!(arena.is_empty());
        // A failed push leaves the arena unchanged.
        arena.push_samples(&[1.0, 2.0]).unwrap();
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn empty_and_out_of_bounds_errors() {
        let arena = arena3();
        let mut out = vec![0.0; 3];
        assert_eq!(arena.sum_into(&[], &mut out), Err(TraceError::Empty));
        assert_eq!(arena.peak_of_sum(&[]), Err(TraceError::Empty));
        assert!(matches!(
            arena.peak_of_sum(&[5]),
            Err(TraceError::OutOfBounds { requested: 5, .. })
        ));
        assert!(arena.sum_into(&[0], &mut [0.0; 2]).is_err());
        assert!(arena.try_view(3).is_err());
        assert!(arena.to_trace(3).is_err());
        assert!(TraceArena::from_traces(&[]).is_err());
    }

    #[test]
    fn single_sample_rows_work() {
        let mut arena = TraceArena::new(TimeGrid::new(10, 1));
        arena.push_samples(&[5.0]).unwrap();
        arena.push_samples(&[3.0]).unwrap();
        assert_eq!(arena.peak_of_sum(&[0, 1]).unwrap(), 8.0);
        assert_eq!(arena.view(0).quantile(0.5).unwrap(), 5.0);
        assert_eq!(arena.row_peaks(), vec![5.0, 3.0]);
    }
}
