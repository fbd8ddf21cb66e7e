//! [`NodeAggregate`]: a running element-wise sum of member traces with a
//! lazily cached peak.
//!
//! Remapping (§3.6) repeatedly scores instances against a power node's
//! aggregate while members leave and arrive. Summing the node's members
//! from scratch costs `O(|node| · T)` per change; a `NodeAggregate`
//! maintains the sum incrementally in `O(T)`
//! ([`add`](NodeAggregate::add) / [`remove`](NodeAggregate::remove)) and
//! exposes it ([`sum_samples`](NodeAggregate::sum_samples)) to the fused
//! scoring kernels.
//!
//! The cached peak is invalidated on every mutation and recomputed on the
//! next [`peak`](NodeAggregate::peak) call.

use std::sync::OnceLock;

use crate::error::TraceError;
use crate::grid::TimeGrid;
use crate::trace::PowerTrace;

/// Maximum sample of a slice, folded exactly like [`PowerTrace::peak`].
///
/// Shared by trace peaks, aggregate peaks, and the simulator's telemetry so
/// every "peak of a sample vector" in the workspace is the same fold (and
/// therefore bit-identical wherever the inputs are). Returns `f64::MIN` for
/// an empty slice.
///
/// The loop runs four independent `max` lanes over `chunks_exact(4)` so the
/// compiler can keep it in 256-bit vector registers (`f64x4`). `max` is
/// associative and commutative on the values the workspace feeds it
/// (validated, NaN-free samples), so the lane-reassociated fold returns the
/// same bits as the sequential one; every peak consumer shares this exact
/// reduction pattern, which is what the bit-exactness oracles compare.
pub fn peak_of_samples(samples: &[f64]) -> f64 {
    let mut lanes = [f64::MIN; 4];
    let mut chunks = samples.chunks_exact(4);
    for chunk in &mut chunks {
        lanes[0] = lanes[0].max(chunk[0]);
        lanes[1] = lanes[1].max(chunk[1]);
        lanes[2] = lanes[2].max(chunk[2]);
        lanes[3] = lanes[3].max(chunk[3]);
    }
    let mut peak = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    for &v in chunks.remainder() {
        peak = peak.max(v);
    }
    peak
}

/// A power node's aggregate trace, maintained incrementally.
///
/// Internally this is the raw running sum of every added member minus every
/// removed one. Because floating-point subtraction is not an exact inverse
/// of addition, removing a member can leave tiny negative residues; they are
/// clamped to zero whenever samples are observed (peaks, materialized
/// traces), matching [`PowerTrace`]'s non-negativity invariant.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertrace::TraceError> {
/// use so_powertrace::{NodeAggregate, PowerTrace};
///
/// let a = PowerTrace::new(vec![4.0, 0.0], 15)?;
/// let b = PowerTrace::new(vec![0.0, 4.0], 15)?;
/// let mut node = NodeAggregate::new(a.grid());
/// node.add(&a)?;
/// node.add(&b)?;
/// assert_eq!(node.peak(), 4.0);
/// node.remove(&a)?;
/// assert_eq!(node.to_trace()?.samples(), &[0.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NodeAggregate {
    sum: Vec<f64>,
    step_minutes: u32,
    count: usize,
    /// Cached `peak()`; replaced with a fresh empty cell on mutation.
    peak: OnceLock<f64>,
}

impl NodeAggregate {
    /// An empty aggregate on the given grid.
    pub fn new(grid: TimeGrid) -> Self {
        Self {
            sum: vec![0.0; grid.len()],
            step_minutes: grid.step_minutes(),
            count: 0,
            peak: OnceLock::new(),
        }
    }

    /// Builds an aggregate by adding every trace in `members`.
    ///
    /// # Errors
    ///
    /// Returns a mismatch error when the traces are not on `grid`.
    pub fn from_traces<'a>(
        grid: TimeGrid,
        members: impl IntoIterator<Item = &'a PowerTrace>,
    ) -> Result<Self, TraceError> {
        let mut agg = Self::new(grid);
        for t in members {
            agg.add(t)?;
        }
        Ok(agg)
    }

    /// Builds an aggregate by adding every sample row in `members` (e.g.
    /// arena rows). The rows are trusted to be on `grid`'s step; their
    /// length is checked. Accumulation order and association are identical
    /// to [`from_traces`](Self::from_traces), so the two construct
    /// bit-identical sums from the same samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] for a row that is not one
    /// grid row long.
    pub fn from_samples<'a>(
        grid: TimeGrid,
        members: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<Self, TraceError> {
        let mut agg = Self::new(grid);
        for row in members {
            agg.add_samples(row)?;
        }
        Ok(agg)
    }

    /// Number of member traces currently in the aggregate.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no member has been added (or all have been removed).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of samples per trace.
    pub fn len(&self) -> usize {
        self.sum.len()
    }

    /// The grid the aggregate is sampled on.
    pub fn grid(&self) -> TimeGrid {
        TimeGrid::new(self.step_minutes, self.sum.len())
    }

    /// Adds a member trace to the running sum. `O(T)`.
    ///
    /// # Errors
    ///
    /// Returns a mismatch error when `trace` is not on the aggregate's grid.
    pub fn add(&mut self, trace: &PowerTrace) -> Result<(), TraceError> {
        self.check_compatible(trace)?;
        for (acc, &v) in self.sum.iter_mut().zip(trace.samples()) {
            *acc += v;
        }
        self.count += 1;
        self.peak = OnceLock::new();
        Ok(())
    }

    /// Removes a previously added member trace from the running sum. `O(T)`.
    ///
    /// # Errors
    ///
    /// Returns a mismatch error when `trace` is not on the aggregate's grid,
    /// and [`TraceError::Empty`] when the aggregate has no members.
    pub fn remove(&mut self, trace: &PowerTrace) -> Result<(), TraceError> {
        if self.count == 0 {
            return Err(TraceError::Empty);
        }
        self.check_compatible(trace)?;
        for (acc, &v) in self.sum.iter_mut().zip(trace.samples()) {
            *acc -= v;
        }
        self.count -= 1;
        self.peak = OnceLock::new();
        Ok(())
    }

    /// [`add`](Self::add) for a raw sample row (e.g. an arena row). The
    /// row's step is trusted; its length is checked. Performs the exact
    /// loop of [`add`](Self::add), so mixing the two entry points keeps the
    /// sum bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] for a wrong-length row.
    pub fn add_samples(&mut self, samples: &[f64]) -> Result<(), TraceError> {
        if samples.len() != self.sum.len() {
            return Err(TraceError::LengthMismatch {
                left: self.sum.len(),
                right: samples.len(),
            });
        }
        for (acc, &v) in self.sum.iter_mut().zip(samples) {
            *acc += v;
        }
        self.count += 1;
        self.peak = OnceLock::new();
        Ok(())
    }

    /// [`remove`](Self::remove) for a raw sample row.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] when the aggregate has no members and
    /// [`TraceError::LengthMismatch`] for a wrong-length row.
    pub fn remove_samples(&mut self, samples: &[f64]) -> Result<(), TraceError> {
        if self.count == 0 {
            return Err(TraceError::Empty);
        }
        if samples.len() != self.sum.len() {
            return Err(TraceError::LengthMismatch {
                left: self.sum.len(),
                right: samples.len(),
            });
        }
        for (acc, &v) in self.sum.iter_mut().zip(samples) {
            *acc -= v;
        }
        self.count -= 1;
        self.peak = OnceLock::new();
        Ok(())
    }

    /// The raw running sum (member additions minus removals, **unclamped**:
    /// tiny negative residues from removals are visible here; observation
    /// paths clamp at zero). This is the arena scoring kernels' input — it
    /// lets fused score computations read the node sum without
    /// materializing a trace.
    pub fn sum_samples(&self) -> &[f64] {
        &self.sum
    }

    /// The aggregate's peak power, cached until the next mutation.
    ///
    /// Equals `self.to_trace().unwrap().peak()` (samples are clamped at
    /// zero); `0.0` for an empty aggregate on a non-empty grid.
    pub fn peak(&self) -> f64 {
        *self.peak.get_or_init(|| {
            self.sum
                .iter()
                .fold(f64::MIN, |acc, &v| acc.max(v.max(0.0)))
        })
    }

    /// Materializes the aggregate as a [`PowerTrace`] (clamped at zero).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] when the grid has no samples.
    pub fn to_trace(&self) -> Result<PowerTrace, TraceError> {
        PowerTrace::new(
            self.sum.iter().map(|&v| v.max(0.0)).collect(),
            self.step_minutes,
        )
    }

    /// Mean of the members *excluding* one of them, in `O(T)`:
    /// `(sum − excluded) / (count − 1)`. This is the paper's averaged peer
    /// trace (Eq. 6's \bar{P}) without the `O(|node| · T)` re-summation.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] when fewer than two members are present
    /// and a mismatch error when `excluded` is not on the aggregate's grid.
    pub fn mean_excluding(&self, excluded: &PowerTrace) -> Result<PowerTrace, TraceError> {
        if self.count < 2 {
            return Err(TraceError::Empty);
        }
        self.check_compatible(excluded)?;
        let scale = 1.0 / (self.count - 1) as f64;
        let samples = self
            .sum
            .iter()
            .zip(excluded.samples())
            .map(|(&acc, &v)| ((acc - v) * scale).max(0.0))
            .collect();
        PowerTrace::new(samples, self.step_minutes)
    }

    fn check_compatible(&self, trace: &PowerTrace) -> Result<(), TraceError> {
        if trace.len() != self.sum.len() {
            return Err(TraceError::LengthMismatch {
                left: self.sum.len(),
                right: trace.len(),
            });
        }
        if trace.step_minutes() != self.step_minutes {
            return Err(TraceError::StepMismatch {
                left: self.step_minutes,
                right: trace.step_minutes(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: &[f64]) -> PowerTrace {
        PowerTrace::new(samples.to_vec(), 10).unwrap()
    }

    #[test]
    fn add_remove_track_sum_and_count() {
        let a = trace(&[1.0, 2.0]);
        let b = trace(&[3.0, 1.0]);
        let mut agg = NodeAggregate::new(a.grid());
        assert!(agg.is_empty());
        agg.add(&a).unwrap();
        agg.add(&b).unwrap();
        assert_eq!(agg.count(), 2);
        assert_eq!(agg.to_trace().unwrap().samples(), &[4.0, 3.0]);
        agg.remove(&a).unwrap();
        assert_eq!(agg.count(), 1);
        assert_eq!(agg.to_trace().unwrap().samples(), &[3.0, 1.0]);
    }

    #[test]
    fn peak_is_cached_and_invalidated() {
        let mut agg = NodeAggregate::new(TimeGrid::new(10, 2));
        assert_eq!(agg.peak(), 0.0);
        agg.add(&trace(&[1.0, 5.0])).unwrap();
        assert_eq!(agg.peak(), 5.0);
        assert_eq!(agg.peak(), 5.0);
        agg.remove(&trace(&[0.0, 4.0])).unwrap();
        assert_eq!(agg.peak(), 1.0);
    }

    #[test]
    fn peak_matches_from_scratch_sum() {
        let members = [
            trace(&[1.0, 4.0, 2.0]),
            trace(&[3.0, 0.0, 5.0]),
            trace(&[2.0, 2.0, 2.0]),
        ];
        let agg = NodeAggregate::from_traces(members[0].grid(), &members).unwrap();
        let scratch = PowerTrace::sum_of(&members).unwrap();
        assert_eq!(agg.peak(), scratch.peak());
        assert_eq!(agg.to_trace().unwrap(), scratch);
    }

    #[test]
    fn mean_excluding_matches_peer_mean() {
        let members = [trace(&[1.0, 2.0]), trace(&[3.0, 4.0]), trace(&[5.0, 6.0])];
        let agg = NodeAggregate::from_traces(members[0].grid(), &members).unwrap();
        let peers = PowerTrace::mean_of([&members[1], &members[2]]).unwrap();
        let fast = agg.mean_excluding(&members[0]).unwrap();
        for (x, y) in fast.samples().iter().zip(peers.samples()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn errors_on_mismatch_and_underflow() {
        let mut agg = NodeAggregate::new(TimeGrid::new(10, 2));
        assert!(matches!(
            agg.remove(&trace(&[1.0, 1.0])),
            Err(TraceError::Empty)
        ));
        assert!(agg.add(&trace(&[1.0, 1.0, 1.0])).is_err());
        assert!(agg
            .add(&PowerTrace::new(vec![1.0, 1.0], 5).unwrap())
            .is_err());
        agg.add(&trace(&[1.0, 1.0])).unwrap();
        assert!(agg.mean_excluding(&trace(&[1.0, 1.0])).is_err());
    }

    #[test]
    fn clamps_fp_residue_after_remove() {
        let big = trace(&[1.0e16, 1.0]);
        let small = trace(&[0.1, 0.1]);
        let mut agg = NodeAggregate::new(big.grid());
        agg.add(&big).unwrap();
        agg.add(&small).unwrap();
        agg.remove(&big).unwrap();
        // 1e16 + 0.1 - 1e16 == 0.0 in f64: the residue clamps, not panics.
        let t = agg.to_trace().unwrap();
        assert!(t.samples().iter().all(|&v| v >= 0.0));
        assert!(agg.peak() >= 0.0);
    }

    #[test]
    fn samples_entry_points_match_trace_entry_points() {
        let members = [
            trace(&[1.0, 4.0, 2.0]),
            trace(&[3.0, 0.0, 5.0]),
            trace(&[2.0, 2.0, 2.0]),
        ];
        let via_traces = NodeAggregate::from_traces(members[0].grid(), &members).unwrap();
        let via_samples =
            NodeAggregate::from_samples(members[0].grid(), members.iter().map(|t| t.samples()))
                .unwrap();
        assert_eq!(via_samples.count(), via_traces.count());
        assert_eq!(via_samples.sum_samples(), via_traces.sum_samples());
        assert_eq!(via_samples.peak(), via_traces.peak());

        let mut a = via_traces.clone();
        let mut b = via_samples.clone();
        a.remove(&members[1]).unwrap();
        b.remove_samples(members[1].samples()).unwrap();
        assert_eq!(a.sum_samples(), b.sum_samples());
        assert_eq!(a.count(), b.count());

        assert!(b.add_samples(&[1.0]).is_err());
        assert!(b.remove_samples(&[1.0]).is_err());
        let mut empty = NodeAggregate::new(members[0].grid());
        assert!(matches!(
            empty.remove_samples(members[0].samples()),
            Err(TraceError::Empty)
        ));
    }

    #[test]
    fn peak_of_samples_matches_trace_peak() {
        let t = trace(&[1.0, 7.0, 3.0]);
        assert_eq!(peak_of_samples(t.samples()), t.peak());
        assert_eq!(peak_of_samples(&[]), f64::MIN);
    }
}
