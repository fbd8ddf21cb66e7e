//! Time grid describing the sampling layout of power traces.
//!
//! The paper records one power reading per minute over seven-day windows
//! (§3.3). The reproduction keeps the step configurable so experiments can
//! trade fidelity for speed (e.g. 10-minute sampling for full-datacenter
//! sweeps).

/// Minutes in one day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;
/// Minutes in one week.
pub const MINUTES_PER_WEEK: u32 = 7 * MINUTES_PER_DAY;

/// A uniform sampling grid: `len` samples spaced `step_minutes` apart.
///
/// A grid is cheap to copy and carries no sample data; it answers questions
/// such as "which minute-of-day does sample `i` fall on" that the synthetic
/// workload generator and the runtime simulator both need.
///
/// # Examples
///
/// ```
/// use so_powertrace::TimeGrid;
///
/// let week = TimeGrid::one_week(10);
/// assert_eq!(week.len(), 1008);
/// assert_eq!(week.minute_of(6), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeGrid {
    step_minutes: u32,
    len: usize,
}

impl TimeGrid {
    /// Creates a grid of `len` samples spaced `step_minutes` apart.
    ///
    /// # Panics
    ///
    /// Panics if `step_minutes` is zero or `len` is zero; both would make the
    /// grid meaningless and every caller constructs grids from static
    /// experiment parameters.
    pub fn new(step_minutes: u32, len: usize) -> Self {
        assert!(step_minutes > 0, "time grid step must be positive");
        assert!(len > 0, "time grid must contain at least one sample");
        Self { step_minutes, len }
    }

    /// A grid covering exactly one week at the given step.
    ///
    /// # Panics
    ///
    /// Panics if `step_minutes` is zero or does not divide a week evenly.
    pub fn one_week(step_minutes: u32) -> Self {
        assert!(step_minutes > 0, "time grid step must be positive");
        assert_eq!(
            MINUTES_PER_WEEK % step_minutes,
            0,
            "step must divide one week evenly"
        );
        Self::new(step_minutes, (MINUTES_PER_WEEK / step_minutes) as usize)
    }

    /// A grid covering `days` days at the given step.
    ///
    /// # Panics
    ///
    /// Panics if `step_minutes` is zero, `days` is zero, or the step does not
    /// divide a day evenly.
    pub fn days(days: u32, step_minutes: u32) -> Self {
        assert!(days > 0, "grid must cover at least one day");
        assert!(step_minutes > 0, "time grid step must be positive");
        assert_eq!(
            MINUTES_PER_DAY % step_minutes,
            0,
            "step must divide one day evenly"
        );
        let per_day = (MINUTES_PER_DAY / step_minutes) as usize;
        Self::new(step_minutes, per_day * days as usize)
    }

    /// Number of samples in the grid.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A grid is never empty; this exists for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sampling step in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step_minutes
    }

    /// Total duration covered, in minutes.
    pub fn duration_minutes(&self) -> u64 {
        self.len as u64 * self.step_minutes as u64
    }

    /// Absolute minute (from the grid origin) of sample `i`.
    pub fn minute_of(&self, i: usize) -> u64 {
        i as u64 * self.step_minutes as u64
    }

    /// Minute-of-day (0..1440) of sample `i`.
    pub fn minute_of_day(&self, i: usize) -> u32 {
        (self.minute_of(i) % MINUTES_PER_DAY as u64) as u32
    }

    /// Day index (0-based, day 0 is a Monday by convention) of sample `i`.
    fn day_of(&self, i: usize) -> u32 {
        (self.minute_of(i) / MINUTES_PER_DAY as u64) as u32
    }

    /// Day-of-week (0 = Monday .. 6 = Sunday) of sample `i`.
    pub fn day_of_week(&self, i: usize) -> u32 {
        self.day_of(i) % 7
    }

    /// Samples per day on this grid.
    ///
    /// # Panics
    ///
    /// Panics if the step does not divide one day evenly.
    pub fn samples_per_day(&self) -> usize {
        assert_eq!(MINUTES_PER_DAY % self.step_minutes, 0);
        (MINUTES_PER_DAY / self.step_minutes) as usize
    }

    /// Iterator over sample indices.
    pub fn indices(&self) -> std::ops::Range<usize> {
        0..self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_week_has_expected_sample_count() {
        assert_eq!(TimeGrid::one_week(1).len(), 10_080);
        assert_eq!(TimeGrid::one_week(10).len(), 1_008);
        assert_eq!(TimeGrid::one_week(15).len(), 672);
    }

    #[test]
    fn minute_of_day_wraps() {
        let g = TimeGrid::one_week(60);
        assert_eq!(g.minute_of_day(0), 0);
        assert_eq!(g.minute_of_day(24), 0);
        assert_eq!(g.minute_of_day(25), 60);
    }

    #[test]
    fn day_of_week_and_weekend() {
        let g = TimeGrid::one_week(60);
        assert_eq!(g.day_of_week(0), 0);
        assert_eq!(g.day_of_week(24 * 5), 5);
    }

    #[test]
    fn days_constructor() {
        let g = TimeGrid::days(3, 30);
        assert_eq!(g.len(), 3 * 48);
        assert_eq!(g.duration_minutes(), 3 * 1440);
        assert_eq!(g.samples_per_day(), 48);
    }

    #[test]
    #[should_panic(expected = "divide one week")]
    fn uneven_week_step_panics() {
        let _ = TimeGrid::one_week(11);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let _ = TimeGrid::new(0, 10);
    }
}
