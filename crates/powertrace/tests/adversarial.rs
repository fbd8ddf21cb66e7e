//! Adversarial inputs into the trace substrate: NaN, negatives, infinities,
//! all-zero and single-sample traces, and aggregate add/remove churn. Every
//! case must produce a clean error or a well-defined finite value — never a
//! NaN, never a panic.

use so_powertrace::{NodeAggregate, PowerTrace, TimeGrid, TraceError};

// ---------------------------------------------------------------------------
// PowerTrace construction and peak
// ---------------------------------------------------------------------------

#[test]
fn nan_sample_is_rejected_with_location() {
    let err = PowerTrace::new(vec![1.0, f64::NAN, 3.0], 10).unwrap_err();
    match err {
        TraceError::InvalidSample { index, value } => {
            assert_eq!(index, 1);
            assert!(value.is_nan());
        }
        other => panic!("expected InvalidSample, got {other:?}"),
    }
}

#[test]
fn negative_and_infinite_samples_are_rejected() {
    assert!(matches!(
        PowerTrace::new(vec![0.0, -0.5], 10),
        Err(TraceError::InvalidSample { index: 1, .. })
    ));
    assert!(matches!(
        PowerTrace::new(vec![f64::INFINITY], 10),
        Err(TraceError::InvalidSample { index: 0, .. })
    ));
    assert!(matches!(
        PowerTrace::new(vec![f64::NEG_INFINITY], 10),
        Err(TraceError::InvalidSample { index: 0, .. })
    ));
}

#[test]
fn empty_and_zero_step_are_clean_errors() {
    assert_eq!(PowerTrace::new(vec![], 10).unwrap_err(), TraceError::Empty);
    assert_eq!(
        PowerTrace::new(vec![1.0], 0).unwrap_err(),
        TraceError::ZeroStep
    );
}

#[test]
fn all_zero_trace_has_finite_zero_peak() {
    let t = PowerTrace::new(vec![0.0; 8], 10).unwrap();
    assert_eq!(t.peak(), 0.0);
    assert_eq!(t.peak_index(), 0);
    assert!(t.peak().is_finite());
}

#[test]
fn single_sample_trace_peak_is_the_sample() {
    let t = PowerTrace::new(vec![7.25], 10).unwrap();
    assert_eq!(t.peak(), 7.25);
    assert_eq!(t.peak_index(), 0);
    let sum = PowerTrace::sum_of([&t]).unwrap();
    assert_eq!(sum.peak(), 7.25);
    let mean = PowerTrace::mean_of([&t]).unwrap();
    assert_eq!(mean.peak(), 7.25);
}

// ---------------------------------------------------------------------------
// NodeAggregate add/remove churn
// ---------------------------------------------------------------------------

#[test]
fn aggregate_add_remove_round_trips_to_empty() {
    let grid = TimeGrid::new(10, 4);
    let a = PowerTrace::new(vec![1.5, 2.5, 0.0, 4.0], 10).unwrap();
    let b = PowerTrace::new(vec![0.5, 0.0, 3.0, 1.0], 10).unwrap();
    let mut agg = NodeAggregate::new(grid);
    agg.add(&a).unwrap();
    agg.add(&b).unwrap();
    assert_eq!(agg.count(), 2);
    agg.remove(&a).unwrap();
    agg.remove(&b).unwrap();
    assert!(agg.is_empty());
    // Floating-point residue never turns the empty aggregate's peak
    // negative or NaN, and to_trace stays constructible.
    assert!(agg.peak().is_finite());
    let t = agg.to_trace().unwrap();
    assert!(t.samples().iter().all(|v| v.is_finite() && *v >= 0.0));
}

#[test]
fn aggregate_remove_from_empty_is_a_clean_error() {
    let grid = TimeGrid::new(10, 2);
    let t = PowerTrace::new(vec![1.0, 2.0], 10).unwrap();
    let mut agg = NodeAggregate::new(grid);
    assert_eq!(agg.remove(&t).unwrap_err(), TraceError::Empty);
}

#[test]
fn aggregate_rejects_mismatched_grids() {
    let grid = TimeGrid::new(10, 2);
    let wrong_len = PowerTrace::new(vec![1.0, 2.0, 3.0], 10).unwrap();
    let wrong_step = PowerTrace::new(vec![1.0, 2.0], 30).unwrap();
    let mut agg = NodeAggregate::new(grid);
    assert!(matches!(
        agg.add(&wrong_len),
        Err(TraceError::LengthMismatch { .. })
    ));
    assert!(matches!(
        agg.add(&wrong_step),
        Err(TraceError::StepMismatch { .. })
    ));
}

#[test]
fn mean_excluding_needs_two_members() {
    let grid = TimeGrid::new(10, 2);
    let t = PowerTrace::new(vec![1.0, 2.0], 10).unwrap();
    let mut agg = NodeAggregate::new(grid);
    agg.add(&t).unwrap();
    assert_eq!(agg.mean_excluding(&t).unwrap_err(), TraceError::Empty);
}
