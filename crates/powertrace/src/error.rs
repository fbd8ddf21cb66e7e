//! Error types for power-trace construction and arithmetic.

use std::error::Error;
use std::fmt;

/// Error produced when constructing or combining [`PowerTrace`] values.
///
/// [`PowerTrace`]: crate::PowerTrace
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A trace must contain at least one sample.
    Empty,
    /// The sampling step must be a positive number of minutes.
    ZeroStep,
    /// A sample was NaN, infinite, or negative (power readings are
    /// non-negative real numbers).
    InvalidSample {
        /// Index of the offending sample.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Two traces were combined but their lengths differ.
    LengthMismatch {
        /// Length of the left-hand trace.
        left: usize,
        /// Length of the right-hand trace.
        right: usize,
    },
    /// Two traces were combined but their sampling steps differ.
    StepMismatch {
        /// Step (minutes) of the left-hand trace.
        left: u32,
        /// Step (minutes) of the right-hand trace.
        right: u32,
    },
    /// A window or index was out of bounds.
    OutOfBounds {
        /// The requested index/offset.
        requested: usize,
        /// The trace length.
        len: usize,
    },
    /// A quantile outside `[0, 1]` was requested.
    InvalidQuantile(f64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "power trace must contain at least one sample"),
            TraceError::ZeroStep => write!(f, "sampling step must be at least one minute"),
            TraceError::InvalidSample { index, value } => {
                write!(f, "invalid power sample {value} at index {index}")
            }
            TraceError::LengthMismatch { left, right } => {
                write!(f, "trace length mismatch: {left} vs {right}")
            }
            TraceError::StepMismatch { left, right } => {
                write!(f, "trace step mismatch: {left} min vs {right} min")
            }
            TraceError::OutOfBounds { requested, len } => {
                write!(
                    f,
                    "index {requested} out of bounds for trace of length {len}"
                )
            }
            TraceError::InvalidQuantile(q) => {
                write!(f, "quantile {q} outside the closed interval [0, 1]")
            }
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(TraceError, &str)> = vec![
            (TraceError::Empty, "at least one sample"),
            (TraceError::ZeroStep, "at least one minute"),
            (
                TraceError::InvalidSample {
                    index: 3,
                    value: f64::NAN,
                },
                "index 3",
            ),
            (TraceError::LengthMismatch { left: 2, right: 5 }, "2 vs 5"),
            (
                TraceError::StepMismatch { left: 1, right: 10 },
                "1 min vs 10 min",
            ),
            (
                TraceError::OutOfBounds {
                    requested: 9,
                    len: 4,
                },
                "out of bounds",
            ),
            (TraceError::InvalidQuantile(1.5), "1.5"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "message {msg:?} missing {needle:?}");
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
