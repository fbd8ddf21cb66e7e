//! Applying a fault schedule to power traces: the degraded-telemetry view.
//!
//! Placement consumes *measured* traces. Under faults the measurement
//! differs from the truth: dropout windows are missing (masked), stuck
//! windows repeat the onset reading, and crash windows genuinely draw
//! zero power. [`degrade_traces`] produces exactly that measured view as
//! one [`MaskedTrace`] per instance, ready for `so-core`'s degraded-mode
//! placement.

use so_powertrace::{MaskedTrace, PowerTrace};

use crate::event::{FaultEvent, FaultKind};
use crate::schedule::FaultSchedule;

/// The measured view of one instance's trace under the events that apply
/// to it (steps beyond the trace length are ignored).
///
/// * [`FaultKind::SensorDropout`] masks the window;
/// * [`FaultKind::StuckSensor`] freezes the reading at the onset value;
/// * [`FaultKind::InstanceCrash`] zeroes the window (the instance is
///   really off — valid data);
/// * [`FaultKind::BreakerTrip`] leaves the trace alone (it derates
///   capacity, not telemetry).
fn degrade_trace(trace: &PowerTrace, instance: usize, events: &[FaultEvent]) -> MaskedTrace {
    let mut samples = trace.samples().to_vec();
    let mut valid = vec![true; samples.len()];
    for e in events {
        if !e.applies_to(instance) {
            continue;
        }
        let window = e.start..e.end().min(samples.len());
        match e.kind {
            FaultKind::SensorDropout => {
                for t in window {
                    valid[t] = false;
                    samples[t] = 0.0;
                }
            }
            FaultKind::StuckSensor => {
                if let Some(&onset) = trace.samples().get(e.start) {
                    for t in window {
                        samples[t] = onset;
                    }
                }
            }
            FaultKind::InstanceCrash => {
                for t in window {
                    samples[t] = 0.0;
                }
            }
            FaultKind::BreakerTrip => {}
        }
    }
    MaskedTrace::new(samples, valid, trace.step_minutes())
        .expect("degrading a valid trace keeps it structurally valid")
}

/// The measured view of a whole fleet's traces under `schedule`
/// (trace `i` is instance `i`).
pub fn degrade_traces(traces: &[PowerTrace], schedule: &FaultSchedule) -> Vec<MaskedTrace> {
    traces
        .iter()
        .enumerate()
        .map(|(i, trace)| degrade_trace(trace, i, schedule.events()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultTarget;
    use crate::spec::FaultSpec;

    fn trace() -> PowerTrace {
        PowerTrace::new(vec![10.0, 20.0, 30.0, 40.0, 50.0], 60).unwrap()
    }

    fn event(kind: FaultKind, start: usize, steps: usize) -> FaultEvent {
        FaultEvent {
            kind,
            target: FaultTarget::Instance(0),
            start,
            steps,
            severity: 1.0,
        }
    }

    #[test]
    fn dropout_masks_the_window() {
        let m = degrade_trace(&trace(), 0, &[event(FaultKind::SensorDropout, 1, 2)]);
        assert_eq!(m.valid(), &[true, false, false, true, true]);
        assert_eq!(m.observed(), 3);
    }

    #[test]
    fn stuck_freezes_the_onset_value() {
        let m = degrade_trace(&trace(), 0, &[event(FaultKind::StuckSensor, 2, 2)]);
        assert_eq!(m.samples(), &[10.0, 20.0, 30.0, 30.0, 50.0]);
        assert!(m.is_complete());
    }

    #[test]
    fn crash_zeroes_but_stays_valid() {
        let m = degrade_trace(&trace(), 0, &[event(FaultKind::InstanceCrash, 0, 2)]);
        assert_eq!(m.samples(), &[0.0, 0.0, 30.0, 40.0, 50.0]);
        assert!(m.is_complete());
    }

    #[test]
    fn trips_and_other_instances_leave_the_trace_alone() {
        let trip = FaultEvent {
            kind: FaultKind::BreakerTrip,
            target: FaultTarget::Fleet,
            start: 0,
            steps: 5,
            severity: 0.5,
        };
        let other = FaultEvent {
            target: FaultTarget::Instance(7),
            ..event(FaultKind::SensorDropout, 0, 5)
        };
        let m = degrade_trace(&trace(), 0, &[trip, other]);
        assert_eq!(m.samples(), trace().samples());
        assert!(m.is_complete());
    }

    #[test]
    fn windows_past_the_trace_end_are_clipped() {
        let m = degrade_trace(&trace(), 0, &[event(FaultKind::SensorDropout, 3, 99)]);
        assert_eq!(m.valid(), &[true, true, true, false, false]);
    }

    #[test]
    fn fleet_degradation_lines_up_with_instances() {
        let spec = FaultSpec::parse("seed=2,dropout=1,trips=0").unwrap();
        let traces = vec![trace(), trace(), trace()];
        let schedule = FaultSchedule::generate(&spec, 5, 3);
        let degraded = degrade_traces(&traces, &schedule);
        assert_eq!(degraded.len(), 3);
        for (i, m) in degraded.iter().enumerate() {
            assert!(
                m.observed() < m.len(),
                "instance {i} should have a dropout window"
            );
        }
    }
}
