//! Fault event types.

/// The kind of a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The power sensor of one instance reports nothing for the event
    /// window; its samples are missing.
    SensorDropout,
    /// The power sensor of one instance freezes at its value from the
    /// step the fault begins; samples are present but wrong.
    StuckSensor,
    /// One instance is down for the event window (it restarts at the end);
    /// its true power draw is zero while crashed.
    InstanceCrash,
    /// A breaker trips and the affected capacity is derated by
    /// [`FaultEvent::severity`] for the event window (§5 of the paper
    /// motivates surviving these without cascading).
    BreakerTrip,
}

impl FaultKind {
    /// A short lowercase label, stable across versions (used by telemetry
    /// printouts and tests).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SensorDropout => "sensor-dropout",
            FaultKind::StuckSensor => "stuck-sensor",
            FaultKind::InstanceCrash => "instance-crash",
            FaultKind::BreakerTrip => "breaker-trip",
        }
    }
}

/// What a fault event applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// One instance (index into the population the schedule was generated
    /// for).
    Instance(usize),
    /// The whole population (breaker trips hit a shared power node).
    Fleet,
}

/// One scheduled fault: a kind, a target, and a closed-open step window
/// `[start, start + steps)` on the simulation's time grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What happens.
    pub kind: FaultKind,
    /// Who it happens to.
    pub target: FaultTarget,
    /// First affected step.
    pub start: usize,
    /// Number of affected steps (at least 1).
    pub steps: usize,
    /// Effect magnitude in `(0, 1]`. For [`FaultKind::BreakerTrip`] this
    /// is the capacity derate fraction; the other kinds are all-or-nothing
    /// and carry `1.0`.
    pub severity: f64,
}

impl FaultEvent {
    /// One past the last affected step.
    pub fn end(&self) -> usize {
        self.start + self.steps
    }

    /// Whether the event is active at step `t`.
    pub fn active_at(&self, t: usize) -> bool {
        (self.start..self.end()).contains(&t)
    }

    /// Whether the event applies to instance `i`.
    pub fn applies_to(&self, i: usize) -> bool {
        match self.target {
            FaultTarget::Instance(j) => i == j,
            FaultTarget::Fleet => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_and_target_queries() {
        let e = FaultEvent {
            kind: FaultKind::SensorDropout,
            target: FaultTarget::Instance(3),
            start: 5,
            steps: 2,
            severity: 1.0,
        };
        assert_eq!(e.end(), 7);
        assert!(!e.active_at(4));
        assert!(e.active_at(5));
        assert!(e.active_at(6));
        assert!(!e.active_at(7));
        assert!(e.applies_to(3));
        assert!(!e.applies_to(4));

        let trip = FaultEvent {
            kind: FaultKind::BreakerTrip,
            target: FaultTarget::Fleet,
            start: 0,
            steps: 1,
            severity: 0.3,
        };
        assert!(trip.applies_to(0));
        assert!(trip.applies_to(99));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::SensorDropout.label(), "sensor-dropout");
        assert_eq!(FaultKind::StuckSensor.label(), "stuck-sensor");
        assert_eq!(FaultKind::InstanceCrash.label(), "instance-crash");
        assert_eq!(FaultKind::BreakerTrip.label(), "breaker-trip");
    }
}
