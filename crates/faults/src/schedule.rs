//! Deterministic fault schedules and their per-step compiled timeline.

use rand::Rng;
use so_workloads::rng::stream_rng;

use crate::event::{FaultEvent, FaultKind, FaultTarget};
use crate::spec::FaultSpec;

/// Stream-id offsets so each (instance, kind) pair — and each trip —
/// draws from its own independent RNG stream. Independent streams make
/// the schedule order-free: no generation order, thread count, or build
/// feature can change any event.
const STREAMS_PER_INSTANCE: u64 = 3;
const TRIP_STREAM_BASE: u64 = 1 << 62;

/// A fully materialized fault campaign over `n_steps` simulation steps
/// and `n_instances` instances.
///
/// Generation is deterministic in the spec alone: every event derives
/// from [`stream_rng`] keyed by the spec seed and a per-(instance, kind)
/// stream id, so serial and parallel runs agree bit-for-bit.
///
/// # Examples
///
/// ```
/// use so_faults::{FaultSchedule, FaultSpec};
///
/// let spec = FaultSpec::parse("seed=7,dropout=0.5,trips=1").unwrap();
/// let a = FaultSchedule::generate(&spec, 168, 40);
/// let b = FaultSchedule::generate(&spec, 168, 40);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    spec: FaultSpec,
    n_steps: usize,
    n_instances: usize,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no faults) over the given window.
    pub fn empty(n_steps: usize, n_instances: usize) -> Self {
        Self {
            spec: FaultSpec::none(),
            n_steps,
            n_instances,
            events: Vec::new(),
        }
    }

    /// Generates the schedule for `spec` over `n_steps` steps and
    /// `n_instances` instances.
    ///
    /// Events are emitted in a fixed order (instances ascending, kinds in
    /// declaration order, then trips), and each draws from its own seed
    /// stream; the result is a pure function of the arguments.
    pub fn generate(spec: &FaultSpec, n_steps: usize, n_instances: usize) -> Self {
        let mut events = Vec::new();
        if n_steps == 0 {
            return Self {
                spec: *spec,
                n_steps,
                n_instances,
                events,
            };
        }
        let per_instance = [
            (FaultKind::SensorDropout, spec.dropout_rate),
            (FaultKind::StuckSensor, spec.stuck_rate),
            (FaultKind::InstanceCrash, spec.crash_rate),
        ];
        for i in 0..n_instances {
            for (k, (kind, rate)) in per_instance.iter().enumerate() {
                let mut rng = stream_rng(spec.seed, i as u64 * STREAMS_PER_INSTANCE + k as u64);
                if !rng.gen_bool(*rate) {
                    continue;
                }
                let start = rng.gen_range(0..n_steps);
                let max_len = 2 * spec.mean_fault_steps - 1;
                let steps = rng.gen_range(1..=max_len).min(n_steps - start);
                events.push(FaultEvent {
                    kind: *kind,
                    target: FaultTarget::Instance(i),
                    start,
                    steps,
                    severity: 1.0,
                });
            }
        }
        for trip in 0..spec.trips {
            let mut rng = stream_rng(spec.seed, TRIP_STREAM_BASE + trip as u64);
            let start = rng.gen_range(0..n_steps);
            let steps = spec.trip_steps.min(n_steps - start);
            events.push(FaultEvent {
                kind: FaultKind::BreakerTrip,
                target: FaultTarget::Fleet,
                start,
                steps,
                severity: spec.trip_severity,
            });
        }
        Self {
            spec: *spec,
            n_steps,
            n_instances,
            events,
        }
    }

    /// The generating spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Number of simulation steps the schedule covers.
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// Size of the instance population the schedule targets.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// All scheduled events, in generation order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events of one kind.
    pub fn events_of(&self, kind: FaultKind) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events that apply to instance `i`.
    pub fn events_for(&self, i: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.applies_to(i))
    }

    /// Compiles the schedule into per-step aggregate effects for the
    /// aggregate-fleet simulator.
    pub fn timeline(&self) -> FaultTimeline {
        let n = self.n_steps;
        let mut timeline = FaultTimeline {
            dropout_frac: vec![0.0; n],
            stuck_frac: vec![0.0; n],
            crashed_frac: vec![0.0; n],
            trip_derate: vec![0.0; n],
            active_faults: vec![0; n],
        };
        if self.n_instances == 0 {
            return timeline;
        }
        let share = 1.0 / self.n_instances as f64;
        for e in &self.events {
            for t in e.start..e.end().min(n) {
                timeline.active_faults[t] += 1;
                match e.kind {
                    FaultKind::SensorDropout => timeline.dropout_frac[t] += share,
                    FaultKind::StuckSensor => timeline.stuck_frac[t] += share,
                    FaultKind::InstanceCrash => timeline.crashed_frac[t] += share,
                    FaultKind::BreakerTrip => {
                        // Concurrent trips do not stack past a full outage.
                        timeline.trip_derate[t] = timeline.trip_derate[t].max(e.severity);
                    }
                }
            }
        }
        for t in 0..n {
            timeline.dropout_frac[t] = timeline.dropout_frac[t].min(1.0);
            timeline.stuck_frac[t] = timeline.stuck_frac[t].min(1.0);
            timeline.crashed_frac[t] = timeline.crashed_frac[t].min(1.0);
        }
        timeline
    }
}

/// Per-step aggregate fault effects, ready for the simulator: fractions
/// of the instance population affected by each telemetry fault kind and
/// the capacity derate from active breaker trips.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    /// Fraction of instances whose sensor reports nothing, per step.
    pub dropout_frac: Vec<f64>,
    /// Fraction of instances whose sensor is frozen, per step.
    pub stuck_frac: Vec<f64>,
    /// Fraction of instances that are crashed, per step.
    pub crashed_frac: Vec<f64>,
    /// Capacity derate from breaker trips, per step (0 = full capacity).
    pub trip_derate: Vec<f64>,
    /// Number of fault events active per step.
    pub active_faults: Vec<usize>,
}

impl FaultTimeline {
    /// Number of steps covered.
    pub fn len(&self) -> usize {
        self.active_faults.len()
    }

    /// Whether the timeline covers no steps.
    pub fn is_empty(&self) -> bool {
        self.active_faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec() -> FaultSpec {
        FaultSpec::parse("seed=11,dropout=0.8,stuck=0.5,crash=0.4,trips=2,trip-severity=0.5")
            .unwrap()
    }

    #[test]
    fn generation_is_reproducible() {
        let spec = busy_spec();
        let a = FaultSchedule::generate(&spec, 200, 30);
        let b = FaultSchedule::generate(&spec, 200, 30);
        assert_eq!(a, b);
        assert!(!a.events().is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = busy_spec();
        let a = FaultSchedule::generate(&spec, 200, 30);
        spec.seed += 1;
        let b = FaultSchedule::generate(&spec, 200, 30);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_stay_in_window() {
        let schedule = FaultSchedule::generate(&busy_spec(), 50, 40);
        for e in schedule.events() {
            assert!(e.start < 50);
            assert!(e.end() <= 50, "event {e:?} escapes the window");
            assert!(e.steps >= 1);
        }
    }

    #[test]
    fn rates_control_event_counts() {
        let spec = FaultSpec::parse("seed=3,dropout=1,stuck=0,crash=0,trips=0").unwrap();
        let schedule = FaultSchedule::generate(&spec, 100, 25);
        assert_eq!(
            schedule.events_of(FaultKind::SensorDropout).count(),
            25,
            "rate 1.0 hits every instance"
        );
        assert_eq!(schedule.events_of(FaultKind::StuckSensor).count(), 0);
        assert_eq!(schedule.events_of(FaultKind::InstanceCrash).count(), 0);
    }

    #[test]
    fn trips_target_the_fleet() {
        let spec = FaultSpec::parse("seed=5,trips=3,trip-steps=4,trip-severity=0.25").unwrap();
        let schedule = FaultSchedule::generate(&spec, 100, 10);
        let trips: Vec<_> = schedule.events_of(FaultKind::BreakerTrip).collect();
        assert_eq!(trips.len(), 3);
        for trip in trips {
            assert_eq!(trip.target, FaultTarget::Fleet);
            assert_eq!(trip.severity, 0.25);
        }
    }

    #[test]
    fn timeline_fractions_are_consistent() {
        let schedule = FaultSchedule::generate(&busy_spec(), 150, 20);
        let timeline = schedule.timeline();
        assert_eq!(timeline.len(), 150);
        for t in 0..150 {
            for frac in [
                timeline.dropout_frac[t],
                timeline.stuck_frac[t],
                timeline.crashed_frac[t],
            ] {
                assert!((0.0..=1.0).contains(&frac));
                // Fractions are multiples of 1/20 up to clamping.
                let scaled = frac * 20.0;
                assert!((scaled - scaled.round()).abs() < 1e-9 || frac == 1.0);
            }
            assert!((0.0..=1.0).contains(&timeline.trip_derate[t]));
            if timeline.active_faults[t] == 0 {
                assert_eq!(timeline.dropout_frac[t], 0.0);
                assert_eq!(timeline.trip_derate[t], 0.0);
            }
        }
    }

    #[test]
    fn empty_schedule_has_quiet_timeline() {
        let schedule = FaultSchedule::empty(10, 5);
        assert!(schedule.events().is_empty());
        let timeline = schedule.timeline();
        assert_eq!(timeline.len(), 10);
        // Zero-step and zero-instance windows do not panic.
        let degenerate = FaultSchedule::generate(&busy_spec(), 0, 5);
        assert!(degenerate.events().is_empty());
        let no_fleet = FaultSchedule::generate(&busy_spec(), 10, 0);
        assert!(no_fleet.events_of(FaultKind::SensorDropout).count() == 0);
        assert_eq!(no_fleet.timeline().dropout_frac, vec![0.0; 10]);
    }

    #[test]
    fn events_for_filters_by_instance() {
        let spec = FaultSpec::parse("seed=3,dropout=1,stuck=0,crash=0,trips=1").unwrap();
        let schedule = FaultSchedule::generate(&spec, 100, 4);
        // Each instance sees its own dropout plus the fleet-wide trip.
        for i in 0..4 {
            let mine: Vec<_> = schedule.events_for(i).collect();
            assert_eq!(mine.len(), 2, "instance {i}");
        }
    }
}
