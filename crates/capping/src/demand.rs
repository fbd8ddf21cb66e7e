//! Priority-stratified power demand.

use std::ops::{Add, AddAssign};

use so_workloads::WorkKind;

/// Priority of a power demand under capping, highest first.
///
/// Latency-critical traffic is shed last ("their techniques degrade the
/// performance of user-facing services significantly during the peak time,
/// which is not ideal", §6 — a capping system must protect LC first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-critical, shed last.
    High,
    /// Storage and support services.
    Medium,
    /// Batch/throughput work, shed first.
    Low,
}

impl Priority {
    /// All priorities, highest first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Medium, Priority::Low];

    /// The capping priority of a scheduling category.
    pub fn of(kind: WorkKind) -> Self {
        match kind {
            WorkKind::LatencyCritical => Priority::High,
            WorkKind::Storage => Priority::Medium,
            WorkKind::Batch => Priority::Low,
        }
    }
}

/// Power demand split by priority class, watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassDemand {
    /// High-priority (LC) demand.
    pub high: f64,
    /// Medium-priority (storage/support) demand.
    pub medium: f64,
    /// Low-priority (batch) demand.
    pub low: f64,
}

impl ClassDemand {
    /// A demand with all classes zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Demand of one class only.
    pub fn of_class(priority: Priority, watts: f64) -> Self {
        let mut demand = Self::zero();
        *demand.class_mut(priority) = watts;
        demand
    }

    /// Total demand across classes.
    pub fn total(&self) -> f64 {
        self.high + self.medium + self.low
    }

    /// The demand of one class.
    pub fn class(&self, priority: Priority) -> f64 {
        match priority {
            Priority::High => self.high,
            Priority::Medium => self.medium,
            Priority::Low => self.low,
        }
    }

    /// Mutable access to one class.
    pub fn class_mut(&mut self, priority: Priority) -> &mut f64 {
        match priority {
            Priority::High => &mut self.high,
            Priority::Medium => &mut self.medium,
            Priority::Low => &mut self.low,
        }
    }

    /// Whether every class is non-negative and finite.
    pub fn is_valid(&self) -> bool {
        [self.high, self.medium, self.low]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Add for ClassDemand {
    type Output = ClassDemand;

    fn add(self, rhs: ClassDemand) -> ClassDemand {
        ClassDemand {
            high: self.high + rhs.high,
            medium: self.medium + rhs.medium,
            low: self.low + rhs.low,
        }
    }
}

impl AddAssign for ClassDemand {
    fn add_assign(&mut self, rhs: ClassDemand) {
        self.high += rhs.high;
        self.medium += rhs.medium;
        self.low += rhs.low;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_accessors_roundtrip() {
        let mut d = ClassDemand::zero();
        for (i, p) in Priority::ALL.iter().enumerate() {
            *d.class_mut(*p) = (i + 1) as f64;
        }
        assert_eq!(d.class(Priority::High), 1.0);
        assert_eq!(d.class(Priority::Medium), 2.0);
        assert_eq!(d.class(Priority::Low), 3.0);
        assert_eq!(d.total(), 6.0);
        assert!(d.is_valid());
    }

    #[test]
    fn addition_is_classwise() {
        let a = ClassDemand {
            high: 1.0,
            medium: 2.0,
            low: 3.0,
        };
        let b = ClassDemand {
            high: 10.0,
            medium: 20.0,
            low: 30.0,
        };
        let c = a + b;
        assert_eq!(c.high, 11.0);
        assert_eq!(c.medium, 22.0);
        assert_eq!(c.low, 33.0);
        let mut acc = a;
        acc += b;
        assert_eq!(acc, c);
    }

    #[test]
    fn work_kinds_map_to_expected_priorities() {
        assert_eq!(Priority::of(WorkKind::LatencyCritical), Priority::High);
        assert_eq!(Priority::of(WorkKind::Storage), Priority::Medium);
        assert_eq!(Priority::of(WorkKind::Batch), Priority::Low);
    }

    #[test]
    fn invalid_demands_are_detected() {
        let d = ClassDemand {
            high: -1.0,
            medium: 0.0,
            low: 0.0,
        };
        assert!(!d.is_valid());
        let d = ClassDemand {
            high: f64::NAN,
            medium: 0.0,
            low: 0.0,
        };
        assert!(!d.is_valid());
    }
}
