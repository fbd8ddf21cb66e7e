//! The policy interface the simulator drives each step.
//!
//! Reshaping policies (server conversion, throttling/boosting — `so-reshape`)
//! implement [`ReshapePolicy`]; the engine calls them once per timestep
//! with the observable state and applies the returned decision.

use crate::dvfs::DvfsState;

/// What a policy can observe at the start of a timestep (§4.2: the runtime
/// "continuously monitor\[s\] the LC server load over each original set of LC
/// servers").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepObservation {
    /// Timestep index.
    pub t: usize,
    /// Offered LC load this step, queries per second.
    pub offered_qps: f64,
    /// Number of permanently-LC servers.
    pub base_lc: usize,
    /// Number of conversion servers available (`e_conv`).
    pub conversion: usize,
    /// Number of throttle-funded conversion servers available (`e_th`).
    pub throttle_funded: usize,
    /// QPS one LC server can absorb at 100% utilization.
    pub qps_per_server: f64,
    /// The guarded per-server load level `L_conv` learned from history.
    pub l_conv: f64,
    /// Mean per-LC-server load observed on the previous step (1.0 = fully
    /// utilized), 0.0 on the first step.
    pub prev_lc_load: f64,
    /// Whether the telemetry behind this observation is trustworthy.
    /// `false` when sensor faults (dropout, stuck readings) degrade
    /// `offered_qps` this step; fault-aware policies should then fall back
    /// to a safe decision instead of chasing a phantom load change.
    pub sensor_ok: bool,
}

impl StepObservation {
    /// The average per-server load the base LC fleet would see this step if
    /// it served the whole offered load alone.
    pub fn base_lc_load(&self) -> f64 {
        if self.base_lc == 0 {
            return f64::INFINITY;
        }
        self.offered_qps / (self.base_lc as f64 * self.qps_per_server)
    }
}

/// A policy's decision for one timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecision {
    /// Conversion servers (`e_conv`) to run as LC this step; the remainder
    /// run Batch.
    pub conversion_as_lc: usize,
    /// Throttle-funded servers (`e_th`) to run as LC this step; the
    /// remainder run Batch.
    pub throttle_funded_as_lc: usize,
    /// DVFS state applied to the Batch cluster this step.
    pub batch_dvfs: DvfsState,
}

impl StepDecision {
    /// Everything stays Batch, nominal frequency.
    pub fn all_batch() -> Self {
        Self {
            conversion_as_lc: 0,
            throttle_funded_as_lc: 0,
            batch_dvfs: DvfsState::Nominal,
        }
    }
}

/// A per-step reshaping policy.
pub trait ReshapePolicy {
    /// Decides the role split and DVFS state for this step.
    ///
    /// Decisions exceeding the available server counts are clamped by the
    /// engine.
    fn decide(&mut self, observation: &StepObservation) -> StepDecision;
}

/// A fixed policy: conversion servers permanently hold one role.
///
/// With `as_lc = true` this models "just add LC-specific servers" (§4.1's
/// strawman); with `false`, "just add Batch servers".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy {
    /// Whether the extra servers run LC (otherwise Batch).
    pub as_lc: bool,
}

impl ReshapePolicy for StaticPolicy {
    fn decide(&mut self, observation: &StepObservation) -> StepDecision {
        StepDecision {
            conversion_as_lc: if self.as_lc {
                observation.conversion
            } else {
                0
            },
            throttle_funded_as_lc: if self.as_lc {
                observation.throttle_funded
            } else {
                0
            },
            batch_dvfs: DvfsState::Nominal,
        }
    }
}

/// Wraps any policy with a degraded-telemetry guard: while
/// [`StepObservation::sensor_ok`] is `false`, the wrapper repeats the
/// last decision made on trustworthy data instead of consulting the
/// inner policy, so a sensor dropout (which reads as a phantom load
/// collapse) cannot trigger a mass LC→Batch conversion.
///
/// Before any trustworthy step has been seen, the wrapper fails safe by
/// running every conversion server as LC — over-provisioning QoS is the
/// recoverable mistake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSafe<P> {
    /// The wrapped policy; consulted only on trustworthy steps.
    pub inner: P,
    last_good: Option<StepDecision>,
}

impl<P> FailSafe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            last_good: None,
        }
    }
}

impl<P: ReshapePolicy> ReshapePolicy for FailSafe<P> {
    fn decide(&mut self, observation: &StepObservation) -> StepDecision {
        if observation.sensor_ok {
            let decision = self.inner.decide(observation);
            self.last_good = Some(decision);
            return decision;
        }
        self.last_good.unwrap_or(StepDecision {
            conversion_as_lc: observation.conversion,
            throttle_funded_as_lc: observation.throttle_funded,
            batch_dvfs: DvfsState::Nominal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation() -> StepObservation {
        StepObservation {
            t: 0,
            offered_qps: 500.0,
            base_lc: 10,
            conversion: 4,
            throttle_funded: 2,
            qps_per_server: 100.0,
            l_conv: 0.8,
            prev_lc_load: 0.0,
            sensor_ok: true,
        }
    }

    #[test]
    fn base_lc_load_is_offered_over_capacity() {
        let o = observation();
        assert!((o.base_lc_load() - 0.5).abs() < 1e-12);
        let empty = StepObservation { base_lc: 0, ..o };
        assert!(empty.base_lc_load().is_infinite());
    }

    #[test]
    fn static_policy_pins_roles() {
        let o = observation();
        let mut lc = StaticPolicy { as_lc: true };
        let d = lc.decide(&o);
        assert_eq!(d.conversion_as_lc, 4);
        assert_eq!(d.throttle_funded_as_lc, 2);

        let mut batch = StaticPolicy { as_lc: false };
        let d = batch.decide(&o);
        assert_eq!(d, StepDecision::all_batch());
    }

    #[test]
    fn fail_safe_holds_last_good_decision() {
        let mut policy = FailSafe::new(StaticPolicy { as_lc: false });
        let good = observation();
        let degraded = StepObservation {
            sensor_ok: false,
            // A dropout reads as a phantom load collapse.
            offered_qps: 0.0,
            ..good
        };

        // Before any trustworthy step: fail safe toward LC.
        let d = policy.decide(&degraded);
        assert_eq!(d.conversion_as_lc, 4);
        assert_eq!(d.throttle_funded_as_lc, 2);
        assert_eq!(policy.last_good, None);

        // A trustworthy step records the inner decision...
        let d = policy.decide(&good);
        assert_eq!(d, StepDecision::all_batch());
        assert_eq!(policy.last_good, Some(d));

        // ...which is then held through degraded steps.
        let d = policy.decide(&degraded);
        assert_eq!(d, StepDecision::all_batch());
    }
}
