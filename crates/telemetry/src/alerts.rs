//! Declarative alert engine: threshold, burn-rate, and drift rules with
//! hysteresis, evaluated incrementally once per event batch.
//!
//! The engine is a pure deterministic state machine: feed it one named
//! signal snapshot per evaluation ([`AlertEngine::evaluate`]) and it
//! returns the [`AlertTransition`]s that snapshot caused. Nothing inside
//! reads a clock, a thread id, or the installed sink for its
//! *decisions*, so alert streams are bit-identical at any thread count —
//! the caller drives evaluation from a serial orchestration point (the
//! online engine's per-batch hook) and the signals themselves are
//! thread-count-independent resident aggregates.
//!
//! Hysteresis has two knobs per rule: `for_evals` (the breach streak
//! required before firing — suppresses one-sample blips) and the
//! `fire_at`/`resolve_at` threshold pair (a rule that fired stays active
//! until the measure crosses `resolve_at`, so a signal hovering at the
//! fire threshold produces one alert, not one per evaluation).
//!
//! Rule windows are preallocated rings: steady-state evaluation
//! allocates only the (small, bounded) transition vector it returns.

use crate::export::BenchObject;
use crate::sink::{counter_add, gauge_set};

/// How a rule turns its signal window into a breach decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertKind {
    /// Breach while the latest sample is above `fire_at`; resolve once
    /// it is at or below `resolve_at` (`resolve_at ≤ fire_at`).
    Above,
    /// Breach while the latest sample is below `fire_at`; resolve once
    /// it is at or above `resolve_at` (`resolve_at ≥ fire_at`).
    Below,
    /// Burn rate: mean of the last `fast` samples divided by the mean of
    /// the last `slow` samples (`fast < slow`). Breach above `fire_at`,
    /// resolve at or below `resolve_at`. Undefined (skipped) until
    /// `slow` samples have arrived or while the slow mean is ~0.
    BurnRate {
        /// Fast window length in evaluations.
        fast: usize,
        /// Slow window length in evaluations (must exceed `fast`).
        slow: usize,
    },
    /// Drift: absolute deviation of the latest sample from the mean of
    /// the preceding `window` samples. Breach above `fire_at`, resolve
    /// at or below `resolve_at`. Undefined until `window + 1` samples
    /// have arrived.
    Drift {
        /// Baseline window length in evaluations.
        window: usize,
    },
}

impl AlertKind {
    /// Samples of history the rule needs to hold.
    fn window_len(&self) -> usize {
        match *self {
            AlertKind::Above | AlertKind::Below => 1,
            AlertKind::BurnRate { slow, .. } => slow.max(2),
            AlertKind::Drift { window } => window.max(1) + 1,
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (appears in transitions, dumps, and metrics).
    pub name: String,
    /// The signal key the rule watches (see [`AlertEngine::evaluate`]).
    pub signal: String,
    /// How the measure is computed from the signal window.
    pub kind: AlertKind,
    /// Measure threshold that arms the breach streak.
    pub fire_at: f64,
    /// Measure threshold that resolves an active alert.
    pub resolve_at: f64,
    /// Consecutive breached evaluations required before firing (clamped
    /// to at least 1).
    pub for_evals: u32,
}

impl AlertRule {
    /// Convenience constructor for a simple `Above` threshold rule.
    pub fn above(name: &str, signal: &str, fire_at: f64, resolve_at: f64, for_evals: u32) -> Self {
        Self {
            name: name.to_string(),
            signal: signal.to_string(),
            kind: AlertKind::Above,
            fire_at,
            resolve_at,
            for_evals,
        }
    }
}

/// One journaled alert state change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertTransition {
    /// Index of the rule (into [`AlertEngine::rules`]).
    pub rule: usize,
    /// Evaluation index (0-based) at which the transition happened.
    pub eval: u64,
    /// `true` for `AlertFired`, `false` for `AlertResolved`.
    pub fired: bool,
    /// The rule's computed measure at the transition.
    pub value: f64,
}

/// Per-rule runtime state: a preallocated sample ring plus the
/// hysteresis counters.
#[derive(Debug, Clone)]
struct RuleState {
    window: Vec<f64>,
    head: usize,
    filled: usize,
    streak: u32,
    active: bool,
}

impl RuleState {
    fn new(window_len: usize) -> Self {
        Self {
            window: vec![0.0; window_len],
            head: 0,
            filled: 0,
            streak: 0,
            active: false,
        }
    }

    fn push(&mut self, value: f64) {
        self.window[self.head] = value;
        self.head = (self.head + 1) % self.window.len();
        self.filled = (self.filled + 1).min(self.window.len());
    }

    /// Mean of the most recent `n` samples (`n ≤ filled`), accumulated
    /// newest-to-oldest in a fixed order for bit-stable results.
    fn tail_mean(&self, n: usize) -> f64 {
        let len = self.window.len();
        let mut sum = 0.0;
        for i in 0..n {
            let idx = (self.head + len - 1 - i) % len;
            sum += self.window[idx];
        }
        sum / n as f64
    }

    /// The most recent sample.
    fn latest(&self) -> f64 {
        let len = self.window.len();
        self.window[(self.head + len - 1) % len]
    }

    /// Mean of the `window`-sized baseline preceding the latest sample.
    fn baseline_mean(&self, window: usize) -> f64 {
        let len = self.window.len();
        let mut sum = 0.0;
        for i in 1..=window {
            let idx = (self.head + len - 1 - i) % len;
            sum += self.window[idx];
        }
        sum / window as f64
    }
}

/// Upper bound on the retained transition journal; older entries are
/// discarded (transitions are rare, so in practice this never trips on
/// a healthy fleet — it is a leak bound for the pathological case).
const MAX_JOURNAL: usize = 1024;

/// The alert engine: a set of rules plus their evaluation state.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    evals: u64,
    journal: Vec<AlertTransition>,
    journal_dropped: u64,
    fired_total: u64,
    resolved_total: u64,
}

impl AlertEngine {
    /// An engine over `rules` with all alerts initially resolved.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = rules
            .iter()
            .map(|rule| RuleState::new(rule.kind.window_len()))
            .collect();
        Self {
            rules,
            states,
            evals: 0,
            journal: Vec::new(),
            journal_dropped: 0,
            fired_total: 0,
            resolved_total: 0,
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Rule names in rule order (for resolving flight-record indices).
    pub fn rule_names(&self) -> Vec<String> {
        self.rules.iter().map(|r| r.name.clone()).collect()
    }

    /// Total `AlertFired` transitions so far.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Total `AlertResolved` transitions so far.
    pub fn resolved_total(&self) -> u64 {
        self.resolved_total
    }

    /// Indices of currently-active (fired, unresolved) rules.
    pub fn active(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(i, _)| i)
            .collect()
    }

    /// The retained transition journal, oldest first.
    pub fn journal(&self) -> &[AlertTransition] {
        &self.journal
    }

    /// Evaluates every rule against one signal snapshot and returns the
    /// transitions this evaluation caused.
    ///
    /// `signals` is a list of `(key, value)` pairs; a rule whose signal
    /// key is absent is skipped this round (its window and streak are
    /// untouched). Rules are evaluated in declaration order and the
    /// whole pass is pure state-machine arithmetic, so transition
    /// streams are bit-identical for identical signal streams.
    pub fn evaluate(&mut self, signals: &[(&str, f64)]) -> Vec<AlertTransition> {
        let eval = self.evals;
        self.evals += 1;
        let mut transitions = Vec::new();
        for (index, rule) in self.rules.iter().enumerate() {
            let Some(&(_, value)) = signals.iter().find(|(key, _)| *key == rule.signal) else {
                continue;
            };
            let state = &mut self.states[index];
            state.push(value);
            let Some(measure) = measure(rule, state) else {
                continue;
            };
            let (breach, clear) = match rule.kind {
                AlertKind::Below => (measure < rule.fire_at, measure >= rule.resolve_at),
                _ => (measure > rule.fire_at, measure <= rule.resolve_at),
            };
            if state.active {
                if clear {
                    state.active = false;
                    state.streak = 0;
                    transitions.push(AlertTransition {
                        rule: index,
                        eval,
                        fired: false,
                        value: measure,
                    });
                }
            } else if breach {
                state.streak += 1;
                if state.streak >= rule.for_evals.max(1) {
                    state.active = true;
                    state.streak = 0;
                    transitions.push(AlertTransition {
                        rule: index,
                        eval,
                        fired: true,
                        value: measure,
                    });
                }
            } else {
                state.streak = 0;
            }
        }
        for transition in &transitions {
            let name = &self.rules[transition.rule].name;
            if transition.fired {
                self.fired_total += 1;
                counter_add("so_alerts_fired_total", &[("rule", name)], 1);
            } else {
                self.resolved_total += 1;
                counter_add("so_alerts_resolved_total", &[("rule", name)], 1);
            }
        }
        if !transitions.is_empty() {
            gauge_set(
                "so_alerts_active",
                &[],
                self.states.iter().filter(|s| s.active).count() as f64,
            );
        }
        self.journal.extend_from_slice(&transitions);
        if self.journal.len() > MAX_JOURNAL {
            let excess = self.journal.len() - MAX_JOURNAL;
            self.journal.drain(..excess);
            self.journal_dropped += excess as u64;
        }
        transitions
    }

    /// Renders the engine state as one JSON object (the `/alerts`
    /// endpoint body): totals, active rules, and the journal tail.
    pub fn to_json(&self) -> String {
        let journal = self.journal.iter().map(|t| {
            BenchObject::default()
                .string("rule", &self.rules[t.rule].name)
                .raw("eval", t.eval)
                .raw("fired", t.fired)
                .float("value", t.value)
        });
        BenchObject::default()
            .raw("evals", self.evals)
            .raw("fired_total", self.fired_total)
            .raw("resolved_total", self.resolved_total)
            .raw("journal_dropped", self.journal_dropped)
            .strings("active", self.active().iter().map(|&i| &self.rules[i].name))
            .array("journal", journal)
            .compact()
    }
}

/// Computes a rule's measure from its window, or `None` while the
/// window is not yet warm enough to define one.
fn measure(rule: &AlertRule, state: &RuleState) -> Option<f64> {
    match rule.kind {
        AlertKind::Above | AlertKind::Below => Some(state.latest()),
        AlertKind::BurnRate { fast, slow } => {
            let fast = fast.max(1);
            let slow = slow.max(fast + 1);
            if state.filled < slow {
                return None;
            }
            let slow_mean = state.tail_mean(slow);
            if slow_mean.abs() < f64::EPSILON {
                return None;
            }
            Some(state.tail_mean(fast) / slow_mean)
        }
        AlertKind::Drift { window } => {
            let window = window.max(1);
            if state.filled < window + 1 {
                return None;
            }
            Some((state.latest() - state.baseline_mean(window)).abs())
        }
    }
}

/// The default rule set the online engine's observability plane runs
/// with: breaker-budget violations, rejection-rate spikes, root-power
/// burn rate, asynchrony drift, and rack-level fragmentation pressure.
///
/// Signal keys match what `OnlineFleet::observe_batch` publishes; a rule
/// whose signal the caller never publishes simply stays quiet.
pub fn default_online_rules() -> Vec<AlertRule> {
    vec![
        // Any breaker-budget violation in the batch fires immediately
        // (delta signal: violations since the previous evaluation); it
        // resolves on the first clean batch.
        AlertRule::above(
            "breaker_budget_violation",
            "breaker_violations_delta",
            0.5,
            0.5,
            1,
        ),
        // More than half of a batch's arrivals bounced.
        AlertRule::above("rejection_rate_spike", "batch_rejection_rate", 0.5, 0.1, 1),
        // Root draw growing ≥ 15% faster over the fast window than the
        // slow baseline — headroom is burning down.
        AlertRule {
            name: "headroom_burn_rate".to_string(),
            signal: "root_power_watts".to_string(),
            kind: AlertKind::BurnRate { fast: 2, slow: 8 },
            fire_at: 1.15,
            resolve_at: 1.05,
            for_evals: 1,
        },
        // Mean rack asynchrony drifting from its rolling baseline —
        // placement quality is degrading as load shifts.
        AlertRule {
            name: "asynchrony_drift".to_string(),
            signal: "mean_rack_asynchrony".to_string(),
            kind: AlertKind::Drift { window: 8 },
            fire_at: 0.25,
            resolve_at: 0.10,
            for_evals: 2,
        },
        // Nearly all remaining rack headroom is stranded behind full
        // slots or breaker-bound paths.
        AlertRule::above(
            "rack_fragmentation",
            "fragmentation_ratio_rack",
            0.9,
            0.75,
            2,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn above(fire: f64, resolve: f64, for_evals: u32) -> AlertEngine {
        AlertEngine::new(vec![AlertRule::above("r", "s", fire, resolve, for_evals)])
    }

    #[test]
    fn fires_once_with_hysteresis_then_resolves() {
        let mut engine = above(10.0, 5.0, 2);
        assert!(engine.evaluate(&[("s", 12.0)]).is_empty(), "streak 1 of 2");
        let fired = engine.evaluate(&[("s", 13.0)]);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        // Hovering above fire_at and dipping between resolve_at and
        // fire_at must NOT re-fire or resolve.
        assert!(engine.evaluate(&[("s", 14.0)]).is_empty());
        assert!(engine.evaluate(&[("s", 7.0)]).is_empty());
        assert_eq!(engine.active(), vec![0]);
        let resolved = engine.evaluate(&[("s", 4.0)]);
        assert_eq!(resolved.len(), 1);
        assert!(!resolved[0].fired);
        assert!(engine.active().is_empty());
        assert_eq!(engine.fired_total(), 1);
        assert_eq!(engine.resolved_total(), 1);
    }

    #[test]
    fn streak_resets_on_a_clean_sample() {
        let mut engine = above(10.0, 5.0, 3);
        engine.evaluate(&[("s", 12.0)]);
        engine.evaluate(&[("s", 12.0)]);
        engine.evaluate(&[("s", 1.0)]); // streak broken
        engine.evaluate(&[("s", 12.0)]);
        assert!(engine.evaluate(&[("s", 12.0)]).is_empty(), "streak only 2");
        assert_eq!(engine.evaluate(&[("s", 12.0)]).len(), 1);
    }

    #[test]
    fn below_rule_uses_inverted_thresholds() {
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "low".to_string(),
            signal: "s".to_string(),
            kind: AlertKind::Below,
            fire_at: 2.0,
            resolve_at: 3.0,
            for_evals: 1,
        }]);
        assert_eq!(engine.evaluate(&[("s", 1.0)]).len(), 1);
        assert!(
            engine.evaluate(&[("s", 2.5)]).is_empty(),
            "between thresholds"
        );
        assert_eq!(engine.evaluate(&[("s", 3.5)]).len(), 1);
    }

    #[test]
    fn burn_rate_needs_a_warm_window_and_detects_growth() {
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "burn".to_string(),
            signal: "p".to_string(),
            kind: AlertKind::BurnRate { fast: 1, slow: 4 },
            fire_at: 1.3,
            resolve_at: 1.05,
            for_evals: 1,
        }]);
        // Flat stream: warm but never breaches.
        for _ in 0..6 {
            assert!(engine.evaluate(&[("p", 100.0)]).is_empty());
        }
        // Step growth: fast mean pulls ahead of the slow baseline.
        let fired = engine.evaluate(&[("p", 300.0)]);
        assert_eq!(fired.len(), 1, "300/(mean of 100,100,100,300) > 1.3");
        // Flattening out resolves.
        let mut resolved = Vec::new();
        for _ in 0..6 {
            resolved.extend(engine.evaluate(&[("p", 300.0)]));
        }
        assert_eq!(resolved.len(), 1);
        assert!(!resolved[0].fired);
    }

    #[test]
    fn drift_compares_latest_against_rolling_baseline() {
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "drift".to_string(),
            signal: "a".to_string(),
            kind: AlertKind::Drift { window: 3 },
            fire_at: 0.5,
            resolve_at: 0.2,
            for_evals: 1,
        }]);
        for _ in 0..3 {
            assert!(engine.evaluate(&[("a", 1.0)]).is_empty(), "warming");
        }
        assert!(engine.evaluate(&[("a", 1.1)]).is_empty(), "|1.1-1.0| < 0.5");
        assert_eq!(engine.evaluate(&[("a", 2.0)]).len(), 1);
    }

    #[test]
    fn missing_signal_skips_the_rule() {
        let mut engine = above(10.0, 5.0, 1);
        assert!(engine.evaluate(&[("other", 100.0)]).is_empty());
        assert_eq!(engine.evals, 1);
        assert_eq!(engine.evaluate(&[("s", 100.0)]).len(), 1);
    }

    #[test]
    fn monotone_ramp_fires_at_most_once() {
        // Hysteresis monotonicity: a monotone increasing signal produces
        // exactly one fire and zero resolves, for any for_evals.
        for for_evals in 1..=4u32 {
            let mut engine = above(50.0, 40.0, for_evals);
            let mut fired = 0;
            let mut resolved = 0;
            for i in 0..40 {
                for t in engine.evaluate(&[("s", i as f64 * 3.0)]) {
                    if t.fired {
                        fired += 1;
                    } else {
                        resolved += 1;
                    }
                }
            }
            assert_eq!(fired, 1, "for_evals {for_evals}");
            assert_eq!(resolved, 0);
        }
    }

    #[test]
    fn json_rendering_lists_active_rules_and_journal() {
        let mut engine = above(1.0, 0.5, 1);
        engine.evaluate(&[("s", 2.0)]);
        let json = engine.to_json();
        assert!(json.contains("\"fired_total\":1"));
        assert!(json.contains("\"active\":[\"r\"]"));
        assert!(json.contains("{\"rule\":\"r\",\"eval\":0,\"fired\":true,\"value\":2}"));
    }

    #[test]
    fn default_rules_are_well_formed() {
        let rules = default_online_rules();
        assert!(rules.len() >= 5);
        let engine = AlertEngine::new(rules);
        assert!(engine.active().is_empty());
    }
}
