//! Token-level LLM inference workloads: the [`TokenBursty`] generator.
//!
//! Follows the compositional model of "From Servers to Sites:
//! Compositional Power Trace Generation of LLM Inference" (PAPERS.md): a
//! server's power is composed bottom-up from request phases, and
//! site-level traces emerge from shared arrival processes. Three layers:
//!
//! 1. **Demand envelope** — a diurnal request-rate curve (chat traffic
//!    follows user activity), evaluated on the instance's *phase-shifted*
//!    clock like every other family.
//! 2. **Correlated burst arrivals** — absolute time is divided into
//!    [`BURST_WINDOW_MINUTES`] windows; per `(service, window)` a pure
//!    SplitMix64 hash decides whether a burst hits the service and how
//!    hard. Every instance of the service sees the *same* burst clock
//!    (keyed off the service alone, on the *raw* minute, so per-instance
//!    phase jitter cannot smear it), and participates with probability
//!    [`BURST_PARTICIPATION`] per window. Different services hash to
//!    independent burst clocks, so cross-service correlation is ~0.
//! 3. **Prefill/decode alternation** — each instance alternates a
//!    compute-saturating prefill slot and a longer memory-bound decode
//!    slot, on a per-instance period/offset so the alternation itself adds
//!    no cross-instance correlation. Bursts are prefill-heavy (new
//!    requests arrive), which is what drives peak-to-mean ≥ 3×.
//!
//! Everything is a pure hash of `(ids, sample time)` — no sequential RNG —
//! so traces are seeded-deterministic, extension-stable sample by sample,
//! and trivially parallelizable: [`LlmBasis`] precomputes the per-sample
//! service state once and fills arena rows with a few integer mixes per
//! sample, which is what the 100k/1M scale rungs use.
//!
//! [`TokenBursty`]: crate::DiurnalShape::TokenBursty

use so_powertrace::MINUTES_PER_DAY;

use crate::activity::user_activity;
use crate::rng::{mix64, stream_key, unit};
use crate::service::ServiceClass;

/// Width of one burst-arrival window, minutes of absolute time.
pub const BURST_WINDOW_MINUTES: f64 = 30.0;

/// Probability that an instance of a bursting service rides the burst in
/// any given window (the within-service correlation knob).
pub const BURST_PARTICIPATION: f64 = 0.85;

/// Probability of an instance-private burst per window (keeps instances
/// from being perfectly exchangeable).
const PRIVATE_BURST_P: f64 = 0.02;

/// Domain-separation salts for the hash streams.
const SALT_SERVICE: u64 = 0x11A3_77DE_C0DE_5EED;
const SALT_PARTICIPATE: u64 = 0x7A57_1C1B_A7E5_0001;
const SALT_ALTERNATE: u64 = 0x0FFB_EA70_0D07_CC1E;
const SALT_GAIN: u64 = 0x00B1_A570_0FF5_E700;
const SALT_PRIVATE: u64 = 0x5EED_F00D;
const SALT_ROW: u64 = 0x11FA_57F1;

/// Shared burst state of one service in one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstState {
    /// Whether a burst hits the service in this window.
    pub active: bool,
    /// Utilization multiplier while the burst is active (≥ 1).
    pub gain: f64,
}

/// A service's stable burst-clock salt, derived from its name so it does
/// not depend on enum ordering.
pub fn service_salt(service: ServiceClass) -> u64 {
    service
        .name()
        .bytes()
        .fold(SALT_SERVICE, |k, b| mix64(k ^ b as u64))
}

/// The burst window containing absolute minute `raw_minute`.
#[inline]
fn window_of(raw_minute: f64) -> u64 {
    (raw_minute / BURST_WINDOW_MINUTES).floor() as i64 as u64
}

/// Diurnal request-rate envelope in `[0, 1]`, evaluated on the instance's
/// (possibly phase-shifted) clock.
pub fn demand_envelope(shifted_minute: f64) -> f64 {
    let day = MINUTES_PER_DAY as f64;
    let minute_of_day = shifted_minute.rem_euclid(day) as u32;
    let day_of_week = (shifted_minute.div_euclid(day).rem_euclid(7.0)) as u32;
    0.15 + 0.85 * user_activity(minute_of_day, day_of_week)
}

/// The service-shared burst state at absolute minute `raw_minute`.
///
/// Burst probability scales with demand (busy hours burst more), but the
/// *clock* is shared by every instance of the service regardless of its
/// phase shift: correlated arrivals are a property of the service's
/// traffic, not of any one server.
pub fn service_burst(salt: u64, raw_minute: f64, demand: f64) -> BurstState {
    let h = mix64(salt ^ window_of(raw_minute).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let p = 0.08 + 0.22 * demand;
    BurstState {
        active: unit(h) < p,
        gain: 1.7 + 2.6 * unit(mix64(h ^ SALT_GAIN)),
    }
}

/// Noise-free utilization of one TokenBursty instance.
///
/// `raw_minute` is the absolute (unshifted) minute driving the shared
/// burst clock and the instance's alternation; `shifted_minute` carries
/// the instance phase shift and service offset and drives the demand
/// envelope only.
pub fn token_bursty_utilization(
    service: ServiceClass,
    seed: u64,
    raw_minute: f64,
    shifted_minute: f64,
) -> f64 {
    let demand = demand_envelope(shifted_minute);
    let burst = service_burst(service_salt(service), raw_minute, demand);
    llm_utilization(seed, raw_minute, demand, burst, alternation(seed))
}

/// Per-instance prefill/decode alternation parameters: `(period, offset)`
/// minutes, hashed from the instance seed.
///
/// Periods are non-integer so they never divide a sampling step: an
/// integer period that divides the step would freeze `pos` at one value
/// per instance, and instances frozen outside the prefill slot would
/// never sample a prefill peak (aliasing the duty cycle away).
fn alternation(seed: u64) -> (f64, f64) {
    let period = 5.7 + (seed % 7) as f64 * 0.95;
    let offset = (mix64(seed ^ SALT_ALTERNATE) % 997) as f64 / 997.0 * period;
    (period, offset)
}

/// Composes the per-instance layers on top of the shared burst state.
fn llm_utilization(
    seed: u64,
    raw_minute: f64,
    demand: f64,
    burst: BurstState,
    (period, offset): (f64, f64),
) -> f64 {
    let window = window_of(raw_minute);
    // Hierarchical key: (salt, instance, window). Never compose these
    // arithmetically — see the `rng` module docs.
    let hi = stream_key(&[SALT_PARTICIPATE, seed, window]);
    let mut gain = 1.0;
    if burst.active && unit(hi) < BURST_PARTICIPATION {
        gain = burst.gain;
    }
    let hp = mix64(hi ^ SALT_PRIVATE);
    if unit(hp) < PRIVATE_BURST_P {
        gain = gain.max(1.5 + 1.5 * unit(mix64(hp ^ 1)));
    }

    let pos = (raw_minute + offset).rem_euclid(period) / period;
    // Bursts are prefill-heavy: fresh requests mean fresh prompts.
    let prefill_frac = if gain > 1.0 { 0.45 } else { 0.22 };

    let decode = (0.03 + 0.09 * demand) * gain;
    let prefill = if pos < prefill_frac {
        (0.20 + 0.35 * demand) * gain
    } else {
        0.0
    };
    (0.02 + decode + prefill).clamp(0.0, 1.0)
}

/// Minimum mean pairwise within-service residual correlation the LLM
/// family contracts to show (the shared burst clock at work).
pub const WITHIN_CORRELATION_MIN: f64 = 0.15;

/// Maximum mean absolute cross-service residual correlation the LLM
/// family contracts to show (independent burst clocks).
pub const CROSS_CORRELATION_MAX: f64 = 0.08;

/// Residual-correlation summary of two groups of traces, used by the
/// workload-contract battery to verify the LLM family's burst structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationReport {
    /// Mean pairwise residual correlation within group A.
    pub mean_within: f64,
    /// Smallest pairwise residual correlation within group A.
    pub min_within: f64,
    /// Mean |residual correlation| across the two groups.
    pub mean_cross_abs: f64,
    /// Largest |residual correlation| across the two groups.
    pub max_cross_abs: f64,
}

impl CorrelationReport {
    /// Whether the burst-correlation contract holds: instances of one
    /// service visibly co-burst, instances of different services don't.
    pub fn passes(&self) -> bool {
        self.mean_within >= WITHIN_CORRELATION_MIN && self.mean_cross_abs <= CROSS_CORRELATION_MAX
    }
}

/// Computes the [`CorrelationReport`] for traces of one service
/// (`group_a`) against traces of another (`group_b`), correlating the
/// residuals each series leaves after a centered moving average of
/// half-width `half_width`.
///
/// # Panics
///
/// Panics if either group has fewer than two traces.
pub fn burst_correlation_report(
    group_a: &[Vec<f64>],
    group_b: &[Vec<f64>],
    half_width: usize,
) -> CorrelationReport {
    assert!(
        group_a.len() >= 2 && group_b.len() >= 2,
        "need 2+ traces per group"
    );
    let mut within = Vec::new();
    for i in 0..group_a.len() {
        for j in (i + 1)..group_a.len() {
            within.push(residual_correlation(&group_a[i], &group_a[j], half_width));
        }
    }
    let mut cross = Vec::new();
    for a in group_a {
        for b in group_b {
            cross.push(residual_correlation(a, b, half_width).abs());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    CorrelationReport {
        mean_within: mean(&within),
        min_within: within.iter().copied().fold(f64::INFINITY, f64::min),
        mean_cross_abs: mean(&cross),
        max_cross_abs: cross.iter().copied().fold(0.0, f64::max),
    }
}

/// Pearson correlation of two equal-length series after subtracting a
/// centered moving average of half-width `half_width` samples from each.
///
/// The moving average removes the slow diurnal component both series
/// share, so what remains is burst-scale structure: within-service pairs
/// stay visibly correlated (shared burst clock) while cross-service pairs
/// drop to ~0. Returns 0 for degenerate inputs.
fn residual_correlation(a: &[f64], b: &[f64], half_width: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "series must be equal length");
    let ra = residual(a, half_width);
    let rb = residual(b, half_width);
    pearson(&ra, &rb)
}

fn residual(x: &[f64], half_width: usize) -> Vec<f64> {
    let n = x.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half_width);
            let hi = (i + half_width + 1).min(n);
            let local = x[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            x[i] - local
        })
        .collect()
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// Precomputed per-sample service state for arena-speed LLM synthesis.
///
/// The demand envelope and the shared burst clock depend only on the
/// sample time and the service, so they are computed once per basis; each
/// row then costs a few integer mixes per sample (no trig, no sequential
/// RNG), matching the `SynthBasis`/`RowWave` fast path of the scale tier.
/// Rows alternate between the two LLM services.
#[derive(Debug, Clone)]
pub struct LlmBasis {
    samples: usize,
    step_minutes: u32,
    /// `[service][sample]` demand envelope.
    demand: [Vec<f64>; 2],
    /// `[service][sample]` burst gain if the burst is active, else 1.0.
    burst_gain: [Vec<f64>; 2],
    /// `[sample]` burst window index.
    window: Vec<u64>,
}

impl LlmBasis {
    /// The two services rows alternate between.
    pub const SERVICES: [ServiceClass; 2] = [ServiceClass::LlmChat, ServiceClass::LlmCode];

    /// Precomputes the shared state for `samples` samples at
    /// `step_minutes` spacing, starting at absolute minute 0.
    pub fn new(samples: usize, step_minutes: u32) -> Self {
        let mut demand = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
        let mut burst_gain = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
        let mut window = Vec::with_capacity(samples);
        for i in 0..samples {
            let minute = i as f64 * step_minutes as f64;
            window.push(window_of(minute));
            for (s, service) in Self::SERVICES.iter().enumerate() {
                let shifted = minute + service.phase_offset_minutes();
                let d = demand_envelope(shifted);
                let burst = service_burst(service_salt(*service), minute, d);
                demand[s].push(d);
                burst_gain[s].push(if burst.active { burst.gain } else { 1.0 });
            }
        }
        Self {
            samples,
            step_minutes,
            demand,
            burst_gain,
            window,
        }
    }

    /// Number of samples per row.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Fills `out` with row `row`'s power samples (watts), noise-free.
    ///
    /// Per-row heterogeneity (amplitude/base scales, alternation phase) is
    /// hashed from `(seed, row)`; sample `i` depends only on `(seed, row,
    /// i)`, so prefixes are extension-stable.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the basis.
    pub fn fill_row(&self, seed: u64, row: u64, out: &mut [f64]) {
        assert!(out.len() <= self.samples, "basis too small for row");
        let svc = (row & 1) as usize;
        let service = Self::SERVICES[svc];
        let row_seed = stream_key(&[seed, SALT_ROW, row]);
        let amplitude = 0.7 + 0.6 * unit(mix64(row_seed ^ 1));
        let base_scale = 0.85 + 0.3 * unit(mix64(row_seed ^ 2));
        let base = service.base_watts() * base_scale;
        let dynamic = (service.peak_watts() - service.base_watts()) * amplitude;
        let alt = alternation(row_seed);

        for (i, slot) in out.iter_mut().enumerate() {
            let minute = i as f64 * self.step_minutes as f64;
            let burst = BurstState {
                active: self.burst_gain[svc][i] > 1.0,
                gain: self.burst_gain[svc][i],
            };
            debug_assert_eq!(self.window[i], window_of(minute));
            let util = llm_utilization(row_seed, minute, self.demand[svc][i], burst, alt);
            *slot = base + dynamic * util;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_salts_differ_per_service() {
        let chat = service_salt(ServiceClass::LlmChat);
        let code = service_salt(ServiceClass::LlmCode);
        assert_ne!(chat, code);
        assert_eq!(chat, service_salt(ServiceClass::LlmChat));
    }

    #[test]
    fn burst_state_is_constant_within_a_window() {
        let salt = service_salt(ServiceClass::LlmChat);
        let a = service_burst(salt, 60.0, 0.5);
        let b = service_burst(salt, 89.9, 0.5);
        assert_eq!(a, b, "same 30-minute window, same state");
        // Over many windows, bursts do occur and do skip.
        let states: Vec<bool> = (0..200)
            .map(|w| service_burst(salt, w as f64 * BURST_WINDOW_MINUTES, 0.5).active)
            .collect();
        assert!(states.iter().any(|&s| s));
        assert!(states.iter().any(|&s| !s));
    }

    #[test]
    fn utilization_stays_in_unit_interval() {
        for seed in [1u64, 99, 12345] {
            for m in (0..10_080).step_by(13) {
                let u = token_bursty_utilization(ServiceClass::LlmChat, seed, m as f64, m as f64);
                assert!((0.0..=1.0).contains(&u), "util {u} at minute {m}");
            }
        }
    }

    #[test]
    fn residual_correlation_of_identical_series_is_one() {
        let x: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.37).sin() + (i as f64 * 0.011).cos())
            .collect();
        let r = residual_correlation(&x, &x, 10);
        assert!((r - 1.0).abs() < 1e-9, "rho {r}");
    }

    #[test]
    fn basis_fill_matches_row_determinism() {
        let basis = LlmBasis::new(96, 30);
        let mut a = vec![0.0; 96];
        let mut b = vec![0.0; 96];
        basis.fill_row(7, 5, &mut a);
        basis.fill_row(7, 5, &mut b);
        assert_eq!(a, b);
        basis.fill_row(7, 6, &mut b);
        assert_ne!(a, b);
        // Extension stability: a shorter fill is a bit-prefix.
        let mut short = vec![0.0; 40];
        basis.fill_row(7, 5, &mut short);
        assert_eq!(&a[..40], &short[..]);
    }
}
