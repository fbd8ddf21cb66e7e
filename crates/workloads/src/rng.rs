//! Deterministic randomness helpers for trace synthesis.
//!
//! # Stream-key scheme
//!
//! Every noise stream in this crate is addressed by a *stream key*: a
//! 64-bit value derived from the path that identifies the stream, e.g.
//! `(instance seed, week)` or `(salt, instance seed, burst window)`.
//! Two rules keep streams from colliding:
//!
//! 1. **Never compose path components arithmetically.** A linear key such
//!    as `service * K + instance` collides as soon as instance counts
//!    differ across services: `(service=1, instance=K + 5)` and
//!    `(service=2, instance=5)` map to the same key, so two *different*
//!    instances silently share every noise sample. The regression test
//!    `linear_composite_keys_collide` demonstrates the failure.
//! 2. **Mix one level at a time.** [`stream_key`] folds each path
//!    component through the SplitMix64 finalizer ([`mix64`]) before the
//!    next component enters, so the mapping is non-linear per level:
//!    keys differ across component order (`[a, b]` vs `[b, a]`) and
//!    across arity (`[a]` vs `[a, 0]`).
//!
//! [`stream_rng`] is the two-component special case, kept bit-compatible
//! with the historical `(seed, stream)` derivation so existing traces are
//! unchanged. New multi-level streams (e.g. the LLM burst streams, keyed
//! by `(salt, seed, window)`) must go through [`stream_key`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The SplitMix64 increment (golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The starting state of [`stream_key`] folds (π fractional bits).
const KEY_INIT: u64 = 0x243F_6A88_85A3_08D3;

/// A standard normal sample via the Box–Muller transform (avoids a
/// dependency on `rand_distr`, which is outside the approved crate set).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A normal sample with the given mean and standard deviation.
pub fn normal(rng: &mut impl Rng, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// The SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in `[0, 1)` using its upper 53 bits.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Collapses a multi-level stream path into one 64-bit key, mixing each
/// component through [`mix64`] before the next enters (see the module
/// docs for why arithmetic composition is forbidden).
#[inline]
pub fn stream_key(path: &[u64]) -> u64 {
    path.iter().fold(KEY_INIT, |key, &part| {
        mix64(key ^ part.wrapping_mul(GOLDEN))
    })
}

/// A deterministic RNG derived from a base seed and a stream id, so that
/// e.g. (instance, week) pairs get independent but reproducible streams.
///
/// Bit-compatible with the original SplitMix64-style derivation; for
/// paths deeper than two components use [`stream_key`] +
/// [`StdRng::seed_from_u64`] instead of composing ids arithmetically.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ stream.wrapping_mul(GOLDEN)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = stream_rng(7, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a1: f64 = stream_rng(1, 2).gen();
        let a2: f64 = stream_rng(1, 2).gen();
        let b: f64 = stream_rng(1, 3).gen();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    /// The failure mode the stream-key scheme exists to prevent: a linear
    /// composite id collides across (service, instance) pairs as soon as
    /// instance counts differ across services.
    #[test]
    fn linear_composite_keys_collide() {
        const K: u64 = 1_000; // "max instances per service" assumption
        let linear = |service: u64, instance: u64| service * K + instance;
        // Service 1 outgrew the assumed bound: its instance 1_005 now
        // aliases service 2's instance 5 — identical noise streams.
        assert_eq!(linear(1, K + 5), linear(2, 5));
        let a: f64 = stream_rng(7, linear(1, K + 5)).gen();
        let b: f64 = stream_rng(7, linear(2, 5)).gen();
        assert_eq!(a, b, "linear keys alias");

        // The hierarchical derivation keeps the two streams apart.
        let a: f64 = StdRng::seed_from_u64(stream_key(&[7, 1, K + 5])).gen();
        let b: f64 = StdRng::seed_from_u64(stream_key(&[7, 2, 5])).gen();
        assert_ne!(a, b, "stream_key must not alias");
    }

    #[test]
    fn stream_key_is_order_and_arity_sensitive() {
        assert_ne!(stream_key(&[1, 2]), stream_key(&[2, 1]));
        assert_ne!(stream_key(&[1]), stream_key(&[1, 0]));
        assert_ne!(stream_key(&[0]), stream_key(&[0, 0]));
        assert_eq!(stream_key(&[3, 4, 5]), stream_key(&[3, 4, 5]));
    }

    /// `stream_rng` must remain bit-compatible with the historical
    /// `(seed ^ stream·golden) → SplitMix64-finalizer` derivation: every
    /// committed trace artifact depends on it.
    #[test]
    fn stream_rng_matches_the_pinned_derivation() {
        for (seed, stream) in [(0u64, 0u64), (1, 2), (0xDEAD_BEEF, 42)] {
            let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let want: f64 = StdRng::seed_from_u64(z).gen();
            let got: f64 = stream_rng(seed, stream).gen();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn unit_is_in_half_open_range() {
        for h in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let u = unit(mix64(h));
            assert!((0.0..1.0).contains(&u), "unit({h}) = {u}");
        }
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
    }
}
