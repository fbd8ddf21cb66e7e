//! Exact (O(n²)) t-SNE, used to regenerate the paper's Figure 8: the 2-D
//! projection of service instances embedded in asynchrony-score space
//! (van der Maaten & Hinton, 2008).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::distance::euclidean_sq;
use crate::error::{validate_points, ClusterError};

/// Configuration for [`tsne`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsneConfig {
    /// Perplexity: effective number of neighbours (must be below `n`).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iters: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Seed for the initial layout.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 30.0,
            iters: 400,
            learning_rate: 150.0,
            seed: 0x75_4E,
        }
    }
}

/// Embeds points into 2-D with exact t-SNE.
///
/// # Errors
///
/// Returns validation errors for malformed point sets and
/// [`ClusterError::InvalidPerplexity`] when the perplexity is non-positive
/// or at least the point count.
pub fn tsne(points: &[Vec<f64>], config: TsneConfig) -> Result<Vec<[f64; 2]>, ClusterError> {
    validate_points(points)?;
    let n = points.len();
    if n == 1 {
        return Ok(vec![[0.0, 0.0]]);
    }
    if !config.perplexity.is_finite() || config.perplexity <= 0.0 || config.perplexity >= n as f64 {
        return Err(ClusterError::InvalidPerplexity(config.perplexity));
    }

    // Pairwise squared distances.
    let mut d2 = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = euclidean_sq(&points[i], &points[j]);
            d2[i * n + j] = d;
            d2[j * n + i] = d;
        }
    }

    // Conditional probabilities with per-point bandwidth found by binary
    // search on entropy.
    let target_entropy = config.perplexity.ln();
    let mut p = vec![0.0; n * n];
    for i in 0..n {
        let row = &d2[i * n..(i + 1) * n];
        let beta = search_beta(row, i, target_entropy);
        let mut sum = 0.0;
        for j in 0..n {
            if j != i {
                let v = (-beta * row[j]).exp();
                p[i * n + j] = v;
                sum += v;
            }
        }
        if sum > 0.0 {
            for j in 0..n {
                p[i * n + j] /= sum;
            }
        }
    }
    // Symmetrize.
    let mut pij = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            pij[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }

    // Initial layout: small deterministic Gaussian cloud.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut y: Vec<[f64; 2]> = (0..n)
        .map(|_| [1e-2 * crate_normal(&mut rng), 1e-2 * crate_normal(&mut rng)])
        .collect();
    let mut velocity = vec![[0.0f64; 2]; n];
    let mut gains = vec![[1.0f64; 2]; n];

    let exaggeration_iters = (config.iters / 4).max(1);
    for iter in 0..config.iters {
        let exaggeration = if iter < exaggeration_iters { 12.0 } else { 1.0 };
        let momentum = if iter < config.iters / 2 { 0.5 } else { 0.8 };

        // Student-t affinities in the embedding.
        let mut num = vec![0.0; n * n];
        let mut qsum = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i][0] - y[j][0];
                let dy = y[i][1] - y[j][1];
                let v = 1.0 / (1.0 + dx * dx + dy * dy);
                num[i * n + j] = v;
                num[j * n + i] = v;
                qsum += 2.0 * v;
            }
        }
        let qsum = qsum.max(1e-12);

        for i in 0..n {
            let mut grad = [0.0f64; 2];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = (num[i * n + j] / qsum).max(1e-12);
                let mult = (exaggeration * pij[i * n + j] - q) * num[i * n + j];
                grad[0] += 4.0 * mult * (y[i][0] - y[j][0]);
                grad[1] += 4.0 * mult * (y[i][1] - y[j][1]);
            }
            for d in 0..2 {
                // Adaptive gains as in the reference implementation.
                gains[i][d] = if grad[d].signum() != velocity[i][d].signum() {
                    (gains[i][d] + 0.2).min(10.0)
                } else {
                    (gains[i][d] * 0.8).max(0.01)
                };
                velocity[i][d] =
                    momentum * velocity[i][d] - config.learning_rate * gains[i][d] * grad[d];
                // Clamp the per-step displacement: tightly packed inputs
                // can otherwise blow the layout up numerically.
                velocity[i][d] = velocity[i][d].clamp(-5.0, 5.0);
                y[i][d] += velocity[i][d];
            }
        }

        // Re-center to keep the embedding bounded.
        let mut mean = [0.0f64; 2];
        for pt in &y {
            mean[0] += pt[0] / n as f64;
            mean[1] += pt[1] / n as f64;
        }
        for pt in y.iter_mut() {
            pt[0] -= mean[0];
            pt[1] -= mean[1];
        }
    }
    Ok(y)
}

/// Box–Muller standard normal (local copy to keep this crate free of a
/// `rand_distr` dependency).
fn crate_normal(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Binary search for the precision `beta` whose conditional distribution
/// over `row` (excluding `skip`) has the target entropy.
fn search_beta(row: &[f64], skip: usize, target_entropy: f64) -> f64 {
    let mut beta = 1.0;
    let mut beta_min = f64::NEG_INFINITY;
    let mut beta_max = f64::INFINITY;
    for _ in 0..64 {
        let (entropy, _) = row_entropy(row, skip, beta);
        let diff = entropy - target_entropy;
        if diff.abs() < 1e-5 {
            break;
        }
        if diff > 0.0 {
            beta_min = beta;
            beta = if beta_max.is_infinite() {
                beta * 2.0
            } else {
                (beta + beta_max) / 2.0
            };
        } else {
            beta_max = beta;
            beta = if beta_min.is_infinite() {
                beta / 2.0
            } else {
                (beta + beta_min) / 2.0
            };
        }
    }
    beta
}

fn row_entropy(row: &[f64], skip: usize, beta: f64) -> (f64, f64) {
    let mut sum = 0.0;
    let mut weighted = 0.0;
    for (j, &d) in row.iter().enumerate() {
        if j == skip {
            continue;
        }
        let v = (-beta * d).exp();
        sum += v;
        weighted += beta * d * v;
    }
    if sum <= 0.0 {
        return (0.0, 0.0);
    }
    (sum.ln() + weighted / sum, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n_per: usize) -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..n_per {
            pts.push(vec![0.0 + (i % 7) as f64 * 0.05, (i % 5) as f64 * 0.05]);
        }
        for i in 0..n_per {
            pts.push(vec![
                50.0 + (i % 7) as f64 * 0.05,
                50.0 + (i % 5) as f64 * 0.05,
            ]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs(20);
        let config = TsneConfig {
            perplexity: 10.0,
            iters: 250,
            ..TsneConfig::default()
        };
        let y = tsne(&pts, config).unwrap();

        // Mean within-blob distance far below between-blob distance.
        let centroid = |range: std::ops::Range<usize>| {
            let mut c = [0.0f64; 2];
            for i in range.clone() {
                c[0] += y[i][0] / 20.0;
                c[1] += y[i][1] / 20.0;
            }
            c
        };
        let c0 = centroid(0..20);
        let c1 = centroid(20..40);
        let between = ((c0[0] - c1[0]).powi(2) + (c0[1] - c1[1]).powi(2)).sqrt();
        let within: f64 = (0..20)
            .map(|i| ((y[i][0] - c0[0]).powi(2) + (y[i][1] - c0[1]).powi(2)).sqrt())
            .sum::<f64>()
            / 20.0;
        assert!(between > 2.0 * within, "between {between}, within {within}");
    }

    #[test]
    fn output_is_finite_and_centered() {
        let pts = two_blobs(10);
        let y = tsne(
            &pts,
            TsneConfig {
                perplexity: 5.0,
                iters: 100,
                ..TsneConfig::default()
            },
        )
        .unwrap();
        let mut mean = [0.0f64; 2];
        let mut spread = 0.0f64;
        for p in &y {
            assert!(p[0].is_finite() && p[1].is_finite());
            mean[0] += p[0] / y.len() as f64;
            mean[1] += p[1] / y.len() as f64;
            spread = spread.max(p[0].abs()).max(p[1].abs());
        }
        // Centered relative to the embedding's own scale.
        let tol = 1e-9 * (spread + 1.0);
        assert!(
            mean[0].abs() < tol && mean[1].abs() < tol,
            "mean {mean:?}, spread {spread}"
        );
    }

    #[test]
    fn rejects_bad_perplexity() {
        let pts = two_blobs(5);
        let bad = TsneConfig {
            perplexity: 10.0,
            ..TsneConfig::default()
        };
        assert!(matches!(
            tsne(&pts, bad),
            Err(ClusterError::InvalidPerplexity(_))
        ));
        let zero = TsneConfig {
            perplexity: 0.0,
            ..TsneConfig::default()
        };
        assert!(tsne(&pts, zero).is_err());
    }

    #[test]
    fn single_point_maps_to_origin() {
        let y = tsne(&[vec![3.0, 4.0]], TsneConfig::default()).unwrap();
        assert_eq!(y, vec![[0.0, 0.0]]);
    }
}
