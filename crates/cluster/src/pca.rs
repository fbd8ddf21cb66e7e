//! Principal component analysis via power iteration with deflation.
//!
//! Used by the embedding ablation (`so-bench`) and as a cheap 2-D
//! projection alternative to t-SNE.

use crate::error::{validate_points, ClusterError};

/// A fitted PCA projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f64>,
    /// Row-major principal axes, unit length, most significant first.
    components: Vec<Vec<f64>>,
    /// Variance explained by each component.
    explained: Vec<f64>,
}

impl Pca {
    /// Fits the top `n_components` principal components.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ZeroClusters`] for zero components,
    /// validation errors for malformed points, and
    /// [`ClusterError::TooFewPoints`] when fewer points than components are
    /// supplied.
    pub fn fit(points: &[Vec<f64>], n_components: usize) -> Result<Self, ClusterError> {
        let dim = validate_points(points)?;
        if n_components == 0 {
            return Err(ClusterError::ZeroClusters);
        }
        if points.len() < n_components {
            return Err(ClusterError::TooFewPoints {
                points: points.len(),
                clusters: n_components,
            });
        }
        let n_components = n_components.min(dim);
        let n = points.len() as f64;

        let mut mean = vec![0.0; dim];
        for p in points {
            for (m, v) in mean.iter_mut().zip(p) {
                *m += v / n;
            }
        }

        // Covariance matrix (dim is small in this workspace: |B| <= 12).
        let mut cov = vec![vec![0.0; dim]; dim];
        for p in points {
            let centered: Vec<f64> = p.iter().zip(&mean).map(|(v, m)| v - m).collect();
            for i in 0..dim {
                for j in 0..dim {
                    cov[i][j] += centered[i] * centered[j] / n;
                }
            }
        }

        let mut components = Vec::with_capacity(n_components);
        let mut explained = Vec::with_capacity(n_components);
        let mut work = cov;
        for c in 0..n_components {
            let (axis, eigenvalue) = power_iteration(&work, 500, 1e-12, c as u64);
            // Deflate: work -= eigenvalue * axis axisᵀ.
            for i in 0..dim {
                for j in 0..dim {
                    work[i][j] -= eigenvalue * axis[i] * axis[j];
                }
            }
            components.push(axis);
            explained.push(eigenvalue.max(0.0));
        }
        Ok(Self {
            mean,
            components,
            explained,
        })
    }

    /// Variance explained by each component, most significant first.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained
    }

    /// Projects points into the component space.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::DimensionMismatch`] when a point's dimension
    /// differs from the fitted dimension.
    pub fn transform(&self, points: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, ClusterError> {
        let dim = self.mean.len();
        points
            .iter()
            .enumerate()
            .map(|(index, p)| {
                if p.len() != dim {
                    return Err(ClusterError::DimensionMismatch {
                        expected: dim,
                        found: p.len(),
                        index,
                    });
                }
                Ok(self
                    .components
                    .iter()
                    .map(|axis| {
                        p.iter()
                            .zip(&self.mean)
                            .zip(axis)
                            .map(|((v, m), a)| (v - m) * a)
                            .sum()
                    })
                    .collect())
            })
            .collect()
    }
}

/// Dominant eigenvector/eigenvalue of a symmetric matrix by power
/// iteration. The `salt` varies the deterministic start vector between
/// deflation rounds.
fn power_iteration(matrix: &[Vec<f64>], iters: usize, tol: f64, salt: u64) -> (Vec<f64>, f64) {
    let dim = matrix.len();
    // Deterministic, non-degenerate start vector.
    let mut v: Vec<f64> = (0..dim)
        .map(|i| 1.0 + ((i as u64 * 2_654_435_761 + salt * 97) % 1000) as f64 / 1000.0)
        .collect();
    normalize(&mut v);
    let mut eigenvalue = 0.0;
    for _ in 0..iters {
        let mut next = vec![0.0; dim];
        for i in 0..dim {
            for j in 0..dim {
                next[i] += matrix[i][j] * v[j];
            }
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            // Matrix annihilated the vector; the remaining spectrum is ~0.
            return (v, 0.0);
        }
        for x in next.iter_mut() {
            *x /= norm;
        }
        let delta: f64 = next.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
        v = next;
        eigenvalue = norm;
        if delta < tol {
            break;
        }
    }
    (v, eigenvalue)
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_direction() {
        // Points spread along the (1, 1) diagonal with small noise in the
        // orthogonal direction.
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                let noise = ((i * 37) % 11) as f64 * 0.01;
                vec![t + noise, t - noise]
            })
            .collect();
        let pca = Pca::fit(&pts, 2).unwrap();
        let axis = &pca.transform(&[vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        // The diagonal direction projects to a large first coordinate.
        let along = (axis[0][0] - axis[1][0]).abs();
        let across = (axis[0][1] - axis[1][1]).abs();
        assert!(along > 10.0 * across, "along {along}, across {across}");
        assert!(pca.explained_variance()[0] > pca.explained_variance()[1]);
    }

    #[test]
    fn transform_centers_data() {
        let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let pca = Pca::fit(&pts, 1).unwrap();
        let projected = pca.transform(&pts).unwrap();
        // Projections of a centered pair are symmetric around zero.
        assert!((projected[0][0] + projected[1][0]).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(Pca::fit(&[], 1).is_err());
        let pts = vec![vec![1.0, 2.0]];
        assert!(Pca::fit(&pts, 0).is_err());
        assert!(Pca::fit(&pts, 2).is_err());
        let pca = Pca::fit(&[vec![1.0], vec![2.0]], 1).unwrap();
        assert!(pca.transform(&[vec![1.0, 2.0]]).is_err());
    }
}
