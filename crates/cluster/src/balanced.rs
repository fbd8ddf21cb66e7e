//! Equal-size (balanced) k-means.
//!
//! §3.5 requires clusters of identical size: the placement step deals
//! `|c_j| / q` members of every cluster to each of `q` children, which only
//! comes out even when clusters are balanced. Plain k-means gives no size
//! guarantee, so this module re-assigns points to equalize sizes at the
//! least distance penalty (documented design choice in `DESIGN.md`).

use so_parallel::par_map;

use crate::distance::euclidean_sq;
use crate::error::{validate_points, ClusterError};
use crate::kmeans::{cluster_sums, inertia_of, kmeans, Clustering, KMeansConfig};

/// Result of a balanced k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancedClustering {
    /// The underlying clustering with balanced labels.
    pub clustering: Clustering,
    /// Target size of each cluster (sizes differ by at most one).
    pub target_sizes: Vec<usize>,
}

impl BalancedClustering {
    /// Cluster label of each point.
    pub fn labels(&self) -> &[usize] {
        &self.clustering.labels
    }

    /// Members of cluster `c`, ascending.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.clustering.members(c)
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.clustering.k()
    }
}

/// Runs k-means, then enforces equal cluster sizes (±1 when `k` does not
/// divide the point count).
///
/// Re-assignment is greedy by confidence: points whose nearest-vs-assigned
/// margin is largest claim their preferred cluster first; once a cluster is
/// full, later points take their nearest cluster with remaining capacity.
///
/// Generic over the point representation like [`kmeans`]: borrowed rows
/// (`&[f64]`) cluster identically to owned `Vec<f64>` rows, without
/// per-point clones.
///
/// # Errors
///
/// Same as [`kmeans`].
pub fn balanced_kmeans<P: AsRef<[f64]> + Sync>(
    points: &[P],
    config: KMeansConfig,
) -> Result<BalancedClustering, ClusterError> {
    validate_points(points)?;
    let base = kmeans(points, config)?;
    let n = points.len();
    let k = config.k;

    // Target sizes: n/k each, the first (n mod k) clusters take one extra.
    let mut target_sizes = vec![n / k; k];
    for size in target_sizes.iter_mut().take(n % k) {
        *size += 1;
    }

    // Distance of every point to every centroid. Row-parallel: each row is
    // a pure function of one point, identical to the serial loop.
    let dist2: Vec<Vec<f64>> = par_map(points, 64, |_, p| {
        base.centroids
            .iter()
            .map(|c| euclidean_sq(p.as_ref(), c))
            .collect()
    });

    // Process points most-confident-first: large (second_best − best)
    // margin means the point really belongs to its best cluster.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        margin(&dist2[b])
            .partial_cmp(&margin(&dist2[a]))
            .expect("distances are finite")
    });

    let mut remaining = target_sizes.clone();
    let mut labels = vec![usize::MAX; n];
    for &i in &order {
        // Nearest centroid with remaining capacity.
        let mut best: Option<(usize, f64)> = None;
        for c in 0..k {
            if remaining[c] == 0 {
                continue;
            }
            let d = dist2[i][c];
            if best.map_or(true, |(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        let (c, _) = best.expect("capacities sum to n");
        labels[i] = c;
        remaining[c] -= 1;
    }

    // Recompute centroids and inertia for the balanced labels, using the
    // same canonically chunked reductions as the k-means update step.
    let dim = points[0].as_ref().len();
    let (mut centroids, counts) = cluster_sums(points, &labels, k, dim);
    for (centroid, &count) in centroids.iter_mut().zip(&counts) {
        if count > 0 {
            for v in centroid.iter_mut() {
                *v /= count as f64;
            }
        }
    }
    let inertia = inertia_of(points, &labels, &centroids);

    Ok(BalancedClustering {
        clustering: Clustering {
            labels,
            centroids,
            inertia,
            iterations: base.iterations,
        },
        target_sizes,
    })
}

fn margin(dists: &[f64]) -> f64 {
    let mut best = f64::MAX;
    let mut second = f64::MAX;
    for &d in dists {
        if d < best {
            second = best;
            best = d;
        } else if d < second {
            second = d;
        }
    }
    if second == f64::MAX {
        0.0
    } else {
        second - best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_balanced_when_divisible() {
        let pts: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![(i % 3) as f64 * 10.0 + (i as f64) * 0.01])
            .collect();
        let result = balanced_kmeans(&pts, KMeansConfig::new(3)).unwrap();
        let sizes = result.clustering.sizes();
        assert_eq!(sizes, vec![8, 8, 8]);
    }

    #[test]
    fn sizes_differ_by_at_most_one_otherwise() {
        let pts: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64]).collect();
        let result = balanced_kmeans(&pts, KMeansConfig::new(4)).unwrap();
        let sizes = result.clustering.sizes();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 25);
    }

    #[test]
    fn balanced_blobs_keep_their_identity() {
        // Three equally-sized well-separated blobs: balancing should not
        // move anything.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + i as f64 * 0.01]);
        }
        for i in 0..10 {
            pts.push(vec![100.0 + i as f64 * 0.01]);
        }
        for i in 0..10 {
            pts.push(vec![200.0 + i as f64 * 0.01]);
        }
        let result = balanced_kmeans(&pts, KMeansConfig::new(3)).unwrap();
        for blob in 0..3 {
            let labels: Vec<usize> = (0..10).map(|i| result.labels()[blob * 10 + i]).collect();
            assert!(
                labels.iter().all(|&l| l == labels[0]),
                "blob {blob} split: {labels:?}"
            );
        }
    }

    #[test]
    fn skewed_blobs_are_forcibly_balanced() {
        // 27 points near 0, 3 near 100, k=2: balancing must split the big
        // blob even though k-means would not.
        let mut pts: Vec<Vec<f64>> = (0..27).map(|i| vec![i as f64 * 0.01]).collect();
        pts.extend((0..3).map(|i| vec![100.0 + i as f64 * 0.01]));
        let result = balanced_kmeans(&pts, KMeansConfig::new(2)).unwrap();
        let sizes = result.clustering.sizes();
        assert_eq!(sizes, vec![15, 15]);
    }

    #[test]
    fn propagates_kmeans_errors() {
        assert!(balanced_kmeans::<Vec<f64>>(&[], KMeansConfig::new(2)).is_err());
    }

    #[test]
    fn borrowed_rows_cluster_identically_to_owned_rows() {
        let owned: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let borrowed: Vec<&[f64]> = owned.iter().map(|p| p.as_slice()).collect();
        let a = balanced_kmeans(&owned, KMeansConfig::new(4)).unwrap();
        let b = balanced_kmeans(&borrowed, KMeansConfig::new(4)).unwrap();
        assert_eq!(a, b);
    }
}
