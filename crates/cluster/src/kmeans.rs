//! Lloyd's k-means with k-means++ seeding.
//!
//! SmoothOperator embeds every service instance as a point in the
//! `|B|`-dimensional asynchrony-score space and k-means-clusters them to
//! identify groups with synchronous power behaviour (§3.5).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use so_parallel::{par_chunk_map, par_map};

use crate::distance::euclidean_sq;
use crate::error::{validate_points, ClusterError};

/// Minimum points per worker for the assignment step (one `nearest` scan
/// per point).
const ASSIGN_GRAIN: usize = 64;

/// Canonical chunk length for parallel sum reductions (centroid update,
/// inertia). The chunk layout — and therefore the floating-point
/// association — depends only on this constant, never on the thread count,
/// so serial and parallel runs produce bit-identical results.
pub(crate) const REDUCE_CHUNK: usize = 256;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 100,
            tol: 1e-6,
            seed: 0xC1_05_7E_12,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster label of each input point, in `0..k`.
    pub labels: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Members of cluster `c`, ascending.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }
}

/// Runs k-means++-seeded Lloyd iterations.
///
/// Empty clusters are re-seeded to the point farthest from its centroid, so
/// every returned cluster is non-empty.
///
/// Generic over the point representation: owned rows (`Vec<f64>`) and
/// borrowed rows (`&[f64]`, e.g. arena-backed score vectors) run the same
/// arithmetic on the same values, so the clustering is identical — callers
/// can hand over borrowed slices and skip per-point clones entirely.
///
/// # Errors
///
/// Returns [`ClusterError::ZeroClusters`] for `k == 0`,
/// [`ClusterError::TooFewPoints`] when there are fewer points than
/// clusters, and validation errors for malformed point sets.
pub fn kmeans<P: AsRef<[f64]> + Sync>(
    points: &[P],
    config: KMeansConfig,
) -> Result<Clustering, ClusterError> {
    validate_points(points)?;
    if config.k == 0 {
        return Err(ClusterError::ZeroClusters);
    }
    if points.len() < config.k {
        return Err(ClusterError::TooFewPoints {
            points: points.len(),
            clusters: config.k,
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = plus_plus_init(points, config.k, &mut rng);
    let mut labels = vec![0usize; points.len()];
    let mut iterations = 0;
    let mut final_movement = f64::INFINITY;
    let mut converged = false;

    for iter in 0..config.max_iters.max(1) {
        iterations = iter + 1;
        // Assignment step: each label is a pure function of one point, so
        // the parallel map is trivially identical to the serial loop.
        labels = par_map(points, ASSIGN_GRAIN, |_, p| {
            nearest(p.as_ref(), &centroids).0
        });
        // Update step: canonically chunked partial sums folded in chunk
        // order (see `REDUCE_CHUNK`).
        let (sums, counts) = cluster_sums(points, &labels, config.k, centroids[0].len());
        let mut movement = 0.0;
        for c in 0..config.k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the point farthest from its
                // current centroid.
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        let a = a.as_ref();
                        let b = b.as_ref();
                        euclidean_sq(a, &centroids[labels_centroid(&centroids, a)])
                            .partial_cmp(&euclidean_sq(
                                b,
                                &centroids[labels_centroid(&centroids, b)],
                            ))
                            .expect("distances are finite")
                    })
                    .map(|(i, _)| i)
                    .expect("points are non-empty");
                movement += euclidean_sq(&centroids[c], points[far].as_ref()).sqrt();
                centroids[c] = points[far].as_ref().to_vec();
                continue;
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += euclidean_sq(&centroids[c], &new).sqrt();
            centroids[c] = new;
        }
        final_movement = movement;
        if movement <= config.tol {
            converged = true;
            break;
        }
    }

    // Final assignment.
    labels = par_map(points, ASSIGN_GRAIN, |_, p| {
        nearest(p.as_ref(), &centroids).0
    });

    // Hard non-empty guarantee: every empty cluster adopts the farthest
    // outlier of a cluster that can spare one (possible because n >= k).
    loop {
        let mut sizes = vec![0usize; config.k];
        for &l in &labels {
            sizes[l] += 1;
        }
        let Some(empty) = sizes.iter().position(|&s| s == 0) else {
            break;
        };
        let outlier = points
            .iter()
            .enumerate()
            .filter(|(i, _)| sizes[labels[*i]] >= 2)
            .max_by(|(i, a), (j, b)| {
                euclidean_sq(a.as_ref(), &centroids[labels[*i]])
                    .partial_cmp(&euclidean_sq(b.as_ref(), &centroids[labels[*j]]))
                    .expect("distances are finite")
            })
            .map(|(i, _)| i)
            .expect("some cluster has at least two members when another is empty");
        labels[outlier] = empty;
        centroids[empty] = points[outlier].as_ref().to_vec();
    }

    let inertia = inertia_of(points, &labels, &centroids);
    // Commutative metrics only: k-means runs concurrently inside the
    // placement recursion, and counters/histograms stay thread-count
    // independent where a gauge or span would not.
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_kmeans_runs_total", &[], 1);
        so_telemetry::counter_add("so_kmeans_points_total", &[], points.len() as u64);
        if converged {
            so_telemetry::counter_add("so_kmeans_converged_total", &[], 1);
        }
        so_telemetry::observe("so_kmeans_iterations", &[], iterations as f64);
        so_telemetry::observe("so_kmeans_final_movement", &[], final_movement);
    }
    Ok(Clustering {
        labels,
        centroids,
        inertia,
        iterations,
    })
}

/// Per-cluster coordinate sums and member counts, reduced over canonical
/// [`REDUCE_CHUNK`]-sized chunks so the result does not depend on the
/// thread count.
pub(crate) fn cluster_sums<P: AsRef<[f64]> + Sync>(
    points: &[P],
    labels: &[usize],
    k: usize,
    dim: usize,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let partials = par_chunk_map(points, REDUCE_CHUNK, |chunk_idx, chunk| {
        let base = chunk_idx * REDUCE_CHUNK;
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (offset, p) in chunk.iter().enumerate() {
            let l = labels[base + offset];
            counts[l] += 1;
            for (s, v) in sums[l].iter_mut().zip(p.as_ref()) {
                *s += v;
            }
        }
        (sums, counts)
    });
    let mut sums = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (part_sums, part_counts) in partials {
        for (acc, part) in sums.iter_mut().zip(&part_sums) {
            for (s, v) in acc.iter_mut().zip(part) {
                *s += v;
            }
        }
        for (acc, part) in counts.iter_mut().zip(&part_counts) {
            *acc += part;
        }
    }
    (sums, counts)
}

/// Sum of squared point-to-centroid distances, reduced over canonical
/// chunks like [`cluster_sums`].
pub(crate) fn inertia_of<P: AsRef<[f64]> + Sync>(
    points: &[P],
    labels: &[usize],
    centroids: &[Vec<f64>],
) -> f64 {
    par_chunk_map(points, REDUCE_CHUNK, |chunk_idx, chunk| {
        let base = chunk_idx * REDUCE_CHUNK;
        chunk
            .iter()
            .enumerate()
            .map(|(offset, p)| euclidean_sq(p.as_ref(), &centroids[labels[base + offset]]))
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

fn labels_centroid(centroids: &[Vec<f64>], p: &[f64]) -> usize {
    nearest(p, centroids).0
}

/// Index and squared distance of the nearest centroid.
pub(crate) fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::MAX);
    for (c, centroid) in centroids.iter().enumerate() {
        let d2 = euclidean_sq(p, centroid);
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

/// k-means++ seeding: first centroid uniform, then proportional to squared
/// distance from the nearest chosen centroid.
fn plus_plus_init<P: AsRef<[f64]> + Sync>(
    points: &[P],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].as_ref().to_vec());
    let mut dist2: Vec<f64> = points
        .iter()
        .map(|p| euclidean_sq(p.as_ref(), &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[next].as_ref().to_vec());
        let latest = centroids.last().expect("just pushed");
        dist2 = par_map(points, ASSIGN_GRAIN * 4, |i, p| {
            dist2[i].min(euclidean_sq(p.as_ref(), latest))
        });
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.01;
            pts.push(vec![0.0 + jitter, 0.0]);
            pts.push(vec![10.0 + jitter, 10.0]);
            pts.push(vec![-10.0 - jitter, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_well_separated_blobs() {
        let pts = blobs();
        let result = kmeans(&pts, KMeansConfig::new(3)).unwrap();
        assert_eq!(result.k(), 3);
        // All points of one blob share a label.
        for chunk_start in 0..3 {
            let labels: Vec<usize> = (0..20)
                .map(|i| result.labels[i * 3 + chunk_start])
                .collect();
            assert!(labels.iter().all(|&l| l == labels[0]));
        }
        // Three distinct labels.
        let mut distinct = result.labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        assert!(result.inertia < 1.0);
    }

    #[test]
    fn k_equal_n_gives_zero_inertia() {
        let pts = vec![vec![0.0], vec![1.0], vec![5.0]];
        let result = kmeans(&pts, KMeansConfig::new(3)).unwrap();
        assert!(result.inertia < 1e-12);
        assert_eq!(result.sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn clusters_are_never_empty() {
        // Many duplicate points force potential empty clusters.
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![1.0, 1.0])
            .chain((0..2).map(|_| vec![5.0, 5.0]))
            .collect();
        let result = kmeans(&pts, KMeansConfig::new(4)).unwrap();
        assert!(result.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(matches!(
            kmeans::<Vec<f64>>(&[], KMeansConfig::new(2)),
            Err(ClusterError::EmptyInput)
        ));
        let pts = vec![vec![1.0]];
        assert!(matches!(
            kmeans(&pts, KMeansConfig::new(0)),
            Err(ClusterError::ZeroClusters)
        ));
        assert!(matches!(
            kmeans(&pts, KMeansConfig::new(2)),
            Err(ClusterError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blobs();
        let a = kmeans(&pts, KMeansConfig::new(3)).unwrap();
        let b = kmeans(&pts, KMeansConfig::new(3)).unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn members_partition_points() {
        let pts = blobs();
        let result = kmeans(&pts, KMeansConfig::new(3)).unwrap();
        let mut all: Vec<usize> = (0..result.k()).flat_map(|c| result.members(c)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..pts.len()).collect::<Vec<_>>());
    }
}
