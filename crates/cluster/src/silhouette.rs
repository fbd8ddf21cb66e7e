//! Silhouette score: how well-separated a clustering is.
//!
//! For point `i` with mean intra-cluster distance `a(i)` and smallest mean
//! distance to another cluster `b(i)`, the silhouette is
//! `(b(i) − a(i)) / max(a(i), b(i))` — 1.0 for perfectly separated
//! clusters, ~0 for overlapping ones, negative for misassigned points.
//! Used by the Figure 8 bench to quantify cluster quality.

use crate::distance::euclidean;
use crate::error::{validate_points, ClusterError};

/// Mean silhouette score of a labeled point set.
///
/// Singleton-cluster points contribute a silhouette of 0 by convention.
///
/// # Errors
///
/// Returns validation errors for malformed point sets,
/// [`ClusterError::DimensionMismatch`] when labels and points disagree in
/// length, and [`ClusterError::ZeroClusters`] when fewer than two clusters
/// are present.
pub fn silhouette_score(points: &[Vec<f64>], labels: &[usize]) -> Result<f64, ClusterError> {
    validate_points(points)?;
    if labels.len() != points.len() {
        return Err(ClusterError::DimensionMismatch {
            expected: points.len(),
            found: labels.len(),
            index: 0,
        });
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    if sizes.iter().filter(|&&s| s > 0).count() < 2 {
        return Err(ClusterError::ZeroClusters);
    }

    let n = points.len();
    let mut total = 0.0;
    for i in 0..n {
        if sizes[labels[i]] <= 1 {
            continue; // silhouette 0 for singletons
        }
        // Mean distance to every cluster.
        let mut dist_sum = vec![0.0f64; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            dist_sum[labels[j]] += euclidean(&points[i], &points[j]);
        }
        let own = labels[i];
        let a = dist_sum[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| dist_sum[c] / sizes[c] as f64)
            .fold(f64::MAX, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    Ok(total / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separated_blobs_score_high() {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            points.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(0);
            points.push(vec![100.0 + i as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let s = silhouette_score(&points, &labels).unwrap();
        assert!(s > 0.95, "silhouette {s}");
    }

    #[test]
    fn shuffled_labels_score_low() {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            points.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(i % 2); // labels ignore the actual blob structure
            points.push(vec![100.0 + i as f64 * 0.01, 0.0]);
            labels.push((i + 1) % 2);
        }
        let s = silhouette_score(&points, &labels).unwrap();
        assert!(s < 0.1, "silhouette {s}");
    }

    #[test]
    fn misassigned_point_is_negative() {
        // One point of blob A labeled as blob B.
        let points = vec![
            vec![0.0],
            vec![0.1],
            vec![0.2], // labeled with the far blob
            vec![100.0],
            vec![100.1],
        ];
        let labels = vec![0, 0, 1, 1, 1];
        let s = silhouette_score(&points, &labels).unwrap();
        // The misassigned point drags the mean below the separated ideal.
        assert!(s < 0.7, "silhouette {s}");
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(silhouette_score(&[], &[]).is_err());
        let pts = vec![vec![0.0], vec![1.0]];
        assert!(silhouette_score(&pts, &[0]).is_err());
        assert!(silhouette_score(&pts, &[0, 0]).is_err());
    }
}
