//! Clustering substrate for the SmoothOperator reproduction.
//!
//! Provides the algorithms §3.5 relies on, implemented from scratch:
//!
//! * [`kmeans`] — k-means++-seeded Lloyd iterations;
//! * [`balanced_kmeans`] — the equal-cluster-size variant the placement
//!   step needs ("each of these clusters have the same number of
//!   instances");
//! * [`Pca`] — principal component analysis (embedding ablations);
//! * [`tsne`] — exact t-SNE for regenerating Figure 8.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), so_cluster::ClusterError> {
//! use so_cluster::{balanced_kmeans, KMeansConfig};
//!
//! let points: Vec<Vec<f64>> = (0..12)
//!     .map(|i| vec![(i % 3) as f64 * 10.0, (i / 3) as f64 * 0.1])
//!     .collect();
//! let result = balanced_kmeans(&points, KMeansConfig::new(3))?;
//! assert_eq!(result.clustering.sizes(), vec![4, 4, 4]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balanced;
mod distance;
mod error;
mod kmeans;
mod pca;
mod silhouette;
mod tsne;

pub use balanced::{balanced_kmeans, BalancedClustering};
pub use distance::{euclidean, euclidean_sq};
pub use error::ClusterError;
pub use kmeans::{kmeans, Clustering, KMeansConfig};
pub use pca::Pca;
pub use silhouette::silhouette_score;
pub use tsne::{tsne, TsneConfig};
