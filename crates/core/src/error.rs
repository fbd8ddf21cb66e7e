//! Error type for the SmoothOperator core.

use std::error::Error;
use std::fmt;

/// Error produced by scoring, embedding, placement, or remapping.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A trace-level operation failed.
    Trace(so_powertrace::TraceError),
    /// A power-tree operation failed.
    Tree(so_powertree::TreeError),
    /// A clustering operation failed.
    Cluster(so_cluster::ClusterError),
    /// The fleet holds more instances than the topology can host.
    CapacityExceeded {
        /// Instances to place.
        needed: usize,
        /// Server capacity of the topology.
        capacity: usize,
    },
    /// An empty set of traces was scored.
    EmptySet,
    /// No services were available to extract S-traces from.
    NoServices,
    /// An anti-affinity group cannot be satisfied on this topology.
    ConstraintUnsatisfiable {
        /// Size of the offending group (or the offending index when a
        /// member is out of range).
        group_size: usize,
        /// Racks available (or the fleet size for out-of-range members).
        racks: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Trace(e) => write!(f, "trace operation failed: {e}"),
            CoreError::Tree(e) => write!(f, "power-tree operation failed: {e}"),
            CoreError::Cluster(e) => write!(f, "clustering failed: {e}"),
            CoreError::CapacityExceeded { needed, capacity } => write!(
                f,
                "fleet of {needed} instances exceeds topology capacity of {capacity} servers"
            ),
            CoreError::EmptySet => write!(f, "cannot score an empty set of traces"),
            CoreError::NoServices => write!(f, "no services available for S-trace extraction"),
            CoreError::ConstraintUnsatisfiable { group_size, racks } => write!(
                f,
                "anti-affinity group of {group_size} cannot fit {racks} racks/instances"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Trace(e) => Some(e),
            CoreError::Tree(e) => Some(e),
            CoreError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<so_powertrace::TraceError> for CoreError {
    fn from(e: so_powertrace::TraceError) -> Self {
        CoreError::Trace(e)
    }
}

impl From<so_powertree::TreeError> for CoreError {
    fn from(e: so_powertree::TreeError) -> Self {
        CoreError::Tree(e)
    }
}

impl From<so_cluster::ClusterError> for CoreError {
    fn from(e: so_cluster::ClusterError) -> Self {
        CoreError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_preserved() {
        use std::error::Error as _;
        let e = CoreError::from(so_powertrace::TraceError::Empty);
        assert!(e.source().is_some());
        let e = CoreError::CapacityExceeded {
            needed: 10,
            capacity: 5,
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("10"));
    }
}
