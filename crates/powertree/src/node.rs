//! Power nodes and their identifiers.

use std::fmt;

use crate::level::Level;

/// Identifier of a node within one [`PowerTopology`].
///
/// Ids are dense indices assigned by the topology builder; they are only
/// meaningful relative to the topology that produced them.
///
/// [`PowerTopology`]: crate::PowerTopology
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The raw index (usable to index topology-sized arrays).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One power delivery device in the tree: a budget, a level, and links to
/// its parent and children.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerNode {
    pub(crate) id: NodeId,
    pub(crate) level: Level,
    pub(crate) budget_watts: f64,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) name: String,
}

impl PowerNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's level in the tree.
    pub fn level(&self) -> Level {
        self.level
    }

    /// The fixed power budget supplied to this node, in watts.
    pub fn budget_watts(&self) -> f64 {
        self.budget_watts
    }

    /// The supplying parent node, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The nodes this node supplies.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Human-readable hierarchical name, e.g. `dc/suite1/msb0/sb1/rpp2/rack3`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this node is a rack (servers attach only to racks).
    pub fn is_rack(&self) -> bool {
        self.level.is_rack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_display() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "#42");
    }

    #[test]
    fn node_ids_order_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
