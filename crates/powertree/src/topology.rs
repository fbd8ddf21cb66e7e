//! Construction and navigation of the power delivery tree.

use crate::error::TreeError;
use crate::level::Level;
use crate::node::{NodeId, PowerNode};

/// Fan-outs and budgets describing a regular power tree.
///
/// The default shape is a small OCP-style datacenter that keeps simulation
/// tractable: 2 suites × 2 MSBs × 2 SBs × 3 RPPs × 4 racks = 96 racks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyShape {
    /// Suites per datacenter.
    pub suites: usize,
    /// Main switching boards per suite.
    pub msbs_per_suite: usize,
    /// Switching boards per MSB.
    pub sbs_per_msb: usize,
    /// Reactive power panels per SB.
    pub rpps_per_sb: usize,
    /// Racks per RPP.
    pub racks_per_rpp: usize,
    /// Servers (service instances) each rack can host.
    pub rack_capacity: usize,
    /// Power budget of one rack, in watts.
    pub rack_budget_watts: f64,
}

impl Default for TopologyShape {
    fn default() -> Self {
        Self {
            suites: 2,
            msbs_per_suite: 2,
            sbs_per_msb: 2,
            rpps_per_sb: 3,
            racks_per_rpp: 4,
            rack_capacity: 20,
            rack_budget_watts: 6_000.0,
        }
    }
}

impl TopologyShape {
    /// Total number of racks the shape produces.
    pub fn rack_count(&self) -> usize {
        self.suites * self.msbs_per_suite * self.sbs_per_msb * self.rpps_per_sb * self.racks_per_rpp
    }

    /// Total server capacity of the datacenter.
    pub fn server_capacity(&self) -> usize {
        self.rack_count() * self.rack_capacity
    }

    fn fan_out(&self, level: Level) -> usize {
        match level {
            Level::Datacenter => self.suites,
            Level::Suite => self.msbs_per_suite,
            Level::Msb => self.sbs_per_msb,
            Level::Sb => self.rpps_per_sb,
            Level::Rpp => self.racks_per_rpp,
            Level::Rack => 0,
        }
    }
}

/// Builder for [`PowerTopology`] (see [`PowerTopology::builder`]).
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    shape: TopologyShape,
    name: String,
}

impl TopologyBuilder {
    /// Sets the number of suites.
    pub fn suites(&mut self, n: usize) -> &mut Self {
        self.shape.suites = n;
        self
    }

    /// Sets the number of MSBs per suite.
    pub fn msbs_per_suite(&mut self, n: usize) -> &mut Self {
        self.shape.msbs_per_suite = n;
        self
    }

    /// Sets the number of SBs per MSB.
    pub fn sbs_per_msb(&mut self, n: usize) -> &mut Self {
        self.shape.sbs_per_msb = n;
        self
    }

    /// Sets the number of RPPs per SB.
    pub fn rpps_per_sb(&mut self, n: usize) -> &mut Self {
        self.shape.rpps_per_sb = n;
        self
    }

    /// Sets the number of racks per RPP.
    pub fn racks_per_rpp(&mut self, n: usize) -> &mut Self {
        self.shape.racks_per_rpp = n;
        self
    }

    /// Sets the number of servers each rack hosts.
    pub fn rack_capacity(&mut self, n: usize) -> &mut Self {
        self.shape.rack_capacity = n;
        self
    }

    /// Sets the rack power budget in watts.
    pub fn rack_budget_watts(&mut self, watts: f64) -> &mut Self {
        self.shape.rack_budget_watts = watts;
        self
    }

    /// Sets the datacenter name used as the root of node names.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Builds the topology.
    ///
    /// Budgets of internal nodes are the sum of their children's budgets
    /// ("the power budget of each node is approximately the sum of the
    /// budgets of its children", §2.1).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ZeroFanOut`] for a zero fan-out at any level and
    /// [`TreeError::ZeroRackCapacity`] for a zero rack capacity.
    pub fn build(&self) -> Result<PowerTopology, TreeError> {
        let shape = self.shape;
        for level in [
            Level::Datacenter,
            Level::Suite,
            Level::Msb,
            Level::Sb,
            Level::Rpp,
        ] {
            if shape.fan_out(level) == 0 {
                return Err(TreeError::ZeroFanOut(level));
            }
        }
        if shape.rack_capacity == 0 {
            return Err(TreeError::ZeroRackCapacity);
        }
        if !(shape.rack_budget_watts.is_finite()) || shape.rack_budget_watts <= 0.0 {
            return Err(TreeError::ZeroRackCapacity);
        }

        let mut nodes: Vec<PowerNode> = Vec::new();
        let root = NodeId::new(0);
        nodes.push(PowerNode {
            id: root,
            level: Level::Datacenter,
            budget_watts: 0.0,
            parent: None,
            children: Vec::new(),
            name: self.name.clone(),
        });

        // Breadth-first construction: parents always have smaller ids than
        // their children, which later lets aggregation run in one reverse
        // pass.
        let mut frontier = vec![root];
        for level in [Level::Suite, Level::Msb, Level::Sb, Level::Rpp, Level::Rack] {
            let parent_level = level.parent().expect("non-root levels have parents");
            let fan_out = shape.fan_out(parent_level);
            let mut next = Vec::with_capacity(frontier.len() * fan_out);
            for &parent in &frontier {
                for k in 0..fan_out {
                    let id = NodeId::new(nodes.len());
                    let name = format!(
                        "{}/{}{}",
                        nodes[parent.index()].name,
                        level.short_name().to_lowercase(),
                        k
                    );
                    nodes.push(PowerNode {
                        id,
                        level,
                        budget_watts: 0.0,
                        parent: Some(parent),
                        children: Vec::new(),
                        name,
                    });
                    nodes[parent.index()].children.push(id);
                    next.push(id);
                }
            }
            frontier = next;
        }

        // Budgets bottom-up: racks get the configured budget, every internal
        // node the sum of its children.
        for i in (0..nodes.len()).rev() {
            if nodes[i].level.is_rack() {
                nodes[i].budget_watts = shape.rack_budget_watts;
            } else {
                nodes[i].budget_watts = nodes[i]
                    .children
                    .iter()
                    .map(|c| nodes[c.index()].budget_watts)
                    .sum();
            }
        }

        let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); Level::ALL.len()];
        for node in &nodes {
            by_level[node.level.depth()].push(node.id);
        }

        Ok(PowerTopology {
            nodes,
            root,
            shape,
            by_level,
        })
    }
}

/// An immutable multi-level power delivery tree.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), so_powertree::TreeError> {
/// use so_powertree::{Level, PowerTopology};
///
/// let topo = PowerTopology::builder()
///     .suites(1)
///     .msbs_per_suite(2)
///     .sbs_per_msb(2)
///     .rpps_per_sb(2)
///     .racks_per_rpp(3)
///     .rack_capacity(10)
///     .build()?;
/// assert_eq!(topo.nodes_at_level(Level::Rack).len(), 24);
/// assert_eq!(topo.server_capacity(), 240);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTopology {
    nodes: Vec<PowerNode>,
    root: NodeId,
    shape: TopologyShape,
    by_level: Vec<Vec<NodeId>>,
}

impl PowerTopology {
    /// Starts building a topology with the default shape.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            shape: TopologyShape::default(),
            name: "dc".to_string(),
        }
    }

    /// The shape this topology was built from.
    pub fn shape(&self) -> &TopologyShape {
        &self.shape
    }

    /// The root (datacenter) node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree (all levels).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A topology always has at least a root; API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for an id outside this topology.
    pub fn node(&self, id: NodeId) -> Result<&PowerNode, TreeError> {
        self.nodes.get(id.index()).ok_or(TreeError::UnknownNode(id))
    }

    /// All nodes, in id order (parents before children).
    pub fn nodes(&self) -> &[PowerNode] {
        &self.nodes
    }

    /// Ids of all nodes at a level, in construction order.
    pub fn nodes_at_level(&self, level: Level) -> &[NodeId] {
        &self.by_level[level.depth()]
    }

    /// Ids of all racks.
    pub fn racks(&self) -> &[NodeId] {
        self.nodes_at_level(Level::Rack)
    }

    /// Servers each rack can host.
    pub fn rack_capacity(&self) -> usize {
        self.shape.rack_capacity
    }

    /// Total server capacity of the datacenter.
    pub fn server_capacity(&self) -> usize {
        self.shape.server_capacity()
    }

    /// The racks inside the subtree rooted at `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for an id outside this topology.
    pub fn racks_under(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        let node = self.node(id)?;
        if node.is_rack() {
            return Ok(vec![id]);
        }
        let mut racks = Vec::new();
        let mut stack: Vec<NodeId> = node.children().to_vec();
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n.index()];
            if node.is_rack() {
                racks.push(n);
            } else {
                stack.extend_from_slice(node.children());
            }
        }
        racks.sort();
        Ok(racks)
    }

    /// Path from `id` up to (and including) the root.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for an id outside this topology.
    pub fn ancestors(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        let mut node = self.node(id)?;
        let mut path = Vec::new();
        while let Some(parent) = node.parent() {
            path.push(parent);
            node = self.node(parent)?;
        }
        Ok(path)
    }

    /// Every distinct proper ancestor of `ids`, in descending id order.
    /// Children always carry larger ids than their parents, so each node
    /// comes after all of its descendants in the set — the order a
    /// bottom-up refresh needs. Each id's parent links are walked, so the
    /// cost is O(path) per id, not O(tree).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for an id outside this topology.
    pub fn ancestor_set(&self, ids: &[NodeId]) -> Result<Vec<NodeId>, TreeError> {
        let mut set = Vec::new();
        for &id in ids {
            let mut parent = self.node(id)?.parent();
            while let Some(p) = parent {
                set.push(p);
                parent = self.nodes[p.index()].parent();
            }
        }
        set.sort_unstable_by(|a, b| b.cmp(a));
        set.dedup();
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(2)
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(4)
            .rack_budget_watts(1_000.0)
            .build()
            .unwrap()
    }

    #[test]
    fn node_counts_per_level() {
        let t = small();
        assert_eq!(t.nodes_at_level(Level::Datacenter).len(), 1);
        assert_eq!(t.nodes_at_level(Level::Suite).len(), 1);
        assert_eq!(t.nodes_at_level(Level::Msb).len(), 2);
        assert_eq!(t.nodes_at_level(Level::Sb).len(), 4);
        assert_eq!(t.nodes_at_level(Level::Rpp).len(), 8);
        assert_eq!(t.nodes_at_level(Level::Rack).len(), 16);
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn budgets_sum_up_the_tree() {
        let t = small();
        let root = t.node(t.root()).unwrap();
        assert_eq!(root.budget_watts(), 16.0 * 1_000.0);
        for node in t.nodes() {
            if !node.is_rack() {
                let child_sum: f64 = node
                    .children()
                    .iter()
                    .map(|c| t.node(*c).unwrap().budget_watts())
                    .sum();
                assert!((node.budget_watts() - child_sum).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parents_precede_children() {
        let t = small();
        for node in t.nodes() {
            if let Some(parent) = node.parent() {
                assert!(parent.index() < node.id().index());
            }
        }
    }

    #[test]
    fn racks_under_counts() {
        let t = small();
        assert_eq!(t.racks_under(t.root()).unwrap().len(), 16);
        let sb = t.nodes_at_level(Level::Sb)[0];
        assert_eq!(t.racks_under(sb).unwrap().len(), 4);
        let rack = t.racks()[3];
        assert_eq!(t.racks_under(rack).unwrap(), vec![rack]);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let t = small();
        let rack = t.racks()[0];
        let path = t.ancestors(rack).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(*path.last().unwrap(), t.root());
    }

    #[test]
    fn ancestor_set_is_the_descending_union_of_paths() {
        let t = small();
        let racks = t.racks();
        // Racks under different SBs and MSBs, a duplicate, and an
        // internal node mixed in (its path joins the racks' higher up).
        let sb = t.nodes_at_level(Level::Sb)[3];
        let ids = [racks[9], racks[0], racks[1], racks[15], racks[0], sb];
        let mut want: Vec<NodeId> = ids
            .iter()
            .flat_map(|&id| t.ancestors(id).unwrap())
            .collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        want.dedup();
        assert_eq!(t.ancestor_set(&ids).unwrap(), want);
        assert_eq!(t.ancestor_set(&[t.root()]).unwrap(), Vec::new());
        assert!(t.ancestor_set(&[]).unwrap().is_empty());
        let bogus = NodeId::new(t.len());
        assert!(matches!(
            t.ancestor_set(&[racks[0], bogus]),
            Err(TreeError::UnknownNode(_))
        ));
    }

    #[test]
    fn names_are_hierarchical() {
        let t = small();
        let rack = t.node(t.racks()[0]).unwrap();
        assert!(rack.name().starts_with("dc/suite0/msb0/sb0/rpp0/rack"));
    }

    #[test]
    fn zero_fan_out_is_rejected() {
        let err = PowerTopology::builder().suites(0).build().unwrap_err();
        assert_eq!(err, TreeError::ZeroFanOut(Level::Datacenter));
        let err = PowerTopology::builder()
            .rack_capacity(0)
            .build()
            .unwrap_err();
        assert_eq!(err, TreeError::ZeroRackCapacity);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let t = small();
        assert!(t.node(NodeId::new(999)).is_err());
        assert!(t.racks_under(NodeId::new(999)).is_err());
    }
}
