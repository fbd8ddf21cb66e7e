//! Workload-aware hierarchical service-instance placement (§3.5).
//!
//! At each power node, the instances destined for its subtree are embedded
//! by their asynchrony-score vectors, clustered into `h` equal-size groups
//! (`h` a multiple of the fan-out `q`), and dealt round-robin so every
//! child receives `|c_j| / q` members of each cluster. The process repeats
//! level by level until every instance is assigned to a rack. The resulting
//! placement spreads synchronous instances apart, raising the asynchrony
//! score — and therefore lowering the aggregate peak — at every node.

use so_cluster::{balanced_kmeans, KMeansConfig};
use so_parallel::par_map;
use so_powertree::{Assignment, NodeId, PowerTopology};
use so_workloads::Fleet;

use crate::embedding::score_vectors;
use crate::error::CoreError;
use crate::straces::ServiceTraces;

/// Configuration of the placement engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// `|B|`: number of top power-consuming services whose S-traces span
    /// the embedding space.
    pub top_services: usize,
    /// Clusters per child: the cluster count at a node with `q` children is
    /// `h = q × clusters_per_child`.
    pub clusters_per_child: usize,
    /// Recompute S-traces and embeddings per subtree while recursing
    /// (matches the paper's description; disabling reuses the root
    /// embedding, which the ablation bench compares).
    pub recluster_per_level: bool,
    /// Use the equal-size balanced k-means of §3.5 ("each of these
    /// clusters have the same number of instances"). Disabling falls back
    /// to plain k-means — the ablation bench shows why the paper insists
    /// on balance.
    pub balanced_clusters: bool,
    /// Seed for k-means initialization.
    pub seed: u64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            top_services: 8,
            clusters_per_child: 2,
            recluster_per_level: true,
            balanced_clusters: true,
            seed: 0x51_00_7E,
        }
    }
}

/// The SmoothOperator placement engine.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use so_core::SmoothPlacer;
/// use so_powertree::PowerTopology;
/// use so_workloads::DcScenario;
///
/// let fleet = DcScenario::dc1().generate_fleet(96)?;
/// let topo = PowerTopology::builder()
///     .suites(1)
///     .msbs_per_suite(2)
///     .sbs_per_msb(2)
///     .rpps_per_sb(2)
///     .racks_per_rpp(2)
///     .rack_capacity(6)
///     .build()?;
/// let assignment = SmoothPlacer::default().place(&fleet, &topo)?;
/// assert_eq!(assignment.len(), 96);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SmoothPlacer {
    config: PlacementConfig,
}

impl SmoothPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacementConfig) -> Self {
        Self { config }
    }

    /// The placer's configuration.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }

    /// Derives a workload-aware placement of the fleet onto the topology.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CapacityExceeded`] when the fleet does not fit,
    /// and propagates clustering/trace errors.
    pub fn place(&self, fleet: &Fleet, topology: &PowerTopology) -> Result<Assignment, CoreError> {
        // The span and gauges live at this serial entry point only; the
        // recursion below fans out in parallel and records nothing but
        // commutative counters.
        let _span = so_telemetry::span("place");
        let n = fleet.len();
        let capacity = topology.server_capacity();
        if n > capacity {
            return Err(CoreError::CapacityExceeded {
                needed: n,
                capacity,
            });
        }

        let all: Vec<usize> = (0..n).collect();
        // Root embedding, reused at deeper levels unless re-clustering.
        let root_vectors = self.embed(fleet, &all)?;

        let mut rack_of: Vec<Option<NodeId>> = vec![None; n];
        for (i, rack) in self.assign(fleet, topology, topology.root(), &all, &root_vectors)? {
            rack_of[i] = Some(rack);
        }

        let rack_of: Vec<NodeId> = rack_of
            .into_iter()
            .map(|r| r.expect("recursion assigns every member to a rack"))
            .collect();
        let assignment = Assignment::new(rack_of, topology)?;
        self.record_placement_metrics(fleet, topology, &assignment)?;
        Ok(assignment)
    }

    /// Records per-level fragmentation gauges for a finished placement.
    /// Runs the (read-only) analysis only when a telemetry sink is
    /// installed — the disabled path is a single atomic load.
    fn record_placement_metrics(
        &self,
        fleet: &Fleet,
        topology: &PowerTopology,
        assignment: &Assignment,
    ) -> Result<(), CoreError> {
        if !so_telemetry::enabled() {
            return Ok(());
        }
        so_telemetry::counter_add("so_placement_runs_total", &[], 1);
        so_telemetry::counter_add("so_placement_instances_total", &[], assignment.len() as u64);
        let report = crate::analysis::FragmentationReport::analyze(
            topology,
            assignment,
            fleet.averaged_traces(),
        )?;
        for frag in report.levels() {
            let level = frag.level.short_name();
            so_telemetry::gauge_set(
                "so_placement_sum_of_peaks_watts",
                &[("level", level)],
                frag.sum_of_peaks,
            );
            so_telemetry::gauge_set(
                "so_placement_mean_asynchrony_score",
                &[("level", level)],
                frag.mean_score,
            );
            so_telemetry::gauge_set(
                "so_placement_min_asynchrony_score",
                &[("level", level)],
                frag.min_score,
            );
        }
        Ok(())
    }

    /// Re-places only the instances hosted in the subtree rooted at
    /// `node`, leaving the rest of `base` untouched — the operation behind
    /// the paper's Figure 9, where optimizing a middle-level node's subtree
    /// smooths its children without changing the node's own trace (no
    /// instance moves into or out of the subtree).
    ///
    /// # Errors
    ///
    /// Propagates clustering/trace/tree errors.
    pub fn place_within(
        &self,
        fleet: &Fleet,
        topology: &PowerTopology,
        node: NodeId,
        base: &Assignment,
    ) -> Result<Assignment, CoreError> {
        let _span = so_telemetry::span("place_within");
        let members = base.instances_under(topology, node)?;
        let mut rack_of: Vec<Option<NodeId>> = base.racks().iter().map(|&r| Some(r)).collect();
        if !members.is_empty() {
            let vectors = self.embed(fleet, &members)?;
            for (i, rack) in self.assign(fleet, topology, node, &members, &vectors)? {
                rack_of[i] = Some(rack);
            }
        }
        let rack_of: Vec<NodeId> = rack_of
            .into_iter()
            .map(|r| r.expect("pre-filled from base assignment"))
            .collect();
        Ok(Assignment::new(rack_of, topology)?)
    }

    /// Embeds `members` into asynchrony-score space (indexed by *global*
    /// instance id for easy reuse).
    fn embed(&self, fleet: &Fleet, members: &[usize]) -> Result<Vec<Vec<f64>>, CoreError> {
        let straces = ServiceTraces::extract(fleet, members, self.top_services(members))?;
        let rows = score_vectors(fleet, members, &straces)?;
        // Scatter rows into a dense per-instance table (unused slots stay
        // empty vectors).
        let mut table = vec![Vec::new(); fleet.len()];
        for (&i, row) in members.iter().zip(rows) {
            table[i] = row;
        }
        Ok(table)
    }

    fn top_services(&self, _members: &[usize]) -> usize {
        self.config.top_services.max(1)
    }

    /// Recursively assigns `members` to racks under `node`, returning the
    /// `(instance, rack)` pairs.
    ///
    /// Child subtrees are independent once the groups are dealt, so the
    /// recursion fans out in parallel. Each child's result vector is a pure
    /// function of its group, and the results are concatenated in child
    /// order — the outcome is identical to the serial recursion.
    fn assign(
        &self,
        fleet: &Fleet,
        topology: &PowerTopology,
        node: NodeId,
        members: &[usize],
        vectors: &[Vec<f64>],
    ) -> Result<Vec<(usize, NodeId)>, CoreError> {
        let power_node = topology.node(node)?;
        if power_node.is_rack() {
            return Ok(members.iter().map(|&i| (i, node)).collect());
        }
        let children: Vec<NodeId> = power_node.children().to_vec();
        let q = children.len();
        if members.is_empty() {
            return Ok(Vec::new());
        }

        // Refresh the embedding for this subtree when configured.
        let local_vectors;
        let vectors = if self.config.recluster_per_level && members.len() > q {
            local_vectors = self.embed(fleet, members)?;
            &local_vectors
        } else {
            vectors
        };

        let groups = self.deal(members, vectors, q)?;

        // Respect subtree capacities: move overflow into children with
        // space (only triggers on nearly-full datacenters).
        let groups = rebalance_capacity(groups, &children, topology)?;

        let jobs: Vec<(NodeId, Vec<usize>)> = children.into_iter().zip(groups).collect();
        let mut pairs = Vec::with_capacity(members.len());
        for result in par_map(&jobs, 1, |_, (child, group)| {
            self.assign(fleet, topology, *child, group, vectors)
        }) {
            pairs.extend(result?);
        }
        Ok(pairs)
    }

    /// Splits `members` into `q` groups by balanced clustering + round-robin
    /// dealing; falls back to index-striping for tiny sets.
    fn deal(
        &self,
        members: &[usize],
        vectors: &[Vec<f64>],
        q: usize,
    ) -> Result<Vec<Vec<usize>>, CoreError> {
        if q == 1 {
            return Ok(vec![members.to_vec()]);
        }
        let h = (q * self.config.clusters_per_child.max(1)).min(members.len());
        if members.len() < 2 * q || h < 2 {
            // Too few members to cluster meaningfully: stripe.
            so_telemetry::counter_add("so_placement_striped_deals_total", &[], 1);
            let mut groups = vec![Vec::new(); q];
            for (rank, &i) in members.iter().enumerate() {
                groups[rank % q].push(i);
            }
            return Ok(groups);
        }
        so_telemetry::counter_add("so_placement_clustered_deals_total", &[], 1);

        // Borrow the member rows — k-means is generic over `AsRef<[f64]>`,
        // so the gather costs one pointer vector, not |members| row clones.
        let points: Vec<&[f64]> = members.iter().map(|&i| vectors[i].as_slice()).collect();
        let kconfig = KMeansConfig {
            seed: self.config.seed,
            ..KMeansConfig::new(h)
        };
        let clusters: Vec<Vec<usize>> = if self.config.balanced_clusters {
            let clustering = balanced_kmeans(&points, kconfig)?;
            (0..clustering.k()).map(|c| clustering.members(c)).collect()
        } else {
            let clustering = so_cluster::kmeans(&points, kconfig)?;
            (0..clustering.k()).map(|c| clustering.members(c)).collect()
        };

        let mut groups = vec![Vec::new(); q];
        for (j, cluster) in clusters.into_iter().enumerate() {
            // Deal this cluster's members round-robin across the q children
            // (offset by the cluster index so remainders rotate). The
            // interleaving matters: cluster member lists are sorted by
            // instance id — i.e. grouped by service — so handing a child a
            // *contiguous* chunk would re-group whatever heterogeneity the
            // cluster still contains.
            for (rank, &row) in cluster.iter().enumerate() {
                groups[(rank + j) % q].push(members[row]);
            }
        }
        Ok(groups)
    }
}

/// Moves overflow members of over-capacity groups into groups with spare
/// subtree capacity, preserving order where possible.
fn rebalance_capacity(
    mut groups: Vec<Vec<usize>>,
    children: &[NodeId],
    topology: &PowerTopology,
) -> Result<Vec<Vec<usize>>, CoreError> {
    let capacities: Vec<usize> = children
        .iter()
        .map(|&c| Ok(topology.racks_under(c)?.len() * topology.rack_capacity()))
        .collect::<Result<_, CoreError>>()?;

    let mut overflow = Vec::new();
    for (group, &cap) in groups.iter_mut().zip(&capacities) {
        while group.len() > cap {
            overflow.push(
                group
                    .pop()
                    .expect("group is over capacity, hence non-empty"),
            );
        }
    }
    if overflow.is_empty() {
        return Ok(groups);
    }
    for (group, &cap) in groups.iter_mut().zip(&capacities) {
        while group.len() < cap {
            match overflow.pop() {
                Some(i) => group.push(i),
                None => return Ok(groups),
            }
        }
    }
    if overflow.is_empty() {
        Ok(groups)
    } else {
        // Should be unreachable: the caller checked total capacity.
        Err(CoreError::CapacityExceeded {
            needed: overflow.len(),
            capacity: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertree::{Level, NodeAggregates};
    use so_workloads::DcScenario;

    fn topo(rack_capacity: usize) -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(2)
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(rack_capacity)
            .build()
            .unwrap()
    }

    #[test]
    fn placement_covers_every_instance_exactly_once() {
        let fleet = DcScenario::dc2().generate_fleet(64).unwrap();
        let topo = topo(4);
        let assignment = SmoothPlacer::default().place(&fleet, &topo).unwrap();
        assert_eq!(assignment.len(), 64);
        // Exactly 4 per rack (64 instances / 16 racks).
        for (_, instances) in assignment.by_rack() {
            assert_eq!(instances.len(), 4);
        }
    }

    #[test]
    fn capacity_overflow_is_rejected() {
        let fleet = DcScenario::dc1().generate_fleet(100).unwrap();
        let topo = topo(4); // capacity 64
        let err = SmoothPlacer::default().place(&fleet, &topo).unwrap_err();
        assert!(matches!(
            err,
            CoreError::CapacityExceeded {
                needed: 100,
                capacity: 64
            }
        ));
    }

    #[test]
    fn beats_grouped_placement_on_sum_of_peaks() {
        let fleet = DcScenario::dc3().generate_fleet(64).unwrap();
        let topo = topo(4);

        // Grouped (oblivious) baseline: instances in fleet order, rack by
        // rack — synchronous services end up together.
        let racks = topo.racks();
        let grouped: Vec<NodeId> = (0..64).map(|i| racks[i / 4]).collect();
        let grouped = Assignment::new(grouped, &topo).unwrap();

        let smooth = SmoothPlacer::default().place(&fleet, &topo).unwrap();

        let test = fleet.test_traces();
        let agg_grouped = NodeAggregates::compute(&topo, &grouped, test).unwrap();
        let agg_smooth = NodeAggregates::compute(&topo, &smooth, test).unwrap();
        // The paper's gains concentrate at the leaf power nodes (§5.2.1);
        // higher levels already mix thousands of instances and see little
        // change, so only the leaf levels are asserted here.
        for level in [Level::Rack, Level::Rpp] {
            let before = agg_grouped.sum_of_peaks(&topo, level);
            let after = agg_smooth.sum_of_peaks(&topo, level);
            assert!(
                after < before,
                "level {level}: smooth {after} not below grouped {before}"
            );
        }
    }

    #[test]
    fn tiny_fleets_stripe_without_clustering() {
        let fleet = DcScenario::dc1().generate_fleet(5).unwrap();
        let topo = topo(4);
        let assignment = SmoothPlacer::default().place(&fleet, &topo).unwrap();
        assert_eq!(assignment.len(), 5);
    }

    #[test]
    fn place_within_keeps_subtree_membership_and_total() {
        let fleet = DcScenario::dc3().generate_fleet(64).unwrap();
        let topo = topo(4);
        let racks = topo.racks();
        let grouped = Assignment::new(
            (0..64).map(|i| racks[i / 4]).collect::<Vec<NodeId>>(),
            &topo,
        )
        .unwrap();

        let sb = topo.nodes_at_level(Level::Sb)[0];
        let before_members = grouped.instances_under(&topo, sb).unwrap();
        let placed = SmoothPlacer::default()
            .place_within(&fleet, &topo, sb, &grouped)
            .unwrap();
        let after_members = placed.instances_under(&topo, sb).unwrap();
        assert_eq!(
            before_members, after_members,
            "no instance crossed the subtree"
        );

        // Outside the subtree, nothing moved.
        for i in 0..64 {
            if !before_members.contains(&i) {
                assert_eq!(grouped.rack_of(i).unwrap(), placed.rack_of(i).unwrap());
            }
        }

        // The subtree root's aggregate is unchanged; its children smooth out.
        let test = fleet.test_traces();
        let agg_before = NodeAggregates::compute(&topo, &grouped, test).unwrap();
        let agg_after = NodeAggregates::compute(&topo, &placed, test).unwrap();
        let before_trace = agg_before.trace(sb).unwrap();
        let after_trace = agg_after.trace(sb).unwrap();
        for i in 0..before_trace.len() {
            assert!((before_trace.samples()[i] - after_trace.samples()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn no_recluster_mode_matches_instance_count() {
        let fleet = DcScenario::dc1().generate_fleet(32).unwrap();
        let topo = topo(4);
        let placer = SmoothPlacer::new(PlacementConfig {
            recluster_per_level: false,
            ..PlacementConfig::default()
        });
        let assignment = placer.place(&fleet, &topo).unwrap();
        assert_eq!(assignment.len(), 32);
    }
}
