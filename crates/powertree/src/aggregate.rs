//! Bottom-up aggregation of instance power traces through the tree.

use so_parallel::par_map;
use so_powertrace::{NodeAggregate, PowerTrace, SlackProfile, TimeGrid, TraceError};

use crate::assignment::Assignment;
use crate::error::TreeError;
use crate::level::Level;
use crate::node::NodeId;
use crate::topology::PowerTopology;

/// Per-node aggregate power traces for one (assignment, trace-set) pair.
///
/// The aggregate at a node is the element-wise sum of the traces of every
/// instance hosted in its subtree — exactly what the node's power sensor
/// would read.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use so_powertrace::PowerTrace;
/// use so_powertree::{Assignment, NodeAggregates, PowerTopology};
///
/// let topo = PowerTopology::builder().build()?;
/// let traces = vec![PowerTrace::new(vec![100.0, 200.0], 10)?; 10];
/// let assignment = Assignment::round_robin(&topo, 10)?;
/// let agg = NodeAggregates::compute(&topo, &assignment, &traces)?;
/// assert_eq!(agg.trace(topo.root())?.peak(), 2000.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NodeAggregates {
    traces: Vec<PowerTrace>,
    /// `traces[i].peak()`, written alongside every trace so that
    /// [`NodeAggregates::peak`] and [`NodeAggregates::headroom`] are O(1).
    peaks: Vec<f64>,
}

impl NodeAggregates {
    fn with_peaks(traces: Vec<PowerTrace>) -> Self {
        let peaks = traces.iter().map(PowerTrace::peak).collect();
        Self { traces, peaks }
    }

    fn set(&mut self, node: NodeId, trace: PowerTrace) {
        self.peaks[node.index()] = trace.peak();
        self.traces[node.index()] = trace;
    }

    /// Aggregates instance traces through the tree.
    ///
    /// Racks are summed concurrently (each rack's [`NodeAggregate`] adds
    /// its instances in ascending id order), then one level-synchronous
    /// upward pass sums each internal node's children — nodes within a
    /// level are independent, so every level is also a parallel map. The
    /// result does not depend on the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InstanceCountMismatch`] when the assignment and
    /// trace set disagree, and propagates grid mismatches as
    /// [`TreeError::Trace`].
    pub fn compute(
        topology: &PowerTopology,
        assignment: &Assignment,
        instance_traces: &[PowerTrace],
    ) -> Result<Self, TreeError> {
        if assignment.len() != instance_traces.len() {
            return Err(TreeError::InstanceCountMismatch {
                assignment: assignment.len(),
                traces: instance_traces.len(),
            });
        }
        let grid = match instance_traces.first() {
            Some(t) => t.grid(),
            None => TimeGrid::new(1, 1),
        };

        // Group instances by hosting rack (ascending instance id per rack).
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); topology.len()];
        for i in 0..instance_traces.len() {
            members[assignment.rack_of(i)?.index()].push(i);
        }

        let mut traces: Vec<PowerTrace> = (0..topology.len())
            .map(|_| PowerTrace::zeros(grid))
            .collect();

        // Rack sums, one rack per parallel task.
        let racks = topology.nodes_at_level(Level::Rack);
        let rack_traces = par_map(racks, 4, |_, &rack| -> Result<PowerTrace, TreeError> {
            let agg = NodeAggregate::from_traces(
                grid,
                members[rack.index()].iter().map(|&i| &instance_traces[i]),
            )?;
            Ok(agg.to_trace()?)
        });
        for (&rack, trace) in racks.iter().zip(rack_traces) {
            traces[rack.index()] = trace?;
        }

        // Upward pass, deepest internal level first; each node sums its
        // children in ascending id order.
        let mut level = Some(Level::Rpp);
        while let Some(current) = level {
            let nodes = topology.nodes_at_level(current);
            let sums = par_map(nodes, 4, |_, &id| -> Result<PowerTrace, TreeError> {
                let children = topology.node(id)?.children();
                let agg =
                    NodeAggregate::from_traces(grid, children.iter().map(|c| &traces[c.index()]))?;
                Ok(agg.to_trace()?)
            });
            let sums: Vec<PowerTrace> = sums.into_iter().collect::<Result<_, _>>()?;
            for (&id, trace) in nodes.iter().zip(sums) {
                traces[id.index()] = trace;
            }
            level = current.parent();
        }

        Ok(Self::with_peaks(traces))
    }

    /// An all-zero aggregate set on `grid` — the starting state of an
    /// incremental maintainer (an empty fleet sums to zero at every node).
    ///
    /// Unlike [`NodeAggregates::compute`] on an empty fleet (which has no
    /// trace to take a grid from), the grid here is explicit, so the zero
    /// traces live on the same grid later refreshes will use.
    pub fn zeros(topology: &PowerTopology, grid: TimeGrid) -> Self {
        Self::with_peaks(
            (0..topology.len())
                .map(|_| PowerTrace::zeros(grid))
                .collect(),
        )
    }

    /// Reference recompute of one rack's aggregate from its member rows,
    /// with the float operations of [`NodeAggregates::compute`] (members
    /// accumulated in iteration order onto a zero buffer). Tests compare
    /// the in-place path deltas against it; no mutation path calls it.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology,
    /// [`TreeError::NotARack`] for internal nodes, and propagates row
    /// length mismatches as [`TreeError::Trace`].
    pub fn refresh_rack<'a>(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        members: impl IntoIterator<Item = &'a [f64]>,
    ) -> Result<(), TreeError> {
        let node = topology.node(rack)?;
        if !node.is_rack() {
            return Err(TreeError::NotARack(rack));
        }
        let grid = self.traces[rack.index()].grid();
        let agg = NodeAggregate::from_samples(grid, members)?;
        self.set(rack, agg.to_trace()?);
        Ok(())
    }

    /// Reference recompute of every ancestor of the given racks, deepest
    /// first, each re-summing all of its children as
    /// [`NodeAggregates::compute`]'s upward pass does. Returns the
    /// refreshed ancestors in that order (descending id, each once); the
    /// set comes from [`PowerTopology::ancestor_set`], so untouched
    /// subtrees are never visited.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology and
    /// propagates grid mismatches as [`TreeError::Trace`].
    pub fn refresh_ancestors(
        &mut self,
        topology: &PowerTopology,
        racks: &[NodeId],
    ) -> Result<Vec<NodeId>, TreeError> {
        let ancestors = topology.ancestor_set(racks)?;
        let Some(&first) = racks.first() else {
            return Ok(ancestors);
        };
        let grid = self
            .traces
            .get(first.index())
            .ok_or(TreeError::UnknownNode(first))?
            .grid();
        for &id in &ancestors {
            let children = topology.node(id)?.children();
            let agg =
                NodeAggregate::from_traces(grid, children.iter().map(|c| &self.traces[c.index()]))?;
            self.set(id, agg.to_trace()?);
        }
        Ok(ancestors)
    }

    /// Adds one member row to `rack` and to every ancestor, in place:
    /// O(path · T), each node's cached peak refolded as its row is written.
    ///
    /// On the exact sample grid (`so_powertrace::snap_samples`) every sum
    /// is exact, so the path lands on the bits [`NodeAggregates::compute`]
    /// gives the updated fleet, whatever order the updates came in.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`] / [`TreeError::NotARack`] for a bad
    /// `rack`, and [`TreeError::Trace`] for a row of the wrong length or
    /// a sum that would leave the valid range.
    pub fn add_to_path(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        row: &[f64],
    ) -> Result<(), TreeError> {
        self.update_path(topology, rack, |trace, _| trace.add_row_in_place(row))
    }

    /// Removes one member row from `rack` and every ancestor; the inverse
    /// of [`add_to_path`](Self::add_to_path), exact on the same grid.
    ///
    /// # Errors
    ///
    /// As for [`add_to_path`](Self::add_to_path).
    pub fn remove_from_path(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        row: &[f64],
    ) -> Result<(), TreeError> {
        self.update_path(topology, rack, |trace, _| trace.sub_row_in_place(row))
    }

    /// Replaces one sample of a member of `rack`, `old` by `new` at
    /// position `pos`: `agg[pos] += new - old` on the whole path, O(path).
    /// A node's peak is refolded (O(T)) only when its peak sample fell.
    ///
    /// # Errors
    ///
    /// As for [`add_to_path`](Self::add_to_path), plus
    /// [`TreeError::Trace`] for a `pos` past the window.
    pub fn shift_path_sample(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        pos: usize,
        old: f64,
        new: f64,
    ) -> Result<(), TreeError> {
        let delta = new - old;
        self.update_path(topology, rack, |trace, peak| {
            let before = trace.get(pos).unwrap_or(f64::NAN);
            let after = before + delta;
            trace.set_sample(pos, after)?;
            Ok(if after > peak {
                after
            } else if after < before && before == peak {
                trace.peak()
            } else {
                peak
            })
        })
    }

    /// Applies `update` to the trace of `rack` and of each of its
    /// ancestors; `update` gets the cached peak and returns the new one.
    fn update_path(
        &mut self,
        topology: &PowerTopology,
        rack: NodeId,
        mut update: impl FnMut(&mut PowerTrace, f64) -> Result<f64, TraceError>,
    ) -> Result<(), TreeError> {
        if !topology.node(rack)?.is_rack() {
            return Err(TreeError::NotARack(rack));
        }
        let mut next = Some(rack);
        while let Some(id) = next {
            let i = id.index();
            let trace = self.traces.get_mut(i).ok_or(TreeError::UnknownNode(id))?;
            self.peaks[i] = update(trace, self.peaks[i])?;
            next = topology.node(id)?.parent();
        }
        Ok(())
    }

    /// The aggregate trace at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn trace(&self, node: NodeId) -> Result<&PowerTrace, TreeError> {
        self.traces
            .get(node.index())
            .ok_or(TreeError::UnknownNode(node))
    }

    /// Peak aggregate power at `node` — cached, O(1), and bit-identical to
    /// `self.trace(node)?.peak()`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn peak(&self, node: NodeId) -> Result<f64, TreeError> {
        self.peaks
            .get(node.index())
            .copied()
            .ok_or(TreeError::UnknownNode(node))
    }

    /// The paper's *sum of peaks* fragmentation indicator at one level: the
    /// sum over all nodes of that level of each node's aggregate peak.
    pub fn sum_of_peaks(&self, topology: &PowerTopology, level: Level) -> f64 {
        topology
            .nodes_at_level(level)
            .iter()
            .map(|&id| self.peaks[id.index()])
            .sum()
    }

    /// Headroom at `node`: budget minus aggregate peak (negative when the
    /// node is over-committed). O(1).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn headroom(&self, topology: &PowerTopology, node: NodeId) -> Result<f64, TreeError> {
        let budget = topology.node(node)?.budget_watts();
        Ok(budget - self.peak(node)?)
    }

    /// Slack profile of `node` against its configured budget.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] for ids outside the topology.
    pub fn slack(&self, topology: &PowerTopology, node: NodeId) -> Result<SlackProfile, TreeError> {
        let budget = topology.node(node)?.budget_watts();
        Ok(SlackProfile::new(self.trace(node)?, budget)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(2)
            .rack_budget_watts(500.0)
            .build()
            .unwrap()
    }

    fn traces() -> Vec<PowerTrace> {
        vec![
            PowerTrace::new(vec![100.0, 0.0], 10).unwrap(),
            PowerTrace::new(vec![0.0, 100.0], 10).unwrap(),
            PowerTrace::new(vec![50.0, 50.0], 10).unwrap(),
            PowerTrace::new(vec![25.0, 75.0], 10).unwrap(),
        ]
    }

    #[test]
    fn root_aggregate_is_total() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        let root = agg.trace(t.root()).unwrap();
        assert_eq!(root.samples(), &[175.0, 225.0]);
    }

    #[test]
    fn rack_aggregates_match_assignment() {
        let t = topo();
        // Instances 0..3 round-robin across 4 racks: one per rack.
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        let racks = t.racks();
        assert_eq!(agg.trace(racks[0]).unwrap().samples(), &[100.0, 0.0]);
        assert_eq!(agg.trace(racks[3]).unwrap().samples(), &[25.0, 75.0]);
    }

    #[test]
    fn sum_of_peaks_counts_each_node() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        // Rack peaks: 100, 100, 50, 75.
        assert_eq!(agg.sum_of_peaks(&t, Level::Rack), 325.0);
        // Two RPPs: racks (0,1) -> [100, 100] peak 100; racks (2,3) -> [75, 125] peak 125.
        assert_eq!(agg.sum_of_peaks(&t, Level::Rpp), 225.0);
        // Root peak: 225.
        assert_eq!(agg.sum_of_peaks(&t, Level::Datacenter), 225.0);
    }

    #[test]
    fn headroom_and_slack() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let agg = NodeAggregates::compute(&t, &a, &traces()).unwrap();
        let rack = t.racks()[0];
        assert_eq!(agg.headroom(&t, rack).unwrap(), 400.0);
        let slack = agg.slack(&t, rack).unwrap();
        assert_eq!(slack.min_slack(), 400.0);
    }

    /// 1 suite × 2 MSB × 2 SB × 2 RPP × 2 racks: 16 racks whose paths
    /// split at every level.
    fn wide_topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(2)
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(4)
            .rack_budget_watts(500.0)
            .build()
            .unwrap()
    }

    /// 40 distinct four-sample traces.
    fn many_traces(salt: f64) -> Vec<PowerTrace> {
        (0..40)
            .map(|i| {
                let x = i as f64 + salt;
                PowerTrace::new(
                    vec![x * 1.7 % 31.0, x * 0.3 + 2.5, (x * 7.1) % 13.0, 0.1 * x],
                    10,
                )
                .unwrap()
            })
            .collect()
    }

    /// Every node's cached peak must carry the bits of its trace's peak.
    fn assert_peaks_cached(agg: &NodeAggregates, t: &PowerTopology) {
        for id in t.nodes().iter().map(|n| n.id()) {
            assert_eq!(
                agg.peak(id).unwrap().to_bits(),
                agg.trace(id).unwrap().peak().to_bits(),
                "node {id}: stale cached peak"
            );
        }
    }

    fn assert_bit_identical(got: &NodeAggregates, want: &NodeAggregates, t: &PowerTopology) {
        for id in t.nodes().iter().map(|n| n.id()) {
            let g = got.trace(id).unwrap().samples();
            let w = want.trace(id).unwrap().samples();
            assert_eq!(g.len(), w.len());
            for (g, w) in g.iter().zip(w) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {id} diverged");
            }
            assert_eq!(
                got.peak(id).unwrap().to_bits(),
                want.peak(id).unwrap().to_bits(),
                "node {id}: peak diverged"
            );
        }
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_compute() {
        let t = topo();
        let traces = traces();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let grid = traces[0].grid();

        // Maintain incrementally: start from zeros, refresh each rack from
        // its members, then refresh the ancestor paths.
        let mut inc = NodeAggregates::zeros(&t, grid);
        assert_peaks_cached(&inc, &t);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); t.len()];
        for i in 0..traces.len() {
            members[a.rack_of(i).unwrap().index()].push(i);
        }
        for &rack in t.racks() {
            inc.refresh_rack(
                &t,
                rack,
                members[rack.index()].iter().map(|&i| traces[i].samples()),
            )
            .unwrap();
            assert_peaks_cached(&inc, &t);
        }
        let refreshed = inc.refresh_ancestors(&t, t.racks()).unwrap();
        assert_peaks_cached(&inc, &t);
        // Every internal node, each once, children before parents.
        assert_eq!(refreshed.len(), t.len() - t.racks().len());
        assert!(refreshed.windows(2).all(|w| w[0] > w[1]));

        let scratch = NodeAggregates::compute(&t, &a, &traces).unwrap();
        assert_peaks_cached(&scratch, &t);
        assert_bit_identical(&inc, &scratch, &t);
    }

    #[test]
    fn one_ancestor_refresh_over_a_scattered_batch_matches_compute() {
        // The shape an ingest batch produces: rows change under racks of
        // different RPPs, SBs and MSBs, each touched rack is refreshed,
        // then a single ancestor refresh settles every path at once.
        let t = wide_topo();
        let before = many_traces(0.0);
        let a = Assignment::round_robin(&t, before.len()).unwrap();
        let mut inc = NodeAggregates::compute(&t, &a, &before).unwrap();

        let changed = [3usize, 17, 22, 38, 9];
        let fresh = many_traces(0.5);
        let mut after = before.clone();
        let mut touched = Vec::new();
        for &i in &changed {
            after[i] = fresh[i].clone();
            touched.push(a.rack_of(i).unwrap());
        }
        for &rack in &touched {
            let rows: Vec<&[f64]> = (0..after.len())
                .filter(|&i| a.rack_of(i).unwrap() == rack)
                .map(|i| after[i].samples())
                .collect();
            inc.refresh_rack(&t, rack, rows).unwrap();
        }
        // Unsorted, as a batch arrives; the paths meet at the suite.
        let refreshed = inc.refresh_ancestors(&t, &touched).unwrap();
        let mut want: Vec<NodeId> = touched
            .iter()
            .flat_map(|&r| t.ancestors(r).unwrap())
            .collect();
        want.sort_unstable_by(|x, y| y.cmp(x));
        want.dedup();
        assert_eq!(refreshed, want);
        let msbs: std::collections::BTreeSet<NodeId> = touched
            .iter()
            .map(|&r| t.ancestors(r).unwrap()[2])
            .collect();
        assert_eq!(msbs.len(), 2, "the batch spans both MSBs");

        let scratch = NodeAggregates::compute(&t, &a, &after).unwrap();
        assert_peaks_cached(&inc, &t);
        assert_bit_identical(&inc, &scratch, &t);
    }

    /// `many_traces` snapped onto the exact grid.
    fn snapped_traces(salt: f64) -> Vec<PowerTrace> {
        many_traces(salt)
            .iter()
            .map(|t| {
                PowerTrace::new(so_powertrace::snap_samples(t.samples()).unwrap(), 10).unwrap()
            })
            .collect()
    }

    /// `compute` over the subset `live` of `traces`.
    fn compute_subset(t: &PowerTopology, traces: &[PowerTrace], live: &[usize]) -> NodeAggregates {
        let a = Assignment::round_robin(t, traces.len()).unwrap();
        let racks = live.iter().map(|&i| a.rack_of(i).unwrap()).collect();
        let subset: Vec<PowerTrace> = live.iter().map(|&i| traces[i].clone()).collect();
        NodeAggregates::compute(t, &Assignment::new(racks, t).unwrap(), &subset).unwrap()
    }

    #[test]
    fn path_deltas_on_the_exact_grid_match_compute_in_any_order() {
        let t = wide_topo();
        let mut traces = snapped_traces(0.3);
        let a = Assignment::round_robin(&t, traces.len()).unwrap();
        let rack = |i: usize| a.rack_of(i).unwrap();
        let mut inc = NodeAggregates::zeros(&t, traces[0].grid());
        // Members arrive in descending order; `compute` adds ascending.
        for i in (0..traces.len()).rev() {
            inc.add_to_path(&t, rack(i), traces[i].samples()).unwrap();
        }
        let all: Vec<usize> = (0..traces.len()).collect();
        assert_bit_identical(&inc, &compute_subset(&t, &traces, &all), &t);

        for i in [5, 17, 30] {
            inc.remove_from_path(&t, rack(i), traces[i].samples())
                .unwrap();
        }
        let rest: Vec<usize> = all
            .iter()
            .copied()
            .filter(|i| ![5, 17, 30].contains(i))
            .collect();
        assert_bit_identical(&inc, &compute_subset(&t, &traces, &rest), &t);

        // One sample rises, one falls from a node peak: the peak cache
        // follows both without a full refold on the rise.
        for (i, pos, watts) in [(3usize, 1usize, 29.5), (9, 0, 0.0), (9, 3, 0.0)] {
            let old = traces[i].samples()[pos];
            inc.shift_path_sample(&t, rack(i), pos, old, watts).unwrap();
            traces[i].set_sample(pos, watts).unwrap();
            assert_bit_identical(&inc, &compute_subset(&t, &traces, &rest), &t);
        }
        assert_peaks_cached(&inc, &t);

        for &i in &rest {
            inc.remove_from_path(&t, rack(i), traces[i].samples())
                .unwrap();
        }
        for id in t.nodes().iter().map(|n| n.id()) {
            for v in inc.trace(id).unwrap().samples() {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "node {id} keeps residue");
            }
        }
    }

    #[test]
    fn path_deltas_reject_bad_input_without_touching_the_rack() {
        let t = topo();
        let grid = traces()[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        let rack = t.racks()[0];
        assert!(matches!(
            inc.add_to_path(&t, t.root(), &[1.0, 1.0]),
            Err(TreeError::NotARack(_))
        ));
        assert!(inc.add_to_path(&t, rack, &[1.0]).is_err());
        assert!(inc.remove_from_path(&t, rack, &[1.0, 1.0]).is_err());
        assert!(inc.shift_path_sample(&t, rack, 9, 0.0, 1.0).is_err());
        assert_eq!(inc.peak(rack).unwrap(), 0.0);
        assert_eq!(inc.trace(t.root()).unwrap().samples(), &[0.0, 0.0]);
    }

    #[test]
    fn partial_refresh_touches_only_named_paths() {
        let t = topo();
        let traces = traces();
        let grid = traces[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        let rack = t.racks()[0];
        inc.refresh_rack(&t, rack, [traces[0].samples()]).unwrap();
        let refreshed = inc.refresh_ancestors(&t, &[rack]).unwrap();
        assert_eq!(refreshed, t.ancestors(rack).unwrap());
        assert_peaks_cached(&inc, &t);
        // The refreshed path carries the member; the sibling RPP stays zero.
        assert_eq!(inc.trace(rack).unwrap().samples(), traces[0].samples());
        assert_eq!(inc.peak(t.root()).unwrap(), 100.0);
        let other_rpp = t.nodes_at_level(Level::Rpp)[1];
        assert_eq!(inc.peak(other_rpp).unwrap(), 0.0);
        assert_eq!(inc.headroom(&t, rack).unwrap(), 400.0);
    }

    #[test]
    fn refresh_rack_rejects_internal_nodes_and_unknown_ids() {
        let t = topo();
        let grid = traces()[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        let err = inc
            .refresh_rack(&t, t.root(), std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, TreeError::NotARack(_)));
        let bogus = crate::node::NodeId::new(t.len() + 5);
        let err = inc.refresh_rack(&t, bogus, std::iter::empty()).unwrap_err();
        assert!(matches!(err, TreeError::UnknownNode(_)));
    }

    #[test]
    fn refresh_ancestors_with_no_racks_is_a_no_op() {
        let t = topo();
        let grid = traces()[0].grid();
        let mut inc = NodeAggregates::zeros(&t, grid);
        assert!(inc.refresh_ancestors(&t, &[]).unwrap().is_empty());
        assert_eq!(inc.peak(t.root()).unwrap(), 0.0);
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let t = topo();
        let a = Assignment::round_robin(&t, 4).unwrap();
        let err = NodeAggregates::compute(&t, &a, &traces()[..3]).unwrap_err();
        assert!(matches!(err, TreeError::InstanceCountMismatch { .. }));
    }
}
