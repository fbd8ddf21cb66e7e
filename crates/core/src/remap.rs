//! Incremental remapping under workload drift (§3.6).
//!
//! When mid-/long-term workload changes make a placement suboptimal, the
//! framework identifies the most fragmented power node, computes the
//! *differential asynchrony score* `AD_{i,N}` of each of its instances, and
//! swaps the worst-fitting instance with one from another node — accepting
//! a swap only when it raises the differential scores at *both* nodes.
//!
//! # Cost model
//!
//! The round loop and the swap search ([`remap_nodes`]) read node state
//! through [`RemapNodes`]: an [`Assignment`] over a trace slice with one
//! incrementally updated [`NodeAggregate`] per node (the offline entry
//! points), or the online engine's resident racks (`OnlineFleet::repair`,
//! rows read from its arena in place). No node is re-summed during a run.
//! Differential scores are *fused* over the node sum
//! ([`differential_score_excluding`]): one candidate costs `O(T)` with
//! **zero allocations**. Each member's score in its own node is computed
//! once per run and again only for the two nodes a swap touches.
//! Candidate partners are scanned in parallel; the reduction keeps the
//! first best candidate in (node, member) order, so the chosen swap is
//! identical to the serial scan's.

use std::collections::BTreeMap;

use so_parallel::par_map;
use so_powertrace::{peak_of_samples, NodeAggregate, PowerTrace, TimeGrid};
use so_powertree::{Assignment, Level, NodeId, PowerTopology, TreeError};
use so_workloads::Fleet;

use crate::error::CoreError;
use crate::score::{asynchrony_from_peaks, differential_score_excluding};

/// Time-axis block width for the allocation-free aggregate-peak kernel in
/// node scoring. Performance-only: per-element float association is
/// independent of the block layout.
const TIME_BLOCK: usize = 512;

/// Configuration of the remapping engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapConfig {
    /// Power-node level monitored for fragmentation (the paper focuses on
    /// leaf power nodes; racks are the direct hosts here).
    pub level: Level,
    /// Maximum accepted swaps.
    pub max_swaps: usize,
    /// How many fragmented nodes to try per round before giving up.
    pub nodes_per_round: usize,
    /// Minimum differential-score gain required at *each* node for a swap
    /// to be accepted — filters out noise-level improvements.
    pub min_gain: f64,
}

impl Default for RemapConfig {
    fn default() -> Self {
        Self {
            level: Level::Rack,
            max_swaps: 32,
            nodes_per_round: 4,
            min_gain: 0.02,
        }
    }
}

/// One accepted swap. Instances are indices into the remapped trace slice,
/// or arena slots for the online engine's repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapRecord {
    /// Instance moved out of the fragmented node.
    pub instance_out: usize,
    /// Instance moved in.
    pub instance_in: usize,
    /// The fragmented node.
    pub node: NodeId,
    /// The partner node.
    pub partner: NodeId,
    /// Differential-score gain at the fragmented node.
    pub gain_node: f64,
    /// Differential-score gain at the partner node.
    pub gain_partner: f64,
}

/// Outcome of a remapping run.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapReport {
    /// Accepted swaps, in order.
    pub swaps: Vec<SwapRecord>,
    /// Lowest node asynchrony score before remapping.
    pub initial_worst_score: f64,
    /// Lowest node asynchrony score after remapping.
    pub final_worst_score: f64,
}

/// Runs swap-based remapping on `assignment` in place, using the fleet's
/// averaged I-traces, and reports the accepted swaps.
///
/// # Errors
///
/// Propagates trace and tree errors.
pub fn remap(
    fleet: &Fleet,
    topology: &PowerTopology,
    assignment: &mut Assignment,
    config: RemapConfig,
) -> Result<RemapReport, CoreError> {
    remap_traces(fleet.averaged_traces(), topology, assignment, config)
}

/// Runs swap-based remapping on `assignment` in place against an explicit
/// trace slice (one trace per instance, indexed like the assignment).
///
/// Callers that hold their own traces (the oracles, the online engine's
/// offline comparator) remap them here without needing a [`Fleet`].
///
/// # Errors
///
/// Propagates trace and tree errors.
pub fn remap_traces(
    traces: &[PowerTrace],
    topology: &PowerTopology,
    assignment: &mut Assignment,
    config: RemapConfig,
) -> Result<RemapReport, CoreError> {
    let mut nodes = AssignmentNodes::new(traces, topology, assignment, config.level)?;
    // Only offline runs open a span: the online engine repairs through
    // `remap_nodes` on every pass, and a long-lived sink would keep each
    // pass's span events.
    let _span = so_telemetry::span("remap");
    remap_nodes(&mut nodes, &config)
}

/// The node state the swap search reads and updates: nodes by position
/// `0..node_count()` in scan order, instances by the ids
/// [`row`](Self::row) takes.
pub(crate) trait RemapNodes: Sync {
    /// Number of nodes at the remapped level.
    fn node_count(&self) -> usize;
    /// The power node at position `n`.
    fn node(&self, n: usize) -> NodeId;
    /// The instances node `n` hosts, ascending.
    fn members(&self, n: usize) -> &[usize];
    /// The element-wise sum of node `n`'s member rows.
    fn sum(&self, n: usize) -> &[f64];
    /// The peak of node `n`'s member sum.
    fn peak(&self, n: usize) -> f64;
    /// The sum of node `n`'s member peaks.
    fn peak_sum(&self, n: usize) -> f64;
    /// The sample row of instance `i`.
    fn row(&self, i: usize) -> &[f64];
    /// Moves `swap.instance_out` from node `n` (`swap.node`) to node `p`
    /// (`swap.partner`) and `swap.instance_in` the other way.
    fn apply_swap(&mut self, swap: &SwapRecord, n: usize, p: usize) -> Result<(), CoreError>;
    /// The lowest asynchrony score among nodes with at least two members,
    /// or `INFINITY` when there is none.
    fn worst_score(&self) -> Result<f64, CoreError> {
        Ok((0..self.node_count())
            .filter_map(|n| node_score(self, n))
            .min_by(|a, b| a.partial_cmp(b).expect("scores are finite"))
            .unwrap_or(f64::INFINITY))
    }
}

/// A node's asynchrony score from its peak and peak sum, or `None` for a
/// node with fewer than two members (remapping leaves those alone).
fn node_score<N: RemapNodes + ?Sized>(nodes: &N, n: usize) -> Option<f64> {
    let count = nodes.members(n).len();
    (count >= 2).then(|| asynchrony_from_peaks(nodes.peak_sum(n), nodes.peak(n), count))
}

/// The swap search: each round ranks the nodes by ascending asynchrony
/// score and applies the best admissible swap of the first of the
/// `nodes_per_round` worst nodes that has one, until a round finds none
/// or `max_swaps` swaps are accepted.
pub(crate) fn remap_nodes<N: RemapNodes>(
    nodes: &mut N,
    config: &RemapConfig,
) -> Result<RemapReport, CoreError> {
    // Serial orchestration point: the gauges and round counter live here;
    // the parallel scans inside `best_swap` batch commutative counters
    // only.
    let initial_worst_score = nodes.worst_score()?;
    let positions: Vec<usize> = (0..nodes.node_count()).collect();
    // Every member's AD in its own node, once per run: a swap changes it
    // only in the two nodes the swap touches.
    let mut ads = {
        let nodes = &*nodes;
        par_map(&positions, 1, |_, &n| member_ads(nodes, n))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
    };

    let mut swaps = Vec::new();
    'outer: while swaps.len() < config.max_swaps {
        so_telemetry::counter_add("so_remap_rounds_total", &[], 1);
        // Rank the nodes by ascending asynchrony score (a stable sort, so
        // ties keep scan order). Scores come from the peaks and peak sums
        // the node state holds: no trace is read.
        let mut scored: Vec<(usize, f64)> = positions
            .iter()
            .filter_map(|&n| node_score(&*nodes, n).map(|s| (n, s)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"));

        for &(n, _) in scored.iter().take(config.nodes_per_round) {
            if let Some((p, record)) = best_swap(n, &*nodes, &ads, config)? {
                nodes.apply_swap(&record, n, p)?;
                ads[n] = member_ads(&*nodes, n)?;
                ads[p] = member_ads(&*nodes, p)?;
                if so_telemetry::enabled() {
                    so_telemetry::counter_add("so_remap_swaps_accepted_total", &[], 1);
                    so_telemetry::observe(
                        "so_remap_swap_gain",
                        &[],
                        record.gain_node + record.gain_partner,
                    );
                }
                swaps.push(record);
                continue 'outer;
            }
        }
        break; // No improving swap among the most fragmented nodes.
    }

    let final_worst_score = nodes.worst_score()?;
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_remap_runs_total", &[], 1);
        so_telemetry::gauge_set("so_remap_initial_worst_score", &[], initial_worst_score);
        so_telemetry::gauge_set("so_remap_final_worst_score", &[], final_worst_score);
        so_telemetry::gauge_set(
            "so_remap_worst_score_improvement",
            &[],
            final_worst_score - initial_worst_score,
        );
    }
    Ok(RemapReport {
        swaps,
        initial_worst_score,
        final_worst_score,
    })
}

/// `AD(i, N)` of every member `i` of node `n` in member order, or nothing
/// for a node with fewer than two members.
fn member_ads<N: RemapNodes + ?Sized>(nodes: &N, n: usize) -> Result<Vec<f64>, CoreError> {
    let members = nodes.members(n);
    if members.len() < 2 {
        return Ok(Vec::new());
    }
    let sum = nodes.sum(n);
    members
        .iter()
        .map(|&i| differential_score_excluding(nodes.row(i), sum, nodes.row(i), members.len()))
        .collect()
}

/// Finds the best admissible swap for node `n`: take its lowest-`AD`
/// member and scan all members of the other nodes, requiring both nodes'
/// differential scores to rise. Returns the partner's position with the
/// swap.
///
/// `ads[p]` holds every member's `AD` in its own node `p`, so each
/// candidate costs two fused `O(T)` passes over node sums
/// ([`differential_score_excluding`]) and no allocation. Partner nodes are
/// scanned in parallel; ties resolve to the first candidate in (partner,
/// member) order, exactly as a serial scan would.
fn best_swap<N: RemapNodes + ?Sized>(
    n: usize,
    nodes: &N,
    ads: &[Vec<f64>],
    config: &RemapConfig,
) -> Result<Option<(usize, SwapRecord)>, CoreError> {
    let members = nodes.members(n);
    if members.len() < 2 {
        return Ok(None);
    }
    // Worst-fitting member by differential score (first wins ties).
    let mut worst: Option<(usize, f64)> = None;
    for (&i, &ad) in members.iter().zip(&ads[n]) {
        if worst.map_or(true, |(_, w)| ad < w) {
            worst = Some((i, ad));
        }
    }
    let (out_instance, out_score) = worst.expect("node has at least two members");
    let out_samples = nodes.row(out_instance);
    let sum = nodes.sum(n);

    // One parallel task per candidate partner; each returns its own best
    // admissible candidate in member order.
    let candidates = par_map(
        ads,
        1,
        |p, partner_ads| -> Result<Option<SwapRecord>, CoreError> {
            let partner = nodes.members(p);
            if p == n || partner.len() < 2 {
                return Ok(None);
            }
            // Batched: one commutative add per partner, not per candidate,
            // keeps the parallel scan free of sink contention.
            so_telemetry::counter_add("so_remap_swap_evals_total", &[], partner.len() as u64);
            let partner_sum = nodes.sum(p);
            let mut best: Option<SwapRecord> = None;
            for (&j, &ad_j_before) in partner.iter().zip(partner_ads) {
                let j_samples = nodes.row(j);
                let ad_j_at_node =
                    differential_score_excluding(j_samples, sum, out_samples, members.len())?;
                let ad_i_at_partner = differential_score_excluding(
                    out_samples,
                    partner_sum,
                    j_samples,
                    partner.len(),
                )?;
                let gain_node = ad_j_at_node - out_score;
                let gain_partner = ad_i_at_partner - ad_j_before;
                if gain_node > config.min_gain && gain_partner > config.min_gain {
                    let combined = gain_node + gain_partner;
                    if best
                        .as_ref()
                        .map_or(true, |b| combined > b.gain_node + b.gain_partner)
                    {
                        best = Some(SwapRecord {
                            instance_out: out_instance,
                            instance_in: j,
                            node: nodes.node(n),
                            partner: nodes.node(p),
                            gain_node,
                            gain_partner,
                        });
                    }
                }
            }
            Ok(best)
        },
    );

    // Strict `>` keeps the earliest best across partners, matching the
    // serial scan's tie-breaking.
    let mut best: Option<(usize, SwapRecord)> = None;
    for (p, candidate) in candidates.into_iter().enumerate() {
        if let Some(candidate) = candidate? {
            if best.as_ref().map_or(true, |(_, b)| {
                candidate.gain_node + candidate.gain_partner > b.gain_node + b.gain_partner
            }) {
                best = Some((p, candidate));
            }
        }
    }
    Ok(best)
}

/// The offline node state: an [`Assignment`] over a trace slice, with the
/// nodes of one level in [`PowerTopology::nodes_at_level`] order.
struct AssignmentNodes<'a> {
    traces: &'a [PowerTrace],
    topology: &'a PowerTopology,
    assignment: &'a mut Assignment,
    level: Level,
    /// Each instance's peak, computed once per run.
    peaks: Vec<f64>,
    states: Vec<NodeState>,
}

impl<'a> AssignmentNodes<'a> {
    fn new(
        traces: &'a [PowerTrace],
        topology: &'a PowerTopology,
        assignment: &'a mut Assignment,
        level: Level,
    ) -> Result<Self, CoreError> {
        let peaks = par_map(traces, 64, |_, t| peak_of_samples(t.samples()));
        let states = build_states(topology, assignment, traces, level)?;
        Ok(Self {
            traces,
            topology,
            assignment,
            level,
            peaks,
            states,
        })
    }
}

impl RemapNodes for AssignmentNodes<'_> {
    fn node_count(&self) -> usize {
        self.states.len()
    }

    fn node(&self, n: usize) -> NodeId {
        self.states[n].node
    }

    fn members(&self, n: usize) -> &[usize] {
        &self.states[n].members
    }

    fn sum(&self, n: usize) -> &[f64] {
        self.states[n].agg.sum_samples()
    }

    fn peak(&self, n: usize) -> f64 {
        self.states[n].agg.peak()
    }

    /// Re-added in member order on every call: raw traces are off the
    /// exact grid, so a running peak sum could drift from this one.
    fn peak_sum(&self, n: usize) -> f64 {
        self.states[n].members.iter().map(|&i| self.peaks[i]).sum()
    }

    fn row(&self, i: usize) -> &[f64] {
        self.traces[i].samples()
    }

    fn apply_swap(&mut self, swap: &SwapRecord, n: usize, p: usize) -> Result<(), CoreError> {
        self.assignment.swap(swap.instance_out, swap.instance_in)?;
        self.states[n].replace_member(swap.instance_out, swap.instance_in, self.traces)?;
        self.states[p].replace_member(swap.instance_in, swap.instance_out, self.traces)
    }

    /// Re-sums every node from the assignment, as [`worst_node`] does: the
    /// incrementally updated sums of raw traces may differ from a fresh
    /// sum in the last bits.
    fn worst_score(&self) -> Result<f64, CoreError> {
        Ok(
            worst_node(self.topology, self.assignment, self.traces, self.level)?
                .map_or(f64::INFINITY, |(_, s)| s),
        )
    }
}

/// One node of [`AssignmentNodes`]: its member list (ascending, as
/// [`Assignment::instances_under`] reports it) and the incrementally
/// maintained aggregate of the members' traces.
#[derive(Debug, Clone)]
struct NodeState {
    node: NodeId,
    members: Vec<usize>,
    agg: NodeAggregate,
}

impl NodeState {
    /// Applies one side of an accepted swap: `out` leaves, `inn` arrives.
    fn replace_member(
        &mut self,
        out: usize,
        inn: usize,
        traces: &[PowerTrace],
    ) -> Result<(), CoreError> {
        let pos = self
            .members
            .binary_search(&out)
            .expect("swapped instance is a member of its node");
        self.members.remove(pos);
        let pos = self
            .members
            .binary_search(&inn)
            .expect_err("arriving instance is not yet a member");
        self.members.insert(pos, inn);
        self.agg.remove_samples(traces[out].samples())?;
        self.agg.add_samples(traces[inn].samples())?;
        Ok(())
    }
}

/// The grid of a trace slice; a 1-sample placeholder for an empty slice.
fn grid_of(traces: &[PowerTrace]) -> TimeGrid {
    traces.first().map_or(TimeGrid::new(1, 1), PowerTrace::grid)
}

/// Member instances under `node`, resolved against a pre-grouped rack map
/// — same contents and ascending order as [`Assignment::instances_under`],
/// without rebuilding the grouping per node. Hoisting the `by_rack` map
/// out of the per-node loops turns the state/score sweeps from
/// `O(nodes · instances)` into `O(instances)` per remap call.
fn members_under(
    topology: &PowerTopology,
    by_rack: &BTreeMap<NodeId, Vec<usize>>,
    node: NodeId,
) -> Result<Vec<usize>, TreeError> {
    let mut out = Vec::new();
    for rack in topology.racks_under(node)? {
        if let Some(instances) = by_rack.get(&rack) {
            out.extend_from_slice(instances);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Builds the cached state of every node at `level`, one node per parallel
/// task (each task sums that node's member traces once).
fn build_states(
    topology: &PowerTopology,
    assignment: &Assignment,
    traces: &[PowerTrace],
    level: Level,
) -> Result<Vec<NodeState>, CoreError> {
    let grid = grid_of(traces);
    let by_rack = assignment.by_rack();
    par_map(
        topology.nodes_at_level(level),
        1,
        |_, &node| -> Result<NodeState, CoreError> {
            let members = members_under(topology, &by_rack, node)?;
            let agg =
                NodeAggregate::from_samples(grid, members.iter().map(|&i| traces[i].samples()))?;
            Ok(NodeState { node, members, agg })
        },
    )
    .into_iter()
    .collect()
}

/// Peak of the member rows' elementwise sum without materializing the sum:
/// the time axis is processed in fixed stack-resident blocks, each block
/// accumulated member-by-member in slice order — per-element float
/// association identical to `PowerTrace::sum_of` + `peak()`, so the result
/// is bit-identical to the materializing path.
fn peak_of_member_sum(traces: &[PowerTrace], members: &[usize]) -> f64 {
    let t_len = grid_of(traces).len();
    let mut block = [0.0f64; TIME_BLOCK];
    let mut peak = f64::MIN;
    let mut start = 0;
    while start < t_len {
        let width = TIME_BLOCK.min(t_len - start);
        block[..width].fill(0.0);
        for &m in members {
            let row = &traces[m].samples()[start..start + width];
            for (acc, &v) in block[..width].iter_mut().zip(row) {
                *acc += v;
            }
        }
        for &v in &block[..width] {
            peak = peak.max(v);
        }
        start += width;
    }
    peak
}

/// [`crate::asynchrony_score`] over member traces, fused: peak sum
/// accumulated in member order, aggregate peak via the allocation-free
/// blocked kernel. Bit-identical to the materializing path.
fn asynchrony_score_members(traces: &[PowerTrace], members: &[usize]) -> Result<f64, CoreError> {
    if members.is_empty() {
        return Err(CoreError::EmptySet);
    }
    let t_len = grid_of(traces).len();
    let mut peak_sum = 0.0;
    for &i in members {
        let row = traces[i].samples();
        if row.len() != t_len {
            return Err(CoreError::Trace(
                so_powertrace::TraceError::LengthMismatch {
                    left: t_len,
                    right: row.len(),
                },
            ));
        }
        peak_sum += peak_of_samples(row);
    }
    let aggregate_peak = peak_of_member_sum(traces, members);
    Ok(asynchrony_from_peaks(
        peak_sum,
        aggregate_peak,
        members.len(),
    ))
}

/// The node with the lowest asynchrony score at `level` among the nodes
/// that host at least two instances.
///
/// # Errors
///
/// Propagates tree lookups and trace-length mismatches.
fn worst_node(
    topology: &PowerTopology,
    assignment: &Assignment,
    traces: &[PowerTrace],
    level: Level,
) -> Result<Option<(NodeId, f64)>, CoreError> {
    // One node per parallel task; each node's score is computed exactly as
    // the serial loop would, and the results keep node order.
    let by_rack = assignment.by_rack();
    let scores = par_map(
        topology.nodes_at_level(level),
        1,
        |_, &node| -> Result<Option<(NodeId, f64)>, CoreError> {
            let members = members_under(topology, &by_rack, node)?;
            if members.len() < 2 {
                return Ok(None);
            }
            Ok(Some((node, asynchrony_score_members(traces, &members)?)))
        },
    );
    let mut worst: Option<(NodeId, f64)> = None;
    for entry in scores {
        if let Some((node, score)) = entry? {
            if worst.map_or(true, |(_, w)| score < w) {
                worst = Some((node, score));
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertrace::TimeGrid;
    use so_workloads::{InstanceSpec, ServiceClass};

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(2)
            .rack_capacity(2)
            .build()
            .unwrap()
    }

    fn fleet() -> Fleet {
        // Two frontends (synchronous day peaks), two dbs (night peaks).
        let grid = TimeGrid::one_week(60);
        let specs = vec![
            InstanceSpec::nominal(ServiceClass::Frontend, 1),
            InstanceSpec::nominal(ServiceClass::Frontend, 2),
            InstanceSpec::nominal(ServiceClass::Db, 3),
            InstanceSpec::nominal(ServiceClass::Db, 4),
        ];
        Fleet::generate(specs, grid, 1).unwrap()
    }

    #[test]
    fn remap_fixes_grouped_placement() {
        let topo = topo();
        let fleet = fleet();
        let racks = topo.racks();
        // Worst case: both frontends on rack 0, both dbs on rack 1.
        let mut assignment =
            Assignment::new(vec![racks[0], racks[0], racks[1], racks[1]], &topo).unwrap();

        let report = remap(&fleet, &topo, &mut assignment, RemapConfig::default()).unwrap();
        assert!(!report.swaps.is_empty(), "expected at least one swap");
        assert!(report.final_worst_score > report.initial_worst_score);

        // Each rack now hosts one frontend and one db.
        for (_, instances) in assignment.by_rack() {
            let frontends = instances
                .iter()
                .filter(|&&i| fleet.service_of(i) == ServiceClass::Frontend)
                .count();
            assert_eq!(frontends, 1, "rack should mix services: {instances:?}");
        }
    }

    #[test]
    fn remap_leaves_good_placement_alone() {
        let topo = topo();
        let fleet = fleet();
        let racks = topo.racks();
        // Already mixed: one frontend + one db per rack.
        let mut assignment =
            Assignment::new(vec![racks[0], racks[1], racks[0], racks[1]], &topo).unwrap();
        let before = assignment.clone();
        let report = remap(&fleet, &topo, &mut assignment, RemapConfig::default()).unwrap();
        assert!(report.swaps.is_empty());
        assert_eq!(assignment, before);
    }

    #[test]
    fn swap_budget_is_respected() {
        let topo = topo();
        let fleet = fleet();
        let racks = topo.racks();
        let mut assignment =
            Assignment::new(vec![racks[0], racks[0], racks[1], racks[1]], &topo).unwrap();
        let config = RemapConfig {
            max_swaps: 0,
            ..RemapConfig::default()
        };
        let report = remap(&fleet, &topo, &mut assignment, config).unwrap();
        assert!(report.swaps.is_empty());
    }

    #[test]
    fn worst_node_finds_the_synchronous_rack() {
        let topo = topo();
        let fleet = fleet();
        let racks = topo.racks();
        // Rack 0 synchronous (two frontends), rack 1 mixed is impossible
        // here (remaining two dbs are also synchronous) — but frontends
        // have a sharper shared peak, so scores identify a worst node.
        let assignment =
            Assignment::new(vec![racks[0], racks[0], racks[1], racks[1]], &topo).unwrap();
        let (_, score) = worst_node(&topo, &assignment, fleet.averaged_traces(), Level::Rack)
            .unwrap()
            .unwrap();
        assert!(
            score < 1.2,
            "synchronous rack should score near 1.0, got {score}"
        );
    }

    #[test]
    fn fused_node_score_matches_asynchrony_score() {
        let fleet = fleet();
        let traces = fleet.averaged_traces();
        let members = [0usize, 1, 2, 3];
        let fused = asynchrony_score_members(traces, &members).unwrap();
        let reference =
            crate::score::asynchrony_score(members.iter().map(|&i| &traces[i])).unwrap();
        assert_eq!(fused.to_bits(), reference.to_bits());
        assert_eq!(
            asynchrony_score_members(traces, &[]).unwrap_err(),
            CoreError::EmptySet
        );
    }
}
