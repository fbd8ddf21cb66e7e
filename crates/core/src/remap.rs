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
//! The engine keeps one [`NodeAggregate`] per power node: member sums are
//! maintained incrementally across swaps and candidate evaluation never
//! re-sums a node. Differential scores are *fused* over the cached sum
//! ([`differential_score_excluding`]) — no peer-mean trace is ever
//! materialized, so one candidate costs `O(T)` with **zero allocations**
//! instead of the naive `O(|node| · T)` plus a temporary per candidate.
//! Candidate partners are scanned in parallel; the reduction keeps the
//! first best candidate in (node, member) order, so the chosen swap is
//! identical to the serial scan's.
//!
//! # Storage layouts
//!
//! The engine is generic over [`SampleSource`], so it runs unchanged — and
//! bit-identically, as the `arena` oracle family pins — over
//! `Vec<PowerTrace>` fleets ([`remap_traces`]) and columnar
//! [`TraceArena`]s ([`remap_arena`]), the layout that scales to
//! million-instance fleets.

use std::collections::BTreeMap;

use so_parallel::par_map;
use so_powertrace::{peak_of_samples, NodeAggregate, PowerTrace, TraceArena};
use so_powertree::{Assignment, Level, NodeId, PowerTopology, TreeError};
use so_workloads::Fleet;

use crate::error::CoreError;
use crate::score::differential_score_excluding;
use crate::source::SampleSource;

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

/// One accepted swap.
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
/// This is the degraded-data entry point: callers that completed partial
/// telemetry via [`crate::degraded::complete_traces`] feed the completed
/// traces here without needing a [`Fleet`].
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
    remap_source(traces, topology, assignment, config)
}

/// Runs swap-based remapping on `assignment` in place against a columnar
/// [`TraceArena`] (row `i` is instance `i`'s averaged I-trace).
///
/// Decisions, report, and final assignment are **bit-identical** to
/// [`remap_traces`] over the materialized rows — the engine performs the
/// same float work in the same order regardless of storage layout.
///
/// # Errors
///
/// Propagates trace and tree errors.
pub fn remap_arena(
    arena: &TraceArena,
    topology: &PowerTopology,
    assignment: &mut Assignment,
    config: RemapConfig,
) -> Result<RemapReport, CoreError> {
    remap_source(arena, topology, assignment, config)
}

/// The storage-agnostic remap engine behind [`remap_traces`] and
/// [`remap_arena`].
fn remap_source<S: SampleSource + ?Sized>(
    source: &S,
    topology: &PowerTopology,
    assignment: &mut Assignment,
    config: RemapConfig,
) -> Result<RemapReport, CoreError> {
    // Serial orchestration point: the span, gauges, and round counter live
    // here; the parallel scans inside `best_swap` batch commutative
    // counters only.
    let _span = so_telemetry::span("remap");
    let initial_worst_score = worst_node_source(topology, assignment, source, config.level)?
        .map(|(_, s)| s)
        .unwrap_or(f64::INFINITY);

    // Each instance's peak, computed once up front (pure per-instance map).
    let indices: Vec<usize> = (0..source.count()).collect();
    let peaks = par_map(&indices, 64, |_, &i| peak_of_samples(source.samples(i)));
    let mut states = build_states(topology, assignment, source, config.level)?;

    let mut swaps = Vec::new();
    'outer: while swaps.len() < config.max_swaps {
        so_telemetry::counter_add("so_remap_rounds_total", &[], 1);
        // Rank this level's nodes by ascending asynchrony score. Peak sums
        // are recomputed from the cached per-instance peaks and aggregate
        // peaks come from the cached sums — O(nodes · |node|), no trace
        // scans.
        let mut scored: Vec<(usize, f64)> = states
            .iter()
            .enumerate()
            .filter_map(|(si, state)| state.score(&peaks).map(|s| (si, s)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"));

        for &(si, _) in scored.iter().take(config.nodes_per_round) {
            if let Some(record) = best_swap(si, &states, source, &config)? {
                assignment.swap(record.instance_out, record.instance_in)?;
                let pi = states
                    .iter()
                    .position(|s| s.node == record.partner)
                    .expect("partner came from the state list");
                states[si].replace_member(record.instance_out, record.instance_in, source)?;
                states[pi].replace_member(record.instance_in, record.instance_out, source)?;
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

    let final_worst_score = worst_node_source(topology, assignment, source, config.level)?
        .map(|(_, s)| s)
        .unwrap_or(f64::INFINITY);
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

/// Degraded-mode remapping: completes partial traces from service-level
/// priors (see [`crate::degraded`]), then runs [`remap_traces`]. Returns
/// the remap report together with the provenance of every trace the
/// decision rested on.
///
/// # Errors
///
/// Propagates completion errors ([`CoreError::InsufficientData`] for a
/// service with no observed data) plus trace and tree errors.
pub fn remap_degraded(
    masked: &[so_powertrace::MaskedTrace],
    service_of: &[usize],
    topology: &PowerTopology,
    assignment: &mut Assignment,
    config: RemapConfig,
    min_coverage: f64,
) -> Result<(RemapReport, crate::degraded::DegradedReport), CoreError> {
    let (traces, degraded) =
        crate::degraded::complete_with_derived_priors(masked, service_of, min_coverage)?;
    let report = remap_traces(&traces, topology, assignment, config)?;
    Ok((report, degraded))
}

/// Cached per-node remapping state: the member list (sorted ascending, as
/// [`Assignment::instances_under`] reports it) and the incrementally
/// maintained aggregate of the members' traces.
#[derive(Debug, Clone)]
struct NodeState {
    node: NodeId,
    members: Vec<usize>,
    agg: NodeAggregate,
}

impl NodeState {
    /// Asynchrony score from cached state, or `None` for nodes with fewer
    /// than two members (ineligible, as in [`scored_nodes_source`]).
    fn score(&self, peaks: &[f64]) -> Option<f64> {
        if self.members.len() < 2 {
            return None;
        }
        let aggregate_peak = self.agg.peak();
        if aggregate_peak == 0.0 {
            return Some(self.members.len() as f64);
        }
        let peak_sum: f64 = self.members.iter().map(|&i| peaks[i]).sum();
        Some(peak_sum / aggregate_peak)
    }

    /// Applies one side of an accepted swap: `out` leaves, `inn` arrives.
    fn replace_member<S: SampleSource + ?Sized>(
        &mut self,
        out: usize,
        inn: usize,
        source: &S,
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
        self.agg.remove_samples(source.samples(out))?;
        self.agg.add_samples(source.samples(inn))?;
        Ok(())
    }
}

/// Member instances under `node`, resolved against a pre-grouped rack map
/// — same contents and ascending order as [`Assignment::instances_under`],
/// without rebuilding the grouping per node. Hoisting the `by_rack` map
/// out of the per-node loops turns the state/score sweeps from
/// `O(nodes · instances)` into `O(instances)` per remap call, which is
/// what keeps the online engine's per-batch repair affordable at 100k
/// instances.
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
fn build_states<S: SampleSource + ?Sized>(
    topology: &PowerTopology,
    assignment: &Assignment,
    source: &S,
    level: Level,
) -> Result<Vec<NodeState>, CoreError> {
    let grid = source.grid();
    let by_rack = assignment.by_rack();
    par_map(
        topology.nodes_at_level(level),
        1,
        |_, &node| -> Result<NodeState, CoreError> {
            let members = members_under(topology, &by_rack, node)?;
            let agg =
                NodeAggregate::from_samples(grid, members.iter().map(|&i| source.samples(i)))?;
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
fn peak_of_member_sum<S: SampleSource + ?Sized>(source: &S, members: &[usize]) -> f64 {
    let t_len = source.grid().len();
    let mut block = [0.0f64; TIME_BLOCK];
    let mut peak = f64::MIN;
    let mut start = 0;
    while start < t_len {
        let width = TIME_BLOCK.min(t_len - start);
        block[..width].fill(0.0);
        for &m in members {
            let row = &source.samples(m)[start..start + width];
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

/// [`crate::asynchrony_score`] over member rows of a sample source, fused:
/// peak sum accumulated in member order, aggregate peak via the
/// allocation-free blocked kernel. Bit-identical to the trace-slice path.
fn asynchrony_score_members<S: SampleSource + ?Sized>(
    source: &S,
    members: &[usize],
) -> Result<f64, CoreError> {
    if members.is_empty() {
        return Err(CoreError::EmptySet);
    }
    let t_len = source.grid().len();
    let mut peak_sum = 0.0;
    for &i in members {
        let row = source.samples(i);
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
    let aggregate_peak = peak_of_member_sum(source, members);
    if aggregate_peak == 0.0 {
        return Ok(members.len() as f64);
    }
    Ok(peak_sum / aggregate_peak)
}

/// Asynchrony score of every node at `level` that hosts at least two
/// instances.
fn scored_nodes_source<S: SampleSource + ?Sized>(
    topology: &PowerTopology,
    assignment: &Assignment,
    source: &S,
    level: Level,
) -> Result<Vec<(NodeId, f64)>, CoreError> {
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
            let score = asynchrony_score_members(source, &members)?;
            Ok(Some((node, score)))
        },
    );
    let mut out = Vec::new();
    for entry in scores {
        if let Some(scored) = entry? {
            out.push(scored);
        }
    }
    Ok(out)
}

/// The node with the lowest asynchrony score at `level`.
pub fn worst_node(
    topology: &PowerTopology,
    assignment: &Assignment,
    traces: &[PowerTrace],
    level: Level,
) -> Result<Option<(NodeId, f64)>, CoreError> {
    worst_node_source(topology, assignment, traces, level)
}

/// [`worst_node`] over any sample source (used by the arena pipeline).
fn worst_node_source<S: SampleSource + ?Sized>(
    topology: &PowerTopology,
    assignment: &Assignment,
    source: &S,
    level: Level,
) -> Result<Option<(NodeId, f64)>, CoreError> {
    Ok(scored_nodes_source(topology, assignment, source, level)?
        .into_iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite")))
}

/// Finds the best admissible swap for the node at state index `si`: take
/// its lowest-`AD` instance and scan all instances of other nodes at the
/// same level, requiring both nodes' differential scores to rise.
///
/// Every differential score is a fused `O(T)` pass over the cached node
/// sum ([`differential_score_excluding`]) — no peer-mean trace and no
/// temporary allocation per candidate. Partner nodes are scanned in
/// parallel; ties resolve to the first candidate in (partner, member)
/// order, exactly as a serial scan would.
fn best_swap<S: SampleSource + ?Sized>(
    si: usize,
    states: &[NodeState],
    source: &S,
    config: &RemapConfig,
) -> Result<Option<SwapRecord>, CoreError> {
    let state = &states[si];
    if state.members.len() < 2 {
        return Ok(None);
    }

    // Worst-fitting instance of the node by differential score. The map is
    // positional, the reduction serial in member order (first wins ties).
    let ads = par_map(&state.members, 8, |_, &i| -> Result<f64, CoreError> {
        differential_score_excluding(
            source.samples(i),
            state.agg.sum_samples(),
            source.samples(i),
            state.agg.count(),
        )
    });
    let mut worst: Option<(usize, f64)> = None;
    for (&i, ad) in state.members.iter().zip(ads) {
        let ad = ad?;
        if worst.map_or(true, |(_, w)| ad < w) {
            worst = Some((i, ad));
        }
    }
    let (out_instance, out_score) = worst.expect("node has at least two members");
    let out_samples = source.samples(out_instance);

    // One parallel task per candidate partner; each returns its own best
    // admissible candidate in member order.
    let candidates = par_map(
        states,
        1,
        |sj, partner| -> Result<Option<SwapRecord>, CoreError> {
            if sj == si || partner.members.len() < 2 {
                return Ok(None);
            }
            // Batched: one commutative add per partner, not per candidate,
            // keeps the parallel scan free of sink contention.
            so_telemetry::counter_add(
                "so_remap_swap_evals_total",
                &[],
                partner.members.len() as u64,
            );
            let mut best: Option<SwapRecord> = None;
            for &j in &partner.members {
                let j_samples = source.samples(j);
                let ad_j_before = differential_score_excluding(
                    j_samples,
                    partner.agg.sum_samples(),
                    j_samples,
                    partner.agg.count(),
                )?;
                let ad_j_at_node = differential_score_excluding(
                    j_samples,
                    state.agg.sum_samples(),
                    out_samples,
                    state.agg.count(),
                )?;
                let ad_i_at_partner = differential_score_excluding(
                    out_samples,
                    partner.agg.sum_samples(),
                    j_samples,
                    partner.agg.count(),
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
                            node: state.node,
                            partner: partner.node,
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
    let mut best: Option<SwapRecord> = None;
    for candidate in candidates {
        if let Some(candidate) = candidate? {
            if best.as_ref().map_or(true, |b| {
                candidate.gain_node + candidate.gain_partner > b.gain_node + b.gain_partner
            }) {
                best = Some(candidate);
            }
        }
    }
    Ok(best)
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
    fn arena_remap_is_bit_identical_to_trace_remap() {
        let topo = topo();
        let fleet = fleet();
        let racks = topo.racks();
        let placement = vec![racks[0], racks[0], racks[1], racks[1]];

        let mut vec_assignment = Assignment::new(placement.clone(), &topo).unwrap();
        let vec_report = remap(&fleet, &topo, &mut vec_assignment, RemapConfig::default()).unwrap();

        let arena = TraceArena::from_traces(fleet.averaged_traces()).unwrap();
        let mut arena_assignment = Assignment::new(placement, &topo).unwrap();
        let arena_report =
            remap_arena(&arena, &topo, &mut arena_assignment, RemapConfig::default()).unwrap();

        assert_eq!(arena_report, vec_report);
        assert_eq!(arena_assignment, vec_assignment);
        assert_eq!(
            arena_report.final_worst_score.to_bits(),
            vec_report.final_worst_score.to_bits()
        );
    }

    #[test]
    fn degraded_remap_with_full_coverage_matches_clean_remap() {
        use so_powertrace::MaskedTrace;

        let topo = topo();
        let fleet = fleet();
        let racks = topo.racks();
        let placement = vec![racks[0], racks[0], racks[1], racks[1]];

        let mut clean = Assignment::new(placement.clone(), &topo).unwrap();
        let clean_report = remap(&fleet, &topo, &mut clean, RemapConfig::default()).unwrap();

        // Fully observed masked traces complete to the measured traces, so
        // degraded remapping takes identical decisions.
        let masked: Vec<MaskedTrace> = fleet
            .averaged_traces()
            .iter()
            .map(MaskedTrace::from_trace)
            .collect();
        let service_of: Vec<usize> = (0..fleet.len())
            .map(|i| {
                if fleet.service_of(i) == ServiceClass::Frontend {
                    0
                } else {
                    1
                }
            })
            .collect();
        let mut degraded = Assignment::new(placement, &topo).unwrap();
        let (report, provenance) = remap_degraded(
            &masked,
            &service_of,
            &topo,
            &mut degraded,
            RemapConfig::default(),
            0.5,
        )
        .unwrap();
        assert!(provenance.is_clean());
        assert_eq!(report, clean_report);
        assert_eq!(degraded, clean);
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
