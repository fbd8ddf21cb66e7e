//! Online arrival/departure placement: the day-two operation at fleet
//! scale.
//!
//! SmoothOperator (§3.3) places a fixed fleet offline and sketches how one
//! extra instance would be admitted against S-trace peaks; this module
//! runs that sketch continuously. An [`OnlineFleet`] holds resident state
//! — a columnar [`TraceArena`] of every admitted instance, the
//! [`PowerTopology`], and per-node [`NodeAggregates`] — and processes a
//! deterministic event stream of batch arrivals and retirements:
//!
//! * every **arrival** is committed immediately to the best admissible
//!   rack under a pluggable [`CommitPolicy`], evaluated against the
//!   cached aggregate rows and peaks: one fused [`peak_of_sum_samples`]
//!   pass per candidate rack, plus one budget check per distinct ancestor
//!   of the probed racks, usually O(1) (see [`OnlineFleet::evaluate`]);
//! * every **retirement** releases its slot and subtracts its row from
//!   the touched power path;
//! * a configurable **repair budget** amortizes cleanup through the
//!   offline differential-score remap ([`remap_arena`]) between batches.
//!
//! # Exact resident aggregates
//!
//! Every sample that enters the resident state (arrivals, the daemon's
//! ingest) and every candidate evaluated against it is snapped onto the
//! exact grid of [`snap_samples`]; out-of-range input is rejected before
//! any state changes. Sums on that grid are exact, so each mutation
//! updates the touched path in place, O(path · T): `+= row` on a commit,
//! `-= row` on a retirement, both on a repair move. The resident
//! aggregates after *any* event sequence are therefore **bit-identical**
//! to an offline [`NodeAggregates::compute`] of the final fleet, in any
//! order of addition; the `online` oracle family pins this, with
//! [`NodeAggregates::refresh_rack`] and `refresh_ancestors` kept as the
//! reference recompute.
//!
//! Policies break ties deterministically (ascending rack id last), events
//! within a batch are canonically ordered by [`OnlineFleet::apply`], and
//! every parallel scan is a positional [`par_map`], so the engine is
//! bit-reproducible at any thread count.
//!
//! [`peak_of_sum_samples`]: crate::score::peak_of_sum_samples

use std::collections::BTreeMap;
use std::sync::Arc;

use so_parallel::par_map;
use so_powertrace::{
    peak_of_samples, snap_samples, PowerTrace, TimeGrid, TraceArena, TraceError, MAX_EXACT_SLOTS,
};
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology, TreeError};
use so_telemetry::{AlertTransition, FlightKind, LivePlane};

use crate::error::CoreError;
use crate::remap::{remap_arena, RemapConfig, RemapReport};
use crate::score::{pairwise_score, pairwise_score_from_peaks, peak_of_sum_samples};

/// Fewest racks a lane of an all-rack probe scan is given: spawning one OS
/// thread costs on the order of a hundred O(T) rack probes.
const SCAN_GRAIN: usize = 512;

/// How an arrival picks its rack among the admissible candidates.
///
/// All policies consider only *admissible* racks (free slot, and the whole
/// root path keeps non-negative headroom after admission) and break ties
/// by ascending rack id, so every policy is a deterministic function of
/// the engine state and the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Maximize the pairwise asynchrony between the candidate and the
    /// rack's current aggregate (§3.4); ties by smaller peak increase.
    /// The paper's placement objective applied greedily per arrival.
    BestAsynchrony,
    /// Lowest-id admissible rack. The classical baseline: cheapest to
    /// evaluate, packs the id space left-to-right.
    FirstFit,
    /// Most post-admission headroom (budget minus new peak) — "worst fit"
    /// packing, which spreads load and preserves large contiguous
    /// headroom at the ancestors.
    WorstFit,
    /// `BestAsynchrony` restricted to a deterministic sample of `probes`
    /// racks (per the online rack-placement literature: sampling a
    /// constant number of candidates retains most of the benefit at a
    /// fraction of the evaluation cost). The sample is a pure function of
    /// `(sample_salt, arrival ordinal)`.
    Sampling {
        /// Number of candidate racks probed per arrival.
        probes: usize,
    },
}

impl CommitPolicy {
    /// Stable label for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CommitPolicy::BestAsynchrony => "best_asynchrony",
            CommitPolicy::FirstFit => "first_fit",
            CommitPolicy::WorstFit => "worst_fit",
            CommitPolicy::Sampling { .. } => "sampling",
        }
    }
}

/// Configuration of an [`OnlineFleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Commit policy for arrivals.
    pub policy: CommitPolicy,
    /// Maximum remap swaps per [`OnlineFleet::repair`] call (0 disables
    /// repair entirely, including the implicit call in `apply`).
    pub repair_budget: usize,
    /// Minimum differential-score gain for a repair swap (see
    /// [`RemapConfig::min_gain`]).
    pub min_gain: f64,
    /// Salt for the `Sampling` policy's candidate draw.
    pub sample_salt: u64,
    /// Soft cap on the event journal's length; `0` keeps the journal
    /// unbounded (the historical behaviour). With a cap, whenever the
    /// journal grows past `max(journal_cap, 2 × live)` it is compacted
    /// to a [`EventRecord::Checkpoint`] snapshot of the live occupancy
    /// (one entry per live slot, ascending), so a resident daemon's
    /// journal memory is bounded by the live fleet, not the event count.
    /// The `2 × live` floor keeps compaction amortized O(1) per event
    /// even when the cap is smaller than the live set.
    pub journal_cap: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            policy: CommitPolicy::BestAsynchrony,
            repair_budget: 8,
            min_gain: 0.02,
            sample_salt: 0,
            journal_cap: 0,
        }
    }
}

/// The effect of admitting a candidate onto one rack — the online,
/// fused-evaluation counterpart of [`crate::AdmissionDecision`] (same
/// quantities, same bits; the `online` oracle family pins the agreement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafDecision {
    /// The rack evaluated.
    pub rack: NodeId,
    /// Whether the rack has a free slot and its whole root path keeps a
    /// non-negative headroom after admission (`has_slot && power_ok`).
    pub fits: bool,
    /// Whether the rack has a free slot (capacity, ignoring power).
    pub has_slot: bool,
    /// Whether the rack and its whole root path keep non-negative
    /// headroom after admission (power, ignoring capacity). A rejection
    /// where some probed rack had `has_slot && !power_ok` is a
    /// *breaker-budget violation*: capacity existed but a power budget
    /// turned the arrival away.
    pub power_ok: bool,
    /// The rack's aggregate peak after admission, watts.
    pub new_peak_watts: f64,
    /// How much the rack's peak rises, watts.
    pub peak_increase_watts: f64,
    /// Rack headroom after admission (budget minus new peak), watts.
    pub headroom_watts: f64,
    /// Pairwise asynchrony between the candidate and the rack's current
    /// aggregate (2.0 for an empty/zero rack, the degenerate best case).
    pub asynchrony: f64,
}

/// One entry of the engine's event journal — the ground truth an external
/// replay (the `online` oracle family) checks against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRecord {
    /// An arrival was committed to `rack` as arena row `slot`.
    Committed {
        /// Arena row of the admitted instance.
        slot: usize,
        /// Zero-based ordinal of the arrival among all arrivals offered.
        ordinal: u64,
        /// The rack it landed on.
        rack: NodeId,
    },
    /// An arrival found no admissible rack and was turned away.
    Rejected {
        /// Zero-based ordinal of the arrival among all arrivals offered.
        ordinal: u64,
    },
    /// A live instance was retired from `rack`.
    Retired {
        /// Arena row of the retired instance.
        slot: usize,
        /// The rack it left.
        rack: NodeId,
    },
    /// Repair moved a live instance between racks.
    Moved {
        /// Arena row of the moved instance.
        slot: usize,
        /// Source rack.
        from: NodeId,
        /// Destination rack.
        to: NodeId,
    },
    /// A journal-compaction checkpoint: `slot` is live on `rack`. A
    /// compacted journal starts with one checkpoint per live slot
    /// (ascending slot order) that together pin the exact occupancy the
    /// discarded prefix had produced; replay treats a checkpoint as a
    /// direct insertion.
    Checkpoint {
        /// Arena row of the live instance.
        slot: usize,
        /// The rack hosting it.
        rack: NodeId,
    },
}

impl EventRecord {
    /// Encodes the event for the telemetry flight recorder's generic
    /// `(kind, a, b, c)` payload. Inverse of [`EventRecord::from_flight`].
    pub fn flight_encoding(&self) -> (FlightKind, u64, u64, u64) {
        match *self {
            EventRecord::Committed {
                slot,
                ordinal,
                rack,
            } => (
                FlightKind::Committed,
                slot as u64,
                ordinal,
                rack.index() as u64,
            ),
            EventRecord::Rejected { ordinal } => (FlightKind::Rejected, 0, ordinal, 0),
            EventRecord::Retired { slot, rack } => {
                (FlightKind::Retired, slot as u64, 0, rack.index() as u64)
            }
            EventRecord::Moved { slot, from, to } => (
                FlightKind::Moved,
                slot as u64,
                from.index() as u64,
                to.index() as u64,
            ),
            EventRecord::Checkpoint { slot, rack } => {
                (FlightKind::Checkpoint, slot as u64, 0, rack.index() as u64)
            }
        }
    }

    /// Decodes a flight-recorder payload back into a journal event
    /// (`None` for non-journal kinds such as alert transitions).
    pub fn from_flight(kind: FlightKind, a: u64, b: u64, c: u64) -> Option<EventRecord> {
        match kind {
            FlightKind::Committed => Some(EventRecord::Committed {
                slot: a as usize,
                ordinal: b,
                rack: NodeId::new(c as usize),
            }),
            FlightKind::Rejected => Some(EventRecord::Rejected { ordinal: b }),
            FlightKind::Retired => Some(EventRecord::Retired {
                slot: a as usize,
                rack: NodeId::new(c as usize),
            }),
            FlightKind::Moved => Some(EventRecord::Moved {
                slot: a as usize,
                from: NodeId::new(b as usize),
                to: NodeId::new(c as usize),
            }),
            FlightKind::Checkpoint => Some(EventRecord::Checkpoint {
                slot: a as usize,
                rack: NodeId::new(c as usize),
            }),
            _ => None,
        }
    }
}

/// Summary of one [`OnlineFleet::apply`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Arrivals committed.
    pub committed: usize,
    /// Arrivals rejected (no admissible rack).
    pub rejected: usize,
    /// Instances retired.
    pub retired: usize,
    /// The repair pass, when the budget allowed one.
    pub repair: Option<RemapReport>,
}

/// Per-level fragmentation of the live fleet against a reference
/// candidate (the stranded-power accounting of power-/fragmentation-aware
/// online scheduling): headroom under nodes whose subtree cannot admit
/// the reference is *stranded* — provisioned but unusable at that job
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentationLevel {
    /// The tree level measured.
    pub level: Level,
    /// Total positive headroom across the level's nodes, watts.
    pub headroom_watts: f64,
    /// Headroom under nodes that cannot admit the reference candidate
    /// anywhere in their subtree, watts.
    pub stranded_watts: f64,
    /// `stranded / headroom` (0 when the level has no headroom at all).
    pub ratio: f64,
}

/// Resident online placement engine. See the [module docs](self) for the
/// state model and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct OnlineFleet {
    topology: PowerTopology,
    budgets: Vec<f64>,
    config: OnlineConfig,
    grid: TimeGrid,
    /// One row per instance ever committed; retired rows stay (tombstoned
    /// via `rack_of`) so slots are stable identifiers.
    arena: TraceArena,
    /// Hosting rack per slot; `None` once retired.
    rack_of: Vec<Option<NodeId>>,
    /// Live member slots per rack (ascending), indexed by node id.
    members: Vec<Vec<usize>>,
    aggregates: NodeAggregates,
    live: usize,
    arrivals_seen: u64,
    committed: u64,
    rejected: u64,
    retired: u64,
    journal: Vec<EventRecord>,
    /// Journal entries discarded by compaction (see
    /// [`OnlineConfig::journal_cap`]).
    journal_dropped: u64,
    journal_compactions: u64,
    /// The attached live observability plane, if any. `Clone` shares the
    /// plane: probe clones report into the same flight ring.
    plane: Option<Arc<LivePlane>>,
    /// Reference-candidate samples for incremental fragmentation
    /// accounting (see [`OnlineFleet::set_fragmentation_reference`]).
    frag_reference: Option<Vec<f64>>,
    /// Per-node "the reference candidate fits under this node's budget"
    /// bits, maintained alongside every path update while
    /// `frag_reference` is set. Same arithmetic as
    /// [`OnlineFleet::evaluate`]'s budget probes, so the cached
    /// fragmentation is bit-identical to the full recompute.
    fits_node: Vec<bool>,
    /// Counter snapshots at the previous [`OnlineFleet::observe_batch`],
    /// for per-batch rate signals.
    last_obs_arrivals: u64,
    last_obs_rejected: u64,
}

impl OnlineFleet {
    /// An empty engine over `topology` on `grid`, with budgets taken from
    /// the topology's per-node `budget_watts`.
    ///
    /// # Panics
    ///
    /// Panics when the topology has more slots than
    /// [`MAX_EXACT_SLOTS`], past which resident sums could round.
    pub fn new(topology: PowerTopology, grid: TimeGrid, config: OnlineConfig) -> Self {
        assert!(
            topology.server_capacity() <= MAX_EXACT_SLOTS,
            "{} slots exceed the exact-sum limit of {MAX_EXACT_SLOTS}",
            topology.server_capacity()
        );
        let budgets = topology.nodes().iter().map(|n| n.budget_watts()).collect();
        let aggregates = NodeAggregates::zeros(&topology, grid);
        let members = vec![Vec::new(); topology.len()];
        Self {
            topology,
            budgets,
            config,
            grid,
            arena: TraceArena::new(grid),
            rack_of: Vec::new(),
            members,
            aggregates,
            live: 0,
            arrivals_seen: 0,
            committed: 0,
            rejected: 0,
            retired: 0,
            journal: Vec::new(),
            journal_dropped: 0,
            journal_compactions: 0,
            plane: None,
            frag_reference: None,
            fits_node: Vec::new(),
            last_obs_arrivals: 0,
            last_obs_rejected: 0,
        }
    }

    /// Replaces the per-node budgets (e.g. tightened derates).
    ///
    /// # Errors
    ///
    /// Returns a count mismatch when `budgets` does not cover every node.
    pub fn with_budgets(mut self, budgets: Vec<f64>) -> Result<Self, CoreError> {
        if budgets.len() != self.topology.len() {
            return Err(CoreError::Tree(TreeError::InstanceCountMismatch {
                assignment: self.topology.len(),
                traces: budgets.len(),
            }));
        }
        self.budgets = budgets;
        Ok(self)
    }

    /// The engine's topology.
    pub fn topology(&self) -> &PowerTopology {
        &self.topology
    }

    /// The engine's time grid.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }

    /// Per-node budgets, indexed by node id.
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Number of live (committed, not retired) instances.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Number of slots ever committed (arena rows).
    pub fn slot_count(&self) -> usize {
        self.rack_of.len()
    }

    /// Arrivals offered so far (committed + rejected).
    pub fn arrivals_seen(&self) -> u64 {
        self.arrivals_seen
    }

    /// Arrivals committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Arrivals rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Instances retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Live slots in ascending order.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.rack_of.len())
            .filter(|&s| self.rack_of[s].is_some())
            .collect()
    }

    /// The hosting rack of `slot` (`None` when retired or out of range).
    pub fn rack_of(&self, slot: usize) -> Option<NodeId> {
        self.rack_of.get(slot).copied().flatten()
    }

    /// The trace row of `slot` (retired slots keep their row).
    ///
    /// # Panics
    ///
    /// Panics when `slot` was never committed.
    pub fn row(&self, slot: usize) -> &[f64] {
        self.arena.row(slot)
    }

    /// The resident per-node aggregates — exact, so bit-identical to
    /// [`NodeAggregates::compute`] on the live fleet.
    pub fn aggregates(&self) -> &NodeAggregates {
        &self.aggregates
    }

    /// The event journal: the full history since construction, or —
    /// under a [`OnlineConfig::journal_cap`] — a checkpoint prefix plus
    /// every event since the last compaction.
    pub fn journal(&self) -> &[EventRecord] {
        &self.journal
    }

    /// Journal entries discarded by compaction so far.
    pub fn journal_dropped(&self) -> u64 {
        self.journal_dropped
    }

    /// Compaction passes performed so far.
    pub fn journal_compactions(&self) -> u64 {
        self.journal_compactions
    }

    /// Attaches a live observability plane: every journal event is
    /// mirrored into its flight recorder, breaker-budget violations
    /// trigger postmortem dumps, and [`OnlineFleet::observe_batch`]
    /// drives its alert engine. Cloning the fleet shares the plane.
    pub fn attach_plane(&mut self, plane: Arc<LivePlane>) {
        self.plane = Some(plane);
    }

    /// The attached observability plane, if any.
    pub fn plane(&self) -> Option<&Arc<LivePlane>> {
        self.plane.as_ref()
    }

    /// Sets (or clears) the reference candidate for *incremental*
    /// fragmentation accounting. While set, every path update also
    /// re-probes the touched nodes' budgets against the reference (one
    /// O(T) probe per touched path node per event), so
    /// [`OnlineFleet::fragmentation_cached`] stays fresh between full
    /// [`OnlineFleet::fragmentation`] recomputes, and
    /// [`OnlineFleet::observe_batch`] sets the per-level
    /// `so_online_stranded_watts` / `so_online_fragmentation_ratio`
    /// gauges once per batch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for a grid mismatch or a sample off
    /// the exact range.
    pub fn set_fragmentation_reference(
        &mut self,
        reference: Option<&PowerTrace>,
    ) -> Result<(), CoreError> {
        let Some(reference) = reference else {
            self.frag_reference = None;
            self.fits_node = Vec::new();
            return Ok(());
        };
        self.check_grid(reference)?;
        self.frag_reference = Some(snap_samples(reference.samples())?);
        self.fits_node = vec![false; self.topology.len()];
        for rack in self.topology.racks().to_vec() {
            self.refresh_path_fits(rack)?;
        }
        Ok(())
    }

    /// Per-level fragmentation from the incrementally maintained budget
    /// probes — bit-identical to [`OnlineFleet::fragmentation`] against
    /// the configured reference (the `observability` oracle family pins
    /// this), or `None` when no reference is set. O(nodes) scalar work;
    /// no trace arithmetic.
    ///
    /// # Errors
    ///
    /// Propagates tree lookups.
    pub fn fragmentation_cached(&self) -> Result<Option<Vec<FragmentationLevel>>, CoreError> {
        if self.frag_reference.is_none() {
            return Ok(None);
        }
        let mut admits = BTreeMap::new();
        for &rack in self.topology.racks() {
            admits.insert(rack, self.reference_admits(rack)?);
        }
        Ok(Some(self.fragmentation_from_admits(&admits)?))
    }

    /// Whether the reference candidate is admissible on `rack` according
    /// to the cached per-node budget probes: a free slot, and every path
    /// node's budget holds.
    fn reference_admits(&self, rack: NodeId) -> Result<bool, CoreError> {
        let capacity = self.topology.rack_capacity();
        if self.members[rack.index()].len() >= capacity || !self.fits_node[rack.index()] {
            return Ok(false);
        }
        for ancestor in self.topology.ancestors(rack).map_err(CoreError::Tree)? {
            if !self.fits_node[ancestor.index()] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// One observability heartbeat, called from the serial point at the
    /// end of each event batch: publishes batch-level gauges, computes
    /// the alert signal snapshot from resident state (all quantities are
    /// thread-count-free, so alert streams are bit-identical at any
    /// thread count), and drives the attached plane's alert engine.
    /// Returns the alert transitions this batch caused (empty without a
    /// plane).
    ///
    /// This is the one place the per-level `so_online_stranded_watts` /
    /// `so_online_fragmentation_ratio` gauges are set: whenever telemetry
    /// is installed and a fragmentation reference is set, with or without
    /// a plane.
    ///
    /// # Errors
    ///
    /// Propagates tree lookups.
    pub fn observe_batch(&mut self) -> Result<Vec<AlertTransition>, CoreError> {
        let arrivals = self.arrivals_seen - self.last_obs_arrivals;
        let rejected = self.rejected - self.last_obs_rejected;
        self.last_obs_arrivals = self.arrivals_seen;
        self.last_obs_rejected = self.rejected;
        let fragmentation = self.fragmentation_cached()?;
        if so_telemetry::enabled() {
            for level in fragmentation.iter().flatten() {
                let labels = [("level", level.level.short_name())];
                so_telemetry::gauge_set("so_online_stranded_watts", &labels, level.stranded_watts);
                so_telemetry::gauge_set("so_online_fragmentation_ratio", &labels, level.ratio);
            }
        }
        let Some(plane) = self.plane.clone() else {
            return Ok(Vec::new());
        };
        plane.note_batch();

        let root = self.topology.root();
        let root_power = self.aggregates.peak(root).map_err(CoreError::Tree)?;
        let mut min_headroom = f64::INFINITY;
        for &rack in self.topology.racks() {
            let h = self.headroom(rack)?;
            if h < min_headroom {
                min_headroom = h;
            }
        }
        let rejection_rate = if arrivals > 0 {
            rejected as f64 / arrivals as f64
        } else {
            0.0
        };

        let mut signals: Vec<(String, f64)> = vec![
            ("live_instances".to_string(), self.live as f64),
            ("batch_rejection_rate".to_string(), rejection_rate),
            ("root_power_watts".to_string(), root_power),
            ("min_rack_headroom_watts".to_string(), min_headroom),
        ];
        if let Some(asynchrony) = self.mean_rack_asynchrony() {
            signals.push(("mean_rack_asynchrony".to_string(), asynchrony));
        }
        if let Some(levels) = fragmentation {
            for level in &levels {
                let short = level.level.short_name();
                signals.push((format!("fragmentation_ratio_{short}"), level.ratio));
                signals.push((format!("stranded_watts_{short}"), level.stranded_watts));
            }
        }
        if so_telemetry::enabled() {
            so_telemetry::gauge_set("so_online_root_power_watts", &[], root_power);
            so_telemetry::gauge_set("so_online_min_rack_headroom_watts", &[], min_headroom);
            so_telemetry::gauge_set("so_online_batch_rejection_rate", &[], rejection_rate);
            if let Some((_, asynchrony)) = signals
                .iter()
                .find(|(k, _)| k == "mean_rack_asynchrony")
                .map(|(k, v)| (k, *v))
            {
                so_telemetry::gauge_set("so_online_mean_rack_asynchrony", &[], asynchrony);
            }
        }

        let borrowed: Vec<(&str, f64)> = signals.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        Ok(plane.evaluate_alerts(&borrowed))
    }

    /// Headroom at `node`: configured budget minus resident peak.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tree`] for ids outside the topology.
    pub fn headroom(&self, node: NodeId) -> Result<f64, CoreError> {
        let peak = self.aggregates.peak(node).map_err(CoreError::Tree)?;
        Ok(self.budgets[node.index()] - peak)
    }

    /// A dense view of the live fleet: `(traces, assignment, slots)` with
    /// instance `i` of the assignment holding the trace of `slots[i]`.
    /// This is the state an offline recompute
    /// ([`NodeAggregates::compute`], [`crate::admission_decisions`])
    /// consumes; the `online` oracle family diffs the engine against it.
    ///
    /// # Errors
    ///
    /// Propagates assignment validation errors.
    pub fn live_view(&self) -> Result<(Vec<PowerTrace>, Assignment, Vec<usize>), CoreError> {
        let slots = self.live_slots();
        let mut traces = Vec::with_capacity(slots.len());
        let mut racks = Vec::with_capacity(slots.len());
        for &s in &slots {
            traces.push(PowerTrace::new(
                self.arena.row(s).to_vec(),
                self.grid.step_minutes(),
            )?);
            racks.push(self.rack_of[s].expect("live slot has a rack"));
        }
        let assignment = Assignment::new(racks, &self.topology).map_err(CoreError::Tree)?;
        Ok((traces, assignment, slots))
    }

    /// Evaluates admitting `candidate` onto one rack — the one-rack case
    /// of the batched evaluator behind [`arrive`](Self::arrive) and
    /// [`decisions`](Self::decisions), bit-identical to the materializing
    /// [`crate::admission_decisions`] arithmetic. The candidate is snapped
    /// exactly as [`arrive`](Self::arrive) snaps it.
    ///
    /// The rack costs one fused [`peak_of_sum_samples`] pass for its new
    /// peak; the asynchrony follows from the cached rack peak, the
    /// candidate's peak and the new peak with the float operations of
    /// [`crate::pairwise_score_samples`]. Each ancestor budget on the root
    /// path is decided in O(1) from the cached node peaks whenever
    /// `peak(node) + peak(candidate) <= budget`, and by an O(T) probe
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates tree lookups, row-length mismatches and samples off the
    /// exact range.
    pub fn evaluate(&self, rack: NodeId, candidate: &[f64]) -> Result<LeafDecision, CoreError> {
        let candidate = snap_samples(candidate)?;
        let checks = AncestorChecks::new(self, &[rack], &candidate)?;
        self.decide(rack, &candidate, &checks)
    }

    /// Evaluates `candidate` (snapped) against every rack, in ascending
    /// rack order.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn decisions(&self, candidate: &PowerTrace) -> Result<Vec<LeafDecision>, CoreError> {
        self.check_grid(candidate)?;
        self.evaluate_racks(self.topology.racks(), &snap_samples(candidate.samples())?)
    }

    /// The batched evaluator behind [`arrive`](Self::arrive),
    /// [`decisions`](Self::decisions) and
    /// [`fragmentation`](Self::fragmentation): one decision per rack of
    /// `racks`, positionally. The candidate's peak is taken once and every
    /// *distinct* ancestor of the probed racks has its budget checked once
    /// ([`AncestorChecks`]), so each rack costs one fused O(T) pass.
    /// [`evaluate`](Self::evaluate) is the same pair of steps for one rack.
    ///
    /// A probe set smaller than two [`SCAN_GRAIN`]s (every sampled
    /// arrival) runs on the caller thread; larger scans split into
    /// positional lanes, so the result is the same at any thread count.
    fn evaluate_racks(
        &self,
        racks: &[NodeId],
        candidate: &[f64],
    ) -> Result<Vec<LeafDecision>, CoreError> {
        let checks = AncestorChecks::new(self, racks, candidate)?;
        par_map(racks, SCAN_GRAIN, |_, &rack| {
            self.decide(rack, candidate, &checks)
        })
        .into_iter()
        .collect()
    }

    /// One rack's decision. The root path is walked upward and stops at
    /// the first veto; each ancestor's verdict comes from `checks`.
    fn decide(
        &self,
        rack: NodeId,
        candidate: &[f64],
        checks: &AncestorChecks,
    ) -> Result<LeafDecision, CoreError> {
        let row = self.aggregates.trace(rack)?.samples();
        let new_peak = peak_of_sum_samples(row, candidate)?;
        let old_peak = self.aggregates.peak(rack)?;
        let budget = self.budgets[rack.index()];
        let has_slot = self.members[rack.index()].len() < self.topology.rack_capacity();
        let mut power_ok = new_peak <= budget;
        let mut node = self.topology.node(rack)?;
        while let Some(parent) = node.parent().filter(|_| power_ok) {
            power_ok = checks.holds(parent);
            node = self.topology.node(parent)?;
        }
        let asynchrony = if old_peak > 0.0 {
            pairwise_score_from_peaks(old_peak, checks.candidate_peak, new_peak)
        } else {
            2.0
        };
        Ok(LeafDecision {
            rack,
            fits: has_slot && power_ok,
            has_slot,
            power_ok,
            new_peak_watts: new_peak,
            peak_increase_watts: new_peak - old_peak,
            headroom_watts: budget - new_peak,
            asynchrony,
        })
    }

    /// The candidate racks the configured policy probes for arrival
    /// `ordinal`: every rack, or the deterministic sample for
    /// [`CommitPolicy::Sampling`].
    fn candidate_racks(&self, ordinal: u64) -> Vec<NodeId> {
        match self.config.policy {
            CommitPolicy::Sampling { probes } => sample_racks(
                self.topology.racks(),
                self.config.sample_salt,
                ordinal,
                probes,
            ),
            _ => self.topology.racks().to_vec(),
        }
    }

    /// Offers one arrival, snapped onto the exact grid; returns the
    /// committed slot, or `None` when no rack is admissible (the arrival
    /// is rejected and journaled).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for a grid mismatch or a sample off the
    /// exact range, and propagates evaluation errors. A failed arrival
    /// does not change engine state.
    pub fn arrive(&mut self, candidate: &PowerTrace) -> Result<Option<usize>, CoreError> {
        self.check_grid(candidate)?;
        let row = snap_samples(candidate.samples())?;
        let ordinal = self.arrivals_seen;
        let candidates = self.candidate_racks(ordinal);
        let decisions = self.evaluate_racks(&candidates, &row)?;
        let choice = select_decision(&self.config.policy, &decisions);
        self.arrivals_seen += 1;

        let Some(best) = choice else {
            self.rejected += 1;
            // A rejection where some probed rack had the capacity but a
            // power budget said no is a breaker-budget violation — the
            // anomaly the paper's fragmentation accounting exists to
            // surface. It triggers an immediate postmortem dump and
            // feeds the plane's violation-delta alert signal.
            let breaker_bound = decisions.iter().any(|d| d.has_slot && !d.power_ok);
            self.push_journal(EventRecord::Rejected { ordinal });
            if breaker_bound {
                if let Some(plane) = &self.plane {
                    plane.note_breaker_violation(ordinal, peak_of_samples(&row));
                }
                if so_telemetry::enabled() {
                    so_telemetry::counter_add("so_online_breaker_violations_total", &[], 1);
                }
            }
            if so_telemetry::enabled() {
                so_telemetry::counter_add("so_online_arrivals_total", &[], 1);
                so_telemetry::counter_add("so_online_rejections_total", &[], 1);
            }
            return Ok(None);
        };

        let rack = best.rack;
        let slot = self.arena.push_samples(&row)?;
        self.rack_of.push(Some(rack));
        self.place(slot, rack)?;
        self.live += 1;
        self.committed += 1;
        self.push_journal(EventRecord::Committed {
            slot,
            ordinal,
            rack,
        });
        if so_telemetry::enabled() {
            so_telemetry::counter_add("so_online_arrivals_total", &[], 1);
            so_telemetry::counter_add("so_online_commits_total", &[], 1);
            so_telemetry::gauge_set("so_online_live_instances", &[], self.live as f64);
        }
        Ok(Some(slot))
    }

    /// Retires a live instance, releasing its slot and subtracting its
    /// row from the touched power path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tree`] ([`TreeError::UnknownInstance`]) for a
    /// slot that was never committed or is already retired.
    pub fn retire(&mut self, slot: usize) -> Result<(), CoreError> {
        let rack = self
            .rack_of
            .get(slot)
            .copied()
            .flatten()
            .ok_or(CoreError::Tree(TreeError::UnknownInstance(slot)))?;
        self.unplace(slot, rack)?;
        self.rack_of[slot] = None;
        self.live -= 1;
        self.retired += 1;
        self.push_journal(EventRecord::Retired { slot, rack });
        if so_telemetry::enabled() {
            so_telemetry::counter_add("so_online_retirements_total", &[], 1);
            so_telemetry::gauge_set("so_online_live_instances", &[], self.live as f64);
        }
        Ok(())
    }

    /// Applies one event batch: retirements first, then arrivals, then (if
    /// the budget allows) a repair pass.
    ///
    /// The batch is **canonicalized** so that deterministic policies are
    /// equivariant under permutation of the batch contents:
    ///
    /// * `retire_ordinals` are resolved against the live set *at batch
    ///   entry* (`slot = live_slots[ordinal % len]`), then the resolved
    ///   slots are deduplicated and retired in ascending order;
    /// * arrivals are committed in ascending order of a digest of their
    ///   sample bits (ties keep the given order — identical traces are
    ///   interchangeable).
    ///
    /// # Errors
    ///
    /// Propagates arrival/retirement/repair errors.
    pub fn apply(
        &mut self,
        arrivals: &[PowerTrace],
        retire_ordinals: &[u64],
    ) -> Result<BatchReport, CoreError> {
        let snapshot = self.live_slots();
        let mut slots: Vec<usize> = if snapshot.is_empty() {
            Vec::new()
        } else {
            retire_ordinals
                .iter()
                .map(|&o| snapshot[(o % snapshot.len() as u64) as usize])
                .collect()
        };
        slots.sort_unstable();
        slots.dedup();
        for &slot in &slots {
            self.retire(slot)?;
        }

        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| (trace_digest(&arrivals[i]), i));
        let mut batch_committed = 0usize;
        let mut batch_rejected = 0usize;
        for i in order {
            match self.arrive(&arrivals[i])? {
                Some(_) => batch_committed += 1,
                None => batch_rejected += 1,
            }
        }

        let repair = if self.config.repair_budget > 0 && self.live >= 2 {
            Some(self.repair()?)
        } else {
            None
        };
        Ok(BatchReport {
            committed: batch_committed,
            rejected: batch_rejected,
            retired: slots.len(),
            repair,
        })
    }

    /// Runs one repair pass: the live fleet is compacted into a dense view
    /// and handed to the offline differential-score remap with
    /// `max_swaps = repair_budget`; each resulting move is applied back to
    /// the resident state as a retirement from one path and a commit to
    /// the other (journaled as [`EventRecord::Moved`]).
    ///
    /// # Errors
    ///
    /// Propagates remap and refresh errors.
    pub fn repair(&mut self) -> Result<RemapReport, CoreError> {
        let trivial = RemapReport {
            swaps: Vec::new(),
            initial_worst_score: 1.0,
            final_worst_score: 1.0,
        };
        if self.config.repair_budget == 0 || self.live < 2 {
            return Ok(trivial);
        }
        let slots = self.live_slots();
        let mut compact = TraceArena::with_capacity(self.grid, slots.len());
        let mut racks = Vec::with_capacity(slots.len());
        for &s in &slots {
            compact.push_samples(self.arena.row(s))?;
            racks.push(self.rack_of[s].expect("live slot has a rack"));
        }
        let mut assignment = Assignment::new(racks, &self.topology).map_err(CoreError::Tree)?;
        let config = RemapConfig {
            level: Level::Rack,
            max_swaps: self.config.repair_budget,
            nodes_per_round: 4,
            min_gain: self.config.min_gain,
        };
        let report = remap_arena(&compact, &self.topology, &mut assignment, config)?;

        for (dense, &slot) in slots.iter().enumerate() {
            let new_rack = assignment.rack_of(dense)?;
            let old_rack = self.rack_of[slot].expect("live slot has a rack");
            if new_rack != old_rack {
                self.unplace(slot, old_rack)?;
                self.place(slot, new_rack)?;
                self.rack_of[slot] = Some(new_rack);
                self.push_journal(EventRecord::Moved {
                    slot,
                    from: old_rack,
                    to: new_rack,
                });
            }
        }
        if so_telemetry::enabled() {
            so_telemetry::counter_add(
                "so_online_repair_moves_total",
                &[],
                2 * report.swaps.len() as u64,
            );
        }
        Ok(report)
    }

    /// The asynchrony score (§3.4) of one rack's live members, fused over
    /// arena rows — bit-identical to [`asynchrony_score`] on the members'
    /// materialized traces (the resident rack aggregate *is* their exact
    /// sum).
    ///
    /// [`asynchrony_score`]: crate::asynchrony_score
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptySet`] for an empty rack and propagates
    /// tree lookups.
    pub fn rack_asynchrony(&self, rack: NodeId) -> Result<f64, CoreError> {
        let members = &self.members[rack.index()];
        if members.is_empty() {
            return Err(CoreError::EmptySet);
        }
        let peak_sum: f64 = members
            .iter()
            .map(|&s| peak_of_samples(self.arena.row(s)))
            .sum();
        let aggregate_peak = self.aggregates.peak(rack)?;
        if aggregate_peak == 0.0 {
            return Ok(members.len() as f64);
        }
        Ok(peak_sum / aggregate_peak)
    }

    /// Mean rack asynchrony over non-empty racks (ascending rack order —
    /// deterministic), or `None` when the fleet is empty.
    pub fn mean_rack_asynchrony(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &rack in self.topology.racks() {
            if !self.members[rack.index()].is_empty() {
                sum += self
                    .rack_asynchrony(rack)
                    .expect("non-empty rack always scores");
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Live member slots of `rack`. Empty for non-rack nodes and empty
    /// racks.
    pub(crate) fn members_of(&self, rack: NodeId) -> &[usize] {
        &self.members[rack.index()]
    }

    /// Overwrites one sample of a live slot's resident window with
    /// `watts`, which must already lie on the exact grid (the daemon snaps
    /// each batch whole), and shifts the slot's rack path by the
    /// difference, O(path). Returns the overwritten sample.
    ///
    /// # Errors
    ///
    /// Rejects retired/unknown slots and out-of-window positions with
    /// [`TraceError::OutOfBounds`], and propagates path updates.
    pub(crate) fn write_window_sample(
        &mut self,
        slot: usize,
        pos: usize,
        watts: f64,
    ) -> Result<f64, CoreError> {
        let rack = self.rack_of(slot).ok_or(TraceError::OutOfBounds {
            requested: slot,
            len: self.rack_of.len(),
        })?;
        if pos >= self.grid.len() {
            return Err(CoreError::Trace(TraceError::OutOfBounds {
                requested: pos,
                len: self.grid.len(),
            }));
        }
        let old = self.arena.row(slot)[pos];
        self.aggregates
            .shift_path_sample(&self.topology, rack, pos, old, watts)?;
        self.arena.view_mut(slot).samples_mut()[pos] = watts;
        self.refresh_path_fits(rack)?;
        Ok(old)
    }

    /// Per-level fragmentation of the live fleet against `reference`: at
    /// each level, headroom under nodes whose subtree cannot admit the
    /// reference candidate is stranded. Side-effect free: the
    /// `so_online_stranded_watts{level}` / `so_online_fragmentation_ratio{level}`
    /// gauges are set only by [`OnlineFleet::observe_batch`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn fragmentation(
        &self,
        reference: &PowerTrace,
    ) -> Result<Vec<FragmentationLevel>, CoreError> {
        let admits: BTreeMap<NodeId, bool> = self
            .decisions(reference)?
            .iter()
            .map(|d| (d.rack, d.fits))
            .collect();
        self.fragmentation_from_admits(&admits)
    }

    /// The per-level stranded-headroom accounting shared by the full
    /// recompute ([`OnlineFleet::fragmentation`]) and the incremental
    /// path ([`OnlineFleet::fragmentation_cached`]) — one code path, so
    /// the two agree bit-for-bit by construction.
    fn fragmentation_from_admits(
        &self,
        admits: &BTreeMap<NodeId, bool>,
    ) -> Result<Vec<FragmentationLevel>, CoreError> {
        let levels = [
            Level::Datacenter,
            Level::Suite,
            Level::Msb,
            Level::Sb,
            Level::Rpp,
            Level::Rack,
        ];
        let mut out = Vec::with_capacity(levels.len());
        for level in levels {
            let mut headroom = 0.0;
            let mut stranded = 0.0;
            for &node in self.topology.nodes_at_level(level) {
                let h = self.headroom(node)?.max(0.0);
                headroom += h;
                let admissible = self.topology.racks_under(node)?.iter().any(|r| admits[r]);
                if !admissible {
                    stranded += h;
                }
            }
            let ratio = if headroom > 0.0 {
                stranded / headroom
            } else {
                0.0
            };
            out.push(FragmentationLevel {
                level,
                headroom_watts: headroom,
                stranded_watts: stranded,
                ratio,
            });
        }
        Ok(out)
    }

    /// Adds live `slot` to `rack`'s members and its row to the rack path.
    fn place(&mut self, slot: usize, rack: NodeId) -> Result<(), CoreError> {
        let members = &mut self.members[rack.index()];
        members.insert(members.partition_point(|&s| s < slot), slot);
        self.aggregates
            .add_to_path(&self.topology, rack, self.arena.row(slot))?;
        self.refresh_path_fits(rack)
    }

    /// Removes `slot` from `rack`'s members and its row from the rack path.
    fn unplace(&mut self, slot: usize, rack: NodeId) -> Result<(), CoreError> {
        let members = &mut self.members[rack.index()];
        let pos = members.partition_point(|&s| s < slot);
        debug_assert_eq!(members.get(pos), Some(&slot));
        members.remove(pos);
        self.aggregates
            .remove_from_path(&self.topology, rack, self.arena.row(slot))?;
        self.refresh_path_fits(rack)
    }

    /// Recomputes the cached reference-fit bit of `rack` and each of its
    /// ancestors (a no-op without a reference): one [`budget_holds`] check
    /// per node, O(1) unless the node is near its budget.
    fn refresh_path_fits(&mut self, rack: NodeId) -> Result<(), CoreError> {
        let Some(reference) = &self.frag_reference else {
            return Ok(());
        };
        let reference_peak = peak_of_samples(reference);
        let mut next = Some(rack);
        while let Some(node) = next {
            let budget = self.budgets[node.index()];
            self.fits_node[node.index()] =
                budget_holds(&self.aggregates, node, budget, reference, reference_peak)?;
            next = self.topology.node(node)?.parent();
        }
        Ok(())
    }

    /// Appends `event` to the journal, mirrors it into the attached
    /// flight recorder, and compacts the journal when it exceeds the
    /// configured cap (see [`OnlineConfig::journal_cap`]).
    fn push_journal(&mut self, event: EventRecord) {
        if let Some(plane) = &self.plane {
            let (kind, a, b, c) = event.flight_encoding();
            plane.record_event(kind, a, b, c, 0.0);
        }
        self.journal.push(event);
        let cap = self.config.journal_cap;
        if cap > 0 && self.journal.len() > cap.max(2 * self.live) {
            self.compact_journal();
        }
    }

    /// Replaces the journal with a [`EventRecord::Checkpoint`] snapshot
    /// of the live occupancy (ascending slot order). The checkpoints are
    /// also mirrored into the flight recorder, so the flight ring's
    /// journal-event suffix still bit-matches the journal's suffix.
    fn compact_journal(&mut self) {
        let dropped = self.journal.len() as u64;
        let mut fresh = Vec::with_capacity(self.live);
        for slot in 0..self.rack_of.len() {
            if let Some(rack) = self.rack_of[slot] {
                fresh.push(EventRecord::Checkpoint { slot, rack });
            }
        }
        self.journal = fresh;
        self.journal_dropped += dropped;
        self.journal_compactions += 1;
        if let Some(plane) = self.plane.clone() {
            for event in &self.journal {
                let (kind, a, b, c) = event.flight_encoding();
                plane.record_event(kind, a, b, c, 0.0);
            }
        }
        if so_telemetry::enabled() {
            so_telemetry::counter_add("so_online_journal_compactions_total", &[], 1);
        }
    }

    fn check_grid(&self, trace: &PowerTrace) -> Result<(), CoreError> {
        if trace.len() != self.grid.len() {
            return Err(CoreError::Trace(TraceError::LengthMismatch {
                left: self.grid.len(),
                right: trace.len(),
            }));
        }
        if trace.step_minutes() != self.grid.step_minutes() {
            return Err(CoreError::Trace(TraceError::StepMismatch {
                left: self.grid.step_minutes(),
                right: trace.step_minutes(),
            }));
        }
        Ok(())
    }
}

/// One candidate's budget checks at every distinct ancestor of a set of
/// probed racks, each checked once: racks under one RPP/SB/MSB share
/// their path checks instead of re-reading the same node rows per rack.
struct AncestorChecks {
    /// The candidate's peak, taken once for the batch.
    candidate_peak: f64,
    /// The ancestors whose budget the candidate would breach, descending id.
    vetoes: Vec<NodeId>,
}

impl AncestorChecks {
    fn new(fleet: &OnlineFleet, racks: &[NodeId], candidate: &[f64]) -> Result<Self, CoreError> {
        let candidate_peak = peak_of_samples(candidate);
        let mut vetoes = Vec::new();
        for node in fleet.topology.ancestor_set(racks)? {
            // An ancestor vetoes only when `peak > budget`, as in the
            // materializing `admission_decisions`, so a NaN ancestor
            // budget admits (the rack's own check is `peak <= budget`).
            let budget = fleet.budgets[node.index()];
            if !budget.is_nan()
                && !budget_holds(&fleet.aggregates, node, budget, candidate, candidate_peak)?
            {
                vetoes.push(node);
            }
        }
        Ok(Self {
            candidate_peak,
            vetoes,
        })
    }

    /// Whether the budget at `node`, an ancestor of a probed rack, holds.
    fn holds(&self, node: NodeId) -> bool {
        self.vetoes.binary_search_by(|a| node.cmp(a)).is_err()
    }
}

/// Whether `node`'s `budget` still holds with `candidate` added below it:
/// exactly `peak_of_sum_samples(row, candidate)? <= budget` for the node's
/// aggregate `row`, but decided in O(1) whenever
/// `peak(node) + candidate_peak <= budget`, since no sample of the sum
/// exceeds the sum of the peaks (every sum here is exact). A NaN budget
/// fails the test and takes the O(T) probe.
fn budget_holds(
    aggregates: &NodeAggregates,
    node: NodeId,
    budget: f64,
    candidate: &[f64],
    candidate_peak: f64,
) -> Result<bool, CoreError> {
    if aggregates.peak(node)? + candidate_peak <= budget {
        return Ok(true);
    }
    let row = aggregates.trace(node)?.samples();
    Ok(peak_of_sum_samples(row, candidate)? <= budget)
}

/// Picks the winning decision for `policy` among `decisions` (which must
/// be in ascending rack order — the final tie-break). Shared by the
/// engine's fused path and [`offline_choose`]'s materialized replay, so
/// any divergence between the two is an *evaluation* difference the
/// `online` oracle family would surface, never a selection one.
pub fn select_decision<'a>(
    policy: &CommitPolicy,
    decisions: &'a [LeafDecision],
) -> Option<&'a LeafDecision> {
    let admissible = decisions.iter().filter(|d| d.fits);
    match policy {
        CommitPolicy::FirstFit => admissible.min_by_key(|d| d.rack),
        CommitPolicy::WorstFit => admissible.reduce(|best, d| {
            if d.headroom_watts > best.headroom_watts {
                d
            } else {
                best
            }
        }),
        CommitPolicy::BestAsynchrony | CommitPolicy::Sampling { .. } => {
            admissible.reduce(|best, d| {
                if d.asynchrony > best.asynchrony
                    || (d.asynchrony == best.asynchrony
                        && d.peak_increase_watts < best.peak_increase_watts)
                {
                    d
                } else {
                    best
                }
            })
        }
    }
}

/// The deterministic candidate sample of the [`CommitPolicy::Sampling`]
/// policy: a pure function of `(salt, ordinal)`, returned in ascending
/// rack order. When `probes >= racks.len()` every rack is a candidate.
pub fn sample_racks(racks: &[NodeId], salt: u64, ordinal: u64, probes: usize) -> Vec<NodeId> {
    if probes >= racks.len() {
        return racks.to_vec();
    }
    let stream = mix(salt, ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    // A sorted, duplicate-free index set.
    fn insert(picked: &mut Vec<usize>, idx: usize) {
        if let Err(pos) = picked.binary_search(&idx) {
            picked.insert(pos, idx);
        }
    }
    let mut picked = Vec::with_capacity(probes);
    let mut draw = 0u64;
    while picked.len() < probes && draw < 64 * probes as u64 {
        insert(
            &mut picked,
            (mix(stream, draw) % racks.len() as u64) as usize,
        );
        draw += 1;
    }
    // Pathological-collision fallback: fill ascending from the start.
    let mut next = 0usize;
    while picked.len() < probes {
        insert(&mut picked, next);
        next += 1;
    }
    picked.into_iter().map(|i| racks[i]).collect()
}

/// Offline replay of one commit decision, using the **materializing**
/// arithmetic (`try_add().peak()`, [`pairwise_score`]) over a
/// from-scratch [`NodeAggregates`] — an independent float path from the
/// engine's fused probes, documented bit-identical, and the reference the
/// `online` oracle family holds the journal against. The candidate is
/// snapped as [`OnlineFleet::arrive`] snaps it.
///
/// `occupancy` maps racks to their live member count (missing = empty).
///
/// # Errors
///
/// Propagates tree/trace errors.
#[allow(clippy::too_many_arguments)]
pub fn offline_choose(
    topology: &PowerTopology,
    budgets: &[f64],
    aggregates: &NodeAggregates,
    occupancy: &BTreeMap<NodeId, usize>,
    candidate: &PowerTrace,
    policy: &CommitPolicy,
    sample_salt: u64,
    ordinal: u64,
) -> Result<Option<NodeId>, CoreError> {
    let candidates = match *policy {
        CommitPolicy::Sampling { probes } => {
            sample_racks(topology.racks(), sample_salt, ordinal, probes)
        }
        _ => topology.racks().to_vec(),
    };
    let capacity = topology.rack_capacity();
    let candidate = &PowerTrace::new(snap_samples(candidate.samples())?, candidate.step_minutes())?;
    let mut decisions = Vec::with_capacity(candidates.len());
    for rack in candidates {
        let aggregate = aggregates.trace(rack).map_err(CoreError::Tree)?;
        let combined = aggregate.try_add(candidate)?;
        let new_peak = combined.peak();
        let old_peak = aggregate.peak();
        let has_slot = occupancy.get(&rack).copied().unwrap_or(0) < capacity;
        let mut path_ok = new_peak <= budgets[rack.index()];
        if path_ok {
            for ancestor in topology.ancestors(rack).map_err(CoreError::Tree)? {
                let anc = aggregates.trace(ancestor).map_err(CoreError::Tree)?;
                if anc.try_add(candidate)?.peak() > budgets[ancestor.index()] {
                    path_ok = false;
                    break;
                }
            }
        }
        let asynchrony = if old_peak > 0.0 {
            pairwise_score(aggregate, candidate)?
        } else {
            2.0
        };
        decisions.push(LeafDecision {
            rack,
            fits: has_slot && path_ok,
            has_slot,
            power_ok: path_ok,
            new_peak_watts: new_peak,
            peak_increase_watts: new_peak - old_peak,
            headroom_watts: budgets[rack.index()] - new_peak,
            asynchrony,
        });
    }
    Ok(select_decision(policy, &decisions).map(|d| d.rack))
}

/// A stable digest of a trace's sample bits — the canonical arrival order
/// key of [`OnlineFleet::apply`].
fn trace_digest(trace: &PowerTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &v in trace.samples() {
        h = mix(h, v.to_bits());
    }
    h
}

/// SplitMix64-style combine (same mixer as the scale harness).
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(3)
            .rack_budget_watts(400.0)
            .build()
            .unwrap()
    }

    fn grid() -> TimeGrid {
        TimeGrid::new(60, 4)
    }

    fn trace(samples: &[f64]) -> PowerTrace {
        PowerTrace::new(samples.to_vec(), 60).unwrap()
    }

    fn engine(policy: CommitPolicy) -> OnlineFleet {
        OnlineFleet::new(
            topo(),
            grid(),
            OnlineConfig {
                policy,
                repair_budget: 0,
                ..OnlineConfig::default()
            },
        )
    }

    #[test]
    fn arrivals_commit_and_aggregates_match_offline_recompute() {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        for t in [
            trace(&[100.0, 10.0, 10.0, 10.0]),
            trace(&[10.0, 100.0, 10.0, 10.0]),
            trace(&[10.0, 10.0, 100.0, 10.0]),
            trace(&[10.0, 10.0, 10.0, 100.0]),
        ] {
            assert!(fleet.arrive(&t).unwrap().is_some());
        }
        assert_eq!(fleet.live_len(), 4);
        let (traces, assignment, _) = fleet.live_view().unwrap();
        let offline = NodeAggregates::compute(fleet.topology(), &assignment, &traces).unwrap();
        for node in fleet.topology().nodes().iter().map(|n| n.id()) {
            let got = fleet.aggregates().trace(node).unwrap().samples();
            let want = offline.trace(node).unwrap().samples();
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {node}");
            }
        }
    }

    #[test]
    fn best_asynchrony_prefers_the_complementary_rack() {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        // Two day-peakers spread out (a second day-peaker scores 1.0
        // against the first's rack, so the empty racks' 2.0 wins)...
        let day = trace(&[100.0, 0.0, 0.0, 0.0]);
        let a = fleet.arrive(&day).unwrap().unwrap();
        let b = fleet.arrive(&day).unwrap().unwrap();
        let rack_a = fleet.rack_of(a).unwrap();
        let rack_b = fleet.rack_of(b).unwrap();
        assert_ne!(rack_a, rack_b, "synchronous peers must spread");
        // ...but a night-peaker ties the empty racks on asynchrony (2.0)
        // and wins the peak-increase tie-break (+0 W) — it must pack onto
        // a day rack, not an empty one.
        let night = trace(&[0.0, 0.0, 0.0, 100.0]);
        let c = fleet.arrive(&night).unwrap().unwrap();
        let rack_c = fleet.rack_of(c).unwrap();
        assert!(rack_c == rack_a || rack_c == rack_b);
    }

    #[test]
    fn first_fit_packs_the_lowest_rack() {
        let mut fleet = engine(CommitPolicy::FirstFit);
        let first_rack = fleet.topology().racks()[0];
        for _ in 0..3 {
            let slot = fleet
                .arrive(&trace(&[10.0, 10.0, 10.0, 10.0]))
                .unwrap()
                .unwrap();
            assert_eq!(fleet.rack_of(slot).unwrap(), first_rack);
        }
        // Rack full: the fourth goes to the next rack.
        let slot = fleet
            .arrive(&trace(&[10.0, 10.0, 10.0, 10.0]))
            .unwrap()
            .unwrap();
        assert_eq!(fleet.rack_of(slot).unwrap(), fleet.topology().racks()[1]);
    }

    #[test]
    fn worst_fit_spreads_across_racks() {
        let mut fleet = engine(CommitPolicy::WorstFit);
        let a = fleet
            .arrive(&trace(&[50.0, 50.0, 50.0, 50.0]))
            .unwrap()
            .unwrap();
        let b = fleet
            .arrive(&trace(&[50.0, 50.0, 50.0, 50.0]))
            .unwrap()
            .unwrap();
        assert_ne!(fleet.rack_of(a), fleet.rack_of(b));
    }

    #[test]
    fn over_budget_arrivals_are_rejected_and_state_is_unchanged() {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        fleet.arrive(&trace(&[100.0, 100.0, 100.0, 100.0])).unwrap();
        let before: Vec<u64> = fleet
            .aggregates()
            .trace(fleet.topology().root())
            .unwrap()
            .samples()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        // 500 W flat exceeds every rack's 400 W budget.
        let rejected = fleet.arrive(&trace(&[500.0, 500.0, 500.0, 500.0])).unwrap();
        assert!(rejected.is_none());
        assert_eq!(fleet.rejected(), 1);
        let after: Vec<u64> = fleet
            .aggregates()
            .trace(fleet.topology().root())
            .unwrap()
            .samples()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(before, after);
        assert!(matches!(
            fleet.journal().last(),
            Some(EventRecord::Rejected { ordinal: 1 })
        ));
    }

    #[test]
    fn retiring_everything_returns_exact_zero_aggregates() {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        for i in 0..6 {
            fleet
                .arrive(&trace(&[10.0 + i as f64, 20.0, 30.0, 5.0]))
                .unwrap();
        }
        for slot in fleet.live_slots() {
            fleet.retire(slot).unwrap();
        }
        assert_eq!(fleet.live_len(), 0);
        for node in fleet.topology().nodes().iter().map(|n| n.id()) {
            for &v in fleet.aggregates().trace(node).unwrap().samples() {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "node {node}");
            }
        }
    }

    #[test]
    fn retire_rejects_unknown_and_double_retire() {
        let mut fleet = engine(CommitPolicy::FirstFit);
        assert!(fleet.retire(0).is_err());
        let slot = fleet
            .arrive(&trace(&[1.0, 1.0, 1.0, 1.0]))
            .unwrap()
            .unwrap();
        fleet.retire(slot).unwrap();
        assert!(fleet.retire(slot).is_err());
    }

    #[test]
    fn apply_is_equivariant_under_batch_permutation() {
        let arrivals = vec![
            trace(&[90.0, 5.0, 5.0, 5.0]),
            trace(&[5.0, 90.0, 5.0, 5.0]),
            trace(&[5.0, 5.0, 90.0, 5.0]),
            trace(&[30.0, 30.0, 30.0, 30.0]),
        ];
        let retire = [7u64, 3u64];
        let mut a = engine(CommitPolicy::BestAsynchrony);
        let mut b = engine(CommitPolicy::BestAsynchrony);
        // Warm both with an identical base batch.
        a.apply(&arrivals, &[]).unwrap();
        b.apply(&arrivals, &[]).unwrap();
        let mut permuted = arrivals.clone();
        permuted.reverse();
        a.apply(&arrivals, &retire).unwrap();
        b.apply(&permuted, &[retire[1], retire[0]]).unwrap();
        assert_eq!(a.live_len(), b.live_len());
        for node in a.topology().nodes().iter().map(|n| n.id()) {
            let ga = a.aggregates().trace(node).unwrap().samples();
            let gb = b.aggregates().trace(node).unwrap().samples();
            for (x, y) in ga.iter().zip(gb) {
                assert_eq!(x.to_bits(), y.to_bits(), "node {node}");
            }
        }
    }

    #[test]
    fn repair_applies_remap_moves_and_keeps_aggregates_canonical() {
        let mut fleet = OnlineFleet::new(
            topo(),
            grid(),
            OnlineConfig {
                policy: CommitPolicy::FirstFit,
                repair_budget: 4,
                min_gain: 0.0,
                ..OnlineConfig::default()
            },
        );
        // FirstFit piles synchronous and complementary traces onto the
        // first racks; repair should find profitable swaps.
        let report = fleet
            .apply(
                &[
                    trace(&[100.0, 0.0, 0.0, 0.0]),
                    trace(&[100.0, 0.0, 0.0, 0.0]),
                    trace(&[0.0, 0.0, 0.0, 100.0]),
                    trace(&[0.0, 0.0, 0.0, 100.0]),
                    trace(&[100.0, 0.0, 0.0, 0.0]),
                    trace(&[0.0, 0.0, 0.0, 100.0]),
                ],
                &[],
            )
            .unwrap();
        let repair = report.repair.expect("budget allows repair");
        assert!(repair.final_worst_score >= repair.initial_worst_score);
        // Whatever moved, the resident aggregates must still match a
        // from-scratch recompute bit-for-bit.
        let (traces, assignment, _) = fleet.live_view().unwrap();
        let offline = NodeAggregates::compute(fleet.topology(), &assignment, &traces).unwrap();
        for node in fleet.topology().nodes().iter().map(|n| n.id()) {
            let got = fleet.aggregates().trace(node).unwrap().samples();
            let want = offline.trace(node).unwrap().samples();
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {node}");
            }
        }
        let moves = fleet
            .journal()
            .iter()
            .filter(|e| matches!(e, EventRecord::Moved { .. }))
            .count();
        assert_eq!(moves, 2 * repair.swaps.len());
    }

    #[test]
    fn sampling_policy_matches_offline_choose() {
        let policy = CommitPolicy::Sampling { probes: 3 };
        let mut fleet = OnlineFleet::new(
            topo(),
            grid(),
            OnlineConfig {
                policy,
                repair_budget: 0,
                min_gain: 0.02,
                sample_salt: 9,
                ..OnlineConfig::default()
            },
        );
        let arrivals = [
            trace(&[80.0, 5.0, 5.0, 5.0]),
            trace(&[5.0, 80.0, 5.0, 5.0]),
            trace(&[5.0, 5.0, 80.0, 5.0]),
            trace(&[40.0, 40.0, 5.0, 5.0]),
        ];
        for t in &arrivals {
            // Replay the decision offline against the same pre-state.
            let (traces, assignment, _) = fleet.live_view().unwrap();
            let aggregates = if traces.is_empty() {
                NodeAggregates::zeros(fleet.topology(), fleet.grid())
            } else {
                NodeAggregates::compute(fleet.topology(), &assignment, &traces).unwrap()
            };
            let occupancy: BTreeMap<NodeId, usize> = assignment
                .by_rack()
                .into_iter()
                .map(|(rack, v)| (rack, v.len()))
                .collect();
            let want = offline_choose(
                fleet.topology(),
                fleet.budgets(),
                &aggregates,
                &occupancy,
                t,
                &policy,
                9,
                fleet.arrivals_seen(),
            )
            .unwrap();
            let slot = fleet.arrive(t).unwrap();
            assert_eq!(slot.map(|s| fleet.rack_of(s).unwrap()), want);
        }
    }

    #[test]
    fn sample_racks_is_deterministic_and_distinct() {
        let t = topo();
        let a = sample_racks(t.racks(), 5, 17, 3);
        let b = sample_racks(t.racks(), 5, 17, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending order");
        let c = sample_racks(t.racks(), 5, 18, 3);
        assert!(a != c || sample_racks(t.racks(), 6, 17, 3) != a);
        assert_eq!(sample_racks(t.racks(), 5, 17, 99).len(), t.racks().len());
    }

    #[test]
    fn decisions_match_admission_decisions_bitwise() {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        fleet
            .apply(
                &[
                    trace(&[90.0, 5.0, 5.0, 5.0]),
                    trace(&[5.0, 90.0, 5.0, 5.0]),
                    trace(&[5.0, 5.0, 90.0, 5.0]),
                ],
                &[],
            )
            .unwrap();
        let candidate = trace(&[60.0, 10.0, 10.0, 10.0]);
        let online = fleet.decisions(&candidate).unwrap();
        let (traces, assignment, _) = fleet.live_view().unwrap();
        let aggregates = NodeAggregates::compute(fleet.topology(), &assignment, &traces).unwrap();
        let offline = crate::admission::admission_decisions(
            fleet.topology(),
            &assignment,
            &aggregates,
            fleet.budgets(),
            &candidate,
        )
        .unwrap();
        for d in &online {
            let o = offline.iter().find(|o| o.rack == d.rack).unwrap();
            assert_eq!(d.fits, o.fits);
            assert_eq!(d.new_peak_watts.to_bits(), o.new_peak_watts.to_bits());
            assert_eq!(
                d.peak_increase_watts.to_bits(),
                o.peak_increase_watts.to_bits()
            );
            assert_eq!(d.asynchrony.to_bits(), o.asynchrony.to_bits());
        }
    }

    #[test]
    fn fragmentation_strands_headroom_a_large_job_cannot_use() {
        let mut fleet = engine(CommitPolicy::WorstFit);
        // Fill every rack slot so arrivals are capacity-blocked.
        for _ in 0..(fleet.topology().racks().len() * 3) {
            assert!(fleet
                .arrive(&trace(&[10.0, 10.0, 10.0, 10.0]))
                .unwrap()
                .is_some());
        }
        let reference = trace(&[1.0, 1.0, 1.0, 1.0]);
        let frag = fleet.fragmentation(&reference).unwrap();
        let rack_level = frag.iter().find(|f| f.level == Level::Rack).unwrap();
        // No rack has a slot left: every watt of rack headroom is stranded.
        assert!(rack_level.headroom_watts > 0.0);
        assert_eq!(rack_level.ratio, 1.0);
        // A fresh fleet strands nothing.
        let empty = engine(CommitPolicy::WorstFit);
        let frag = empty.fragmentation(&reference).unwrap();
        assert!(frag.iter().all(|f| f.ratio == 0.0));
    }

    #[test]
    fn only_observe_batch_sets_the_fragmentation_gauges() {
        for with_plane in [false, true] {
            let sink = Arc::new(so_telemetry::RecordingSink::with_virtual_clock());
            let stranded = || sink.prometheus().contains("so_online_stranded_watts");
            let mut fleet = OnlineFleet::new(
                topo(),
                grid(),
                OnlineConfig {
                    policy: CommitPolicy::FirstFit,
                    repair_budget: 4,
                    min_gain: 0.0,
                    ..OnlineConfig::default()
                },
            );
            if with_plane {
                fleet.attach_plane(Arc::new(LivePlane::new(
                    Arc::new(so_telemetry::RecordingSink::with_virtual_clock()),
                    16,
                    so_telemetry::default_online_rules(),
                )));
            }
            fleet
                .set_fragmentation_reference(Some(&trace(&[50.0; 4])))
                .unwrap();
            so_telemetry::with_sink(sink.clone(), || {
                let slot = fleet.arrive(&trace(&[100.0, 0.0, 0.0, 0.0])).unwrap();
                for _ in 0..3 {
                    fleet.arrive(&trace(&[0.0, 0.0, 0.0, 100.0])).unwrap();
                }
                fleet.retire(slot.unwrap()).unwrap();
                fleet.repair().unwrap();
                fleet.fragmentation_cached().unwrap();
                fleet.fragmentation(&trace(&[50.0; 4])).unwrap();
                assert!(!stranded(), "plane attached: {with_plane}");
                fleet.observe_batch().unwrap();
            });
            assert!(stranded(), "plane attached: {with_plane}");
            assert!(sink
                .prometheus()
                .contains("so_online_fragmentation_ratio{level=\"RACK\"}"));
        }
    }

    #[test]
    fn grid_mismatches_are_rejected() {
        let mut fleet = engine(CommitPolicy::FirstFit);
        let short = PowerTrace::new(vec![1.0, 1.0], 60).unwrap();
        assert!(fleet.arrive(&short).is_err());
        let wrong_step = PowerTrace::new(vec![1.0; 4], 30).unwrap();
        assert!(fleet.arrive(&wrong_step).is_err());
    }

    #[test]
    fn rack_asynchrony_matches_materialized_score() {
        let mut fleet = engine(CommitPolicy::BestAsynchrony);
        fleet
            .apply(
                &[
                    trace(&[90.0, 5.0, 5.0, 5.0]),
                    trace(&[5.0, 90.0, 5.0, 5.0]),
                    trace(&[50.0, 5.0, 50.0, 5.0]),
                    trace(&[5.0, 50.0, 5.0, 50.0]),
                ],
                &[],
            )
            .unwrap();
        let (traces, assignment, slots) = fleet.live_view().unwrap();
        for (&rack, members) in &assignment.by_rack() {
            let member_traces: Vec<&PowerTrace> = members.iter().map(|&i| &traces[i]).collect();
            let want = crate::score::asynchrony_score(member_traces.iter().copied()).unwrap();
            let got = fleet.rack_asynchrony(rack).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "rack {rack}");
        }
        let _ = slots;
        let empty_rack = fleet
            .topology()
            .racks()
            .iter()
            .copied()
            .find(|&r| fleet.rack_asynchrony(r).is_err());
        // 8 racks, 4 instances spread: at least one rack is empty.
        assert!(empty_rack.is_some());
    }
}
