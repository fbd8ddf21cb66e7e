//! Online arrival/departure placement: the day-two operation at fleet
//! scale.
//!
//! SmoothOperator (§3.3) places a fixed fleet offline and sketches how one
//! extra instance would be admitted against S-trace peaks; this module
//! runs that sketch continuously. An [`OnlineFleet`] holds resident state
//! — a columnar [`TraceArena`] of every live instance, the
//! [`PowerTopology`], and per-node [`NodeAggregates`] — and processes a
//! deterministic event stream of batch arrivals and retirements:
//!
//! * every **arrival** is committed immediately to the admissible rack
//!   with the highest asynchrony (§3.4) among a deterministic sample of
//!   probed racks ([`sample_racks`]), found by a bound-ordered search over
//!   the probes: one cached sample per probe bounds its rank, and only
//!   racks whose bound can still win get a fused
//!   [`peak_of_sum_samples`] pass and their ancestor budget checks,
//!   usually O(1) each — about 2 of 64 sampled probes at 50k instances
//!   (see `OnlineFleet::search_racks`). The choice is the full scan's
//!   ([`OnlineFleet::decisions`], [`select_decision`]) bit for bit;
//! * every **retirement** subtracts its row from the touched power path
//!   and frees the row for the next commit;
//! * a configurable **repair budget** bounds each cleanup pass of the
//!   §3.6 swap search, run on the resident racks in place
//!   ([`OnlineFleet::repair`]).
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
//! The engine also keeps every slot's window peak and each rack's exact
//! sum of member peaks, so rack asynchrony is O(1) and a repair pass
//! ranks racks without reading a trace.
//!
//! # Slots and rows
//!
//! A commit takes the next slot id, its ordinal among commits. Ids are
//! what the engine hands out and records, and they are never reused.
//! Each live id maps to one arena row; a retirement frees its row, and
//! the next commit overwrites a freed row before the arena grows. So the
//! arena, and every per-row array beside it, holds at most the peak live
//! count of rows, bounded by [`PowerTopology::server_capacity`], however
//! many instances have come and gone. Rack member lists hold rows, in
//! ascending slot-id order, so the repair search reads member rows with
//! no lookup; event records, swap records and every reply name slot ids.
//!
//! The ranking breaks ties deterministically (ascending rack id last), the
//! probe sample is a pure function of the salt and the arrival ordinal,
//! and every parallel scan is a positional [`par_map`], so the engine is
//! bit-reproducible at any thread count.
//!
//! [`peak_of_sum_samples`]: crate::score::peak_of_sum_samples

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use so_parallel::par_map;
use so_powertrace::{
    peak_of_samples, snap_samples, PowerTrace, TimeGrid, TraceArena, TraceError, MAX_EXACT_SLOTS,
};
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology, TreeError};
use so_telemetry::{AlertTransition, FlightKind, LivePlane};
use so_workloads::rng::mix64;

use crate::error::CoreError;
use crate::remap::{remap_nodes, RemapConfig, RemapNodes, RemapReport, SwapRecord};
use crate::score::{
    asynchrony_from_peaks, pairwise_score, pairwise_score_from_peaks, peak_of_sum_samples,
};

/// Fewest racks a lane of an all-rack probe scan is given: spawning one OS
/// thread costs on the order of a hundred O(T) rack probes.
const SCAN_GRAIN: usize = 512;

/// Live slot id → arena row.
type SlotRows = HashMap<usize, usize, BuildHasherDefault<SlotHasher>>;

/// The slot map's hasher. std's SwissTable takes a key's bucket from the
/// low bits of its hash and a 7-bit tag from the top bits, and gives a
/// map sized for `n` keys at least `8n / 7` buckets. Below the tag, the
/// hash is the slot id stretched by 9/8, so consecutive ids land in
/// consecutive buckets with every ninth left empty: an ingest body that
/// names slots in ascending order walks the table front to back instead
/// of missing cache on every sample. While the live ids fit in one turn
/// of the table (ids up to the map's sizing do), a probe for an absent id
/// ends in its first group and an erase frees its bucket, leaving no
/// tombstone; later ids wrap around into the gaps that retirements left.
/// The tag is the top of a Fibonacci multiply, which spreads consecutive
/// ids over all 128 tags.
#[derive(Debug, Clone, Copy, Default)]
struct SlotHasher(u64);

/// The hash bits std's SwissTable reads as a bucket's tag.
const TAG_BITS: u64 = 0xFE00_0000_0000_0000;

impl Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let stretched = x.wrapping_add(x >> 3);
        self.0 = stretched & !TAG_BITS | x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & TAG_BITS;
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// How an arrival picks its rack: among the *admissible* racks (free
/// slot, and the whole root path keeps non-negative headroom after
/// admission) of a deterministic sample, the one with the highest pairwise
/// asynchrony between the candidate and the rack's current aggregate
/// (§3.4), then the smaller peak increase, then the lower rack id: the
/// paper's placement objective applied greedily per arrival. It is a
/// deterministic function of the engine state and the candidate.
///
/// The one rule is an enum of one variant because the benchmark harness
/// names this type and its variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Rank a deterministic sample of `probes` racks ([`sample_racks`], a
    /// pure function of `(sample_salt, arrival ordinal)`); `probes` at
    /// least the rack count probes every rack. Sampling a constant number
    /// of candidates keeps most of the benefit at a fraction of the
    /// evaluation cost (the online rack-placement literature).
    Sampling {
        /// Number of candidate racks probed per arrival.
        probes: usize,
    },
}

/// Configuration of an [`OnlineFleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// How many racks each arrival probes ([`CommitPolicy`]).
    pub policy: CommitPolicy,
    /// Maximum remap swaps per [`OnlineFleet::repair`] call (0 disables
    /// repair).
    pub repair_budget: usize,
    /// Minimum differential-score gain for a repair swap (see
    /// [`RemapConfig::min_gain`]).
    pub min_gain: f64,
    /// Salt for the probe sample's draw.
    pub sample_salt: u64,
}

impl Default for OnlineConfig {
    /// Probes every rack, repairs up to 8 swaps per pass.
    fn default() -> Self {
        Self {
            policy: CommitPolicy::Sampling { probes: usize::MAX },
            repair_budget: 8,
            min_gain: 0.02,
            sample_salt: 0,
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

/// One engine event, as the attached plane's flight ring records it
/// (see [`OnlineFleet::attach_plane`]) — the ground truth an external
/// replay (the `online` oracle family) checks against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRecord {
    /// An arrival was committed to `rack` as slot `slot`.
    Committed {
        /// Slot id of the admitted instance.
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
        /// Slot id of the retired instance.
        slot: usize,
        /// The rack it left.
        rack: NodeId,
    },
    /// Repair moved a live instance between racks.
    Moved {
        /// Slot id of the moved instance.
        slot: usize,
        /// Source rack.
        from: NodeId,
        /// Destination rack.
        to: NodeId,
    },
}

impl EventRecord {
    /// Encodes the event for the telemetry flight recorder's generic
    /// `(kind, a, b, c)` payload. Inverse of [`EventRecord::from_flight`].
    fn flight_encoding(&self) -> (FlightKind, u64, u64, u64) {
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
        }
    }

    /// Decodes a flight-recorder payload back into an engine event
    /// (`None` for the plane's own kinds, such as alert transitions).
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
            _ => None,
        }
    }
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
    /// One row per live instance. A retirement puts its row on
    /// `free_rows` and the next commit overwrites it, so the arena never
    /// holds more rows than the peak live count.
    arena: TraceArena,
    /// Live slot id → arena row. Slot ids are commit ordinals and never
    /// repeat, so a retired id resolves to nothing.
    rows: SlotRows,
    /// Rows of retired slots, reused last in, first out.
    free_rows: Vec<usize>,
    /// [`peak_of_samples`] of every arena row, kept current by each write.
    peaks: Vec<f64>,
    /// Hosting rack per arena row (stale on a free row).
    rack_of: Vec<NodeId>,
    /// The slot id each arena row holds (stale on a free row).
    slot_of: Vec<usize>,
    /// Live member rows per rack, in ascending slot-id order, indexed by
    /// node id.
    members: Vec<Vec<usize>>,
    /// Per rack (by node id), the sum of its live members' `peaks`,
    /// shifted by every change to a member or a member's peak. Exact: each
    /// peak is a sample on the 2^-10 W grid of at most 2^20 W, and a rack
    /// sums at most [`MAX_EXACT_SLOTS`] of them, so every partial sum is a
    /// multiple of 2^-10 below 2^43 W and has the bits of a fresh sum in
    /// any order of addition.
    peak_sums: Vec<f64>,
    aggregates: NodeAggregates,
    live: usize,
    arrivals_seen: u64,
    committed: u64,
    rejected: u64,
    retired: u64,
    /// The attached live observability plane, if any: its flight ring is
    /// the engine's one event record. `Clone` shares the plane, so a
    /// probe clone reports into the same ring unless it attaches its own.
    plane: Option<Arc<LivePlane>>,
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
        let rows =
            SlotRows::with_capacity_and_hasher(topology.server_capacity(), Default::default());
        let aggregates = NodeAggregates::zeros(&topology, grid);
        let members = vec![Vec::new(); topology.len()];
        let peak_sums = vec![0.0; topology.len()];
        Self {
            topology,
            budgets,
            config,
            grid,
            arena: TraceArena::new(grid),
            rows,
            free_rows: Vec::new(),
            peaks: Vec::new(),
            rack_of: Vec::new(),
            slot_of: Vec::new(),
            members,
            peak_sums,
            aggregates,
            live: 0,
            arrivals_seen: 0,
            committed: 0,
            rejected: 0,
            retired: 0,
            plane: None,
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

    /// Number of slot ids issued: every committed arrival takes the next
    /// one, and ids are never reused.
    pub fn slot_count(&self) -> usize {
        self.committed as usize
    }

    /// Number of arena rows, live or free: the peak live count so far,
    /// at most [`PowerTopology::server_capacity`].
    pub fn arena_rows(&self) -> usize {
        self.arena.len()
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

    /// Live slots in ascending order, O(racks + live · log live).
    pub fn live_slots(&self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.live);
        for &rack in self.topology.racks() {
            slots.extend(
                self.members[rack.index()]
                    .iter()
                    .map(|&row| self.slot_of[row]),
            );
        }
        slots.sort_unstable();
        slots
    }

    /// The arena row of live `slot` (`None` when retired or never issued).
    pub(crate) fn slot_row(&self, slot: usize) -> Option<usize> {
        self.rows.get(&slot).copied()
    }

    /// The hosting rack of `slot` (`None` when retired or never issued).
    pub fn rack_of(&self, slot: usize) -> Option<NodeId> {
        self.slot_row(slot).map(|row| self.rack_of[row])
    }

    /// The trace row of live `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is retired or was never issued: its row may
    /// already hold another instance.
    pub fn row(&self, slot: usize) -> &[f64] {
        self.arena.row(self.live_row(slot))
    }

    /// The arena row of `slot`, which must be live.
    fn live_row(&self, slot: usize) -> usize {
        self.slot_row(slot)
            .unwrap_or_else(|| panic!("slot {slot} is not live"))
    }

    /// The exact sum of `rack`'s live members' window peaks.
    ///
    /// # Panics
    ///
    /// Panics for a node id outside the topology.
    pub fn peak_sum(&self, rack: NodeId) -> f64 {
        self.peak_sums[rack.index()]
    }

    /// The resident per-node aggregates — exact, so bit-identical to
    /// [`NodeAggregates::compute`] on the live fleet.
    pub fn aggregates(&self) -> &NodeAggregates {
        &self.aggregates
    }

    /// Attaches a live observability plane: every engine event is
    /// recorded in its flight ring as an [`EventRecord`] (the engine keeps
    /// no other record of them), breaker-budget violations trigger
    /// postmortem dumps, and [`OnlineFleet::observe_batch`] drives its
    /// alert engine. Cloning the fleet shares the plane; attaching a new
    /// one replaces it.
    pub fn attach_plane(&mut self, plane: Arc<LivePlane>) {
        self.plane = Some(plane);
    }

    /// The attached observability plane, if any.
    pub fn plane(&self) -> Option<&Arc<LivePlane>> {
        self.plane.as_ref()
    }

    /// One observability heartbeat, called from the serial point at the
    /// end of each event batch: publishes batch-level gauges, computes
    /// the alert signal snapshot from resident state (all quantities are
    /// thread-count-free, so alert streams are bit-identical at any
    /// thread count), and drives the attached plane's alert engine.
    /// Returns the alert transitions this batch caused (empty without a
    /// plane).
    ///
    /// With a `reference` candidate, the batch's [`fragmentation`]
    /// against it is recomputed once, feeds the per-level alert signals,
    /// and sets the per-level `so_online_stranded_watts` /
    /// `so_online_fragmentation_ratio` gauges whenever telemetry is
    /// installed, with or without a plane. This is the one place those
    /// gauges are set.
    ///
    /// [`fragmentation`]: Self::fragmentation
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for a reference off the engine's grid
    /// or the exact sample range; propagates tree lookups.
    pub fn observe_batch(
        &mut self,
        reference: Option<&PowerTrace>,
    ) -> Result<Vec<AlertTransition>, CoreError> {
        let arrivals = self.arrivals_seen - self.last_obs_arrivals;
        let rejected = self.rejected - self.last_obs_rejected;
        self.last_obs_arrivals = self.arrivals_seen;
        self.last_obs_rejected = self.rejected;
        let fragmentation = reference.map(|r| self.fragmentation(r)).transpose()?;
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
            let row = self.live_row(s);
            traces.push(PowerTrace::new(
                self.arena.row(row).to_vec(),
                self.grid.step_minutes(),
            )?);
            racks.push(self.rack_of[row]);
        }
        let assignment = Assignment::new(racks, &self.topology).map_err(CoreError::Tree)?;
        Ok((traces, assignment, slots))
    }

    /// Evaluates admitting `candidate` onto one rack — the exact
    /// evaluation behind [`arrive`](Self::arrive) and
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
        let candidate_peak = peak_of_samples(&candidate);
        self.decide(rack, &candidate, candidate_peak, |node| {
            self.ancestor_holds(node, &candidate, candidate_peak)
        })
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

    /// The full per-rack scan behind [`decisions`](Self::decisions) and
    /// [`fragmentation`](Self::fragmentation): one decision per rack of
    /// `racks`, positionally. The candidate's peak is taken once and every
    /// *distinct* ancestor of the probed racks has its budget checked once
    /// up front ([`AncestorChecks::check_all`]), so each rack costs one
    /// fused O(T) pass.
    ///
    /// A probe set smaller than two [`SCAN_GRAIN`]s runs on the caller
    /// thread; larger scans split into positional lanes, so the result is
    /// the same at any thread count.
    fn evaluate_racks(
        &self,
        racks: &[NodeId],
        candidate: &[f64],
    ) -> Result<Vec<LeafDecision>, CoreError> {
        let mut checks = AncestorChecks::new(self, candidate);
        checks.check_all(self, racks, candidate)?;
        par_map(racks, SCAN_GRAIN, |_, &rack| {
            self.decide(rack, candidate, checks.candidate_peak, |node| {
                Ok(checks.holds(node))
            })
        })
        .into_iter()
        .collect()
    }

    /// The bound-ordered search behind [`arrive`](Self::arrive) and
    /// [`admit`](Self::admit): the decisions of the probed `racks` that it
    /// evaluates exactly, in ascending rack order. [`select_decision`]
    /// over them picks the rack it picks over every probe, and when none
    /// fits, every probe with a free slot is among them, so the
    /// breaker-violation flag is the full scan's too.
    ///
    /// **The bound.** Let `p` be the candidate's peak, `c` the first index
    /// where it occurs and `m` its minimum. Every resident sum is exact,
    /// so `agg[rack][c] + p` is a sample of the rack's sum with the
    /// candidate, and `old_peak + m` is at most the sample at the index
    /// where the rack peaks; `lb`, the larger of the two, never exceeds
    /// the new peak. For a flat candidate `old_peak + m` *is* the new
    /// peak, so `/admit`'s bound is exact. That bounds the whole ranking
    /// key of [`select_decision`] from the winning side:
    ///
    /// * asynchrony ≤ `pairwise_score_from_peaks(old_peak, p, lb)`: the
    ///   same float operations as the exact score, over a denominator no
    ///   larger than `new_peak` (and a zero `lb` scores 2.0, which no
    ///   pairwise score exceeds), and correctly rounded division is
    ///   monotone, so the rounded bound is never below the rounded score;
    /// * peak increase ≥ `lb − old_peak`, for the same reason;
    /// * an empty rack's bound is exact: its sum is zero, so `lb = p`, and
    ///   its asynchrony is 2.0 either way.
    ///
    /// **The search.** Probes with no free slot are skipped: they cannot
    /// fit and never set the breaker flag. The rest go into a heap keyed
    /// best bound first ([`RankKey`]), built in O(probes), and are popped
    /// and evaluated in that order with the exact
    /// [`decide`](Self::decide). The search stops at the first rack whose
    /// bound cannot beat the best fitting decision so far;
    /// every later rack's bound, and so its exact key, ranks below that
    /// decision. A tie on asynchrony is settled by the peak-increase bound
    /// and then the rack id, so it neither ends the search nor forces an
    /// evaluation. Nothing is pruned before some rack fits.
    ///
    /// Ancestor budgets are checked only on the root paths of the racks
    /// evaluated, each node at most once ([`AncestorChecks::check`]).
    fn search_racks(
        &self,
        racks: &[NodeId],
        candidate: &[f64],
    ) -> Result<Vec<LeafDecision>, CoreError> {
        let mut checks = AncestorChecks::new(self, candidate);
        let candidate_peak = checks.candidate_peak;
        // Any index gives a valid bound; the peak's gives the tightest
        // from the candidate's side.
        let at = candidate
            .iter()
            .position(|&v| v == candidate_peak)
            .unwrap_or(0);
        let floor = candidate.iter().copied().fold(f64::INFINITY, f64::min);
        let capacity = self.topology.rack_capacity();
        let mut bounds = Vec::with_capacity(racks.len());
        for &rack in racks {
            if self.members[rack.index()].len() >= capacity {
                continue;
            }
            let old_peak = self.aggregates.peak(rack)?;
            let lb =
                (self.aggregates.trace(rack)?.samples()[at] + candidate_peak).max(old_peak + floor);
            bounds.push(RankKey {
                asynchrony: admission_asynchrony(old_peak, candidate_peak, lb),
                peak_increase: lb - old_peak,
                rack,
            });
        }
        let mut bounds = BinaryHeap::from(bounds);

        let mut decisions = Vec::new();
        let mut best: Option<RankKey> = None;
        while let Some(bound) = bounds.pop() {
            if best.is_some_and(|best| !bound.beats(&best)) {
                break;
            }
            let decision = self.decide(bound.rack, candidate, candidate_peak, |node| {
                checks.check(self, node, candidate)
            })?;
            if decision.fits {
                let key = RankKey::of(&decision);
                if best.map_or(true, |best| key.beats(&best)) {
                    best = Some(key);
                }
            }
            decisions.push(decision);
        }
        decisions.sort_unstable_by_key(|d| d.rack);
        Ok(decisions)
    }

    /// Where the fleet would admit `candidate` (snapped as
    /// [`arrive`](Self::arrive) snaps it) if it probed every rack: the
    /// decision [`select_decision`] picks over
    /// [`decisions`](Self::decisions), or `None` when no rack is
    /// admissible. Found by the bound-ordered
    /// search over every rack (`search_racks`), which for a flat
    /// candidate usually evaluates one rack. Changes nothing, and counts
    /// nothing in the probe counters, which cover arrivals only.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for a grid mismatch or a sample off the
    /// exact range, and propagates evaluation errors.
    pub fn admit(&self, candidate: &PowerTrace) -> Result<Option<LeafDecision>, CoreError> {
        self.check_grid(candidate)?;
        let candidate = snap_samples(candidate.samples())?;
        let decisions = self.search_racks(self.topology.racks(), &candidate)?;
        Ok(select_decision(&self.config.policy, &decisions).copied())
    }

    /// One rack's decision. The root path is walked upward and stops at
    /// the first veto; `holds` gives each ancestor's verdict.
    fn decide(
        &self,
        rack: NodeId,
        candidate: &[f64],
        candidate_peak: f64,
        mut holds: impl FnMut(NodeId) -> Result<bool, CoreError>,
    ) -> Result<LeafDecision, CoreError> {
        let row = self.aggregates.trace(rack)?.samples();
        let new_peak = peak_of_sum_samples(row, candidate)?;
        let old_peak = self.aggregates.peak(rack)?;
        let budget = self.budgets[rack.index()];
        let has_slot = self.members[rack.index()].len() < self.topology.rack_capacity();
        let mut power_ok = new_peak <= budget;
        let mut node = self.topology.node(rack)?;
        while let Some(parent) = node.parent().filter(|_| power_ok) {
            power_ok = holds(parent)?;
            node = self.topology.node(parent)?;
        }
        let asynchrony = admission_asynchrony(old_peak, candidate_peak, new_peak);
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

    /// Whether the budget at `node`, an ancestor of a probed rack, holds
    /// with `candidate` added below it. An ancestor vetoes only when
    /// `peak > budget`, as in the materializing `admission_decisions`, so
    /// a NaN ancestor budget admits (the rack's own check is
    /// `peak <= budget`).
    fn ancestor_holds(
        &self,
        node: NodeId,
        candidate: &[f64],
        candidate_peak: f64,
    ) -> Result<bool, CoreError> {
        let budget = self.budgets[node.index()];
        Ok(budget.is_nan()
            || budget_holds(&self.aggregates, node, budget, candidate, candidate_peak)?)
    }

    /// Offers one arrival, snapped onto the exact grid; returns the
    /// committed slot, or `None` when no rack is admissible (the arrival
    /// is rejected and recorded). The rack is the one
    /// [`select_decision`] picks over [`evaluate`](Self::evaluate) of
    /// every probed rack, found by evaluating only the probes whose
    /// one-sample bound can still win (`search_racks`). With telemetry
    /// installed, the probes evaluated exactly and the probes pruned are
    /// counted in `so_online_probe_passes_total` and
    /// `so_online_probes_pruned_total`.
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
        let candidates = probed_racks(&self.topology, &self.config, ordinal);
        let decisions = self.search_racks(&candidates, &row)?;
        let choice = select_decision(&self.config.policy, &decisions);
        self.arrivals_seen += 1;
        if so_telemetry::enabled() {
            let passes = decisions.len() as u64;
            so_telemetry::counter_add("so_online_probe_passes_total", &[], passes);
            so_telemetry::counter_add(
                "so_online_probes_pruned_total",
                &[],
                candidates.len() as u64 - passes,
            );
        }

        let Some(best) = choice else {
            self.rejected += 1;
            // A rejection where some probed rack had the capacity but a
            // power budget said no is a breaker-budget violation — the
            // anomaly the paper's fragmentation accounting exists to
            // surface. It triggers an immediate postmortem dump and
            // feeds the plane's violation-delta alert signal. Nothing was
            // pruned, so every probe with a free slot is in `decisions`.
            let breaker_bound = decisions.iter().any(|d| d.has_slot && !d.power_ok);
            self.record(EventRecord::Rejected { ordinal });
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
        let slot = self.slot_count();
        let peak = peak_of_samples(&row);
        let index = match self.free_rows.pop() {
            Some(index) => {
                self.arena
                    .view_mut(index)
                    .samples_mut()
                    .copy_from_slice(&row);
                self.peaks[index] = peak;
                self.rack_of[index] = rack;
                self.slot_of[index] = slot;
                index
            }
            None => {
                let index = self.arena.push_samples(&row)?;
                self.peaks.push(peak);
                self.rack_of.push(rack);
                self.slot_of.push(slot);
                index
            }
        };
        self.rows.insert(slot, index);
        self.place(index, rack)?;
        self.live += 1;
        self.committed += 1;
        self.record(EventRecord::Committed {
            slot,
            ordinal,
            rack,
        });
        if so_telemetry::enabled() {
            so_telemetry::counter_add("so_online_arrivals_total", &[], 1);
            so_telemetry::counter_add("so_online_commits_total", &[], 1);
            so_telemetry::gauge_set("so_online_live_instances", &[], self.live as f64);
            so_telemetry::gauge_set("so_online_arena_rows", &[], self.arena.len() as f64);
        }
        Ok(Some(slot))
    }

    /// Retires a live instance: subtracts its row from the touched power
    /// path and frees the row for the next commit. The slot id is never
    /// issued again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tree`] ([`TreeError::UnknownInstance`]) for a
    /// slot that was never committed or is already retired.
    pub fn retire(&mut self, slot: usize) -> Result<(), CoreError> {
        let row = self
            .slot_row(slot)
            .ok_or(CoreError::Tree(TreeError::UnknownInstance(slot)))?;
        let rack = self.rack_of[row];
        self.unplace(row, rack)?;
        self.rows.remove(&slot);
        self.free_rows.push(row);
        self.live -= 1;
        self.retired += 1;
        self.record(EventRecord::Retired { slot, rack });
        if so_telemetry::enabled() {
            so_telemetry::counter_add("so_online_retirements_total", &[], 1);
            so_telemetry::gauge_set("so_online_live_instances", &[], self.live as f64);
        }
        Ok(())
    }

    /// Runs one §3.6 repair pass with `max_swaps = repair_budget`: the
    /// swap search of [`crate::remap_traces`] on the resident racks in
    /// place. Rows are read from the arena, and each accepted swap moves
    /// two rows along the resident paths by delta, so a pass allocates
    /// O(live + racks). Swap records name slot ids. Every resident sum
    /// is exact, so swaps and scores are bit-identical to the offline
    /// remap of the materialized live fleet.
    ///
    /// Then each slot whose rack changed over the pass is recorded once
    /// ([`EventRecord::Moved`]), in ascending slot order.
    ///
    /// # Errors
    ///
    /// A pass fails before its first swap or not at all, leaving the
    /// engine unchanged: the search scores every member of every rack
    /// before its first round, which checks every row and sum a later
    /// round reads, and moving member rows between racks on the exact
    /// grid cannot fail on a coherent state. Should a later step fail
    /// anyway, the moves applied before it are recorded first.
    pub fn repair(&mut self) -> Result<RemapReport, CoreError> {
        let trivial = RemapReport {
            swaps: Vec::new(),
            initial_worst_score: 1.0,
            final_worst_score: 1.0,
        };
        if self.config.repair_budget == 0 || self.live < 2 {
            return Ok(trivial);
        }
        let config = RemapConfig {
            max_swaps: self.config.repair_budget,
            min_gain: self.config.min_gain,
            ..RemapConfig::default()
        };
        let mut racks = ResidentRacks {
            fleet: self,
            moves: BTreeMap::new(),
        };
        let outcome = remap_nodes(&mut racks, &config);
        for (slot, (from, to)) in racks.moves {
            if from != to {
                self.record(EventRecord::Moved { slot, from, to });
            }
        }
        let mut report = outcome?;
        for swap in &mut report.swaps {
            swap.instance_out = self.slot_of[swap.instance_out];
            swap.instance_in = self.slot_of[swap.instance_in];
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

    /// The asynchrony score (§3.4) of one rack's live members from its
    /// peak sum and resident aggregate peak, O(1) — bit-identical to
    /// [`asynchrony_score`] on the members' materialized traces, since
    /// both sums are exact.
    ///
    /// [`asynchrony_score`]: crate::asynchrony_score
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptySet`] for an empty rack and propagates
    /// tree lookups.
    pub fn rack_asynchrony(&self, rack: NodeId) -> Result<f64, CoreError> {
        let count = self.members[rack.index()].len();
        if count == 0 {
            return Err(CoreError::EmptySet);
        }
        let aggregate_peak = self.aggregates.peak(rack)?;
        Ok(asynchrony_from_peaks(
            self.peak_sums[rack.index()],
            aggregate_peak,
            count,
        ))
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

    /// Overwrites one sample of a live slot's resident window, held in
    /// arena row `row` (see [`slot_row`](Self::slot_row)), with `watts`,
    /// which must already lie on the exact grid (the daemon snaps each
    /// batch whole), and shifts the slot's rack path by the difference,
    /// O(path). A higher sample raises the row's peak; the row is refolded
    /// (O(T)) only when the peak sample itself fell. Returns the row's
    /// rack.
    ///
    /// # Errors
    ///
    /// Rejects out-of-window positions with [`TraceError::OutOfBounds`],
    /// and propagates path updates.
    pub(crate) fn write_window_sample(
        &mut self,
        row: usize,
        pos: usize,
        watts: f64,
    ) -> Result<NodeId, CoreError> {
        let rack = self.rack_of[row];
        if pos >= self.grid.len() {
            return Err(CoreError::Trace(TraceError::OutOfBounds {
                requested: pos,
                len: self.grid.len(),
            }));
        }
        let old = self.arena.row(row)[pos];
        self.aggregates
            .shift_path_sample(&self.topology, rack, pos, old, watts)?;
        self.arena.view_mut(row).samples_mut()[pos] = watts;
        let peak = self.peaks[row];
        let new_peak = if watts > peak {
            watts
        } else if watts < old && old == peak {
            peak_of_samples(self.arena.row(row))
        } else {
            peak
        };
        self.peaks[row] = new_peak;
        self.peak_sums[rack.index()] += new_peak - peak;
        Ok(rack)
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

    /// Adds arena row `row`, which holds a live slot, to `rack`'s members
    /// (in slot-id order), its peak to the rack's peak sum and its samples
    /// to the rack path.
    fn place(&mut self, row: usize, rack: NodeId) -> Result<(), CoreError> {
        let (slot_of, slot) = (&self.slot_of, self.slot_of[row]);
        let members = &mut self.members[rack.index()];
        members.insert(members.partition_point(|&r| slot_of[r] < slot), row);
        self.peak_sums[rack.index()] += self.peaks[row];
        self.aggregates
            .add_to_path(&self.topology, rack, self.arena.row(row))?;
        Ok(())
    }

    /// Removes arena row `row` from `rack`'s members, its peak from the
    /// rack's peak sum and its samples from the rack path.
    fn unplace(&mut self, row: usize, rack: NodeId) -> Result<(), CoreError> {
        let (slot_of, slot) = (&self.slot_of, self.slot_of[row]);
        let members = &mut self.members[rack.index()];
        let pos = members.partition_point(|&r| slot_of[r] < slot);
        debug_assert_eq!(members.get(pos), Some(&row));
        members.remove(pos);
        self.peak_sums[rack.index()] -= self.peaks[row];
        self.aggregates
            .remove_from_path(&self.topology, rack, self.arena.row(row))?;
        Ok(())
    }

    /// Records `event` in the attached plane's flight ring, if any.
    fn record(&self, event: EventRecord) {
        if let Some(plane) = &self.plane {
            let (kind, a, b, c) = event.flight_encoding();
            plane.record_event(kind, a, b, c, 0.0);
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

/// The resident racks as the swap search's node state: racks in
/// [`PowerTopology::racks`] order, instances by arena row. The search
/// never compares instance ids, only walks members in order, and members
/// are in slot-id order, so it picks the swaps it would pick over slot
/// ids; `repair` turns its swap records' rows into slot ids.
struct ResidentRacks<'a> {
    fleet: &'a mut OnlineFleet,
    /// `(rack at the start of the pass, current rack)` of every slot a
    /// swap moved, by slot id.
    moves: BTreeMap<usize, (NodeId, NodeId)>,
}

impl RemapNodes for ResidentRacks<'_> {
    fn node_count(&self) -> usize {
        self.fleet.topology.racks().len()
    }

    fn node(&self, n: usize) -> NodeId {
        self.fleet.topology.racks()[n]
    }

    fn members(&self, n: usize) -> &[usize] {
        &self.fleet.members[self.node(n).index()]
    }

    fn sum(&self, n: usize) -> &[f64] {
        let trace = self.fleet.aggregates.trace(self.node(n));
        trace.expect("every rack has an aggregate").samples()
    }

    fn peak(&self, n: usize) -> f64 {
        let peak = self.fleet.aggregates.peak(self.node(n));
        peak.expect("every rack has an aggregate")
    }

    fn peak_sum(&self, n: usize) -> f64 {
        self.fleet.peak_sums[self.node(n).index()]
    }

    fn row(&self, row: usize) -> &[f64] {
        self.fleet.arena.row(row)
    }

    /// Both rows leave before either joins, so no rack exceeds capacity.
    fn apply_swap(&mut self, swap: &SwapRecord, _: usize, _: usize) -> Result<(), CoreError> {
        let (out, inn) = (swap.instance_out, swap.instance_in);
        self.fleet.unplace(out, swap.node)?;
        self.fleet.unplace(inn, swap.partner)?;
        self.fleet.place(out, swap.partner)?;
        self.fleet.place(inn, swap.node)?;
        for (row, from, to) in [
            (out, swap.node, swap.partner),
            (inn, swap.partner, swap.node),
        ] {
            self.fleet.rack_of[row] = to;
            let slot = self.fleet.slot_of[row];
            self.moves.entry(slot).or_insert((from, to)).1 = to;
        }
        Ok(())
    }
}

/// One candidate's ancestor budget verdicts, memoized by node id: racks
/// under one RPP/SB/MSB share their path checks, and no node is checked
/// twice for one candidate.
struct AncestorChecks {
    /// The candidate's peak, taken once.
    candidate_peak: f64,
    /// Per node id: `None` until checked, then whether its budget holds.
    verdicts: Vec<Option<bool>>,
}

impl AncestorChecks {
    /// No node checked yet.
    fn new(fleet: &OnlineFleet, candidate: &[f64]) -> Self {
        Self {
            candidate_peak: peak_of_samples(candidate),
            verdicts: vec![None; fleet.topology.len()],
        }
    }

    /// Whether `node`'s budget holds, checked on first use.
    fn check(
        &mut self,
        fleet: &OnlineFleet,
        node: NodeId,
        candidate: &[f64],
    ) -> Result<bool, CoreError> {
        if let Some(holds) = self.verdicts[node.index()] {
            return Ok(holds);
        }
        let holds = fleet.ancestor_holds(node, candidate, self.candidate_peak)?;
        self.verdicts[node.index()] = Some(holds);
        Ok(holds)
    }

    /// Checks every distinct ancestor of `racks` up front, so a parallel
    /// scan can read the verdicts through [`holds`](Self::holds).
    fn check_all(
        &mut self,
        fleet: &OnlineFleet,
        racks: &[NodeId],
        candidate: &[f64],
    ) -> Result<(), CoreError> {
        for node in fleet.topology.ancestor_set(racks)? {
            self.check(fleet, node, candidate)?;
        }
        Ok(())
    }

    /// The verdict at `node`, an ancestor [`check_all`](Self::check_all)
    /// covered.
    fn holds(&self, node: NodeId) -> bool {
        self.verdicts[node.index()].expect("every probed ancestor is checked up front")
    }
}

/// A rack's rank, best first: higher asynchrony, then lower peak
/// increase, then the lower rack id — the order [`select_decision`] ranks
/// fitting decisions in. The arrival search builds one from each probe's
/// bounds and one from each fitting decision. No field is NaN: asynchrony
/// and peak increase never are.
#[derive(Debug, Clone, Copy)]
struct RankKey {
    asynchrony: f64,
    peak_increase: f64,
    /// The last tie-break.
    rack: NodeId,
}

impl RankKey {
    /// The exact rank of a fitting decision.
    fn of(d: &LeafDecision) -> Self {
        Self {
            asynchrony: d.asynchrony,
            peak_increase: d.peak_increase_watts,
            rack: d.rack,
        }
    }

    /// Whether `self` ranks strictly above `other`.
    fn beats(&self, other: &Self) -> bool {
        self.asynchrony > other.asynchrony
            || (self.asynchrony == other.asynchrony
                && (self.peak_increase < other.peak_increase
                    || (self.peak_increase == other.peak_increase && self.rack < other.rack)))
    }
}

/// Ranks by [`RankKey::beats`], so the best key is the greatest and a
/// [`BinaryHeap`] pops the best first. A total order: no field is NaN, and
/// rack ids differ between the keys of one search.
impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.beats(other) {
            Ordering::Greater
        } else if other.beats(self) {
            Ordering::Less
        } else {
            Ordering::Equal
        }
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankKey {}

/// A candidate's pairwise asynchrony against a rack whose aggregate peaks
/// at `old_peak`, when their sum peaks at `new_peak`: the float operations
/// of [`crate::pairwise_score_samples`], and 2.0 for a zero aggregate.
fn admission_asynchrony(old_peak: f64, candidate_peak: f64, new_peak: f64) -> f64 {
    if old_peak > 0.0 {
        pairwise_score_from_peaks(old_peak, candidate_peak, new_peak)
    } else {
        2.0
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

/// Picks the winning decision among `decisions` (which must be in
/// ascending rack order — the final tie-break): the fitting one with the
/// highest asynchrony, then the smallest peak increase. Shared by the
/// engine's fused path and [`offline_choose`]'s materialized replay, so
/// any divergence between the two is an *evaluation* difference the
/// `online` oracle family would surface, never a selection one.
///
/// `_policy` is unused: there is one ranking. The benchmark harness calls
/// this function with its policy, so the parameter stays.
pub fn select_decision<'a>(
    _policy: &CommitPolicy,
    decisions: &'a [LeafDecision],
) -> Option<&'a LeafDecision> {
    decisions.iter().filter(|d| d.fits).reduce(|best, d| {
        if d.asynchrony > best.asynchrony
            || (d.asynchrony == best.asynchrony && d.peak_increase_watts < best.peak_increase_watts)
        {
            d
        } else {
            best
        }
    })
}

/// The deterministic probe sample of [`CommitPolicy::Sampling`]: a pure
/// function of `(salt, ordinal)`, returned in ascending rack order. When
/// `probes >= racks.len()` every rack is a candidate.
pub fn sample_racks(racks: &[NodeId], salt: u64, ordinal: u64, probes: usize) -> Vec<NodeId> {
    if probes >= racks.len() {
        return racks.to_vec();
    }
    let stream = mix(salt, ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
    sample_indices(racks.len(), stream, probes, 64 * probes as u64)
        .into_iter()
        .map(|i| racks[i])
        .collect()
}

/// The racks `config` probes for arrival `ordinal`.
fn probed_racks(topology: &PowerTopology, config: &OnlineConfig, ordinal: u64) -> Vec<NodeId> {
    let CommitPolicy::Sampling { probes } = config.policy;
    sample_racks(topology.racks(), config.sample_salt, ordinal, probes)
}

/// `probes < n` distinct indices below `n`, ascending: draw `d` picks
/// `mix(stream, d) % n`, for at most `max_draws` draws or until `probes`
/// distinct indices are picked, and the lowest unpicked indices fill any
/// shortfall. The picks are marked in a bitset and read out in one
/// ascending scan.
fn sample_indices(n: usize, stream: u64, probes: usize, max_draws: u64) -> Vec<usize> {
    let mut words = vec![0u64; n.div_ceil(64)];
    let mut mark = |i: usize| {
        let (word, bit) = (&mut words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    };
    let mut picked = 0usize;
    let mut draw = 0u64;
    while picked < probes && draw < max_draws {
        picked += usize::from(mark((mix(stream, draw) % n as u64) as usize));
        draw += 1;
    }
    // Pathological-collision fallback: fill ascending from the start.
    let mut next = 0usize;
    while picked < probes {
        picked += usize::from(mark(next));
        next += 1;
    }
    let mut out = Vec::with_capacity(probes);
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            out.push(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
    out
}

/// Offline replay of one commit decision, using the **materializing**
/// arithmetic (`try_add().peak()`, [`pairwise_score`]) over a
/// from-scratch [`NodeAggregates`] — an independent float path from the
/// engine's fused probes, documented bit-identical, and the reference the
/// `online` oracle family holds recorded commits against. The candidate is
/// snapped as [`OnlineFleet::arrive`] snaps it.
///
/// `occupancy` maps racks to their live member count (missing = empty);
/// `config` gives the probe count and the sample salt.
///
/// # Errors
///
/// Propagates tree/trace errors.
pub fn offline_choose(
    topology: &PowerTopology,
    budgets: &[f64],
    aggregates: &NodeAggregates,
    occupancy: &BTreeMap<NodeId, usize>,
    candidate: &PowerTrace,
    config: &OnlineConfig,
    ordinal: u64,
) -> Result<Option<NodeId>, CoreError> {
    let candidates = probed_racks(topology, config, ordinal);
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
    Ok(select_decision(&config.policy, &decisions).map(|d| d.rack))
}

/// Folds `x` into `seed` through the SplitMix64 finalizer.
fn mix(seed: u64, x: u64) -> u64 {
    mix64(seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
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

    /// An engine that probes every rack and never repairs.
    fn engine() -> OnlineFleet {
        OnlineFleet::new(
            topo(),
            grid(),
            OnlineConfig {
                repair_budget: 0,
                ..OnlineConfig::default()
            },
        )
    }

    /// Offers `traces` in order; every one must commit.
    fn arrive_all(fleet: &mut OnlineFleet, traces: &[PowerTrace]) {
        for t in traces {
            fleet.arrive(t).unwrap().expect("admissible");
        }
    }

    /// Attaches a virtual-clock plane whose flight ring holds every event
    /// of these small tests, and returns it.
    fn recorded(fleet: &mut OnlineFleet) -> Arc<LivePlane> {
        let plane = Arc::new(LivePlane::new(
            Arc::new(so_telemetry::RecordingSink::with_virtual_clock()),
            256,
            so_telemetry::default_online_rules(),
        ));
        fleet.attach_plane(plane.clone());
        plane
    }

    /// The engine events in `plane`'s flight ring, oldest first.
    fn events(plane: &LivePlane) -> Vec<EventRecord> {
        plane
            .flight_records(0)
            .iter()
            .filter_map(|r| EventRecord::from_flight(r.kind, r.a, r.b, r.c))
            .collect()
    }

    #[test]
    fn arrivals_commit_and_aggregates_match_offline_recompute() {
        let mut fleet = engine();
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
        let mut fleet = engine();
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
    fn over_budget_arrivals_are_rejected_and_state_is_unchanged() {
        let mut fleet = engine();
        let plane = recorded(&mut fleet);
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
            events(&plane).last(),
            Some(EventRecord::Rejected { ordinal: 1 })
        ));
    }

    #[test]
    fn retiring_everything_returns_exact_zero_aggregates() {
        let mut fleet = engine();
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
        let mut fleet = engine();
        assert!(fleet.retire(0).is_err());
        let slot = fleet
            .arrive(&trace(&[1.0, 1.0, 1.0, 1.0]))
            .unwrap()
            .unwrap();
        fleet.retire(slot).unwrap();
        assert!(fleet.retire(slot).is_err());
    }

    /// An engine that probes one rack per arrival, the oblivious
    /// placement §3.6's repair starts from, and repairs up to 4 swaps.
    fn oblivious() -> OnlineFleet {
        OnlineFleet::new(
            topo(),
            grid(),
            OnlineConfig {
                policy: CommitPolicy::Sampling { probes: 1 },
                repair_budget: 4,
                min_gain: 0.0,
                sample_salt: OBLIVIOUS_SALT,
            },
        )
    }

    /// A salt under which both oblivious fixtures below stack synchronous
    /// traces on shared racks, so repair has swaps to make (one probe per
    /// arrival spreads 6 or 7 instances over 8 racks, and most salts leave
    /// at most one rack with two members).
    const OBLIVIOUS_SALT: u64 = 108;

    #[test]
    fn repair_applies_remap_moves_and_keeps_aggregates_canonical() {
        let mut fleet = oblivious();
        let plane = recorded(&mut fleet);
        // One probe per arrival piles synchronous and complementary traces
        // onto shared racks; repair should find profitable swaps.
        arrive_all(
            &mut fleet,
            &[
                trace(&[100.0, 0.0, 0.0, 0.0]),
                trace(&[100.0, 0.0, 0.0, 0.0]),
                trace(&[0.0, 0.0, 0.0, 100.0]),
                trace(&[0.0, 0.0, 0.0, 100.0]),
                trace(&[100.0, 0.0, 0.0, 0.0]),
                trace(&[0.0, 0.0, 0.0, 100.0]),
            ],
        );
        let repair = fleet.repair().unwrap();
        assert!(!repair.swaps.is_empty(), "the fixture must swap");
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
        let moves = events(&plane)
            .iter()
            .filter(|e| matches!(e, EventRecord::Moved { .. }))
            .count();
        assert_eq!(moves, 2 * repair.swaps.len());
    }

    /// An oblivious engine that piles synchronous traces onto shared
    /// racks, with slot 1 retired so slots and dense positions differ.
    fn fragmented() -> OnlineFleet {
        let mut fleet = oblivious();
        for samples in [
            [100.0, 0.0, 0.0, 0.0],
            [90.0, 0.0, 0.0, 10.0],
            [100.0, 0.0, 0.0, 0.0],
            [80.0, 10.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 100.0],
            [0.0, 0.0, 10.0, 90.0],
            [0.0, 10.0, 0.0, 80.0],
        ] {
            fleet.arrive(&trace(&samples)).unwrap().unwrap();
        }
        fleet.retire(1).unwrap();
        fleet
    }

    #[test]
    fn resident_repair_matches_offline_remap_of_the_live_view() {
        let mut fleet = fragmented();
        let (traces, mut assignment, slots) = fleet.live_view().unwrap();
        let before = assignment.clone();
        let config = RemapConfig {
            max_swaps: 4,
            min_gain: 0.0,
            ..RemapConfig::default()
        };
        let offline =
            crate::remap_traces(&traces, fleet.topology(), &mut assignment, config).unwrap();
        assert!(!offline.swaps.is_empty(), "the fixture must swap");
        let plane = recorded(&mut fleet);
        let resident = fleet.repair().unwrap();

        // The same swaps, with dense positions named by their slots.
        let key = |s: &SwapRecord| {
            (
                s.instance_out,
                s.instance_in,
                s.node,
                s.partner,
                s.gain_node.to_bits(),
                s.gain_partner.to_bits(),
            )
        };
        let want: Vec<_> = offline
            .swaps
            .iter()
            .map(|s| {
                key(&SwapRecord {
                    instance_out: slots[s.instance_out],
                    instance_in: slots[s.instance_in],
                    ..*s
                })
            })
            .collect();
        assert_eq!(resident.swaps.iter().map(key).collect::<Vec<_>>(), want);
        assert_eq!(
            resident.initial_worst_score.to_bits(),
            offline.initial_worst_score.to_bits()
        );
        assert_eq!(
            resident.final_worst_score.to_bits(),
            offline.final_worst_score.to_bits()
        );

        // One move per slot whose rack changed, in ascending slot order.
        let mut moves = Vec::new();
        for (i, &slot) in slots.iter().enumerate() {
            let (from, to) = (before.rack_of(i).unwrap(), assignment.rack_of(i).unwrap());
            assert_eq!(fleet.rack_of(slot), Some(to));
            if from != to {
                moves.push(EventRecord::Moved { slot, from, to });
            }
        }
        assert_eq!(events(&plane), moves);
    }

    #[test]
    fn a_failing_repair_pass_changes_nothing() {
        let mut fleet = fragmented();
        // Rack sums one sample short of the rows: the pass's first scoring
        // step rejects them, before any swap.
        fleet.aggregates = NodeAggregates::zeros(&fleet.topology, TimeGrid::new(60, 3));
        let plane = recorded(&mut fleet);
        let (members, rack_of, peak_sums) = (
            fleet.members.clone(),
            fleet.rack_of.clone(),
            fleet.peak_sums.clone(),
        );
        assert!(matches!(
            fleet.repair(),
            Err(CoreError::Trace(TraceError::LengthMismatch { .. }))
        ));
        assert_eq!(plane.flight_counts().1, 0, "a failed pass records no move");
        assert_eq!(fleet.members, members);
        assert_eq!(fleet.rack_of, rack_of);
        assert_eq!(fleet.peak_sums, peak_sums);
    }

    #[test]
    fn sampling_policy_matches_offline_choose() {
        let mut fleet = OnlineFleet::new(
            topo(),
            grid(),
            OnlineConfig {
                policy: CommitPolicy::Sampling { probes: 3 },
                repair_budget: 0,
                min_gain: 0.02,
                sample_salt: 9,
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
                fleet.config(),
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

    /// `sample_indices` as it was first written, with a sorted `Vec` and a
    /// binary-search insert per draw: the reference for the bitset.
    fn sorted_insert_sample(n: usize, stream: u64, probes: usize, max_draws: u64) -> Vec<usize> {
        fn insert(picked: &mut Vec<usize>, idx: usize) {
            if let Err(pos) = picked.binary_search(&idx) {
                picked.insert(pos, idx);
            }
        }
        let mut picked = Vec::with_capacity(probes);
        let mut draw = 0u64;
        while picked.len() < probes && draw < max_draws {
            insert(&mut picked, (mix(stream, draw) % n as u64) as usize);
            draw += 1;
        }
        let mut next = 0usize;
        while picked.len() < probes {
            insert(&mut picked, next);
            next += 1;
        }
        picked
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        #[test]
        fn bitset_sample_matches_the_sorted_insert(
            n in 1usize..300,
            salt in 0u64..u64::MAX,
            ordinal in 0u64..1_000_000,
            probes in 0usize..320,
            draw_cap in 0u64..6,
        ) {
            let racks: Vec<NodeId> = (0..n).map(|i| NodeId::new(3 * i + 1)).collect();
            let want = if probes >= n {
                racks.clone()
            } else {
                let stream = mix(salt, ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
                sorted_insert_sample(n, stream, probes, 64 * probes as u64)
                    .into_iter()
                    .map(|i| racks[i])
                    .collect()
            };
            proptest::prop_assert_eq!(sample_racks(&racks, salt, ordinal, probes), want);
            // A draw budget this small leaves the fallback to fill the
            // sample.
            let probes = probes.min(n - 1);
            proptest::prop_assert_eq!(
                sample_indices(n, salt, probes, draw_cap),
                sorted_insert_sample(n, salt, probes, draw_cap)
            );
        }
    }

    #[test]
    fn decisions_match_admission_decisions_bitwise() {
        let mut fleet = engine();
        arrive_all(
            &mut fleet,
            &[
                trace(&[90.0, 5.0, 5.0, 5.0]),
                trace(&[5.0, 90.0, 5.0, 5.0]),
                trace(&[5.0, 5.0, 90.0, 5.0]),
            ],
        );
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
        let mut fleet = engine();
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
        let empty = engine();
        let frag = empty.fragmentation(&reference).unwrap();
        assert!(frag.iter().all(|f| f.ratio == 0.0));
    }

    #[test]
    fn only_observe_batch_sets_the_fragmentation_gauges() {
        for with_plane in [false, true] {
            let sink = Arc::new(so_telemetry::RecordingSink::with_virtual_clock());
            let stranded = || sink.prometheus().contains("so_online_stranded_watts");
            let mut fleet = oblivious();
            if with_plane {
                fleet.attach_plane(Arc::new(LivePlane::new(
                    Arc::new(so_telemetry::RecordingSink::with_virtual_clock()),
                    16,
                    so_telemetry::default_online_rules(),
                )));
            }
            so_telemetry::with_sink(sink.clone(), || {
                let slot = fleet.arrive(&trace(&[100.0, 0.0, 0.0, 0.0])).unwrap();
                for _ in 0..3 {
                    fleet.arrive(&trace(&[0.0, 0.0, 0.0, 100.0])).unwrap();
                }
                fleet.retire(slot.unwrap()).unwrap();
                fleet.repair().unwrap();
                fleet.fragmentation(&trace(&[50.0; 4])).unwrap();
                fleet.observe_batch(None).unwrap();
                assert!(!stranded(), "plane attached: {with_plane}");
                fleet.observe_batch(Some(&trace(&[50.0; 4]))).unwrap();
            });
            assert!(stranded(), "plane attached: {with_plane}");
            assert!(sink
                .prometheus()
                .contains("so_online_fragmentation_ratio{level=\"RACK\"}"));
        }
    }

    #[test]
    fn repair_passes_add_no_events_to_the_sink() {
        // smoothopd keeps one sink for its whole life, so an event per
        // pass would grow it with every `/repair` and repair-loop tick.
        let mut fleet = fragmented();
        let sink = Arc::new(so_telemetry::RecordingSink::with_virtual_clock());
        so_telemetry::with_sink(sink.clone(), || {
            for _ in 0..50 {
                fleet.repair().unwrap();
            }
        });
        assert!(sink.events().is_empty(), "{} events", sink.events().len());
        assert!(sink.prometheus().contains("so_remap_runs_total 50"));
    }

    #[test]
    fn grid_mismatches_are_rejected() {
        let mut fleet = engine();
        let short = PowerTrace::new(vec![1.0, 1.0], 60).unwrap();
        assert!(fleet.arrive(&short).is_err());
        let wrong_step = PowerTrace::new(vec![1.0; 4], 30).unwrap();
        assert!(fleet.arrive(&wrong_step).is_err());
    }

    #[test]
    fn rack_asynchrony_matches_materialized_score() {
        let mut fleet = engine();
        arrive_all(
            &mut fleet,
            &[
                trace(&[90.0, 5.0, 5.0, 5.0]),
                trace(&[5.0, 90.0, 5.0, 5.0]),
                trace(&[50.0, 5.0, 50.0, 5.0]),
                trace(&[5.0, 50.0, 5.0, 50.0]),
            ],
        );
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
