//! The million-instance scale tier: a columnar end-to-end pipeline sized
//! well past what the `Vec<PowerTrace>` paths are exercised at, reported
//! as the machine-readable `BENCH_scale.json` artifact.
//!
//! The pipeline is **chunked and streaming**: rows are synthesized into a
//! single reusable [`so_powertrace::TraceArena`] a bounded chunk at a
//! time, every per-row kernel runs over that chunk, and only scalar
//! accumulators survive to the next chunk. Peak RSS is therefore bounded
//! by `chunk_rows × samples_per_trace`, not the fleet size — the 10M rung
//! runs in well under 4 GB. Chunk boundaries are aligned to `group_size`
//! so no aggregation group ever straddles a chunk, and every accumulator
//! is folded in canonical row / group / probe order, which makes the
//! deterministic outputs (`sum_of_group_peaks`, `checksum`) **bit-
//! identical for any `chunk_rows` and any thread count**.
//!
//! Each ladder point times the five hot kernels the placement and remap
//! layers run over columnar storage:
//!
//! 1. **synth** — [`so_powertrace::TraceArena::par_extend_rows`] waveform
//!    generation from precomputed per-sample basis tables (no
//!    trigonometry in the per-sample loop);
//! 2. **row peaks** — [`so_powertrace::TraceArena::row_peaks`], the
//!    per-instance peak pass every remap begins with;
//! 3. **quantiles** — per-row p99, the StatProf provisioning kernel, by
//!    exact selection ([`so_powertrace::TraceArena::row_quantiles`]);
//! 4. **aggregation** — fused [`so_powertrace::TraceArena::peak_of_sum`]
//!    per rack-sized group (the sum-of-peaks objective without
//!    materializing a single aggregate trace);
//! 5. **swap probes** — [`so_core::differential_score_excluding`] over
//!    sampled candidate moves, the remap inner loop.
//!
//! Every numeric output (`sum_of_group_peaks`, `checksum`) is a pure
//! function of `(seed, instances, samples_per_trace, group_size,
//! workload)`; only the `*_ms`, `rows_per_sec`, and
//! `peak_rss_bytes` fields are machine-dependent. CI's `scale-smoke` job
//! runs the 100k rung and gates per-phase wall time and the digests
//! against the committed baseline (`smoothop gate`, [`crate::gate`]);
//! `tests/scale_golden.rs` pins the JSON schema and the determinism of
//! the numeric fields.
//!
//! # The online rung
//!
//! [`crate::scale::run_online_scale`] is the one churn loop over the
//! resident [`so_core::OnlineFleet`] engine. Each batch retires seeded
//! draws from the live set, commits the next arrivals of the shared
//! seeded stream, runs a budgeted §3.6 repair pass and ends with one
//! [`so_core::OnlineFleet::observe_batch`] heartbeat. One constructor builds every
//! resident engine (this rung's, its offline comparator and smoothopd's)
//! and one function yields their arrivals. A headless point feeds
//! `BENCH_online.json`; given a live plane the same loop is *watched*
//! (`smoothop online --listen / --watch-out / --flight-out`) and also
//! emits JSONL heartbeats, alert transitions and flight dumps, without
//! changing a placement bit.

use std::sync::Arc;
use std::time::Instant;

use so_core::{differential_score_excluding, CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid, TraceArena};
use so_powertree::{Level, PowerTopology};
use so_telemetry::export::BenchObject;
use so_telemetry::{default_online_rules, AlertTransition, LivePlane, RecordingSink};
use so_workloads::rng::{mix64, unit};

/// Waveform family the ladder synthesizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleWorkload {
    /// Diurnal basis-table waveforms (`RowWave`) — the v2 default; the
    /// committed `BENCH_scale.json` digests are from this family.
    #[default]
    Diurnal,
    /// Token-bursty LLM waveforms ([`so_workloads::LlmBasis`]): correlated
    /// 30-minute bursts and prefill/decode alternation, peak-to-mean ≥ 3×.
    /// Opt-in via `smoothop scale --workload llm`, so the scale rungs cover
    /// the bursty family end to end.
    Llm,
}

impl ScaleWorkload {
    /// Stable lower-case name stamped into `BENCH_scale.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            ScaleWorkload::Diurnal => "diurnal",
            ScaleWorkload::Llm => "llm",
        }
    }

    /// Parses the CLI / JSON spelling (`"diurnal"` or `"llm"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "diurnal" => Some(ScaleWorkload::Diurnal),
            "llm" => Some(ScaleWorkload::Llm),
            _ => None,
        }
    }
}

/// Scale-tier parameters. The defaults match the committed
/// `BENCH_scale.json` ladder: 10k → 100k → 1M instances of week-long
/// hourly traces grouped into rack-sized sets of 12.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Fleet sizes to run, in order. Each becomes one report point.
    pub instances: Vec<usize>,
    /// Samples per synthesized trace (default: one week at one hour).
    pub samples_per_trace: usize,
    /// Sampling step of the synthesized grid, minutes.
    pub step_minutes: u32,
    /// Seed mixed into every synthesized waveform.
    pub seed: u64,
    /// Rows per aggregation group (a rack's worth).
    pub group_size: usize,
    /// Candidate-move evaluations in the swap-probe phase (capped at the
    /// instance count).
    pub swap_probes: usize,
    /// Waveform family synthesized on every rung (diurnal or LLM).
    pub workload: ScaleWorkload,
    /// Rows synthesized and processed per streaming chunk; `0` selects
    /// the default. The effective value is always rounded up to a
    /// multiple of `group_size` (see [`ScaleConfig::effective_chunk_rows`])
    /// and never changes any deterministic output.
    pub chunk_rows: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            instances: vec![10_000, 100_000, 1_000_000],
            samples_per_trace: 168,
            step_minutes: 60,
            seed: 7,
            group_size: 12,
            swap_probes: 4096,
            workload: ScaleWorkload::Diurnal,
            chunk_rows: 0,
        }
    }
}

/// Default streaming chunk before group-size alignment: 64k week-long
/// rows ≈ 88 MB of f64 samples, small enough that the 10M rung stays far
/// under 4 GB and large enough to amortize per-chunk overhead.
const DEFAULT_CHUNK_ROWS: usize = 65_536;

impl ScaleConfig {
    /// The chunk size actually used: the configured `chunk_rows` (or the
    /// default when `0`), rounded **up** to a multiple of `group_size` so
    /// aggregation groups never straddle a chunk boundary.
    pub fn effective_chunk_rows(&self) -> usize {
        let base = if self.chunk_rows == 0 {
            DEFAULT_CHUNK_ROWS
        } else {
            self.chunk_rows
        };
        let gs = self.group_size.max(1);
        base.div_ceil(gs) * gs
    }
}

/// One ladder point: timings, throughput, memory, and the deterministic
/// numeric digests of a scale-tier run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Fleet size of this point.
    pub instances: usize,
    /// Thread lanes the parallel phases ran with
    /// ([`so_parallel::effective_lanes`] at run time).
    pub threads: usize,
    /// Effective streaming chunk size (rows) the point ran with.
    pub chunk_rows: usize,
    /// Waveform synthesis wall time, milliseconds.
    pub synth_ms: f64,
    /// Per-row peak pass wall time, milliseconds.
    pub row_peaks_ms: f64,
    /// Per-row p99 quantile pass wall time, milliseconds.
    pub quantiles_ms: f64,
    /// Fused grouped peak-of-sum wall time, milliseconds.
    pub aggregation_ms: f64,
    /// Sampled remap swap-probe wall time, milliseconds.
    pub swap_probe_ms: f64,
    /// End-to-end wall time of the point, milliseconds.
    pub total_ms: f64,
    /// `instances / total_seconds` — the ladder's throughput axis.
    pub rows_per_sec: f64,
    /// Process peak RSS after the point, bytes; `None` where the platform
    /// exposes no `/proc/self/status` (serialized as JSON `null`).
    pub peak_rss_bytes: Option<u64>,
    /// Sum of fused per-group peaks — the placement objective, and a
    /// seed-deterministic digest of the aggregation phase.
    pub sum_of_group_peaks: f64,
    /// Folded digest over every phase's numeric output; bit-identical
    /// across runs, thread counts, and chunk sizes for one config.
    pub checksum: f64,
}

/// A full scale-tier run: config echo plus one [`ScalePoint`] per rung.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// The configuration the report was produced under.
    pub config: ScaleConfig,
    /// One point per requested instance count, in request order.
    pub points: Vec<ScalePoint>,
}

/// Schema version stamped into `BENCH_scale.json`; bump on any field
/// rename so downstream tooling fails loudly instead of misparsing.
/// v2: added per-point `threads`, `quantile_mode`, `chunk_rows`; made
/// `peak_rss_bytes` nullable; waveform synthesis moved to basis tables
/// (deterministic digests differ from v1).
/// v3: added the top-level `workload` field (`"diurnal"` or `"llm"`);
/// diurnal digests are unchanged from v2.
/// v4: dropped the per-point `quantile_mode` field (p99 is always exact
/// selection); digests are unchanged from v3.
pub const SCALE_SCHEMA_VERSION: u32 = 4;

/// Runs the scale ladder described by `config`.
///
/// # Errors
///
/// Returns an error when `config` is degenerate (no instance counts, zero
/// samples or group size) or a trace kernel rejects its input.
pub fn run_scale(config: &ScaleConfig) -> Result<ScaleReport, Box<dyn std::error::Error>> {
    if config.instances.is_empty() {
        return Err("scale ladder needs at least one instance count".into());
    }
    if config.samples_per_trace == 0 || config.group_size == 0 {
        return Err("samples_per_trace and group_size must be positive".into());
    }
    if config.instances.contains(&0) {
        return Err("instance counts must be positive".into());
    }
    let mut points = Vec::with_capacity(config.instances.len());
    for &n in &config.instances {
        points.push(run_point(config, n)?);
    }
    Ok(ScaleReport {
        config: config.clone(),
        points,
    })
}

fn run_point(config: &ScaleConfig, n: usize) -> Result<ScalePoint, Box<dyn std::error::Error>> {
    let grid = TimeGrid::new(config.step_minutes, config.samples_per_trace);
    let chunk_rows = config.effective_chunk_rows();
    let basis = SynthBasis::new(config.samples_per_trace);
    let llm_basis = so_workloads::LlmBasis::new(config.samples_per_trace, config.step_minutes);
    let started = Instant::now();

    // One arena recycled across chunks: capacity is the chunk, not the
    // fleet, which is what bounds peak RSS on the 10M rung.
    let mut arena = TraceArena::with_capacity(grid, chunk_rows.min(n));

    // Scalar accumulators carried across chunks. Each is folded in
    // canonical order (row order for peaks/quantiles, group order for
    // aggregation, probe order for the swap digest), so the results are
    // bit-identical to an unchunked run.
    let mut peaks_sum = 0.0f64;
    let mut q99_sum = 0.0f64;
    let mut sum_of_group_peaks = 0.0f64;

    // Swap probes land in whichever chunk holds their group; scores are
    // recorded per probe index and summed in probe order at the end.
    let probes = config.swap_probes.min(n);
    // `run_scale` rejects group_size 0, but guard the division anyway so
    // a future direct caller can't hit an arithmetic panic (same idiom as
    // `effective_chunk_rows`).
    let groups_total = n / config.group_size.max(1);
    let do_probes = config.group_size >= 2 && groups_total >= 1;
    let mut probe_scores = vec![0.0f64; if do_probes { probes } else { 0 }];
    let probe_groups: Vec<usize> = (0..probe_scores.len())
        .map(|p| (mix(config.seed ^ 0x5CA1E, p as u64) as usize) % groups_total.max(1))
        .collect();

    let mut synth_ms = 0.0f64;
    let mut row_peaks_ms = 0.0f64;
    let mut quantiles_ms = 0.0f64;
    let mut aggregation_ms = 0.0f64;
    let mut swap_probe_ms = 0.0f64;

    let mut members = Vec::with_capacity(config.group_size);
    let mut group_sum = vec![0.0f64; config.samples_per_trace];

    let mut start = 0usize;
    while start < n {
        let end = (start + chunk_rows).min(n);
        let rows = end - start;

        // Phase 1: synthesize this chunk straight into the columnar
        // buffer — basis-table waveforms, parallel over rows.
        let t0 = Instant::now();
        arena.clear();
        match config.workload {
            ScaleWorkload::Diurnal => arena.par_extend_rows(rows, |r, out| {
                RowWave::new(config.seed, (start + r) as u64).fill(&basis, out)
            }),
            ScaleWorkload::Llm => {
                let llm = &llm_basis;
                arena.par_extend_rows(rows, |r, out| {
                    llm.fill_row(config.seed, (start + r) as u64, out)
                });
            }
        }
        synth_ms += ms_since(t0);

        // Phase 2: per-row peaks (the remap prologue), folded into the
        // running sum in row order.
        let t0 = Instant::now();
        let peaks = arena.row_peaks();
        for &v in &peaks {
            peaks_sum += v;
        }
        row_peaks_ms += ms_since(t0);

        // Phase 3: per-row p99 (the StatProf provisioning kernel).
        let t0 = Instant::now();
        for &v in &arena.row_quantiles(0.99)? {
            q99_sum += v;
        }
        quantiles_ms += ms_since(t0);

        // Phase 4: fused peak-of-sum per rack-sized group — the
        // sum-of-peaks objective with no aggregate trace materialized.
        // Chunks are group-aligned, so only the ladder's final rows can
        // form a partial group.
        let t0 = Instant::now();
        let mut g_start = 0usize;
        while g_start < rows {
            let g_end = (g_start + config.group_size).min(rows);
            members.clear();
            members.extend(g_start..g_end);
            sum_of_group_peaks += arena.peak_of_sum(&members)?;
            g_start = g_end;
        }
        aggregation_ms += ms_since(t0);

        // Phase 5: the sampled remap inner loop — fused differential
        // scores of a member against its own group, exactly the `ad_i`
        // evaluation `best_swap` performs per candidate. A probe runs in
        // the chunk that holds its group (complete groups never straddle
        // chunks).
        let t0 = Instant::now();
        for (p, &g) in probe_groups.iter().enumerate() {
            let base = g * config.group_size;
            if base < start || base >= end {
                continue;
            }
            let local = base - start;
            members.clear();
            members.extend(local..local + config.group_size);
            arena.sum_into(&members, &mut group_sum)?;
            let i = local + (p % config.group_size);
            probe_scores[p] = differential_score_excluding(
                arena.row(i),
                &group_sum,
                arena.row(i),
                config.group_size,
            )?;
        }
        swap_probe_ms += ms_since(t0);

        start = end;
    }

    let mut probe_digest = 0.0f64;
    for &s in &probe_scores {
        probe_digest += s;
    }

    let total_ms = ms_since(started);
    let checksum = fold_digest(&[peaks_sum, q99_sum, sum_of_group_peaks, probe_digest]);
    Ok(ScalePoint {
        instances: n,
        threads: so_parallel::effective_lanes(),
        chunk_rows,
        synth_ms,
        row_peaks_ms,
        quantiles_ms,
        aggregation_ms,
        swap_probe_ms,
        total_ms,
        rows_per_sec: n as f64 / (total_ms / 1e3).max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
        sum_of_group_peaks,
        checksum,
    })
}

impl ScaleReport {
    /// Renders the report as the `BENCH_scale.json` artifact. Deterministic
    /// fields come first; the machine-dependent timings carry the `_ms`
    /// suffix by convention.
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            BenchObject::default()
                .raw("instances", p.instances)
                .raw("threads", p.threads)
                .raw("chunk_rows", p.chunk_rows)
                .fixed("synth_ms", p.synth_ms, 3)
                .fixed("row_peaks_ms", p.row_peaks_ms, 3)
                .fixed("quantiles_ms", p.quantiles_ms, 3)
                .fixed("aggregation_ms", p.aggregation_ms, 3)
                .fixed("swap_probe_ms", p.swap_probe_ms, 3)
                .fixed("total_ms", p.total_ms, 3)
                .fixed("rows_per_sec", p.rows_per_sec, 1)
                .nullable("peak_rss_bytes", p.peak_rss_bytes)
                .fixed("sum_of_group_peaks", p.sum_of_group_peaks, 6)
                .fixed("checksum", p.checksum, 6)
        });
        BenchObject::default()
            .string("benchmark", "scale")
            .raw("schema_version", SCALE_SCHEMA_VERSION)
            .raw("seed", self.config.seed)
            .raw("samples_per_trace", self.config.samples_per_trace)
            .raw("step_minutes", self.config.step_minutes)
            .string("workload", self.config.workload.as_str())
            .raw("group_size", self.config.group_size)
            .raw("swap_probes", self.config.swap_probes)
            .array("points", points)
            .render()
    }
}

/// Rack slots of the online rung's topology (the paper's rack size).
const ONLINE_RACK_SLOTS: usize = 12;
/// Rack budget of the online rung, watts — generous enough that capacity,
/// not power, is the binding constraint for the synthesized waveforms
/// (max sample ≈ 300 W × 12 slots = 3 600 W).
pub(crate) const ONLINE_RACK_BUDGET_WATTS: f64 = 3_600.0;

/// Online-rung parameters. The defaults match the committed
/// `BENCH_online.json` ladder: 10k → 100k instances streamed through the
/// resident [`OnlineFleet`] engine in churning batches, then re-placed
/// from scratch as the offline comparator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineScaleConfig {
    /// Target fleet sizes, in order. Each becomes one report point.
    pub instances: Vec<usize>,
    /// Samples per synthesized trace.
    pub samples_per_trace: usize,
    /// Sampling step of the synthesized grid, minutes.
    pub step_minutes: u32,
    /// Seed driving waveforms, retirement draws, and the probe sample.
    pub seed: u64,
    /// Event batches the stream is split into (each arrives `n / batches`
    /// instances and retires a fifth of that from the live set).
    pub batches: usize,
    /// Candidate racks probed per arrival ([`CommitPolicy::Sampling`]).
    pub sample_probes: usize,
    /// Remap swaps allowed per between-batch repair pass (0 disables).
    pub repair_budget: usize,
    /// Inject one arrival drawing three rack budgets at batch
    /// `batches / 2`, after that batch's arrivals and before its repair
    /// pass: a breaker-budget violation while churn has left slots free,
    /// to exercise the anomaly path (alert, postmortem dump) end to end.
    pub plant_violation: bool,
}

impl Default for OnlineScaleConfig {
    fn default() -> Self {
        Self {
            instances: vec![10_000, 100_000],
            samples_per_trace: 168,
            step_minutes: 60,
            seed: 7,
            batches: 8,
            sample_probes: 64,
            repair_budget: 8,
            plant_violation: false,
        }
    }
}

/// One online-rung point: phase timings plus the deterministic quality
/// metrics comparing the churned online placement against a one-pass
/// offline re-placement of the same final fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineScalePoint {
    /// Target fleet size of this point.
    pub instances: usize,
    /// Thread lanes at run time.
    pub threads: usize,
    /// Instances live at the end of the stream.
    pub live_instances: usize,
    /// Arrivals committed across the stream.
    pub committed: u64,
    /// Arrivals rejected across the stream.
    pub rejected: u64,
    /// Instances retired across the stream.
    pub retired: u64,
    /// Instance moves performed by the repair passes.
    pub repair_moves: usize,
    /// Arrival (placement + commit) wall time, milliseconds.
    pub arrive_ms: f64,
    /// Retirement wall time, milliseconds.
    pub retire_ms: f64,
    /// Between-batch repair wall time, milliseconds.
    pub repair_ms: f64,
    /// Offline comparator (one-pass re-placement) wall time, milliseconds.
    pub offline_ms: f64,
    /// End-to-end wall time of the point, milliseconds.
    pub total_ms: f64,
    /// `committed / total_seconds` — the rung's throughput axis.
    pub rows_per_sec: f64,
    /// Process peak RSS after the point, bytes (`null` off Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Mean per-rack asynchrony of the churned online placement.
    pub online_mean_asynchrony: f64,
    /// Mean per-rack asynchrony after re-placing the same final fleet in
    /// one offline pass (no churn holes).
    pub offline_mean_asynchrony: f64,
    /// Worst rack headroom of the online placement, watts.
    pub online_min_rack_headroom_watts: f64,
    /// Worst rack headroom of the offline re-placement, watts.
    pub offline_min_rack_headroom_watts: f64,
    /// Rack-level stranded-headroom ratio of the online placement against
    /// a 40 %-of-rack-budget reference job.
    pub rack_fragmentation_ratio: f64,
    /// `AlertFired` transitions across the point's per-batch alert
    /// evaluations (deterministic: alert decisions depend only on the
    /// resident-state signal stream).
    pub alerts_fired: u64,
    /// `AlertResolved` transitions across the point's alert evaluations.
    pub alerts_resolved: u64,
    /// Folded digest over the deterministic metrics; bit-identical across
    /// runs and thread counts for one config.
    pub checksum: f64,
}

/// A full online-rung run: config echo plus one point per target size.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineScaleReport {
    /// The configuration the report was produced under.
    pub config: OnlineScaleConfig,
    /// One point per requested instance count, in request order.
    pub points: Vec<OnlineScalePoint>,
}

/// Schema version stamped into `BENCH_online.json`. v2 added the
/// `alerts_fired`/`alerts_resolved` observability counts (and folded them
/// into `checksum`).
pub const ONLINE_SCALE_SCHEMA_VERSION: u32 = 2;

/// Runs the online-engine rung ladder described by `config`.
///
/// Without a `plane` every point is headless: it gets its own
/// virtual-clock plane, so the reported `alerts_fired`/`alerts_resolved`
/// counts are a pure function of the config, and `emit` is never called.
///
/// With a `plane` every point is *watched*: its engine reports into that
/// plane (what `smoothop online --listen` serves over HTTP while the
/// ladder runs), passes the rung's fragmentation reference to each
/// batch's [`OnlineFleet::observe_batch`] so it exports the per-level
/// fragmentation gauges, and hands `emit` one JSON object per line:
///
/// * `{"kind":"alert","rule":"...","state":"fired"|"resolved","eval":N,"value":V}`
///   per alert transition, in evaluation order (deterministic at any
///   thread count);
/// * `{"kind":"flight_dump","ordinal":N,"reason":"...","records":N}` per
///   postmortem dump the plane captured during the batch;
/// * `{"kind":"batch","batch":B,"arrivals":..,"committed":..,"rejected":..,
///   "retired":..,"live":..,"root_power_watts":..,"min_rack_headroom_watts":..,
///   "alerts_active":..,"peak_rss_bytes":N|null}` — one heartbeat per event
///   batch, after that batch's alert and dump lines (`null` RSS where
///   `/proc` is unavailable, never a fabricated zero);
/// * `{"kind":"summary",...}` — the point's totals, after its last batch.
///
/// A shared plane carries alert state across points, so a watched
/// ladder's alert counts reflect the whole session. Watching never
/// changes a placement bit.
///
/// # Errors
///
/// Returns an error when `config` is degenerate (no instance counts, zero
/// samples/batches/probes) or an engine operation fails.
pub fn run_online_scale(
    config: &OnlineScaleConfig,
    plane: Option<Arc<LivePlane>>,
    mut emit: impl FnMut(&str),
) -> Result<OnlineScaleReport, Box<dyn std::error::Error>> {
    if config.instances.is_empty() {
        return Err("online ladder needs at least one instance count".into());
    }
    if config.samples_per_trace == 0 || config.batches == 0 || config.sample_probes == 0 {
        return Err("samples_per_trace, batches, and sample_probes must be positive".into());
    }
    if config.instances.contains(&0) {
        return Err("instance counts must be positive".into());
    }
    let mut points = Vec::with_capacity(config.instances.len());
    for &n in &config.instances {
        points.push(run_online_point(config, n, plane.as_ref(), &mut emit)?);
    }
    Ok(OnlineScaleReport {
        config: config.clone(),
        points,
    })
}

/// The resident engine behind every online front end (the online rung,
/// its offline comparator and smoothopd): the paper's tree shape (1 suite
/// × 2 MSB × 2 SB × r RPP × 4 racks) sized so rack slots cover
/// `instances`, on a grid of `samples_per_trace` steps of `step_minutes`,
/// under a [`CommitPolicy::Sampling`] policy salted by `seed`.
pub(crate) fn online_fleet(
    instances: usize,
    samples_per_trace: usize,
    step_minutes: u32,
    seed: u64,
    probes: usize,
    repair_budget: usize,
) -> Result<OnlineFleet, so_powertree::TreeError> {
    let racks_needed = instances.div_ceil(ONLINE_RACK_SLOTS).max(1);
    let rpps = racks_needed.div_ceil(2 * 2 * 4).max(1);
    let topology = PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(rpps)
        .racks_per_rpp(4)
        .rack_capacity(ONLINE_RACK_SLOTS)
        .rack_budget_watts(ONLINE_RACK_BUDGET_WATTS)
        .name("online-scale")
        .build()?;
    let config = OnlineConfig {
        policy: CommitPolicy::Sampling { probes },
        repair_budget,
        min_gain: 0.02,
        sample_salt: seed,
    };
    let grid = TimeGrid::new(step_minutes, samples_per_trace);
    Ok(OnlineFleet::new(topology, grid, config))
}

/// The seeded arrival stream every resident fleet draws from: the `i`-th
/// trace is the diurnal row `i` of the `seed ^ 0x0E7E` waveform family.
pub(crate) fn arrival_stream(
    seed: u64,
    grid: TimeGrid,
) -> impl Iterator<Item = Result<PowerTrace, so_powertrace::TraceError>> {
    let basis = SynthBasis::new(grid.len());
    (0u64..).map(move |i| {
        let mut row = vec![0.0f64; grid.len()];
        RowWave::new(seed ^ 0x0E7E, i).fill(&basis, &mut row);
        PowerTrace::new(row, grid.step_minutes())
    })
}

fn run_online_point(
    config: &OnlineScaleConfig,
    n: usize,
    watch: Option<&Arc<LivePlane>>,
    emit: &mut dyn FnMut(&str),
) -> Result<OnlineScalePoint, Box<dyn std::error::Error>> {
    let fleet = || {
        online_fleet(
            n,
            config.samples_per_trace,
            config.step_minutes,
            config.seed,
            config.sample_probes,
            config.repair_budget,
        )
    };
    let mut engine = fleet()?;
    // The reference job `rack_fragmentation_ratio` is measured against.
    let reference = PowerTrace::new(
        vec![0.4 * ONLINE_RACK_BUDGET_WATTS; config.samples_per_trace],
        config.step_minutes,
    )?;
    // Headless fallback: a virtual-clock plane per point keeps the alert
    // counts deterministic in `BENCH_online.json` while exercising the
    // full observe path a watched point uses.
    let plane = watch.cloned().unwrap_or_else(|| {
        Arc::new(LivePlane::new(
            Arc::new(RecordingSink::with_virtual_clock()),
            256,
            default_online_rules(),
        ))
    });
    engine.attach_plane(Arc::clone(&plane));
    let mut alerts_fired = 0u64;
    let mut alerts_resolved = 0u64;
    let mut dumps_seen = plane.dumps_total();

    let started = Instant::now();
    let per_batch = n.div_ceil(config.batches).max(1);
    let retire_per_batch = per_batch / 5;
    let mut arrive_ms = 0.0f64;
    let mut retire_ms = 0.0f64;
    let mut repair_ms = 0.0f64;
    let mut repair_moves = 0usize;
    let mut stream = arrival_stream(config.seed, engine.grid());

    for b in 0..config.batches {
        // Synthesis is the scale tier's own phase; here it only feeds the
        // stream, so it counts toward total_ms but no placement phase.
        let batch = stream
            .by_ref()
            .take(per_batch)
            .collect::<Result<Vec<_>, _>>()?;

        // Retirements first (none before anything arrived): deterministic
        // draws against the live snapshot, deduped and retired in
        // ascending order, so the draw order never matters.
        let t0 = Instant::now();
        if b > 0 && retire_per_batch > 0 {
            let snapshot = engine.live_slots();
            if !snapshot.is_empty() {
                let mut slots: Vec<usize> = (0..retire_per_batch)
                    .map(|k| {
                        let draw = mix(config.seed ^ 0xDE7A11, (b * per_batch + k) as u64);
                        snapshot[(draw % snapshot.len() as u64) as usize]
                    })
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                for slot in slots {
                    engine.retire(slot)?;
                }
            }
        }
        retire_ms += ms_since(t0);

        let t0 = Instant::now();
        for trace in &batch {
            let _ = engine.arrive(trace)?;
        }
        let planted = config.plant_violation && b == config.batches / 2;
        if planted {
            let hot = PowerTrace::new(
                vec![3.0 * ONLINE_RACK_BUDGET_WATTS; config.samples_per_trace],
                config.step_minutes,
            )?;
            let outcome = engine.arrive(&hot)?;
            debug_assert!(outcome.is_none(), "planted arrival must be rejected");
        }
        arrive_ms += ms_since(t0);

        let t0 = Instant::now();
        if config.repair_budget > 0 {
            let report = engine.repair()?;
            repair_moves += 2 * report.swaps.len();
        }
        repair_ms += ms_since(t0);

        // Observability heartbeat: one alert evaluation per batch, from
        // the serial point — deterministic at any thread count. Only a
        // watched point pays for the per-level fragmentation recompute.
        let transitions = engine.observe_batch(watch.map(|_| &reference))?;
        for transition in &transitions {
            if transition.fired {
                alerts_fired += 1;
            } else {
                alerts_resolved += 1;
            }
        }
        if watch.is_some() {
            let arrivals = batch.len() + usize::from(planted);
            emit_batch_lines(
                &engine,
                &plane,
                b,
                arrivals,
                &transitions,
                &mut dumps_seen,
                emit,
            )?;
        }
    }
    if watch.is_some() {
        emit(
            &BenchObject::default()
                .string("kind", "summary")
                .raw("batches", config.batches)
                .raw("committed", engine.committed())
                .raw("rejected", engine.rejected())
                .raw("retired", engine.retired())
                .raw("live", engine.live_len())
                .raw("alerts_fired", alerts_fired)
                .raw("alerts_resolved", alerts_resolved)
                .raw("breaker_violations", plane.breaker_violations())
                .raw("flight_dumps", plane.dumps_total())
                .float("total_ms", ms_since(started))
                .compact(),
        );
    }

    // Quality of the churned placement.
    let online_mean_asynchrony = engine.mean_rack_asynchrony().unwrap_or(0.0);
    let online_min_rack_headroom_watts = min_rack_headroom(&engine)?;
    let rack_fragmentation_ratio = engine
        .fragmentation(&reference)?
        .iter()
        .find(|f| f.level == Level::Rack)
        .map(|f| f.ratio)
        .unwrap_or(0.0);

    // Offline comparator: the same final fleet re-placed from scratch in
    // one pass by a fresh engine — what the placement would look like
    // with perfect foresight and no churn holes. It runs with telemetry
    // off, so the session's counters count the stream alone.
    let t0 = Instant::now();
    let (final_traces, _, _) = engine.live_view()?;
    let sink = so_telemetry::uninstall();
    let offline = (|| -> Result<OnlineFleet, Box<dyn std::error::Error>> {
        let mut offline = fleet()?;
        for trace in &final_traces {
            offline.arrive(trace)?;
        }
        Ok(offline)
    })();
    if let Some(sink) = sink {
        so_telemetry::install(sink);
    }
    let offline = offline?;
    let offline_mean_asynchrony = offline.mean_rack_asynchrony().unwrap_or(0.0);
    let offline_min_rack_headroom_watts = min_rack_headroom(&offline)?;
    let offline_ms = ms_since(t0);

    let total_ms = ms_since(started);
    let checksum = fold_digest(&[
        online_mean_asynchrony,
        offline_mean_asynchrony,
        online_min_rack_headroom_watts,
        offline_min_rack_headroom_watts,
        rack_fragmentation_ratio,
        engine.committed() as f64,
        engine.rejected() as f64,
        engine.retired() as f64,
        engine.live_len() as f64,
        alerts_fired as f64,
        alerts_resolved as f64,
    ]);
    Ok(OnlineScalePoint {
        instances: n,
        threads: so_parallel::effective_lanes(),
        live_instances: engine.live_len(),
        committed: engine.committed(),
        rejected: engine.rejected(),
        retired: engine.retired(),
        repair_moves,
        arrive_ms,
        retire_ms,
        repair_ms,
        offline_ms,
        total_ms,
        rows_per_sec: engine.committed() as f64 / (total_ms / 1e3).max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
        online_mean_asynchrony,
        offline_mean_asynchrony,
        online_min_rack_headroom_watts,
        offline_min_rack_headroom_watts,
        rack_fragmentation_ratio,
        alerts_fired,
        alerts_resolved,
        checksum,
    })
}

/// A watched point's lines for batch `batch`: its alert transitions, the
/// flight dumps the plane captured since `dumps_seen`, then the
/// heartbeat.
fn emit_batch_lines(
    engine: &OnlineFleet,
    plane: &LivePlane,
    batch: usize,
    arrivals: usize,
    transitions: &[AlertTransition],
    dumps_seen: &mut u64,
    emit: &mut dyn FnMut(&str),
) -> Result<(), so_core::CoreError> {
    let rules = default_online_rules();
    for t in transitions {
        emit(
            &BenchObject::default()
                .string("kind", "alert")
                .string("rule", rules.get(t.rule).map_or("?", |r| r.name.as_str()))
                .string("state", if t.fired { "fired" } else { "resolved" })
                .raw("eval", t.eval)
                .float("value", t.value)
                .compact(),
        );
    }
    for dump in plane.dumps().iter().filter(|d| d.ordinal >= *dumps_seen) {
        emit(
            &BenchObject::default()
                .string("kind", "flight_dump")
                .raw("ordinal", dump.ordinal)
                .string("reason", &dump.reason)
                .raw("records", dump.records)
                .compact(),
        );
    }
    *dumps_seen = plane.dumps_total();
    emit(
        &BenchObject::default()
            .string("kind", "batch")
            .raw("batch", batch)
            .raw("arrivals", arrivals)
            .raw("committed", engine.committed())
            .raw("rejected", engine.rejected())
            .raw("retired", engine.retired())
            .raw("live", engine.live_len())
            .float(
                "root_power_watts",
                engine.aggregates().peak(engine.topology().root())?,
            )
            .float("min_rack_headroom_watts", min_rack_headroom(engine)?)
            .raw("alerts_active", plane.active_alerts().len())
            .nullable("peak_rss_bytes", peak_rss_bytes())
            .compact(),
    );
    Ok(())
}

/// Smallest per-rack headroom (budget minus resident peak), watts.
pub(crate) fn min_rack_headroom(engine: &OnlineFleet) -> Result<f64, so_core::CoreError> {
    let mut min = f64::INFINITY;
    for &rack in engine.topology().racks() {
        min = min.min(engine.headroom(rack)?);
    }
    Ok(min)
}

impl OnlineScaleReport {
    /// Renders the report as the `BENCH_online.json` artifact, in the
    /// same layout as [`ScaleReport::to_json`] (each point keyed by
    /// `"instances"` first), so `smoothop gate` reads both alike.
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            BenchObject::default()
                .raw("instances", p.instances)
                .raw("threads", p.threads)
                .raw("live_instances", p.live_instances)
                .raw("committed", p.committed)
                .raw("rejected", p.rejected)
                .raw("retired", p.retired)
                .raw("repair_moves", p.repair_moves)
                .fixed("arrive_ms", p.arrive_ms, 3)
                .fixed("retire_ms", p.retire_ms, 3)
                .fixed("repair_ms", p.repair_ms, 3)
                .fixed("offline_ms", p.offline_ms, 3)
                .fixed("total_ms", p.total_ms, 3)
                .fixed("rows_per_sec", p.rows_per_sec, 1)
                .nullable("peak_rss_bytes", p.peak_rss_bytes)
                .fixed("online_mean_asynchrony", p.online_mean_asynchrony, 6)
                .fixed("offline_mean_asynchrony", p.offline_mean_asynchrony, 6)
                .fixed(
                    "online_min_rack_headroom_watts",
                    p.online_min_rack_headroom_watts,
                    6,
                )
                .fixed(
                    "offline_min_rack_headroom_watts",
                    p.offline_min_rack_headroom_watts,
                    6,
                )
                .fixed("rack_fragmentation_ratio", p.rack_fragmentation_ratio, 6)
                .raw("alerts_fired", p.alerts_fired)
                .raw("alerts_resolved", p.alerts_resolved)
                .fixed("checksum", p.checksum, 6)
        });
        BenchObject::default()
            .string("benchmark", "online_scale")
            .raw("schema_version", ONLINE_SCALE_SCHEMA_VERSION)
            .raw("seed", self.config.seed)
            .raw("samples_per_trace", self.config.samples_per_trace)
            .raw("step_minutes", self.config.step_minutes)
            .raw("batches", self.config.batches)
            .raw("sample_probes", self.config.sample_probes)
            .raw("repair_budget", self.config.repair_budget)
            .array("points", points)
            .render()
    }
}

/// Per-sample basis tables shared by every row of a ladder point: the
/// diurnal sine/cosine pair and the weekly envelope, evaluated once per
/// sample index instead of once per `(row, sample)`. A row's phase shift
/// folds in via the angle-addition identity
/// `sin(day + φ) = sin(day)·cos(φ) + cos(day)·sin(φ)`, so the per-sample
/// inner loop is pure multiply-add — no trigonometry.
pub(crate) struct SynthBasis {
    day_sin: Vec<f64>,
    day_cos: Vec<f64>,
    week_sin: Vec<f64>,
}

impl SynthBasis {
    pub(crate) fn new(samples_per_trace: usize) -> Self {
        // A week of samples regardless of resolution: the fundamental
        // completes 7 cycles over the trace, the weekly envelope one.
        let steps_per_week = samples_per_trace as f64;
        let step_per_day = steps_per_week / 7.0;
        let mut day_sin = Vec::with_capacity(samples_per_trace);
        let mut day_cos = Vec::with_capacity(samples_per_trace);
        let mut week_sin = Vec::with_capacity(samples_per_trace);
        for t in 0..samples_per_trace {
            let day = std::f64::consts::TAU * (t as f64 / step_per_day);
            let week = std::f64::consts::TAU * (t as f64 / steps_per_week);
            day_sin.push(day.sin());
            day_cos.push(day.cos());
            week_sin.push(week.sin());
        }
        Self {
            day_sin,
            day_cos,
            week_sin,
        }
    }
}

/// One row's deterministic diurnal waveform: a seed-hashed phase,
/// amplitude, and baseline over a 24-hour fundamental plus a weekly
/// harmonic. Pure integer hashing — no RNG state, so neither synthesis
/// order nor chunking can change the samples.
pub(crate) struct RowWave {
    baseline: f64,
    amplitude: f64,
    cos_phase: f64,
    sin_phase: f64,
    weekly: f64,
}

impl RowWave {
    pub(crate) fn new(seed: u64, row: u64) -> Self {
        let h = mix(seed, row);
        // Spread the hash into three independent unit floats.
        let u0 = unit(h);
        let u1 = unit(h.rotate_left(21));
        let u2 = unit(h.rotate_left(42));
        let phase = std::f64::consts::TAU * u2;
        Self {
            baseline: 120.0 + 80.0 * u0,
            amplitude: 40.0 + 60.0 * u1,
            cos_phase: phase.cos(),
            sin_phase: phase.sin(),
            weekly: 0.15 + 0.1 * u0,
        }
    }

    /// Writes the full row into `out` from the shared basis tables:
    /// `baseline + amplitude · max(sinφ-shifted day wave + weekly
    /// envelope, −1)` per sample, ~6 flops each. The `−1` clamp keeps
    /// every sample at `baseline − amplitude ≥ 20`, so rows are always
    /// valid power draws.
    pub(crate) fn fill(&self, basis: &SynthBasis, out: &mut [f64]) {
        for (t, v) in out.iter_mut().enumerate() {
            let envelope = basis.day_sin[t] * self.cos_phase
                + basis.day_cos[t] * self.sin_phase
                + self.weekly * basis.week_sin[t];
            *v = self.baseline + self.amplitude * envelope.max(-1.0);
        }
    }
}

/// Elapsed milliseconds since `t0`.
pub(crate) fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A linear pre-mix of `seed` and `x` through the SplitMix64 finalizer,
/// enough to decorrelate adjacent row indices.
pub(crate) fn mix(seed: u64, x: u64) -> u64 {
    mix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(x.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB),
    )
}

/// Order-fixed digest of the phase outputs; summing in a documented order
/// keeps it bit-stable for the golden test.
pub(crate) fn fold_digest(parts: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for &p in parts {
        acc += p;
    }
    acc
}

/// Process peak resident set size from `/proc/self/status` (`VmHWM`), in
/// bytes. `None` where the file, the field, or a parsable value is
/// unavailable (any non-Linux platform) — callers must not treat absence
/// as zero bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScaleConfig {
        ScaleConfig {
            instances: vec![48, 96],
            samples_per_trace: 56,
            step_minutes: 180,
            seed: 7,
            group_size: 12,
            swap_probes: 64,
            workload: ScaleWorkload::Diurnal,
            chunk_rows: 0,
        }
    }

    #[test]
    fn numeric_fields_are_deterministic() {
        let config = tiny_config();
        let a = run_scale(&config).unwrap();
        let b = run_scale(&config).unwrap();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
            assert_eq!(
                x.sum_of_group_peaks.to_bits(),
                y.sum_of_group_peaks.to_bits()
            );
        }
    }

    #[test]
    fn chunk_size_never_changes_numeric_outputs() {
        let mut config = tiny_config();
        config.instances = vec![600];
        let reference = run_scale(&config).unwrap();
        for chunk_rows in [12, 24, 60, 96, 132, 600, 1200] {
            config.chunk_rows = chunk_rows;
            let got = run_scale(&config).unwrap();
            for (x, y) in reference.points.iter().zip(&got.points) {
                assert_eq!(
                    x.checksum.to_bits(),
                    y.checksum.to_bits(),
                    "chunk_rows={chunk_rows}"
                );
                assert_eq!(
                    x.sum_of_group_peaks.to_bits(),
                    y.sum_of_group_peaks.to_bits(),
                    "chunk_rows={chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn effective_chunk_rows_is_group_aligned() {
        let mut config = tiny_config();
        assert_eq!(config.effective_chunk_rows() % config.group_size, 0);
        config.chunk_rows = 100; // not a multiple of 12
        assert_eq!(config.effective_chunk_rows(), 108);
        config.chunk_rows = 12;
        assert_eq!(config.effective_chunk_rows(), 12);
    }

    #[test]
    fn waveform_is_finite_and_positive_enough() {
        let basis = SynthBasis::new(168);
        let wave = RowWave::new(7, 123);
        let mut row = vec![0.0; 168];
        wave.fill(&basis, &mut row);
        for (t, &v) in row.iter().enumerate() {
            assert!(v.is_finite());
            // baseline ≥ 120, amplitude ≤ 100, envelope clamped at −1.
            assert!(v >= 0.0, "sample {t} = {v}");
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut c = tiny_config();
        c.instances.clear();
        assert!(run_scale(&c).is_err());
        let mut c = tiny_config();
        c.samples_per_trace = 0;
        assert!(run_scale(&c).is_err());
        let mut c = tiny_config();
        c.instances = vec![0];
        assert!(run_scale(&c).is_err());
    }

    #[test]
    fn report_json_carries_every_point() {
        let report = run_scale(&tiny_config()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"scale\""));
        assert!(json.contains("\"instances\": 48"));
        assert!(json.contains("\"instances\": 96"));
        assert!(json.contains("\"schema_version\": 4"));
        assert!(json.contains("\"workload\": \"diurnal\""));
        assert!(json.contains("\"threads\": "));
        assert!(json.contains("\"chunk_rows\": "));
    }

    #[test]
    fn llm_workload_rung_is_deterministic_and_differs_from_diurnal() {
        let mut config = tiny_config();
        let diurnal = run_scale(&config).unwrap();
        config.workload = ScaleWorkload::Llm;
        let a = run_scale(&config).unwrap();
        let b = run_scale(&config).unwrap();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
            assert_eq!(
                x.sum_of_group_peaks.to_bits(),
                y.sum_of_group_peaks.to_bits()
            );
        }
        for (d, l) in diurnal.points.iter().zip(&a.points) {
            assert_ne!(
                d.checksum.to_bits(),
                l.checksum.to_bits(),
                "llm rung must exercise a different waveform family"
            );
        }
        assert!(a.to_json().contains("\"workload\": \"llm\""));
    }

    #[test]
    fn llm_workload_chunking_never_changes_numeric_outputs() {
        let mut config = tiny_config();
        config.instances = vec![600];
        config.workload = ScaleWorkload::Llm;
        let reference = run_scale(&config).unwrap();
        for chunk_rows in [12, 96, 600] {
            config.chunk_rows = chunk_rows;
            let got = run_scale(&config).unwrap();
            for (x, y) in reference.points.iter().zip(&got.points) {
                assert_eq!(
                    x.checksum.to_bits(),
                    y.checksum.to_bits(),
                    "chunk_rows={chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn missing_rss_serializes_as_null() {
        let mut report = run_scale(&tiny_config()).unwrap();
        report.points[0].peak_rss_bytes = None;
        let json = report.to_json();
        assert!(json.contains("\"peak_rss_bytes\": null"));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // On the Linux CI hosts this must be a real value; elsewhere the
        // function degrades to None rather than claiming zero bytes.
        match peak_rss_bytes() {
            Some(bytes) => assert!(bytes > 0),
            None => assert!(!std::path::Path::new("/proc/self/status").exists()),
        }
    }

    fn tiny_online_config() -> OnlineScaleConfig {
        OnlineScaleConfig {
            instances: vec![60, 120],
            samples_per_trace: 24,
            step_minutes: 60,
            seed: 7,
            batches: 4,
            sample_probes: 3,
            repair_budget: 2,
            plant_violation: false,
        }
    }

    #[test]
    fn online_rung_is_deterministic() {
        let config = tiny_online_config();
        let a = run_online_scale(&config, None, |_| {}).unwrap();
        let b = run_online_scale(&config, None, |_| {}).unwrap();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
            assert_eq!(x.committed, y.committed);
            assert_eq!(x.live_instances, y.live_instances);
        }
    }

    #[test]
    fn online_rung_metrics_are_sane() {
        let report = run_online_scale(&tiny_online_config(), None, |_| {}).unwrap();
        for p in &report.points {
            assert!(p.committed > 0, "stream must commit instances");
            assert_eq!(
                p.committed + p.rejected,
                (p.live_instances as u64) + p.retired + p.rejected
            );
            // A non-empty placement has asynchrony ≥ 1 by definition.
            assert!(p.online_mean_asynchrony >= 1.0);
            assert!(p.offline_mean_asynchrony >= 1.0);
            assert!((0.0..=1.0).contains(&p.rack_fragmentation_ratio));
            assert!(p.online_min_rack_headroom_watts <= ONLINE_RACK_BUDGET_WATTS);
            assert!(p.rows_per_sec > 0.0);
        }
    }

    #[test]
    fn online_rung_rejects_degenerate_configs() {
        let mut c = tiny_online_config();
        c.instances.clear();
        assert!(run_online_scale(&c, None, |_| {}).is_err());
        let mut c = tiny_online_config();
        c.batches = 0;
        assert!(run_online_scale(&c, None, |_| {}).is_err());
        let mut c = tiny_online_config();
        c.instances = vec![0];
        assert!(run_online_scale(&c, None, |_| {}).is_err());
    }

    #[test]
    fn online_report_json_carries_every_point() {
        let report = run_online_scale(&tiny_online_config(), None, |_| {}).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"online_scale\""));
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"instances\": 60"));
        assert!(json.contains("\"instances\": 120"));
        for phase in ["arrive_ms", "retire_ms", "repair_ms", "offline_ms"] {
            assert!(json.contains(&format!("\"{phase}\": ")), "missing {phase}");
        }
        assert!(json.contains("\"online_mean_asynchrony\": "));
        assert!(json.contains("\"alerts_fired\": "));
        assert!(json.contains("\"alerts_resolved\": "));
        assert!(json.contains("\"checksum\": "));
    }

    #[test]
    fn online_rung_attaches_a_headless_plane() {
        let config = tiny_online_config();
        let plane = Arc::new(LivePlane::new(
            Arc::new(RecordingSink::with_virtual_clock()),
            64,
            default_online_rules(),
        ));
        let with_plane = run_online_scale(&config, Some(plane.clone()), |_| {}).unwrap();
        // One heartbeat per batch per point flowed through the shared
        // plane, and the engine recorded its events in the flight ring.
        let (held, total, _) = plane.flight_counts();
        assert!(held > 0 && total > 0, "flight ring saw engine events");
        // Deterministic alert counts: the headless per-point path yields
        // the same bits as a fresh run.
        let headless = run_online_scale(&config, None, |_| {}).unwrap();
        let again = run_online_scale(&config, None, |_| {}).unwrap();
        for (x, y) in headless.points.iter().zip(&again.points) {
            assert_eq!(x.alerts_fired, y.alerts_fired);
            assert_eq!(x.alerts_resolved, y.alerts_resolved);
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
        }
        let _ = with_plane;
    }

    /// One 240-instance point in four batches: the watched-session shape.
    fn tiny_watch_config() -> OnlineScaleConfig {
        OnlineScaleConfig {
            instances: vec![240],
            samples_per_trace: 24,
            step_minutes: 60,
            seed: 7,
            batches: 4,
            sample_probes: 3,
            repair_budget: 2,
            plant_violation: false,
        }
    }

    fn test_plane() -> Arc<LivePlane> {
        Arc::new(LivePlane::new(
            Arc::new(RecordingSink::with_virtual_clock()),
            128,
            default_online_rules(),
        ))
    }

    /// Runs `config` watched through a fresh plane: its one point, the
    /// plane, and every emitted line.
    fn run_lines(config: &OnlineScaleConfig) -> (OnlineScalePoint, Arc<LivePlane>, Vec<String>) {
        let plane = test_plane();
        let mut lines = Vec::new();
        let mut report = run_online_scale(config, Some(plane.clone()), |l| {
            lines.push(l.to_string());
        })
        .unwrap();
        (report.points.remove(0), plane, lines)
    }

    #[test]
    fn watch_emits_batch_heartbeats_and_a_summary() {
        let config = tiny_watch_config();
        let (outcome, _, lines) = run_lines(&config);
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.starts_with("{\"kind\":\"batch\""))
                .count(),
            config.batches
        );
        let last = lines.last().unwrap();
        assert!(last.starts_with("{\"kind\":\"summary\""));
        assert!(last.contains(&format!("\"committed\":{}", outcome.committed)));
        assert!(outcome.committed > 0);
        // peak_rss_bytes keeps the Option contract: a number on Linux,
        // the JSON null literal elsewhere — never a fabricated zero.
        let heartbeat = &lines[0];
        match peak_rss_bytes() {
            Some(_) => assert!(!heartbeat.contains("\"peak_rss_bytes\":null")),
            None => assert!(heartbeat.contains("\"peak_rss_bytes\":null")),
        }
    }

    #[test]
    fn planted_violation_fires_and_dumps() {
        let mut config = tiny_watch_config();
        config.plant_violation = true;
        let (_, plane, lines) = run_lines(&config);
        assert_eq!(plane.breaker_violations(), 1);
        let fired: Vec<&String> = lines
            .iter()
            .filter(|l| {
                l.contains("\"kind\":\"alert\"")
                    && l.contains("\"rule\":\"breaker_budget_violation\"")
                    && l.contains("\"state\":\"fired\"")
            })
            .collect();
        assert_eq!(fired.len(), 1, "exactly one breaker fire: {lines:#?}");
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"flight_dump\"")
                && l.contains("breaker-budget violation")),
            "violation captures a postmortem dump"
        );
        // The stream goes clean afterwards, so the alert resolves.
        assert!(lines.iter().any(|l| {
            l.contains("\"rule\":\"breaker_budget_violation\"")
                && l.contains("\"state\":\"resolved\"")
        }));
    }

    #[test]
    fn clean_watch_plants_nothing() {
        let (_, plane, lines) = run_lines(&tiny_watch_config());
        assert_eq!(plane.breaker_violations(), 0);
        assert!(!lines
            .iter()
            .any(|l| l.contains("\"rule\":\"breaker_budget_violation\"")
                && l.contains("\"state\":\"fired\"")));
    }

    #[test]
    fn degenerate_watch_configs_are_rejected() {
        for broken in [
            OnlineScaleConfig {
                instances: vec![0],
                ..tiny_watch_config()
            },
            OnlineScaleConfig {
                batches: 0,
                ..tiny_watch_config()
            },
            OnlineScaleConfig {
                sample_probes: 0,
                ..tiny_watch_config()
            },
        ] {
            assert!(run_online_scale(&broken, Some(test_plane()), |_| {}).is_err());
        }
    }

    #[test]
    fn watching_does_not_change_the_rung() {
        let config = tiny_watch_config();
        let headless = &run_online_scale(&config, None, |_| {}).unwrap().points[0];
        let (watched, _, lines) = run_lines(&config);
        assert!(!lines.is_empty());
        assert_eq!(headless.committed, watched.committed);
        assert_eq!(headless.rejected, watched.rejected);
        assert_eq!(headless.retired, watched.retired);
        assert_eq!(headless.live_instances, watched.live_instances);
        assert_eq!(headless.repair_moves, watched.repair_moves);
        for (name, a, b) in [
            (
                "online_mean_asynchrony",
                headless.online_mean_asynchrony,
                watched.online_mean_asynchrony,
            ),
            (
                "offline_mean_asynchrony",
                headless.offline_mean_asynchrony,
                watched.offline_mean_asynchrony,
            ),
            (
                "online_min_rack_headroom_watts",
                headless.online_min_rack_headroom_watts,
                watched.online_min_rack_headroom_watts,
            ),
            (
                "offline_min_rack_headroom_watts",
                headless.offline_min_rack_headroom_watts,
                watched.offline_min_rack_headroom_watts,
            ),
            (
                "rack_fragmentation_ratio",
                headless.rack_fragmentation_ratio,
                watched.rack_fragmentation_ratio,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}");
        }
    }

    #[test]
    fn the_offline_comparator_stays_out_of_the_telemetry() {
        let mut config = tiny_watch_config();
        config.plant_violation = true;
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        let report =
            so_telemetry::with_sink(sink.clone(), || run_online_scale(&config, None, |_| {}))
                .unwrap();
        let point = &report.points[0];
        let prometheus = sink.prometheus();
        let arrivals = format!(
            "\nso_online_arrivals_total {}\n",
            point.committed + point.rejected
        );
        assert!(prometheus.contains(&arrivals), "{prometheus}");
    }
}
