//! `smoothop plan` — the capacity-planning sweep: how many *additional*
//! racks of a given workload fit under one MSB-sized budget at a δ
//! overbooking allowance, under StatProf versus SmoothOperator
//! provisioning?
//!
//! The sweep models the paper's §5 provisioning question as an
//! incremental ladder. An MSB hosts an existing diurnal base fleet; the
//! planner appends candidate racks of workload `W` one at a time and
//! tracks, after every rack, the power requirement each provisioning
//! scheme would report:
//!
//! * **StatProf(u = 0, δ)** — sum of per-instance peaks (the quantile at
//!   u = 0 *is* the peak), the per-instance scheme of the paper's
//!   baseline;
//! * **SmoothOperator(u = 0, δ)** — peak of the aggregate sum, the
//!   budget a smoothed placement actually needs. Peak-of-sum ≤
//!   sum-of-peaks always, so SmoothOperator never fits fewer racks than
//!   StatProf — the `plan` oracle family pins exactly that law.
//!
//! δ enters as an overbooking *allowance* on the budget side: a scheme
//! fits `k` racks at δ when its requirement with `k` racks stays within
//! `budget · (1 + δ)`. Racks-fit is therefore monotone **non-decreasing**
//! in δ and non-increasing in the candidate workload's peak-to-mean
//! ratio (burstier racks consume budget faster).
//!
//! Candidate workloads:
//!
//! * `web-mix` — diurnal rows from the scale tier's basis-table
//!   synthesizer (same family as the base fleet);
//! * `llm-mix` — token-bursty rows from
//!   [`so_workloads::LlmBasis`]: prefill/decode alternation over a
//!   correlated burst clock with peak-to-mean ≥ 3×. The headline result
//!   (EXPERIMENTS.md) is that the gap between the two schemes *widens*
//!   on the LLM mix: bursty peaks inflate sum-of-peaks far more than
//!   they inflate the aggregate peak.
//!
//! Everything deterministic is a pure function of the config (the `plan`
//! golden test pins the schema and the checksum); only the `*_ms` and
//! `peak_rss_bytes` fields are machine-dependent. The report is written
//! as `BENCH_plan.json` and gated in CI by `smoothop gate`.

use std::time::Instant;

use so_telemetry::export::BenchObject;
use so_workloads::LlmBasis;

use crate::scale::{fold_digest, ms_since, peak_rss_bytes, RowWave, SynthBasis};

/// Schema version stamped into `BENCH_plan.json`; bump on any field
/// rename so downstream tooling fails loudly instead of misparsing.
pub const PLAN_SCHEMA_VERSION: u32 = 1;

/// Headroom factor applied to the base fleet's StatProf requirement when
/// no explicit `--budget` is given: the MSB is modeled as provisioned by
/// StatProf for the existing fleet plus 10 % expansion headroom.
pub const PLAN_HEADROOM: f64 = 0.10;

/// Seed salt separating candidate-rack waveform streams from the base
/// fleet's (same idiom as the online rung's `seed ^ 0x0E7E`).
const RACK_SEED_SALT: u64 = 0x0ADD_7ACC;

/// Candidate workload filling the swept racks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanWorkload {
    /// Diurnal web-style rows (the scale tier's basis-table family).
    WebMix,
    /// Token-bursty LLM rows ([`so_workloads::LlmBasis`], peak-to-mean
    /// ≥ 3×).
    LlmMix,
}

impl PlanWorkload {
    /// Both candidate workloads, in reporting order.
    pub const ALL: [PlanWorkload; 2] = [PlanWorkload::WebMix, PlanWorkload::LlmMix];

    /// Stable lower-case name stamped into `BENCH_plan.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanWorkload::WebMix => "web-mix",
            PlanWorkload::LlmMix => "llm-mix",
        }
    }

    /// Parses the CLI / JSON spelling (`"web-mix"` or `"llm-mix"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "web-mix" | "web" => Some(PlanWorkload::WebMix),
            "llm-mix" | "llm" => Some(PlanWorkload::LlmMix),
            _ => None,
        }
    }
}

/// Plan-sweep parameters. The defaults match the committed
/// `BENCH_plan.json`: a 50k-instance diurnal base fleet, up to 2 560
/// candidate racks of 12 slots, δ ∈ {0, 0.05, 0.10}, both workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanConfig {
    /// Instances of the existing (diurnal) base fleet under the MSB.
    pub base_instances: usize,
    /// Instances per candidate rack.
    pub rack_slots: usize,
    /// Sweep depth: the largest rack count probed. Reported fits are
    /// capped here by construction.
    pub max_racks: usize,
    /// Overbooking allowances to evaluate, strictly ascending.
    pub deltas: Vec<f64>,
    /// Candidate workloads to sweep, one report point each.
    pub workloads: Vec<PlanWorkload>,
    /// MSB budget in watts; `0` derives it from the base fleet
    /// (StatProf requirement × `1 + PLAN_HEADROOM`).
    pub budget_watts: f64,
    /// Samples per synthesized trace.
    pub samples_per_trace: usize,
    /// Sampling step of the synthesized grid, minutes.
    pub step_minutes: u32,
    /// Seed mixed into every synthesized waveform.
    pub seed: u64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            base_instances: 50_000,
            rack_slots: 12,
            max_racks: 2_560,
            deltas: vec![0.0, 0.05, 0.10],
            workloads: PlanWorkload::ALL.to_vec(),
            budget_watts: 0.0,
            samples_per_trace: 168,
            step_minutes: 60,
            seed: 7,
        }
    }
}

/// One overbooking point of a sweep: both schemes' fit and what it
/// strands.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFit {
    /// The overbooking allowance δ.
    pub delta: f64,
    /// Racks StatProf(0, δ) admits.
    pub statprof_racks_fit: usize,
    /// Budget watts never drawn at StatProf's fit: `cap` minus the
    /// *actual* aggregate peak of base + fitted racks. Large numbers are
    /// the power fragmentation the paper attacks.
    pub statprof_stranded_watts: f64,
    /// Actual aggregate peak (watts) with StatProf's fitted racks.
    pub statprof_projected_peak_watts: f64,
    /// Racks SmoothOperator(0, δ) admits.
    pub smoothoperator_racks_fit: usize,
    /// `cap` minus the actual aggregate peak at SmoothOperator's fit.
    pub smoothoperator_stranded_watts: f64,
    /// Actual aggregate peak (watts) with SmoothOperator's fitted racks.
    pub smoothoperator_projected_peak_watts: f64,
}

/// One sweep point: a candidate workload's fits plus the deterministic
/// digests and phase timings.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPoint {
    /// Capacity envelope of the sweep:
    /// `base_instances + max_racks · rack_slots`.
    pub instances: usize,
    /// The candidate workload swept.
    pub workload: PlanWorkload,
    /// Thread lanes at run time.
    pub threads: usize,
    /// The MSB budget the fits were computed against, watts.
    pub budget_watts: f64,
    /// Aggregate peak of the base fleet alone (peak-of-sum), watts.
    pub base_peak_watts: f64,
    /// StatProf requirement of the base fleet alone (sum-of-peaks),
    /// watts.
    pub base_sum_of_peaks_watts: f64,
    /// One entry per requested δ, in request order.
    pub fits: Vec<PlanFit>,
    /// Base-fleet synthesis wall time, milliseconds.
    pub synth_ms: f64,
    /// Rack synthesis + incremental requirement sweep wall time,
    /// milliseconds.
    pub sweep_ms: f64,
    /// End-to-end wall time of the point, milliseconds.
    pub total_ms: f64,
    /// Process peak RSS after the point, bytes (`null` off Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Folded digest over the deterministic outputs; bit-identical
    /// across runs and thread counts for one config.
    pub checksum: f64,
}

/// A full plan run: config echo plus one [`PlanPoint`] per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The configuration the report was produced under.
    pub config: PlanConfig,
    /// One point per requested workload, in request order.
    pub points: Vec<PlanPoint>,
}

/// The largest `k` such that `required[k - 1] ≤ budget · (1 + delta)`,
/// where `required[k - 1]` is the scheme's requirement with `k` racks
/// placed. The ladder stops at the first exceeding point — requirement
/// series are monotone non-decreasing (racks only add non-negative
/// power), so nothing past the first break can fit.
pub fn racks_fit_from_series(required: &[f64], budget: f64, delta: f64) -> usize {
    let cap = budget * (1.0 + delta);
    let mut fit = 0;
    for (k, &req) in required.iter().enumerate() {
        if req <= cap {
            fit = k + 1;
        } else {
            break;
        }
    }
    fit
}

/// Runs the capacity-planning sweep described by `config`.
///
/// # Errors
///
/// Returns an error when `config` is degenerate: no workloads or deltas,
/// deltas not strictly ascending or negative, zero base/rack/samples
/// dimensions, or a non-finite budget.
pub fn run_plan(config: &PlanConfig) -> Result<PlanReport, Box<dyn std::error::Error>> {
    if config.base_instances == 0 || config.rack_slots == 0 || config.max_racks == 0 {
        return Err("base_instances, rack_slots, and max_racks must be positive".into());
    }
    if config.samples_per_trace == 0 {
        return Err("samples_per_trace must be positive".into());
    }
    if config.workloads.is_empty() {
        return Err("plan sweep needs at least one workload".into());
    }
    if config.deltas.is_empty() {
        return Err("plan sweep needs at least one delta".into());
    }
    if config.deltas.iter().any(|d| !d.is_finite() || *d < 0.0) {
        return Err("deltas must be finite and non-negative".into());
    }
    if config.deltas.windows(2).any(|w| w[0] >= w[1]) {
        return Err("deltas must be strictly ascending".into());
    }
    if !config.budget_watts.is_finite() || config.budget_watts < 0.0 {
        return Err("budget_watts must be finite and non-negative".into());
    }
    let mut points = Vec::with_capacity(config.workloads.len());
    for &workload in &config.workloads {
        points.push(run_point(config, workload)?);
    }
    Ok(PlanReport {
        config: config.clone(),
        points,
    })
}

fn run_point(
    config: &PlanConfig,
    workload: PlanWorkload,
) -> Result<PlanPoint, Box<dyn std::error::Error>> {
    let samples = config.samples_per_trace;
    let started = Instant::now();

    // Phase 1: the existing base fleet, streamed one row at a time — the
    // plan needs only its aggregate sum and its sum of peaks, so memory
    // stays O(samples) regardless of the fleet size.
    let t0 = Instant::now();
    let basis = SynthBasis::new(samples);
    let mut row = vec![0.0f64; samples];
    let mut base_sum = vec![0.0f64; samples];
    let mut base_sum_of_peaks = 0.0f64;
    for r in 0..config.base_instances {
        RowWave::new(config.seed, r as u64).fill(&basis, &mut row);
        let mut peak = f64::NEG_INFINITY;
        for (acc, &v) in base_sum.iter_mut().zip(&row) {
            *acc += v;
            peak = peak.max(v);
        }
        base_sum_of_peaks += peak;
    }
    let base_peak = base_sum.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let synth_ms = ms_since(t0);

    let budget = if config.budget_watts > 0.0 {
        config.budget_watts
    } else {
        base_sum_of_peaks * (1.0 + PLAN_HEADROOM)
    };

    // Phase 2: append candidate racks one at a time, tracking both
    // schemes' requirement after every rack. `smoop_required` is the
    // peak of a cumulative sum of non-negative rows, so both series are
    // monotone non-decreasing — the property `racks_fit_from_series`
    // and the `plan` oracle family rely on.
    let t0 = Instant::now();
    let llm = match workload {
        PlanWorkload::LlmMix => Some(LlmBasis::new(samples, config.step_minutes)),
        PlanWorkload::WebMix => None,
    };
    let mut running = base_sum.clone();
    let mut statprof_cum = base_sum_of_peaks;
    let mut statprof_required = Vec::with_capacity(config.max_racks);
    let mut smoop_required = Vec::with_capacity(config.max_racks);
    for rack in 0..config.max_racks {
        for slot in 0..config.rack_slots {
            let row_id = (rack * config.rack_slots + slot) as u64;
            match &llm {
                Some(llm) => llm.fill_row(config.seed, row_id, &mut row),
                None => RowWave::new(config.seed ^ RACK_SEED_SALT, row_id).fill(&basis, &mut row),
            }
            let mut peak = f64::NEG_INFINITY;
            for (acc, &v) in running.iter_mut().zip(&row) {
                *acc += v;
                peak = peak.max(v);
            }
            statprof_cum += peak;
        }
        statprof_required.push(statprof_cum);
        smoop_required.push(running.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
    let sweep_ms = ms_since(t0);

    // Phase 3: fits per δ. `projected peak` is the aggregate peak the
    // fitted fleet would actually draw — `smoop_required` at the fitted
    // count — so StatProf's stranded watts quantify the budget its
    // conservative estimate leaves idle.
    let actual_peak_at = |fit: usize| {
        if fit == 0 {
            base_peak
        } else {
            smoop_required[fit - 1]
        }
    };
    let mut fits = Vec::with_capacity(config.deltas.len());
    for &delta in &config.deltas {
        let cap = budget * (1.0 + delta);
        let sp = racks_fit_from_series(&statprof_required, budget, delta);
        let so = racks_fit_from_series(&smoop_required, budget, delta);
        let fit = PlanFit {
            delta,
            statprof_racks_fit: sp,
            statprof_projected_peak_watts: actual_peak_at(sp),
            statprof_stranded_watts: cap - actual_peak_at(sp),
            smoothoperator_racks_fit: so,
            smoothoperator_projected_peak_watts: actual_peak_at(so),
            smoothoperator_stranded_watts: cap - actual_peak_at(so),
        };
        if so_telemetry::enabled() {
            let delta_label = format!("{delta:.2}");
            for (scheme, racks, stranded) in [
                ("statprof", sp, fit.statprof_stranded_watts),
                ("smoothoperator", so, fit.smoothoperator_stranded_watts),
            ] {
                let labels = [
                    ("workload", workload.as_str()),
                    ("scheme", scheme),
                    ("delta", delta_label.as_str()),
                ];
                so_telemetry::gauge_set("so_plan_racks_fit", &labels, racks as f64);
                so_telemetry::gauge_set("so_plan_stranded_watts", &labels, stranded);
            }
        }
        fits.push(fit);
    }

    // Digest in documented order: budget, the base digests, both
    // series' endpoints, then every fit count in δ order.
    let mut digest_parts = vec![
        budget,
        base_peak,
        base_sum_of_peaks,
        *statprof_required.last().expect("max_racks > 0"),
        *smoop_required.last().expect("max_racks > 0"),
    ];
    for fit in &fits {
        digest_parts.push(fit.statprof_racks_fit as f64);
        digest_parts.push(fit.smoothoperator_racks_fit as f64);
    }
    Ok(PlanPoint {
        instances: config.base_instances + config.max_racks * config.rack_slots,
        workload,
        threads: so_parallel::effective_lanes(),
        budget_watts: budget,
        base_peak_watts: base_peak,
        base_sum_of_peaks_watts: base_sum_of_peaks,
        fits,
        synth_ms,
        sweep_ms,
        total_ms: ms_since(started),
        peak_rss_bytes: peak_rss_bytes(),
        checksum: fold_digest(&digest_parts),
    })
}

impl PlanReport {
    /// Renders the report as the `BENCH_plan.json` artifact, in the
    /// layout of the scale artifacts (each point keyed by `"instances"`
    /// first), so `smoothop gate` reads its phases and every fit the same
    /// way.
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            let fits = p.fits.iter().map(|f| {
                BenchObject::default()
                    .fixed("delta", f.delta, 3)
                    .raw("statprof_racks_fit", f.statprof_racks_fit)
                    .fixed("statprof_stranded_watts", f.statprof_stranded_watts, 6)
                    .fixed(
                        "statprof_projected_peak_watts",
                        f.statprof_projected_peak_watts,
                        6,
                    )
                    .raw("smoothoperator_racks_fit", f.smoothoperator_racks_fit)
                    .fixed(
                        "smoothoperator_stranded_watts",
                        f.smoothoperator_stranded_watts,
                        6,
                    )
                    .fixed(
                        "smoothoperator_projected_peak_watts",
                        f.smoothoperator_projected_peak_watts,
                        6,
                    )
            });
            BenchObject::default()
                .raw("instances", p.instances)
                .string("workload", p.workload.as_str())
                .raw("threads", p.threads)
                .fixed("budget_watts", p.budget_watts, 6)
                .fixed("base_peak_watts", p.base_peak_watts, 6)
                .fixed("base_sum_of_peaks_watts", p.base_sum_of_peaks_watts, 6)
                .array("fits", fits)
                .fixed("synth_ms", p.synth_ms, 3)
                .fixed("sweep_ms", p.sweep_ms, 3)
                .fixed("total_ms", p.total_ms, 3)
                .nullable("peak_rss_bytes", p.peak_rss_bytes)
                .fixed("checksum", p.checksum, 6)
        });
        BenchObject::default()
            .string("benchmark", "plan")
            .raw("schema_version", PLAN_SCHEMA_VERSION)
            .raw("seed", self.config.seed)
            .raw("samples_per_trace", self.config.samples_per_trace)
            .raw("step_minutes", self.config.step_minutes)
            .raw("base_instances", self.config.base_instances)
            .raw("rack_slots", self.config.rack_slots)
            .raw("max_racks", self.config.max_racks)
            .array("points", points)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PlanConfig {
        PlanConfig {
            base_instances: 600,
            rack_slots: 4,
            max_racks: 24,
            deltas: vec![0.0, 0.05, 0.10],
            workloads: PlanWorkload::ALL.to_vec(),
            budget_watts: 0.0,
            samples_per_trace: 56,
            step_minutes: 180,
            seed: 7,
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let config = tiny_config();
        let a = run_plan(&config).unwrap();
        let b = run_plan(&config).unwrap();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
            assert_eq!(x.fits, y.fits);
            assert_eq!(x.budget_watts.to_bits(), y.budget_watts.to_bits());
        }
    }

    #[test]
    fn smoothoperator_never_fits_fewer_racks() {
        let report = run_plan(&tiny_config()).unwrap();
        for p in &report.points {
            for f in &p.fits {
                assert!(
                    f.smoothoperator_racks_fit >= f.statprof_racks_fit,
                    "{:?} δ {}: smoop {} < statprof {}",
                    p.workload,
                    f.delta,
                    f.smoothoperator_racks_fit,
                    f.statprof_racks_fit
                );
                // Fitted fleets stay within the overbooked cap.
                let cap = p.budget_watts * (1.0 + f.delta);
                assert!(f.smoothoperator_projected_peak_watts <= cap * (1.0 + 1e-9));
                assert!(f.statprof_projected_peak_watts <= cap * (1.0 + 1e-9));
            }
            // Racks-fit is monotone non-decreasing in δ.
            for w in p.fits.windows(2) {
                assert!(w[0].statprof_racks_fit <= w[1].statprof_racks_fit);
                assert!(w[0].smoothoperator_racks_fit <= w[1].smoothoperator_racks_fit);
            }
        }
    }

    #[test]
    fn racks_fit_boundary_is_inclusive() {
        let required = [10.0, 20.0, 30.0];
        // Exact equality at the cap counts as fitting.
        assert_eq!(racks_fit_from_series(&required, 20.0, 0.0), 2);
        assert_eq!(racks_fit_from_series(&required, 9.0, 0.0), 0);
        assert_eq!(racks_fit_from_series(&required, 100.0, 0.0), 3);
        // δ widens the cap: 20 · 1.5 = 30 admits the third rack.
        assert_eq!(racks_fit_from_series(&required, 20.0, 0.5), 3);
    }

    #[test]
    fn production_fit_passes_the_plan_oracle() {
        // The sweep implementation the CLI ships is the one the oracle
        // family's reference validates — pinned across crates here.
        let required: Vec<f64> = (1..=40).map(|k| 95.0 + 5.0 * k as f64).collect();
        let mut report = so_oracles::OracleReport::new();
        so_oracles::plan::check_sweep_fit(
            &racks_fit_from_series,
            &required,
            200.0,
            &[0.0, 0.05, 0.10],
            &mut report,
        );
        assert!(report.is_clean(), "{:#?}", report.violations());
        assert!(report.evaluations(so_oracles::OracleFamily::Plan) > 0);
    }

    #[test]
    fn explicit_budget_is_respected() {
        let mut config = tiny_config();
        config.budget_watts = 1.0; // far below any base requirement
        let report = run_plan(&config).unwrap();
        for p in &report.points {
            assert_eq!(p.budget_watts, 1.0);
            for f in &p.fits {
                assert_eq!(f.statprof_racks_fit, 0);
                assert_eq!(f.smoothoperator_racks_fit, 0);
            }
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut c = tiny_config();
        c.deltas.clear();
        assert!(run_plan(&c).is_err());
        let mut c = tiny_config();
        c.deltas = vec![0.10, 0.05];
        assert!(run_plan(&c).is_err());
        let mut c = tiny_config();
        c.deltas = vec![-0.05, 0.0];
        assert!(run_plan(&c).is_err());
        let mut c = tiny_config();
        c.base_instances = 0;
        assert!(run_plan(&c).is_err());
        let mut c = tiny_config();
        c.workloads.clear();
        assert!(run_plan(&c).is_err());
        let mut c = tiny_config();
        c.budget_watts = f64::NAN;
        assert!(run_plan(&c).is_err());
    }

    #[test]
    fn report_json_carries_every_point_and_fit() {
        let report = run_plan(&tiny_config()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"plan\""));
        assert!(json.contains("\"workload\": \"web-mix\""));
        assert!(json.contains("\"workload\": \"llm-mix\""));
        assert_eq!(json.matches("\"instances\": ").count(), 2);
        assert_eq!(json.matches("\"delta\": ").count(), 6);
    }
}
