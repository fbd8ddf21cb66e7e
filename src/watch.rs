//! The `smoothop watch` runner: a live online-engine session built for
//! *watching* rather than benchmarking.
//!
//! The watch rung drives the same resident [`so_core::OnlineFleet`]
//! engine and
//! synthesized arrival stream as the online scale rung
//! ([`crate::scale::run_online_scale`]), but its product is the
//! observability plane itself: every batch emits one machine-readable
//! JSONL heartbeat line, every alert transition and postmortem flight
//! dump is surfaced as its own line, and the caller can serve the
//! attached [`so_telemetry::LivePlane`] over HTTP (`smoothop watch
//! --listen ADDR`)
//! while the stream runs. With `--watch-out` the same lines go to a file
//! instead — the no-network path CI exercises.
//!
//! Line shapes (one JSON object per line):
//!
//! * `{"kind":"batch","batch":B,"arrivals":..,"committed":..,
//!   "rejected":..,"retired":..,"live":..,"root_power_watts":..,
//!   "min_rack_headroom_watts":..,"alerts_active":..,
//!   "peak_rss_bytes":N|null}` — one heartbeat per event batch.
//!   `peak_rss_bytes` reuses the scale tier's `Option<u64>` contract
//!   ([`crate::scale::peak_rss_bytes`]): `null` wherever `/proc` is
//!   unavailable, never a fabricated zero.
//! * `{"kind":"alert","rule":"...","state":"fired"|"resolved",
//!   "eval":N,"value":V}` — one per alert transition, in evaluation
//!   order (deterministic at any thread count).
//! * `{"kind":"flight_dump","ordinal":N,"reason":"...","records":N}` —
//!   one per postmortem dump the plane captured during the batch.
//! * `{"kind":"summary",...}` — final totals, always the last line.
//!
//! The planted-violation mode (`--plant-violation`) injects one
//! deliberately inadmissible arrival — over every rack's power budget
//! while slots are free — halfway through the stream, so CI can assert
//! the full anomaly path end to end: exactly one breaker-budget
//! `AlertFired`, a flight dump whose journal-event suffix bit-matches
//! the engine journal, and a later `AlertResolved` once the stream is
//! clean again.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use so_core::{CommitPolicy, OnlineConfig, OnlineFleet};
use so_powertrace::{PowerTrace, TimeGrid};
use so_telemetry::export::json_f64;
use so_telemetry::{default_online_rules, LivePlane, RecordingSink};

use crate::scale::{
    min_rack_headroom, mix, ms_since, online_topology, peak_rss_bytes, RowWave, SynthBasis,
    ONLINE_RACK_BUDGET_WATTS,
};

/// Parameters of one watch session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchConfig {
    /// Instances streamed through the engine.
    pub instances: usize,
    /// Event batches the stream is split into.
    pub batches: usize,
    /// Samples per synthesized trace.
    pub samples_per_trace: usize,
    /// Sampling step of the synthesized grid, minutes.
    pub step_minutes: u32,
    /// Seed driving waveforms, retirements, and the sampling policy.
    pub seed: u64,
    /// Candidate racks probed per arrival.
    pub sample_probes: usize,
    /// Repair swaps allowed per between-batch pass (0 disables).
    pub repair_budget: usize,
    /// Flight-recorder ring capacity, records.
    pub flight_capacity: usize,
    /// Journal compaction cap (0 = unbounded journal).
    pub journal_cap: usize,
    /// Inject one over-budget arrival halfway through the stream to
    /// exercise the breaker-budget anomaly path.
    pub plant_violation: bool,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            instances: 10_000,
            batches: 8,
            samples_per_trace: 168,
            step_minutes: 60,
            seed: 7,
            sample_probes: 64,
            repair_budget: 8,
            flight_capacity: 4_096,
            journal_cap: 0,
            plant_violation: false,
        }
    }
}

/// Totals of one watch session (also rendered as the final `summary`
/// JSONL line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchOutcome {
    /// Event batches processed.
    pub batches: usize,
    /// Arrivals committed.
    pub committed: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Instances retired.
    pub retired: u64,
    /// Instances live at the end.
    pub live_instances: usize,
    /// `AlertFired` transitions observed.
    pub alerts_fired: u64,
    /// `AlertResolved` transitions observed.
    pub alerts_resolved: u64,
    /// Breaker-budget violations recorded by the plane.
    pub breaker_violations: u64,
    /// Postmortem flight dumps captured by the plane.
    pub dumps_total: u64,
    /// Journal compactions the engine performed.
    pub journal_compactions: u64,
}

/// Builds the plane a watch session attaches: the given sink (share the
/// recording sink installed on the engine's thread so engine gauges land
/// on `/metrics`), the configured flight capacity, and the default online
/// alert rules.
pub fn watch_plane(sink: Arc<RecordingSink>, config: &WatchConfig) -> Arc<LivePlane> {
    Arc::new(LivePlane::new(
        sink,
        config.flight_capacity,
        default_online_rules(),
    ))
}

/// Runs one watch session against `plane`, invoking `emit` with each
/// JSONL line as it is produced (batch heartbeats, alert transitions,
/// flight dumps, then one final summary line).
///
/// # Errors
///
/// Returns an error when `config` is degenerate (zero instances,
/// batches, samples, or probes) or an engine operation fails.
pub fn run_watch(
    config: &WatchConfig,
    plane: Arc<LivePlane>,
    mut emit: impl FnMut(&str),
) -> Result<WatchOutcome, Box<dyn std::error::Error>> {
    if config.instances == 0
        || config.batches == 0
        || config.samples_per_trace == 0
        || config.sample_probes == 0
    {
        return Err(
            "instances, batches, samples_per_trace, and sample_probes must be positive".into(),
        );
    }
    let grid = TimeGrid::new(config.step_minutes, config.samples_per_trace);
    let topology = online_topology(config.instances)?;
    let basis = SynthBasis::new(config.samples_per_trace);
    let mut engine = OnlineFleet::new(
        topology,
        grid,
        OnlineConfig {
            policy: CommitPolicy::Sampling {
                probes: config.sample_probes,
            },
            repair_budget: config.repair_budget,
            min_gain: 0.02,
            sample_salt: config.seed,
            journal_cap: config.journal_cap,
        },
    );
    engine.attach_plane(plane.clone());
    // The first synthesized wave doubles as the fragmentation reference:
    // with one set, the engine re-emits the per-level
    // `so_online_stranded_watts` / `so_online_fragmentation_ratio`
    // gauges on every commit and retirement, so a scraper watching
    // `/metrics` sees fragmentation move batch by batch.
    let mut reference_row = vec![0.0f64; config.samples_per_trace];
    RowWave::new(config.seed ^ 0x0E7E, 0).fill(&basis, &mut reference_row);
    let reference = PowerTrace::new(reference_row, config.step_minutes)?;
    engine.set_fragmentation_reference(Some(&reference))?;
    let rule_names: Vec<String> = default_online_rules().into_iter().map(|r| r.name).collect();

    let started = Instant::now();
    let per_batch = config.instances.div_ceil(config.batches).max(1);
    let retire_per_batch = per_batch / 5;
    let plant_at = config.batches / 2;
    let mut alerts_fired = 0u64;
    let mut alerts_resolved = 0u64;
    let mut dumps_seen = 0u64;
    let mut row = vec![0.0f64; config.samples_per_trace];
    let mut synthesized = 0u64;
    let mut line = String::new();

    for b in 0..config.batches {
        // Identical stream shape to the online scale rung: retirements
        // drawn against the live snapshot, then the batch's arrivals.
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
        let mut arrivals = 0u64;
        for _ in 0..per_batch {
            RowWave::new(config.seed ^ 0x0E7E, synthesized).fill(&basis, &mut row);
            synthesized += 1;
            arrivals += 1;
            let trace = PowerTrace::new(row.clone(), config.step_minutes)?;
            let _ = engine.arrive(&trace)?;
        }
        if config.plant_violation && b == plant_at {
            // Over every rack budget while churn has left slots free:
            // the canonical breaker-budget violation, planted once.
            let hot = PowerTrace::new(
                vec![ONLINE_RACK_BUDGET_WATTS * 3.0; config.samples_per_trace],
                config.step_minutes,
            )?;
            arrivals += 1;
            let outcome = engine.arrive(&hot)?;
            debug_assert!(outcome.is_none(), "planted arrival must be rejected");
        }
        if config.repair_budget > 0 {
            engine.repair()?;
        }

        let transitions = engine.observe_batch()?;
        for t in &transitions {
            if t.fired {
                alerts_fired += 1;
            } else {
                alerts_resolved += 1;
            }
            let rule = rule_names.get(t.rule).map(String::as_str).unwrap_or("?");
            line.clear();
            let _ = write!(
                line,
                "{{\"kind\":\"alert\",\"rule\":\"{}\",\"state\":\"{}\",\"eval\":{},\"value\":{}}}",
                rule,
                if t.fired { "fired" } else { "resolved" },
                t.eval,
                json_f64(t.value),
            );
            emit(&line);
        }
        for dump in plane.dumps() {
            if dump.ordinal < dumps_seen {
                continue;
            }
            line.clear();
            let _ = write!(
                line,
                "{{\"kind\":\"flight_dump\",\"ordinal\":{},\"reason\":\"{}\",\"records\":{}}}",
                dump.ordinal, dump.reason, dump.records,
            );
            emit(&line);
        }
        dumps_seen = plane.dumps_total();

        let root = engine.topology().root();
        let root_power = engine.aggregates().peak(root)?;
        let min_headroom = min_rack_headroom(&engine)?;
        line.clear();
        let _ = write!(
            line,
            "{{\"kind\":\"batch\",\"batch\":{},\"arrivals\":{},\"committed\":{},\"rejected\":{},\"retired\":{},\"live\":{},\"root_power_watts\":{},\"min_rack_headroom_watts\":{},\"alerts_active\":{},\"peak_rss_bytes\":{}}}",
            b,
            arrivals,
            engine.committed(),
            engine.rejected(),
            engine.retired(),
            engine.live_len(),
            json_f64(root_power),
            json_f64(min_headroom),
            plane.active_alerts().len(),
            match peak_rss_bytes() {
                Some(bytes) => bytes.to_string(),
                None => "null".to_string(),
            },
        );
        emit(&line);
    }

    let outcome = WatchOutcome {
        batches: config.batches,
        committed: engine.committed(),
        rejected: engine.rejected(),
        retired: engine.retired(),
        live_instances: engine.live_len(),
        alerts_fired,
        alerts_resolved,
        breaker_violations: plane.breaker_violations(),
        dumps_total: plane.dumps_total(),
        journal_compactions: engine.journal_compactions(),
    };
    line.clear();
    let _ = write!(
        line,
        "{{\"kind\":\"summary\",\"batches\":{},\"committed\":{},\"rejected\":{},\"retired\":{},\"live\":{},\"alerts_fired\":{},\"alerts_resolved\":{},\"breaker_violations\":{},\"flight_dumps\":{},\"journal_compactions\":{},\"total_ms\":{}}}",
        outcome.batches,
        outcome.committed,
        outcome.rejected,
        outcome.retired,
        outcome.live_instances,
        outcome.alerts_fired,
        outcome.alerts_resolved,
        outcome.breaker_violations,
        outcome.dumps_total,
        outcome.journal_compactions,
        json_f64(ms_since(started)),
    );
    emit(&line);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> WatchConfig {
        WatchConfig {
            instances: 240,
            batches: 4,
            samples_per_trace: 24,
            step_minutes: 60,
            seed: 7,
            sample_probes: 3,
            repair_budget: 2,
            flight_capacity: 128,
            journal_cap: 0,
            plant_violation: false,
        }
    }

    fn run_lines(config: &WatchConfig) -> (WatchOutcome, Vec<String>) {
        let plane = watch_plane(Arc::new(RecordingSink::with_virtual_clock()), config);
        let mut lines = Vec::new();
        let outcome = run_watch(config, plane, |l| lines.push(l.to_string())).unwrap();
        (outcome, lines)
    }

    #[test]
    fn watch_emits_batch_heartbeats_and_a_summary() {
        let config = tiny_config();
        let (outcome, lines) = run_lines(&config);
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
        let mut config = tiny_config();
        config.plant_violation = true;
        let (outcome, lines) = run_lines(&config);
        assert_eq!(outcome.breaker_violations, 1);
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
        let (outcome, lines) = run_lines(&tiny_config());
        assert_eq!(outcome.breaker_violations, 0);
        assert!(!lines
            .iter()
            .any(|l| l.contains("\"rule\":\"breaker_budget_violation\"")
                && l.contains("\"state\":\"fired\"")));
    }

    #[test]
    fn degenerate_watch_configs_are_rejected() {
        for broken in [
            WatchConfig {
                instances: 0,
                ..tiny_config()
            },
            WatchConfig {
                batches: 0,
                ..tiny_config()
            },
            WatchConfig {
                sample_probes: 0,
                ..tiny_config()
            },
        ] {
            let plane = watch_plane(Arc::new(RecordingSink::with_virtual_clock()), &broken);
            assert!(run_watch(&broken, plane, |_| {}).is_err());
        }
    }
}
