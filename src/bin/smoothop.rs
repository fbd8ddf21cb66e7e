//! `smoothop` — command-line front end for the SmoothOperator library.
//!
//! ```text
//! smoothop scenarios                 list the built-in datacenter presets
//! smoothop breakdown <dc> [n]       per-service power shares (Figure 5)
//! smoothop place     <dc> [n]       placement vs historical layout (Figure 10)
//! smoothop pipeline  <dc> [n]       full reshaping pipeline (Figures 12-14)
//! smoothop report    <dc> [n]       instrumented run + telemetry summary
//! smoothop gate      <current> <baseline> <key=value> <tol> <phases> [exact]
//!                                   check one BENCH point against a baseline
//! ```
//!
//! `<dc>` is `dc1`, `dc2`, or `dc3`; `n` is the fleet size (default 240).
//! `--metrics-out <path>` / `--trace-out <path>` attach a recording
//! telemetry sink to any command and write a Prometheus snapshot / a
//! JSON-lines event log on exit.

use std::process::ExitCode;
use std::sync::Arc;

use smoothoperator::prelude::*;
use so_faults::{FaultKind, FaultSchedule, FaultSpec};
use so_oracles::{run_battery, BatteryConfig, OracleFamily};
use so_powertree::NodeAggregates;
use so_reshape::{operate, run_scenario, LongRunConfig, ThrottleBoostPolicy};
use so_sim::{default_config, one_week_grid, simulate_with_faults, FailSafe};
use so_telemetry::RecordingSink;
use so_workloads::OfferedLoad;

fn main() -> ExitCode {
    let (args, flags) = match split_flags(std::env::args().skip(1).collect()) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let command = args.first().map(String::as_str);

    // A recording sink is attached when any command asked for exported
    // telemetry, always for `report` (whose output *is* the metrics), and
    // whenever a live plane exists (`watch`, `--listen`): the plane
    // serves `/metrics` from the same sink the engine gauges land in.
    let wants_sink = flags.metrics_out.is_some()
        || flags.trace_out.is_some()
        || flags.listen.is_some()
        || command == Some("report")
        || command == Some("watch")
        || command == Some("serve");
    let sink = if wants_sink {
        let sink = Arc::new(RecordingSink::with_wall_clock());
        so_telemetry::install(sink.clone());
        Some(sink)
    } else {
        None
    };

    let faults = &flags.faults;
    let result = match command {
        Some("scenarios") => scenarios(),
        Some("breakdown") => with_scenario(&args, breakdown),
        Some("place") => with_scenario(&args, place),
        Some("pipeline") => with_scenario(&args, pipeline),
        Some("longrun") => with_scenario(&args, longrun),
        Some("dot") => with_scenario(&args, dot),
        Some("simulate") => with_scenario(&args, |scenario, n| simulate_cmd(scenario, n, faults)),
        Some("check") => check_cmd(&args, flags.seed),
        Some("scale") => scale_cmd(&flags),
        Some("plan") => plan_cmd(&flags),
        Some("online") => online_cmd(&flags, sink.as_ref()),
        Some("watch") => watch_cmd(&flags, sink.as_ref()),
        Some("serve") => serve_cmd(&flags, sink.as_ref()),
        Some("daemon") => daemon_cmd(&flags),
        Some("gate") => gate_cmd(&args),
        Some("report") => with_scenario(&args, |scenario, n| {
            report_cmd(
                scenario,
                n,
                sink.as_ref().expect("report always installs a sink"),
            )
        }),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `smoothop help`)").into()),
    };
    let result = result.and_then(|()| write_telemetry(sink, &flags));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Detaches the recording sink (if one was installed) and writes the
/// requested export files.
fn write_telemetry(sink: Option<Arc<RecordingSink>>, flags: &CliFlags) -> CliResult {
    let Some(sink) = sink else {
        return Ok(());
    };
    so_telemetry::uninstall();
    if let Some(path) = &flags.metrics_out {
        std::fs::write(path, sink.prometheus())
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
        eprintln!("wrote Prometheus metrics snapshot to {path}");
    }
    if let Some(path) = &flags.trace_out {
        std::fs::write(path, sink.jsonl())
            .map_err(|e| format!("cannot write trace events to `{path}`: {e}"))?;
        eprintln!("wrote JSON-lines span/event log to {path}");
    }
    Ok(())
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn print_usage() {
    println!("smoothop — SmoothOperator (ASPLOS'18) reproduction CLI");
    println!();
    println!("USAGE:");
    println!("  smoothop scenarios                list the built-in datacenter presets");
    println!("  smoothop breakdown <dc> [n]       per-service power shares (Figure 5)");
    println!("  smoothop place     <dc> [n]       placement vs historical layout (Figure 10)");
    println!("  smoothop pipeline  <dc> [n]       full reshaping pipeline (Figures 12-14)");
    println!("  smoothop longrun   <dc> [n]       weeks of drift + monitored remapping");
    println!("  smoothop dot       <dc> [n]       graphviz dot of the placed topology");
    println!("  smoothop simulate  <dc> [n]       one week of runtime reshaping");
    println!("  smoothop report    <dc> [n]       instrumented place+drift+remap+simulate run,");
    println!("                                    printed as a telemetry summary");
    println!("  smoothop check     [n]            seeded correctness-oracle battery (invariant,");
    println!("                                    differential, metamorphic, arena, online,");
    println!("                                    observability, daemon, plan); n defaults");
    println!("                                    to 1000");
    println!("  smoothop scale                    columnar scale ladder; writes BENCH_scale.json");
    println!("  smoothop plan                     capacity-planning sweep: racks of extra");
    println!("                                    workload that fit under one MSB budget at each");
    println!("                                    overbooking allowance δ, StatProf vs");
    println!("                                    SmoothOperator provisioning, web vs LLM mixes;");
    println!("                                    writes BENCH_plan.json");
    println!("  smoothop online                   online arrival/departure rung: streams batches");
    println!("                                    through the resident engine and compares the");
    println!("                                    churned placement against a one-pass offline");
    println!("                                    re-placement; writes BENCH_online.json");
    println!("  smoothop watch                    live observability session: streams one fleet");
    println!("                                    through the online engine and emits per-batch");
    println!("                                    JSONL heartbeats, alert transitions, and");
    println!("                                    flight-recorder dumps");
    println!(
        "  smoothop serve                    smoothopd: resident placement daemon — streaming"
    );
    println!("                                    sample ingest into per-instance ring buffers,");
    println!("                                    live headroom/asynchrony/what-if queries, and");
    println!("                                    a background repair loop, over one HTTP port");
    println!(
        "  smoothop daemon                   daemon load rung: streams sample batches through"
    );
    println!("                                    the in-process ingest path and writes");
    println!("                                    BENCH_daemon.json with throughput + latency");
    println!("                                    quantiles");
    println!("  smoothop gate <current> <baseline> <key=value> <tolerance_pct> <phases> [exact]");
    println!("                                    check one BENCH_*.json point against a baseline");
    println!();
    println!("  <dc> ∈ {{dc1, dc2, dc3}}; n = fleet size, default 240");
    println!();
    println!("OPTIONS:");
    println!("  --faults <spec>       inject faults into `simulate`; <spec> is comma-separated");
    println!("                        key=value pairs (seed, dropout, stuck, crash, trips,");
    println!("                        mean-steps, trip-steps, trip-severity), or `none`.");
    println!("                        Example: --faults seed=7,dropout=0.2,trips=1");
    println!("  --metrics-out <path>  write a Prometheus text snapshot of all metrics");
    println!("                        recorded during the command");
    println!("  --trace-out <path>    write the recorded span/point events as JSON lines");
    println!("  --seed <u64>          battery seed for `check` (default 7); the seed picks the");
    println!("                        scenario and drives every randomized probe");
    println!("  --instances <list>    comma-separated ladder for `scale` (default");
    println!("                        10000,100000,1000000) and `online` (default 10000,100000)");
    println!("  --out <path>          output path for `scale` / `online` (defaults");
    println!("                        BENCH_scale.json / BENCH_online.json)");
    println!("  --quantiles <mode>    quantile phase for `scale`: `exact` (selection, the");
    println!("                        default, bit-reproducible) or `sketch` (streaming P²,");
    println!("                        approximate); `--exact` / `--sketch` are shorthands");
    println!("  --chunk-rows <n>      rows per streaming chunk for `scale` (0 = default;");
    println!("                        rounded up to a multiple of the group size; never");
    println!("                        changes checksums)");
    println!("  --workload <name>     waveform family for `scale`: `diurnal` (default) or");
    println!("                        `llm` (token-bursty, correlated 30-min bursts)");
    println!("  --base <n>            `plan` only: instances of the existing base fleet");
    println!("                        (default 50000)");
    println!("  --racks <n>           `plan` only: sweep depth in candidate racks of 12");
    println!("                        slots each (default 2560)");
    println!("  --deltas <list>       `plan` only: comma-separated overbooking allowances,");
    println!("                        strictly ascending (default 0,0.05,0.10)");
    println!("  --workloads <list>    `plan` only: comma-separated candidate mixes from");
    println!("                        {{web-mix, llm-mix}} (default both)");
    println!("  --budget <watts>      `plan` only: explicit MSB budget; by default the base");
    println!("                        fleet's StatProf requirement plus 10% headroom");
    println!("  --batches <n>         event batches for `online` (default 8)");
    println!("  --probes <n>          candidate racks sampled per arrival for `online`");
    println!("                        (default 64)");
    println!("  --repair <n>          repair swaps allowed per between-batch pass for");
    println!("                        `online` (default 8; 0 disables repair)");
    println!("  --threads <n>         thread-lane budget for the parallel kernels");
    println!("  --listen <addr>       serve /metrics /health /alerts /flight?n=K over HTTP");
    println!("                        while `online` or `watch` runs (e.g. 127.0.0.1:9184);");
    println!("                        for `serve` this is the daemon's port (default");
    println!("                        127.0.0.1:0, an ephemeral port announced on stdout)");
    println!("  --repair-interval-ms <n>  `serve` only: run one budgeted repair pass every");
    println!("                        n milliseconds in the background (0, the default,");
    println!("                        repairs only on explicit POST /repair)");
    println!("  --ttl-ms <n>          `serve` only: auto-shutdown after n milliseconds");
    println!("                        (safety net for CI smoke jobs; default: run until");
    println!("                        POST /shutdown)");
    println!("  --watch-out <path>    buffer the `watch` JSONL stream to a file instead of");
    println!("                        stdout (for CI smoke runs)");
    println!("  --flight-out <path>   dump the full flight-recorder ring as JSONL on exit");
    println!("                        (`watch`, or `online --listen`)");
    println!("  --flight-capacity <n> flight-recorder ring capacity (default 4096)");
    println!("  --journal-cap <n>     compact the online event journal above this length");
    println!("                        (0 = unbounded, the default)");
    println!("  --plant-violation     `watch` only: inject one oversized arrival mid-run to");
    println!("                        force a breaker-budget violation, alert, and dump");
}

/// `smoothop check [n] [--seed s]`: run the seeded oracle battery and fail
/// the process on any violation.
fn check_cmd(args: &[String], seed: Option<u64>) -> CliResult {
    let instances: usize = match args.get(1) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("fleet size `{raw}` is not a number"))?,
        None => 1000,
    };
    if instances == 0 {
        return Err("fleet size must be positive".into());
    }
    let config = BatteryConfig {
        seed: seed.unwrap_or(7),
        instances,
    };
    let outcome = run_battery(&config)?;
    println!(
        "oracle battery — {} fleet of {} instances, seed {}",
        outcome.scenario, outcome.instances, outcome.seed
    );
    for family in OracleFamily::ALL {
        println!(
            "  {:<13} {:>6} evaluations, {:>3} violations",
            family.label(),
            outcome.report.evaluations(family),
            outcome.report.violations_in(family)
        );
    }
    if outcome.report.is_clean() {
        println!(
            "  all {} oracle evaluations passed",
            outcome.report.total_evaluations()
        );
        Ok(())
    } else {
        for violation in outcome.report.violations().iter().take(20) {
            eprintln!("  violation: {violation}");
        }
        Err(format!("{} oracle violation(s)", outcome.report.violations().len()).into())
    }
}

/// Writes a BENCH artifact to `path` and reports its size.
fn write_artifact(path: &str, json: &str) -> CliResult {
    std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote {path} ({} bytes)", json.len());
    Ok(())
}

/// `smoothop gate`: check one point of a BENCH artifact against a
/// baseline ([`smoothoperator::gate`]), print the table, append it to the
/// CI job summary when `GITHUB_STEP_SUMMARY` names one, fail on any FAIL.
fn gate_cmd(args: &[String]) -> CliResult {
    use smoothoperator::gate::{run_gate, USAGE};
    use std::io::Write as _;

    let [_, current, baseline, rest @ ..] = args else {
        return Err(USAGE.into());
    };
    let read = |path: &str| -> Result<so_telemetry::export::BenchObject, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("`{path}`: {e}"))?;
        so_telemetry::export::BenchObject::parse(&text).map_err(|e| format!("`{path}`: {e}"))
    };
    let (table, failures) = run_gate(&read(current)?, &read(baseline)?, rest)?;
    let report = format!("### smoothop gate {}\n\n{table}", args[1..].join(" "));
    println!("{report}");
    if let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY").filter(|p| !p.is_empty()) {
        let mut summary = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(summary, "{report}")?;
    }
    match failures {
        0 => Ok(()),
        n => Err(format!("gate: {n} check(s) failed").into()),
    }
}

/// `smoothop scale [--instances n1,n2,...] [--out path] [--quantiles
/// exact|sketch] [--chunk-rows n]`: run the columnar scale ladder and
/// write the `BENCH_scale.json` artifact.
fn scale_cmd(flags: &CliFlags) -> CliResult {
    use smoothoperator::scale::{run_scale, ScaleConfig};

    let mut config = ScaleConfig::default();
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(raw) = &flags.instances {
        config.instances = raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("instance count `{part}` is not a number"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
    }
    config.quantile_mode = flags.quantile_mode;
    config.workload = flags.scale_workload;
    if let Some(chunk_rows) = flags.chunk_rows {
        config.chunk_rows = chunk_rows;
    }
    let path = flags.out.as_deref().unwrap_or("BENCH_scale.json");

    println!(
        "scale ladder — {} points, {} {} samples/trace, groups of {}, seed {}, {} quantiles, {} rows/chunk, {} thread lane(s)",
        config.instances.len(),
        config.workload.as_str(),
        config.samples_per_trace,
        config.group_size,
        config.seed,
        config.quantile_mode.as_str(),
        config.effective_chunk_rows(),
        so_parallel::effective_lanes(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "instances", "synth", "peaks", "p99", "agg", "swaps", "rows/s", "rss"
    );
    let report = run_scale(&config)?;
    for p in &report.points {
        let rss = match p.peak_rss_bytes {
            Some(bytes) => format!("{}MB", bytes / (1024 * 1024)),
            None => "n/a".to_string(),
        };
        println!(
            "{:>10} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>12.0} {:>10}",
            p.instances,
            p.synth_ms,
            p.row_peaks_ms,
            p.quantiles_ms,
            p.aggregation_ms,
            p.swap_probe_ms,
            p.rows_per_sec,
            rss,
        );
    }
    write_artifact(path, &report.to_json())
}

/// `smoothop plan [--base n] [--racks n] [--deltas d1,d2,...]
/// [--workloads w1,w2] [--budget w] [--seed s] [--out path]`: run the
/// capacity-planning sweep and write the `BENCH_plan.json` artifact.
fn plan_cmd(flags: &CliFlags) -> CliResult {
    use smoothoperator::plan::{run_plan, PlanConfig, PlanWorkload, PLAN_HEADROOM};

    let mut config = PlanConfig::default();
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(base) = flags.base {
        config.base_instances = base;
    }
    if let Some(racks) = flags.racks {
        config.max_racks = racks;
    }
    if let Some(raw) = &flags.deltas {
        config.deltas = raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("delta `{part}` is not a number"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
    }
    if let Some(raw) = &flags.workloads {
        config.workloads = raw
            .split(',')
            .map(|part| {
                PlanWorkload::parse(part.trim())
                    .ok_or_else(|| format!("workload `{part}` is not `web-mix` or `llm-mix`"))
            })
            .collect::<Result<Vec<PlanWorkload>, String>>()?;
    }
    if let Some(budget) = flags.budget {
        config.budget_watts = budget;
    }
    let path = flags.out.as_deref().unwrap_or("BENCH_plan.json");

    println!(
        "capacity plan — base {} instances, up to {} racks × {} slots, seed {}, {} thread lane(s)",
        config.base_instances,
        config.max_racks,
        config.rack_slots,
        config.seed,
        so_parallel::effective_lanes(),
    );
    let report = run_plan(&config)?;
    for p in &report.points {
        if config.budget_watts > 0.0 {
            println!(
                "{}: budget {:.0} W (explicit), base peak {:.0} W",
                p.workload.as_str(),
                p.budget_watts,
                p.base_peak_watts,
            );
        } else {
            println!(
                "{}: budget {:.0} W (base StatProf requirement {:.0} W + {:.0}% headroom), base peak {:.0} W",
                p.workload.as_str(),
                p.budget_watts,
                p.base_sum_of_peaks_watts,
                100.0 * PLAN_HEADROOM,
                p.base_peak_watts,
            );
        }
        println!(
            "  {:>6} {:>14} {:>14} {:>16} {:>16}",
            "δ", "statprof-fit", "smoothop-fit", "statprof-strand", "smoothop-strand"
        );
        for f in &p.fits {
            println!(
                "  {:>6.2} {:>14} {:>14} {:>14.0} W {:>14.0} W",
                f.delta,
                f.statprof_racks_fit,
                f.smoothoperator_racks_fit,
                f.statprof_stranded_watts,
                f.smoothoperator_stranded_watts,
            );
        }
    }
    write_artifact(path, &report.to_json())
}

/// Builds the live plane for `watch` / `--listen` sessions over the
/// recording sink installed on the main thread (so engine gauges land on
/// `/metrics`), and spawns the HTTP listener when an address was
/// requested.
fn live_plane(
    flags: &CliFlags,
    sink: Option<&Arc<RecordingSink>>,
) -> Result<
    (
        Arc<so_telemetry::LivePlane>,
        Option<so_telemetry::MetricsServer>,
    ),
    Box<dyn std::error::Error>,
> {
    let sink = sink
        .cloned()
        .unwrap_or_else(|| Arc::new(RecordingSink::with_wall_clock()));
    let plane = Arc::new(so_telemetry::LivePlane::new(
        sink,
        flags.flight_capacity.unwrap_or(4_096),
        so_telemetry::default_online_rules(),
    ));
    let server = match &flags.listen {
        Some(addr) => {
            let server = so_telemetry::MetricsServer::spawn(addr, plane.clone())
                .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
            eprintln!(
                "serving /metrics /health /alerts /flight on http://{}",
                server.addr()
            );
            Some(server)
        }
        None => None,
    };
    Ok((plane, server))
}

/// `smoothop online [--instances n1,n2,...] [--seed s] [--out path]
/// [--listen addr]`: run the online arrival/departure rung and write
/// `BENCH_online.json`, optionally serving the observability plane over
/// HTTP while the rung runs.
fn online_cmd(flags: &CliFlags, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::scale::{run_online_scale_with_plane, OnlineScaleConfig};

    let mut config = OnlineScaleConfig::default();
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(raw) = &flags.instances {
        config.instances = raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("instance count `{part}` is not a number"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
    }
    if let Some(batches) = flags.batches {
        config.batches = batches;
    }
    if let Some(probes) = flags.probes {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.repair {
        config.repair_budget = repair;
    }
    let path = flags.out.as_deref().unwrap_or("BENCH_online.json");
    let (plane, server) = if flags.listen.is_some() {
        let (plane, server) = live_plane(flags, sink)?;
        (Some(plane), server)
    } else {
        (None, None)
    };

    println!(
        "online rung — {} points, {} batches, {} probes/arrival, repair budget {}, seed {}, {} thread lane(s)",
        config.instances.len(),
        config.batches,
        config.sample_probes,
        config.repair_budget,
        config.seed,
        so_parallel::effective_lanes(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9} {:>11} {:>11} {:>6}",
        "instances",
        "arrive",
        "retire",
        "repair",
        "offline",
        "rows/s",
        "async",
        "off-asy",
        "headroom W",
        "off-hdr W",
        "frag"
    );
    let report = run_online_scale_with_plane(&config, plane.clone());
    if let Some(server) = server {
        server.shutdown();
    }
    let report = report?;
    for p in &report.points {
        println!(
            "{:>10} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>12.0} {:>9.4} {:>9.4} {:>11.1} {:>11.1} {:>6.3} {:>6}",
            p.instances,
            p.arrive_ms,
            p.retire_ms,
            p.repair_ms,
            p.offline_ms,
            p.rows_per_sec,
            p.online_mean_asynchrony,
            p.offline_mean_asynchrony,
            p.online_min_rack_headroom_watts,
            p.offline_min_rack_headroom_watts,
            p.rack_fragmentation_ratio,
            p.alerts_fired,
        );
    }
    write_flight(flags, plane.as_ref())?;
    write_artifact(path, &report.to_json())
}

/// `smoothop watch [--instances n] [--batches b] [--listen addr]
/// [--watch-out path] [--flight-out path] [--plant-violation]`: run one
/// live watch session over the online engine, emitting per-batch JSONL
/// heartbeats plus alert and flight-dump lines.
fn watch_cmd(flags: &CliFlags, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::watch::{run_watch, WatchConfig};

    let mut config = WatchConfig::default();
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(raw) = &flags.instances {
        // Watch streams one fleet, not a ladder: take the first count.
        let first = raw.split(',').next().unwrap_or(raw).trim();
        config.instances = first
            .parse()
            .map_err(|_| format!("instance count `{first}` is not a number"))?;
    }
    if let Some(batches) = flags.batches {
        config.batches = batches;
    }
    if let Some(probes) = flags.probes {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.repair {
        config.repair_budget = repair;
    }
    if let Some(cap) = flags.flight_capacity {
        config.flight_capacity = cap;
    }
    if let Some(cap) = flags.journal_cap {
        config.journal_cap = cap;
    }
    config.plant_violation = flags.plant_violation;

    let (plane, server) = live_plane(flags, sink)?;
    eprintln!(
        "watch — {} instances over {} batches, seed {}, {} thread lane(s){}",
        config.instances,
        config.batches,
        config.seed,
        so_parallel::effective_lanes(),
        if config.plant_violation {
            ", planting one breaker-budget violation"
        } else {
            ""
        },
    );
    let mut buffered = String::new();
    let to_file = flags.watch_out.is_some();
    let outcome = run_watch(&config, plane.clone(), |line| {
        if to_file {
            buffered.push_str(line);
            buffered.push('\n');
        } else {
            println!("{line}");
        }
    });
    if let Some(server) = server {
        server.shutdown();
    }
    let outcome = outcome?;
    if let Some(path) = &flags.watch_out {
        std::fs::write(path, &buffered).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote watch JSONL to {path} ({} bytes)", buffered.len());
    }
    write_flight(flags, Some(&plane))?;
    eprintln!(
        "watch done — {} committed, {} rejected, {} live, {} alert(s) fired, {} resolved, {} breaker violation(s), {} flight dump(s)",
        outcome.committed,
        outcome.rejected,
        outcome.live_instances,
        outcome.alerts_fired,
        outcome.alerts_resolved,
        outcome.breaker_violations,
        outcome.dumps_total,
    );
    Ok(())
}

/// `smoothop serve [--listen addr] [--instances n] [--seed s]
/// [--probes p] [--repair b] [--repair-interval-ms n] [--ttl-ms n]`:
/// run the resident placement daemon until `POST /shutdown` (or the
/// TTL), serving ingest, queries, and the scrape surface on one port.
fn serve_cmd(flags: &CliFlags, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::serve::{run_serve, ServeConfig};

    let mut config = ServeConfig::default();
    if let Some(addr) = &flags.listen {
        config.listen = addr.clone();
    }
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(raw) = &flags.instances {
        // Serve hosts one resident fleet, not a ladder: take the first.
        let first = raw.split(',').next().unwrap_or(raw).trim();
        config.instances = first
            .parse()
            .map_err(|_| format!("instance count `{first}` is not a number"))?;
    }
    if let Some(probes) = flags.probes {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.repair {
        config.repair_budget = repair;
    }
    if let Some(interval) = flags.repair_interval_ms {
        config.repair_interval_ms = interval;
    }
    config.ttl_ms = flags.ttl_ms;

    let sink = sink
        .cloned()
        .unwrap_or_else(|| Arc::new(RecordingSink::with_wall_clock()));
    let plane = Arc::new(so_telemetry::LivePlane::new(
        sink,
        flags.flight_capacity.unwrap_or(4_096),
        so_telemetry::default_online_rules(),
    ));
    eprintln!(
        "smoothopd — {} instances resident, window {}, repair budget {} every {}ms, seed {}",
        config.instances,
        config.samples_per_trace,
        config.repair_budget,
        config.repair_interval_ms,
        config.seed,
    );
    // The announce line goes to stdout so scripts can parse the bound
    // (possibly ephemeral) address without scraping stderr.
    let outcome = run_serve(&config, plane.clone(), |line| println!("{line}"))?;
    write_flight(flags, Some(&plane))?;
    eprintln!(
        "smoothopd done — {} batches / {} samples ingested ({} dropped), {} live, {} committed, {} rejected, {} retired, {} repair pass(es)",
        outcome.batches_ingested,
        outcome.samples_ingested,
        outcome.samples_dropped,
        outcome.live_instances,
        outcome.committed,
        outcome.rejected,
        outcome.retired,
        outcome.repair_passes,
    );
    Ok(())
}

/// `smoothop daemon [--instances n1,n2,...] [--seed s] [--out path]`:
/// run the daemon ingest load rung and write `BENCH_daemon.json`.
fn daemon_cmd(flags: &CliFlags) -> CliResult {
    use smoothoperator::serve::{run_daemon_scale, DaemonScaleConfig};

    let mut config = DaemonScaleConfig::default();
    if let Some(seed) = flags.seed {
        config.seed = seed;
    }
    if let Some(raw) = &flags.instances {
        config.instances = raw
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("instance count `{part}` is not a number"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
    }
    if let Some(sweeps) = flags.batches {
        // The daemon rung's unit of work is one full fleet sweep.
        config.sweeps = sweeps;
    }
    if let Some(probes) = flags.probes {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.repair {
        config.repair_budget = repair;
    }
    let path = flags.out.as_deref().unwrap_or("BENCH_daemon.json");

    println!(
        "daemon rung — {} points, {} sweeps of {}-slot batches, {} samples/window, seed {}, {} thread lane(s)",
        config.instances.len(),
        config.sweeps,
        config.batch_slots,
        config.samples_per_trace,
        config.seed,
        so_parallel::effective_lanes(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9} {:>10}",
        "instances", "seed", "ingest", "query", "repair", "samples/s", "p50 µs", "p99 µs", "rss"
    );
    let report = run_daemon_scale(&config)?;
    for p in &report.points {
        let rss = match p.peak_rss_bytes {
            Some(bytes) => format!("{}MB", bytes / (1024 * 1024)),
            None => "n/a".to_string(),
        };
        println!(
            "{:>10} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>12.0} {:>9.1} {:>9.1} {:>10}",
            p.instances,
            p.seed_ms,
            p.ingest_ms,
            p.query_ms,
            p.repair_ms,
            p.rows_per_sec,
            p.ingest_p50_us,
            p.ingest_p99_us,
            rss,
        );
    }
    write_artifact(path, &report.to_json())
}

/// Writes the plane's full flight ring as JSONL when `--flight-out` was
/// requested.
fn write_flight(flags: &CliFlags, plane: Option<&Arc<so_telemetry::LivePlane>>) -> CliResult {
    let Some(path) = &flags.flight_out else {
        return Ok(());
    };
    let Some(plane) = plane else {
        return Err("--flight-out needs a live plane (use `watch` or `online --listen`)".into());
    };
    let jsonl = plane.flight_jsonl(0);
    std::fs::write(path, &jsonl).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!(
        "wrote flight recorder JSONL to {path} ({} bytes)",
        jsonl.len()
    );
    Ok(())
}

fn with_scenario(args: &[String], f: impl FnOnce(DcScenario, usize) -> CliResult) -> CliResult {
    let dc = args
        .get(1)
        .ok_or("missing datacenter argument (dc1|dc2|dc3)")?;
    let scenario = match dc.as_str() {
        "dc1" | "DC1" => DcScenario::dc1(),
        "dc2" | "DC2" => DcScenario::dc2(),
        "dc3" | "DC3" => DcScenario::dc3(),
        other => return Err(format!("unknown datacenter `{other}` (dc1|dc2|dc3)").into()),
    };
    let n: usize = match args.get(2) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("fleet size `{raw}` is not a number"))?,
        None => 240,
    };
    if n == 0 {
        return Err("fleet size must be positive".into());
    }
    f(scenario, n)
}

/// Global flags shared by every subcommand.
struct CliFlags {
    faults: FaultSpec,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    seed: Option<u64>,
    instances: Option<String>,
    out: Option<String>,
    quantile_mode: smoothoperator::scale::QuantileMode,
    scale_workload: smoothoperator::scale::ScaleWorkload,
    chunk_rows: Option<usize>,
    base: Option<usize>,
    racks: Option<usize>,
    deltas: Option<String>,
    workloads: Option<String>,
    budget: Option<f64>,
    batches: Option<usize>,
    probes: Option<usize>,
    repair: Option<usize>,
    listen: Option<String>,
    watch_out: Option<String>,
    flight_out: Option<String>,
    flight_capacity: Option<usize>,
    journal_cap: Option<usize>,
    plant_violation: bool,
    repair_interval_ms: Option<u64>,
    ttl_ms: Option<u64>,
}

/// Extracts `--faults`, `--metrics-out`, and `--trace-out` (in both
/// `--flag value` and `--flag=value` spellings) from the argument list,
/// returning the remaining positional arguments and the parsed flags.
fn split_flags(args: Vec<String>) -> Result<(Vec<String>, CliFlags), String> {
    let mut positional = Vec::with_capacity(args.len());
    let mut flags = CliFlags {
        faults: FaultSpec::none(),
        metrics_out: None,
        trace_out: None,
        seed: None,
        instances: None,
        out: None,
        quantile_mode: smoothoperator::scale::QuantileMode::Exact,
        scale_workload: smoothoperator::scale::ScaleWorkload::Diurnal,
        chunk_rows: None,
        base: None,
        racks: None,
        deltas: None,
        workloads: None,
        budget: None,
        batches: None,
        probes: None,
        repair: None,
        listen: None,
        watch_out: None,
        flight_out: None,
        flight_capacity: None,
        journal_cap: None,
        plant_violation: false,
        repair_interval_ms: None,
        ttl_ms: None,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value_of = |flag: &str, arg: &str, iter: &mut dyn Iterator<Item = String>| {
            if arg == flag {
                iter.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
                    .map(Some)
            } else if let Some(rest) = arg.strip_prefix(&format!("{flag}=")) {
                Ok(Some(rest.to_string()))
            } else {
                Ok(None)
            }
        };
        if let Some(raw) = value_of("--faults", &arg, &mut iter)? {
            let spec = FaultSpec::parse(&raw).map_err(|e| e.to_string())?;
            spec.validate().map_err(|e| e.to_string())?;
            flags.faults = spec;
        } else if let Some(path) = value_of("--metrics-out", &arg, &mut iter)? {
            flags.metrics_out = Some(path);
        } else if let Some(path) = value_of("--trace-out", &arg, &mut iter)? {
            flags.trace_out = Some(path);
        } else if let Some(raw) = value_of("--seed", &arg, &mut iter)? {
            flags.seed = Some(
                raw.parse()
                    .map_err(|_| format!("seed `{raw}` is not a number"))?,
            );
        } else if let Some(raw) = value_of("--instances", &arg, &mut iter)? {
            flags.instances = Some(raw);
        } else if let Some(path) = value_of("--out", &arg, &mut iter)? {
            flags.out = Some(path);
        } else if let Some(raw) = value_of("--quantiles", &arg, &mut iter)? {
            flags.quantile_mode = smoothoperator::scale::QuantileMode::parse(&raw)
                .ok_or_else(|| format!("--quantiles must be `exact` or `sketch`, got `{raw}`"))?;
        } else if arg == "--exact" {
            flags.quantile_mode = smoothoperator::scale::QuantileMode::Exact;
        } else if arg == "--sketch" {
            flags.quantile_mode = smoothoperator::scale::QuantileMode::Sketch;
        } else if let Some(raw) = value_of("--chunk-rows", &arg, &mut iter)? {
            flags.chunk_rows = Some(
                raw.parse()
                    .map_err(|_| format!("chunk rows `{raw}` is not a number"))?,
            );
        } else if let Some(raw) = value_of("--workload", &arg, &mut iter)? {
            flags.scale_workload = smoothoperator::scale::ScaleWorkload::parse(&raw)
                .ok_or_else(|| format!("--workload must be `diurnal` or `llm`, got `{raw}`"))?;
        } else if let Some(raw) = value_of("--base", &arg, &mut iter)? {
            flags.base = Some(
                raw.parse()
                    .map_err(|_| format!("base fleet size `{raw}` is not a number"))?,
            );
        } else if let Some(raw) = value_of("--racks", &arg, &mut iter)? {
            flags.racks = Some(
                raw.parse()
                    .map_err(|_| format!("rack count `{raw}` is not a number"))?,
            );
        } else if let Some(raw) = value_of("--deltas", &arg, &mut iter)? {
            flags.deltas = Some(raw);
        } else if let Some(raw) = value_of("--workloads", &arg, &mut iter)? {
            flags.workloads = Some(raw);
        } else if let Some(raw) = value_of("--budget", &arg, &mut iter)? {
            flags.budget = Some(
                raw.parse()
                    .map_err(|_| format!("budget `{raw}` is not a number"))?,
            );
        } else if let Some(raw) = value_of("--batches", &arg, &mut iter)? {
            let batches: usize = raw
                .parse()
                .map_err(|_| format!("batch count `{raw}` is not a number"))?;
            flags.batches = Some(batches);
        } else if let Some(raw) = value_of("--probes", &arg, &mut iter)? {
            let probes: usize = raw
                .parse()
                .map_err(|_| format!("probe count `{raw}` is not a number"))?;
            flags.probes = Some(probes);
        } else if let Some(raw) = value_of("--repair", &arg, &mut iter)? {
            let repair: usize = raw
                .parse()
                .map_err(|_| format!("repair budget `{raw}` is not a number"))?;
            flags.repair = Some(repair);
        } else if let Some(addr) = value_of("--listen", &arg, &mut iter)? {
            flags.listen = Some(addr);
        } else if let Some(path) = value_of("--watch-out", &arg, &mut iter)? {
            flags.watch_out = Some(path);
        } else if let Some(path) = value_of("--flight-out", &arg, &mut iter)? {
            flags.flight_out = Some(path);
        } else if let Some(raw) = value_of("--flight-capacity", &arg, &mut iter)? {
            let cap: usize = raw
                .parse()
                .map_err(|_| format!("flight capacity `{raw}` is not a number"))?;
            if cap == 0 {
                return Err("--flight-capacity must be at least 1".to_string());
            }
            flags.flight_capacity = Some(cap);
        } else if let Some(raw) = value_of("--journal-cap", &arg, &mut iter)? {
            let cap: usize = raw
                .parse()
                .map_err(|_| format!("journal cap `{raw}` is not a number"))?;
            flags.journal_cap = Some(cap);
        } else if arg == "--plant-violation" {
            flags.plant_violation = true;
        } else if let Some(raw) = value_of("--repair-interval-ms", &arg, &mut iter)? {
            let interval: u64 = raw
                .parse()
                .map_err(|_| format!("repair interval `{raw}` is not a number"))?;
            flags.repair_interval_ms = Some(interval);
        } else if let Some(raw) = value_of("--ttl-ms", &arg, &mut iter)? {
            let ttl: u64 = raw
                .parse()
                .map_err(|_| format!("ttl `{raw}` is not a number"))?;
            flags.ttl_ms = Some(ttl);
        } else if let Some(raw) = value_of("--threads", &arg, &mut iter)? {
            let lanes: usize = raw
                .parse()
                .map_err(|_| format!("thread count `{raw}` is not a number"))?;
            if lanes == 0 {
                return Err("--threads must be at least 1".to_string());
            }
            so_parallel::set_thread_limit(lanes);
        } else {
            positional.push(arg);
        }
    }
    Ok((positional, flags))
}

fn simulate_cmd(scenario: DcScenario, n: usize, faults: &FaultSpec) -> CliResult {
    // Size the simulated cluster from the fleet: half the servers serve LC
    // at peak, half run batch, with reshaping pools on top (§4.2 roles).
    let base_lc = (n / 2).max(1);
    let base_batch = (n - base_lc).max(1);
    let conversion = (n / 10).max(1);
    let throttle_funded = (n / 20).max(1);
    let config = default_config(base_lc, base_batch, conversion, throttle_funded, f64::MAX);

    let load = OfferedLoad::diurnal(
        one_week_grid(60),
        base_lc as f64 * config.qps_per_server * config.l_conv * 1.15,
        0.05,
        scenario.name.len() as u64, // stable per-scenario seed
    );
    let schedule = FaultSchedule::generate(faults, load.len(), base_lc);
    let mut policy = FailSafe::new(ThrottleBoostPolicy::default());
    let telemetry = simulate_with_faults(&config, &load, &mut policy, &schedule)?;

    println!(
        "{} — one simulated week ({} LC + {} batch + {} conv + {} e_th servers):",
        scenario.name, base_lc, base_batch, conversion, throttle_funded
    );
    println!(
        "  LC served:      {:>12.0} qps-steps ({:.2}% dropped)",
        telemetry.total_lc_served(),
        100.0 * telemetry.lc_dropped_qps.iter().sum::<f64>() / telemetry.total_lc_served().max(1.0)
    );
    println!(
        "  batch work:     {:>12.0} normalized-server-steps",
        telemetry.total_batch_work()
    );
    println!("  peak power:     {:>12.0} W", telemetry.peak_power());
    println!(
        "  QoS-risk steps: {:>12} of {}",
        telemetry.qos_risk_steps(config.l_conv),
        telemetry.len()
    );
    if faults.is_none() {
        println!("  faults:         none injected (pass --faults <spec> to inject)");
    } else {
        println!(
            "  faults:         {} events injected, {} of {} steps degraded",
            telemetry.fault_events.len(),
            telemetry.degraded_steps(),
            telemetry.len()
        );
        for kind in [
            FaultKind::SensorDropout,
            FaultKind::StuckSensor,
            FaultKind::InstanceCrash,
            FaultKind::BreakerTrip,
        ] {
            let count = telemetry
                .fault_events
                .iter()
                .filter(|e| e.kind == kind)
                .count();
            if count > 0 {
                println!("    {:<16} {count}", kind.label());
            }
        }
    }
    Ok(())
}

/// Runs an instrumented end-to-end pass — placement, fragmentation
/// analysis, drift observation, remapping, and one simulated week — and
/// prints the recorded metrics as a grouped run report.
fn report_cmd(scenario: DcScenario, n: usize, sink: &RecordingSink) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;

    // Placement (records spans, per-level fragmentation gauges, k-means
    // and embedding counters).
    let mut assignment = SmoothPlacer::default().place(&fleet, &topo)?;

    // Drift monitoring against the test week (records per-level gauges).
    let monitor =
        so_core::DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05)?;
    monitor.observe(&topo, &assignment, fleet.test_traces())?;

    // Remapping (records swap counters, gain histogram, score gauges).
    so_core::remap(
        &fleet,
        &topo,
        &mut assignment,
        so_core::RemapConfig::default(),
    )?;

    // One simulated week of runtime reshaping (records per-step power and
    // headroom histograms plus DVFS/conversion counters).
    let base_lc = (n / 2).max(1);
    let base_batch = (n - base_lc).max(1);
    let config = default_config(
        base_lc,
        base_batch,
        (n / 10).max(1),
        (n / 20).max(1),
        350.0 * n as f64,
    );
    let load = OfferedLoad::diurnal(
        one_week_grid(60),
        base_lc as f64 * config.qps_per_server * config.l_conv * 1.15,
        0.05,
        scenario.name.len() as u64,
    );
    let schedule = FaultSchedule::generate(&FaultSpec::none(), load.len(), base_lc);
    let mut policy = FailSafe::new(ThrottleBoostPolicy::default());
    simulate_with_faults(&config, &load, &mut policy, &schedule)?;

    println!("{} ({n} instances) — instrumented run:", scenario.name);
    println!();
    print!("{}", so_telemetry::render_report(&sink.snapshot()));
    Ok(())
}

fn scenarios() -> CliResult {
    for sc in DcScenario::all() {
        println!(
            "{}: {} services, phase jitter σ {:.0} min, amplitude σ {:.2}, baseline mixing {:.0}%",
            sc.name,
            sc.mix.len(),
            sc.phase_jitter_sd_minutes,
            sc.amplitude_sd,
            100.0 * sc.baseline_mixing
        );
        for (service, fraction) in &sc.mix {
            println!("    {service:<14} {:.0}%", fraction * 100.0);
        }
    }
    Ok(())
}

fn breakdown(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    println!(
        "{} ({} instances) — power share by service:",
        scenario.name, n
    );
    for (rank, (service, share)) in fleet.power_share_by_service().iter().enumerate() {
        println!(
            "  {:>2}. {:<14} {:>5.1}%",
            rank + 1,
            service.to_string(),
            100.0 * share
        );
    }
    println!(
        "
{:<14} {:>5} {:>9} {:>9} {:>10} {:>12} {:>9}",
        "service", "n", "mean W", "peak W", "peak hour", "seasonality", "peak CV"
    );
    for p in so_workloads::profile_services(&fleet)? {
        println!(
            "{:<14} {:>5} {:>9.1} {:>9.1} {:>9.1}h {:>11.0}% {:>9.2}",
            p.service.to_string(),
            p.instances,
            p.mean_watts,
            p.peak_watts,
            p.peak_hour(),
            100.0 * p.seasonality,
            p.peak_cv,
        );
    }
    Ok(())
}

fn place(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;
    let historical = oblivious_placement(&fleet, &topo, scenario.baseline_mixing, 0xB4_5E)?;
    let smooth = SmoothPlacer::default().place(&fleet, &topo)?;

    let test = fleet.test_traces();
    let before = NodeAggregates::compute(&topo, &historical, test)?;
    let after = NodeAggregates::compute(&topo, &smooth, test)?;

    println!(
        "{} ({n} instances on {} racks) — sum-of-peaks reduction (test week):",
        scenario.name,
        topo.racks().len()
    );
    for level in [Level::Suite, Level::Msb, Level::Sb, Level::Rpp, Level::Rack] {
        let b = before.sum_of_peaks(&topo, level);
        let a = after.sum_of_peaks(&topo, level);
        println!(
            "  {:<6} {:>8.0} W -> {:>8.0} W   ({:>5.1}%)",
            level.to_string(),
            b,
            a,
            100.0 * (b - a) / b
        );
    }
    Ok(())
}

fn longrun(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;
    let placement = SmoothPlacer::default().place(&fleet, &topo)?;
    let report = operate(&fleet, &topo, &placement, &LongRunConfig::default())?;
    println!(
        "{} ({n} instances) — {} weeks of drift:",
        scenario.name,
        report.weeks.len()
    );
    for w in &report.weeks {
        println!(
            "  week {:>2}: frozen {:>8.0} W, managed {:>8.0} W{}{}",
            w.week,
            w.static_sum_of_peaks,
            w.managed_sum_of_peaks,
            if w.flagged { "  [flagged]" } else { "" },
            if w.swaps > 0 {
                format!("  ({} swaps)", w.swaps)
            } else {
                String::new()
            },
        );
    }
    println!(
        "  mean managed advantage: {:.2}% ({} swaps total)",
        100.0 * report.mean_managed_advantage(),
        report.total_swaps()
    );
    Ok(())
}

fn dot(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;
    let placement = SmoothPlacer::default().place(&fleet, &topo)?;
    let agg = NodeAggregates::compute(&topo, &placement, fleet.test_traces())?;
    let peaks: Vec<f64> = (0..topo.len())
        .map(|i| agg.peak(NodeId::new(i)))
        .collect::<Result<_, _>>()?;
    print!("{}", so_powertree::to_dot(&topo, Some(&peaks))?);
    Ok(())
}

fn pipeline(scenario: DcScenario, n: usize) -> CliResult {
    let topo = fitting_topology(n, 12)?;
    let outcome = run_scenario(&scenario, n, &topo, &PipelineConfig::default())?;
    println!("{} ({n} instances) — reshaping pipeline:", outcome.name);
    println!(
        "  RPP peak reduction:   {:>5.1}%",
        100.0 * outcome.rpp_peak_reduction
    );
    println!(
        "  extra servers:        {} conversion + {} throttle-funded (L_conv {:.2})",
        outcome.extra_conversion, outcome.extra_throttle_funded, outcome.l_conv
    );
    println!(
        "  conversion:           LC {:>+5.1}%  Batch {:>+5.1}%",
        100.0 * outcome.lc_improvement(&outcome.conversion),
        100.0 * outcome.batch_improvement(&outcome.conversion)
    );
    println!(
        "  + throttle/boost:     LC {:>+5.1}%  Batch {:>+5.1}%",
        100.0 * outcome.lc_improvement(&outcome.throttle_boost),
        100.0 * outcome.batch_improvement(&outcome.throttle_boost)
    );
    println!(
        "  energy slack:         avg -{:.1}%, off-peak -{:.1}%",
        100.0 * outcome.avg_slack_reduction(&outcome.throttle_boost)?,
        100.0 * outcome.off_peak_slack_reduction(&outcome.throttle_boost)?
    );
    Ok(())
}
