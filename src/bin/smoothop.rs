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

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use smoothoperator::prelude::*;
use so_faults::{FaultKind, FaultSchedule, FaultSpec};
use so_oracles::{run_battery, BatteryConfig, OracleFamily};
use so_powertree::NodeAggregates;
use so_reshape::{operate, run_scenario, LongRunConfig, ThrottleBoostPolicy};
use so_sim::{default_config, one_week_grid, simulate_with_faults, FailSafe};
use so_telemetry::{LivePlane, RecordingSink};
use so_workloads::OfferedLoad;

fn main() -> ExitCode {
    let (args, flags) = match parse_args(std::env::args().skip(1).collect()) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let command = args.first().map(String::as_str);

    // A recording sink is attached when any command asked for exported
    // telemetry, always for `report` (whose output *is* the metrics), and
    // whenever a live plane exists (`serve`, a watched `online` run): the
    // plane serves `/metrics` from the same sink the engine gauges land in.
    let wants_sink = flags.has("--metrics-out")
        || flags.has("--trace-out")
        || flags.watched()
        || command == Some("report")
        || command == Some("serve");
    let sink = if wants_sink {
        let sink = Arc::new(RecordingSink::with_wall_clock());
        so_telemetry::install(sink.clone());
        Some(sink)
    } else {
        None
    };

    let result = match command {
        Some("scenarios") => scenarios(),
        Some("breakdown") => with_scenario(&args, breakdown),
        Some("place") => with_scenario(&args, place),
        Some("pipeline") => with_scenario(&args, pipeline),
        Some("longrun") => with_scenario(&args, longrun),
        Some("dot") => with_scenario(&args, dot),
        Some("simulate") => fault_spec(&flags).and_then(|faults| {
            with_scenario(&args, |scenario, n| simulate_cmd(scenario, n, &faults))
        }),
        Some("check") => check_cmd(&args, &flags),
        Some("scale") => scale_cmd(&flags),
        Some("plan") => plan_cmd(&flags),
        Some("online") => online_cmd(&flags, sink.as_ref()),
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
    if let Some(path) = flags.get("--metrics-out") {
        std::fs::write(path, sink.prometheus())
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
        eprintln!("wrote Prometheus metrics snapshot to {path}");
    }
    if let Some(path) = flags.get("--trace-out") {
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
    println!("                                    re-placement; writes BENCH_online.json. With");
    println!("                                    --listen/--watch-out/--flight-out the run is");
    println!("                                    watched: per-batch JSONL heartbeats, alert");
    println!("                                    transitions, and flight-recorder dumps");
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
    println!("OPTIONS (a flag the command does not read is an error):");
    println!("  --faults <spec>       inject faults into `simulate`; <spec> is comma-separated");
    println!("                        key=value pairs (seed, dropout, stuck, crash, trips,");
    println!("                        mean-steps, trip-steps, trip-severity), or `none`.");
    println!("                        Example: --faults seed=7,dropout=0.2,trips=1");
    println!("  --metrics-out <path>  write a Prometheus text snapshot of all metrics");
    println!("                        recorded during the command");
    println!("  --trace-out <path>    write the recorded span events as JSON lines");
    println!("  --seed <u64>          battery seed for `check` (default 7); the seed picks the");
    println!("                        scenario and drives every randomized probe. Also seeds");
    println!("                        `scale`, `plan`, `online`, `serve` and `daemon`");
    println!("  --instances <list>    comma-separated ladder for `scale` (default");
    println!("                        10000,100000,1000000), `online` and `daemon` (default");
    println!("                        10000,100000); `serve` takes one count (default 960)");
    println!("  --out <path>          output path for `scale` / `plan` / `online` / `daemon`");
    println!("                        (defaults BENCH_<command>.json)");
    println!("  --quantiles exact     `scale` only: the p99 kernel, exact selection (the only");
    println!("                        accepted value and the default)");
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
    println!("  --batches <n>         event batches for `online` (default 8); full fleet");
    println!("                        sweeps for `daemon` (default 3)");
    println!("  --probes <n>          candidate racks sampled per arrival for `online`,");
    println!("                        `serve` and `daemon` (default 64)");
    println!("  --repair <n>          repair swaps allowed per pass for `online`, `serve` and");
    println!("                        `daemon` (default 8; 0 disables repair)");
    println!("  --threads <n>         thread-lane budget for the parallel kernels");
    println!("  --listen <addr>       serve /metrics /health /alerts /flight?n=K over HTTP");
    println!("                        while `online` runs (e.g. 127.0.0.1:9184); for");
    println!("                        `serve` this is the daemon's port (default");
    println!("                        127.0.0.1:0, an ephemeral port announced on stdout)");
    println!("  --repair-interval-ms <n>  `serve` only: run one budgeted repair pass every");
    println!("                        n milliseconds in the background (0, the default,");
    println!("                        repairs only on explicit POST /repair)");
    println!("  --ttl-ms <n>          `serve` only: auto-shutdown after n milliseconds");
    println!("                        (safety net for CI smoke jobs; default: run until");
    println!("                        POST /shutdown)");
    println!("  --watch-out <path>    `online` only: write the watched run's JSONL stream to");
    println!("                        a file instead of stdout (for CI smoke runs)");
    println!("  --flight-out <path>   dump the full flight-recorder ring as JSONL on exit");
    println!("                        (`online`, `serve`)");
    println!("  --plant-violation     `online` only: inject one oversized arrival mid-run to");
    println!("                        force a breaker-budget violation, alert, and dump");
}

/// `smoothop check [n] [--seed s]`: run the seeded oracle battery and fail
/// the process on any violation.
fn check_cmd(args: &[String], flags: &CliFlags) -> CliResult {
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
        seed: flags.parse("--seed")?.unwrap_or(7),
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

/// `smoothop scale [--instances n1,n2,...] [--seed s] [--out path]
/// [--workload diurnal|llm] [--quantiles exact]`: run the columnar scale
/// ladder and write the `BENCH_scale.json` artifact.
fn scale_cmd(flags: &CliFlags) -> CliResult {
    use smoothoperator::scale::{run_scale, ScaleConfig, ScaleWorkload};

    let mut config = ScaleConfig::default();
    if let Some(seed) = flags.parse("--seed")? {
        config.seed = seed;
    }
    if let Some(instances) = flags.list("--instances")? {
        config.instances = instances;
    }
    // p99 is always exact selection; `exact` is the one accepted value.
    if let Some(raw) = flags.get("--quantiles").filter(|raw| *raw != "exact") {
        return Err(format!("--quantiles must be `exact`, got `{raw}`").into());
    }
    if let Some(raw) = flags.get("--workload") {
        config.workload = ScaleWorkload::parse(raw)
            .ok_or_else(|| format!("--workload must be `diurnal` or `llm`, got `{raw}`"))?;
    }
    let path = flags.get("--out").unwrap_or("BENCH_scale.json");

    println!(
        "scale ladder — {} points, {} {} samples/trace, groups of {}, seed {}, {} rows/chunk, {} thread lane(s)",
        config.instances.len(),
        config.workload.as_str(),
        config.samples_per_trace,
        config.group_size,
        config.seed,
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
    if let Some(seed) = flags.parse("--seed")? {
        config.seed = seed;
    }
    if let Some(base) = flags.parse("--base")? {
        config.base_instances = base;
    }
    if let Some(racks) = flags.parse("--racks")? {
        config.max_racks = racks;
    }
    if let Some(deltas) = flags.list("--deltas")? {
        config.deltas = deltas;
    }
    if let Some(raw) = flags.get("--workloads") {
        config.workloads = raw
            .split(',')
            .map(|part| {
                PlanWorkload::parse(part.trim())
                    .ok_or_else(|| format!("workload `{part}` is not `web-mix` or `llm-mix`"))
            })
            .collect::<Result<Vec<PlanWorkload>, String>>()?;
    }
    if let Some(budget) = flags.parse("--budget")? {
        config.budget_watts = budget;
    }
    let path = flags.get("--out").unwrap_or("BENCH_plan.json");

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

/// Flight-recorder ring capacity of every CLI plane, records.
const FLIGHT_CAPACITY: usize = 4_096;

/// The live plane of `serve` or a watched `online` run, over the
/// recording sink installed on the main thread (so engine gauges land on
/// `/metrics`), with the default online alert rules.
fn cli_plane(sink: Option<&Arc<RecordingSink>>) -> Arc<LivePlane> {
    let sink = sink.expect("`main` installs a sink wherever a plane exists");
    Arc::new(LivePlane::new(
        Arc::clone(sink),
        FLIGHT_CAPACITY,
        so_telemetry::default_online_rules(),
    ))
}

/// `smoothop online [--instances n1,n2,...] [--seed s] [--out path]
/// [--listen addr] [--watch-out path] [--flight-out path]
/// [--plant-violation]`: run the online arrival/departure rung and write
/// `BENCH_online.json`. Any of `--listen`, `--watch-out` or
/// `--flight-out` watches the run through a live plane: its JSONL stream
/// goes to stdout (or the `--watch-out` file), and `--listen` serves the
/// plane over HTTP while the rung runs.
fn online_cmd(flags: &CliFlags, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::scale::{run_online_scale, OnlineScaleConfig};

    let mut config = OnlineScaleConfig::default();
    if let Some(seed) = flags.parse("--seed")? {
        config.seed = seed;
    }
    if let Some(instances) = flags.list("--instances")? {
        config.instances = instances;
    }
    if let Some(batches) = flags.parse("--batches")? {
        config.batches = batches;
    }
    if let Some(probes) = flags.parse("--probes")? {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.parse("--repair")? {
        config.repair_budget = repair;
    }
    config.plant_violation = flags.has("--plant-violation");
    let path = flags.get("--out").unwrap_or("BENCH_online.json");
    let plane = flags.watched().then(|| cli_plane(sink));
    let server = match (&plane, flags.get("--listen")) {
        (Some(plane), Some(addr)) => {
            let plane = plane.clone();
            let server = so_telemetry::HttpServer::spawn(
                addr,
                "so-metrics-http",
                Arc::new(move |req| so_telemetry::route_plane(&plane, req)),
            )
            .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
            eprintln!(
                "serving /metrics /health /alerts /flight on http://{}",
                server.addr()
            );
            Some(server)
        }
        _ => None,
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
    let mut watch_lines = String::new();
    let watch_out = flags.get("--watch-out");
    let report = run_online_scale(&config, plane.clone(), |line| {
        if watch_out.is_some() {
            watch_lines.push_str(line);
            watch_lines.push('\n');
        } else {
            println!("{line}");
        }
    });
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
    if let Some(path) = watch_out {
        std::fs::write(path, &watch_lines).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote watch JSONL to {path} ({} bytes)", watch_lines.len());
    }
    if let Some(plane) = &plane {
        write_flight(flags, plane)?;
    }
    write_artifact(path, &report.to_json())
}

/// `smoothop serve [--listen addr] [--instances n] [--seed s]
/// [--probes p] [--repair b] [--repair-interval-ms n] [--ttl-ms n]`:
/// run the resident placement daemon until `POST /shutdown` (or the
/// TTL), serving ingest, queries, and the scrape surface on one port.
fn serve_cmd(flags: &CliFlags, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::serve::{run_serve, ServeConfig};

    let mut config = ServeConfig::default();
    if let Some(addr) = flags.get("--listen") {
        config.listen = addr.to_string();
    }
    if let Some(seed) = flags.parse("--seed")? {
        config.seed = seed;
    }
    match flags.list("--instances")?.as_deref() {
        None => {}
        Some(&[instances]) => config.instances = instances,
        Some(_) => return Err("`serve` hosts one fleet: --instances takes one count".into()),
    }
    if let Some(probes) = flags.parse("--probes")? {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.parse("--repair")? {
        config.repair_budget = repair;
    }
    if let Some(interval) = flags.parse("--repair-interval-ms")? {
        config.repair_interval_ms = interval;
    }
    config.ttl_ms = flags.parse("--ttl-ms")?;

    let plane = cli_plane(sink);
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
    write_flight(flags, &plane)?;
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
    if let Some(seed) = flags.parse("--seed")? {
        config.seed = seed;
    }
    if let Some(instances) = flags.list("--instances")? {
        config.instances = instances;
    }
    // The daemon rung's unit of work is one full fleet sweep.
    if let Some(sweeps) = flags.parse("--batches")? {
        config.sweeps = sweeps;
    }
    if let Some(probes) = flags.parse("--probes")? {
        config.sample_probes = probes;
    }
    if let Some(repair) = flags.parse("--repair")? {
        config.repair_budget = repair;
    }
    let path = flags.get("--out").unwrap_or("BENCH_daemon.json");

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
fn write_flight(flags: &CliFlags, plane: &LivePlane) -> CliResult {
    let Some(path) = flags.get("--flight-out") else {
        return Ok(());
    };
    let jsonl = plane.flight_jsonl(0);
    std::fs::write(path, &jsonl).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!(
        "wrote flight recorder JSONL to {path} ({} bytes)",
        jsonl.len()
    );
    Ok(())
}

/// The `--faults` spec for `simulate` (none when absent), validated.
fn fault_spec(flags: &CliFlags) -> Result<FaultSpec, Box<dyn std::error::Error>> {
    let Some(raw) = flags.get("--faults") else {
        return Ok(FaultSpec::none());
    };
    let spec = FaultSpec::parse(raw).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
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

/// Every command and the flags it reads besides [`COMMON_FLAGS`]. A flag
/// outside this table is unknown, and a known flag the chosen command
/// does not read is an error rather than silently ignored.
#[rustfmt::skip]
const COMMANDS: [(&str, &[&str]); 16] = [
    ("scenarios", &[]),
    ("breakdown", &[]),
    ("place", &[]),
    ("pipeline", &[]),
    ("longrun", &[]),
    ("dot", &[]),
    ("simulate", &["--faults"]),
    ("report", &[]),
    ("check", &["--seed"]),
    ("scale", &["--instances", "--seed", "--out", "--quantiles", "--workload"]),
    ("plan", &["--seed", "--out", "--base", "--racks", "--deltas", "--workloads", "--budget"]),
    ("online", &["--instances", "--seed", "--out", "--batches", "--probes", "--repair",
                 "--listen", "--watch-out", "--flight-out", "--plant-violation"]),
    ("serve", &["--instances", "--seed", "--probes", "--repair", "--listen", "--flight-out",
                "--repair-interval-ms", "--ttl-ms"]),
    ("daemon", &["--instances", "--seed", "--out", "--batches", "--probes", "--repair"]),
    ("gate", &[]),
    ("help", &[]),
];

/// Flags every command reads.
const COMMON_FLAGS: [&str; 3] = ["--metrics-out", "--trace-out", "--threads"];

/// The one flag that takes no value.
const SWITCH: &str = "--plant-violation";

/// The flags of one invocation, each checked against [`COMMANDS`].
struct CliFlags {
    /// Flag name → its value (empty for [`SWITCH`]).
    values: BTreeMap<String, String>,
}

impl CliFlags {
    /// The raw value of `flag`, if given.
    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// The value of `flag` parsed as a `T`, if given.
    fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{flag} value `{raw}` is not a number"))
            })
            .transpose()
    }

    /// The comma-separated list value of `flag`, if given.
    fn list<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        self.get(flag)
            .map(|raw| {
                raw.split(',')
                    .map(|part| {
                        part.trim()
                            .parse()
                            .map_err(|_| format!("{flag} entry `{part}` is not a number"))
                    })
                    .collect()
            })
            .transpose()
    }

    /// Whether an `online` run is watched through a live plane.
    fn watched(&self) -> bool {
        ["--listen", "--watch-out", "--flight-out"]
            .iter()
            .any(|flag| self.has(flag))
    }
}

/// Splits the arguments into positionals and flags (`--flag value` or
/// `--flag=value`), rejects unknown flags and flags the command does not
/// read, and applies `--threads`.
fn parse_args(args: Vec<String>) -> Result<(Vec<String>, CliFlags), String> {
    let mut positional = Vec::with_capacity(args.len());
    let mut values = BTreeMap::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let known = COMMON_FLAGS.contains(&flag.as_str())
            || COMMANDS
                .iter()
                .any(|(_, reads)| reads.contains(&flag.as_str()));
        if !known {
            return Err(format!("unknown flag `{flag}` (try `smoothop help`)"));
        }
        let value = match inline {
            Some(_) if flag == SWITCH => return Err(format!("{flag} takes no value")),
            Some(value) => value,
            None if flag == SWITCH => String::new(),
            None => iter
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?,
        };
        values.insert(flag, value);
    }
    let command = positional.first().map_or("help", String::as_str);
    // An unknown command is reported by the dispatcher.
    if let Some((_, reads)) = COMMANDS.iter().find(|(name, _)| *name == command) {
        for flag in values.keys() {
            if !COMMON_FLAGS.contains(&flag.as_str()) && !reads.contains(&flag.as_str()) {
                return Err(format!("`{command}` does not read {flag}"));
            }
        }
    }
    let flags = CliFlags { values };
    if let Some(lanes) = flags.parse::<usize>("--threads")? {
        if lanes == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        so_parallel::set_thread_limit(lanes);
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
