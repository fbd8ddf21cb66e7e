//! The repository benchmark: `smoothopd` driven over loopback HTTP by a
//! single-threaded client, plus the batch tier's million-row rung.
//!
//! One run spawns `smoothop serve` with a 50k-instance seed fleet, drives
//! the workload's session against it, times `smoothop scale` three times
//! around it, and replays the logged session in-process to check every
//! reply. With
//! `--trace 1` the replay also times each layer, and the batch kernels are
//! timed over a rung-sized fleet. The last stdout line is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --smoothop <binary> --work <dir> [--root <dir>] [--rev <git revision>]`,
//! or `perfbench --list` to print every metric with its unit.

mod client;
mod kernels;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use smoothoperator::serve::ServeConfig;

use client::{json_field, Daemon, Exchange, Generator, Phase, Plan, Route};
use stats::{json_num, json_str, quantile, Metric, Samples};

/// Resident fleet of the daemon under test.
const INSTANCES: usize = 50_000;
/// Rows of the batch-tier rung.
const SCALE_ROWS: usize = 1_000_000;
/// Highest open-loop send lag (p99, ms) at which a run still measures
/// the daemon rather than the generator: a quarter of the ingest period.
const MAX_LAG_MS: f64 = 20.0;

const WORKLOADS: [(&str, &str); 2] = [
    (
        "ingest-stream",
        "open-loop sensor stream (50k samples/s in 4096-line bodies) with scrapes every 250 ms",
    ),
    (
        "arrival-churn",
        "closed-loop retire/arrive scheduler with admission probes and repair passes",
    ),
];

/// The end-to-end metrics, in output order: the ones that stay steady
/// across seeds on a shared host, so they can carry a bound.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_ratio", "ratio"),
    ("mean_rack_asynchrony", "score"),
];

/// Per-request daemon CPU timings of the session. Printed on every run
/// and reported as per-layer metrics (prefix `request.`) by traced runs,
/// not gated: host contention moves them by up to 30% between runs.
const REQUEST_CPU: [(&str, &str); 9] = [
    ("ingest_cpu_p50_ms", "ms"),
    ("ingest_cpu_p90_ms", "ms"),
    ("ingest_samples_per_cpu_s", "samples/s"),
    ("scrape_cpu_p50_ms", "ms"),
    ("arrive_cpu_p50_ms", "ms"),
    ("arrive_cpu_p90_ms", "ms"),
    ("admit_cpu_p50_ms", "ms"),
    ("repair_cpu_ms", "ms"),
    ("scale_rows_per_cpu_s", "rows/s"),
];

/// How a per-layer metric folds its samples.
#[derive(Clone, Copy)]
enum Fold {
    Q(f64),
    Mean,
}

/// The per-layer metrics: output name, unit, sample key, fold.
fn per_layer() -> Vec<(String, &'static str, String, Fold)> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, key: &str, fold: Fold| {
        out.push((name, unit, key.to_string(), fold));
    };
    add(
        "loadgen.lag_ms_p99".into(),
        "ms",
        "loadgen.lag_ms",
        Fold::Q(0.99),
    );
    add(
        "loadgen.encode_us_p50".into(),
        "us",
        "loadgen.encode_us",
        Fold::Q(0.5),
    );
    add(
        "loadgen.cpu_share".into(),
        "ratio",
        "loadgen.cpu_share",
        Fold::Mean,
    );
    for layer in [
        "http.rtt_us",
        "http.wire_us",
        "serve.route_us",
        "serve.self_us",
    ] {
        for route in Route::MEASURED {
            let key = format!("{layer}.{}", route.name());
            add(
                format!("{layer}_p50.{}", route.name()),
                "us",
                &key,
                Fold::Q(0.5),
            );
        }
    }
    let p50 = |base: &str| (format!("{base}_p50"), base.to_string(), Fold::Q(0.5));
    for base in [
        "daemon.ingest_batch_us",
        "online.arrive_us",
        "online.probe_us",
        "online.select_us",
        "online.commit_us",
        "online.retire_us",
        "online.decisions_us",
        "online.evaluate_us",
        "aggregate.refresh_rack_us",
        "aggregate.refresh_ancestors_us",
        "remap.repair_ms",
    ] {
        let (name, key, fold) = p50(base);
        let unit = if base.ends_with("_ms") { "ms" } else { "us" };
        add(name, unit, &key, fold);
    }
    add(
        "daemon.ingest_batch_us_p90".into(),
        "us",
        "daemon.ingest_batch_us",
        Fold::Q(0.9),
    );
    add(
        "online.arrive_us_p99".into(),
        "us",
        "online.arrive_us",
        Fold::Q(0.99),
    );
    for (name, unit) in [
        ("daemon.racks_touched", "count"),
        ("daemon.applied_ratio", "ratio"),
        ("online.fit_ratio", "ratio"),
        ("aggregate.path_nodes", "count"),
        ("aggregate.samples_resummed", "count"),
        ("remap.swaps", "count"),
        ("setup.build_ms", "ms"),
        ("setup.per_arrival_us", "us"),
        ("kernels.synth_ms", "ms"),
        ("kernels.row_peaks_ms", "ms"),
        ("kernels.row_quantiles_ms", "ms"),
        ("kernels.peak_of_sum_ms", "ms"),
        ("kernels.swap_probe_ms", "ms"),
        ("kernels.bytes_read", "bytes"),
    ] {
        add(name.into(), unit, name, Fold::Mean);
    }
    for path in ["metrics", "health", "alerts", "flight"] {
        let key = format!("plane.scrape_us.{path}");
        add(
            format!("plane.scrape_us_p50.{path}"),
            "us",
            &key,
            Fold::Q(0.5),
        );
    }
    for (name, unit) in REQUEST_CPU {
        let name = format!("request.{name}");
        add(name.clone(), unit, &name, Fold::Mean);
    }
    out
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoothop: PathBuf,
    work: PathBuf,
    root: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        raw.insert(key.to_string(), value);
    }
    let mut take = |key: &str| raw.remove(key).ok_or(format!("missing --{key}"));
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|_| "--seed is not a u64")?,
        seconds: take("seconds")?
            .parse()
            .map_err(|_| "--seconds is not a number")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        smoothop: take("smoothop")?.into(),
        work: take("work")?.into(),
        root: take("root").unwrap_or_else(|_| ".".into()).into(),
        rev: take("rev").unwrap_or_else(|_| "unknown".into()),
    };
    if let Some(extra) = raw.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_list();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for (name, unit) in END_TO_END {
        println!("  {name:<34} {unit}");
    }
    println!("per-layer metrics (--trace 1):");
    for (name, unit, _, _) in per_layer() {
        println!("  {name:<34} {unit}");
    }
}

/// The session each workload drives. The workload's own phase runs for
/// `seconds`; the other phases are short, fixed, and only there so every
/// metric has samples on every workload.
fn plan(workload: &str, seconds: f64) -> Plan {
    match workload {
        "ingest-stream" => Plan {
            stream_s: seconds,
            capacity_s: 2.0,
            churn_steps: 1_000,
            churn_s: 0.0,
        },
        _ => Plan {
            stream_s: 6.0,
            capacity_s: 1.0,
            churn_steps: 0,
            churn_s: seconds,
        },
    }
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    // The replay and the kernels run one lane, like the processes under
    // test (`--threads 1`).
    so_parallel::set_thread_limit(1);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("cannot create work dir: {e}"))?;
    let lanes = so_parallel::effective_lanes();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"facts\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"lanes\":{lanes},\"instances\":{INSTANCES},\"revision\":{},\"profile\":\"release\"}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.rev),
    );

    // The batch rung runs before the daemon, after it and after the
    // replay, and the best run counts: one run is short enough that a
    // slow stretch of the host moves it by 10-25%, and runs spread over
    // the minute rarely all share one. Every run's checksum must hold.
    let mut scale_runs = vec![scale_rung(&args.smoothop, &args.work, &args.root)?];

    // The daemon under test and the session against it.
    let daemon = Daemon::spawn(&args.smoothop, INSTANCES, args.seed)?;
    let setup_cpu_s = stats::proc_cpu_s(daemon.pid()).unwrap_or(f64::NAN);
    let mut gen = Generator::new(&daemon, args.seed, INSTANCES);
    gen.run(plan(&args.workload, args.seconds));
    let (_, final_async) = gen.send(
        Route::Asynchrony,
        Phase::Final,
        "/asynchrony".into(),
        String::new(),
    );
    let (_, final_fleet) = gen.send(Route::Fleet, Phase::Final, "/fleet".into(), String::new());
    let peak_rss_mb = stats::peak_rss_mb(daemon.pid()).unwrap_or(f64::NAN);
    gen.send(
        Route::Shutdown,
        Phase::Final,
        "/shutdown".into(),
        String::new(),
    );
    let setup_http_s = daemon.setup_s;
    let exit = daemon.wait();

    scale_runs.push(scale_rung(&args.smoothop, &args.work, &args.root)?);
    let config = ServeConfig {
        instances: INSTANCES,
        seed: args.seed,
        ..ServeConfig::default()
    };
    let mut outcome = replay::replay(&gen.log, &config, args.trace)?;
    scale_runs.push(scale_rung(&args.smoothop, &args.work, &args.root)?);
    let failed_check = scale_runs
        .iter()
        .find(|r| r.check.is_err())
        .map(|r| r.check.clone());
    let mut scale = scale_runs
        .into_iter()
        .min_by(|a, b| a.cpu_s.total_cmp(&b.cpu_s))
        .expect("three scale runs");
    if let Some(check) = failed_check {
        scale.check = check;
    }

    // Checks.
    let mut problems: Vec<String> = Vec::new();
    if let Err(e) = exit {
        problems.push(e);
    }
    // The first few disagreements of each kind name the failure; the
    // `checks` line carries the counts.
    problems.extend(
        outcome
            .mismatches
            .iter()
            .take(3)
            .map(|m| format!("reply mismatch: {m}")),
    );
    problems.extend(
        outcome
            .select_mismatches
            .iter()
            .take(3)
            .map(|m| format!("select mismatch: {m}")),
    );
    if let Err(e) = &scale.check {
        problems.push(e.clone());
    }
    let lag_p99 = gen.samples.q("loadgen.lag_ms", 0.99);
    let generator_valid = lag_p99.is_nan() || lag_p99 <= MAX_LAG_MS;
    if !generator_valid {
        problems.push(format!(
            "generator fell behind schedule: send lag p99 {lag_p99:.3} ms > {MAX_LAG_MS} ms"
        ));
    }
    let (attempted, failed) = gen
        .failures
        .values()
        .fold((0u64, 0u64), |(a, f), &(x, y)| (a + x, f + y));

    println!(
        "{{\"checks\":{{\"replies_compared\":{},\"reply_mismatches\":{},\"arrivals_checked\":{},\"select_mismatches\":{},\"scale_checksum\":{}}}}}",
        outcome.compared,
        outcome.mismatches.len(),
        outcome.select_checked,
        outcome.select_mismatches.len(),
        json_str(scale.check.as_ref().map_or_else(|e| e.as_str(), |()| "ok")),
    );
    let mut table = String::new();
    for (route, (tries, errors)) in &gen.failures {
        let _ = write!(
            table,
            "{}{}:{{\"attempted\":{tries},\"errors\":{errors}}}",
            if table.is_empty() { "" } else { "," },
            json_str(route)
        );
    }
    println!("{{\"failures\":{{{table}}},\"expected_status\":200}}");
    println!(
        "{{\"generator\":{{\"lag_ms_p99\":{},\"cpu_share\":{},\"host_steal_share\":{},\"valid\":{generator_valid}}}}}",
        json_num(lag_p99),
        json_num(gen.cpu_share),
        json_num(gen.steal_share),
    );
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let mut phases = format!(
        "\"setup\":{{\"wall_s\":{},\"daemon_cpu_s\":{}}}",
        json_num(setup_http_s),
        json_num(setup_cpu_s)
    );
    for (name, wall, cpu, steal) in &gen.phase_costs {
        let _ = write!(
            phases,
            ",{}:{{\"wall_s\":{},\"daemon_cpu_s\":{},\"host_steal_s\":{}}}",
            json_str(name),
            json_num(*wall),
            json_num(*cpu),
            json_num(*steal)
        );
    }
    println!("{{\"phases\":{{{phases}}}}}");
    println!("{{\"wall\":{{{}}}}}", wall_figures(&gen, &scale));

    let setup_s = quantile(&[setup_http_s, outcome.build_s], 0.5);
    let figures = session_figures(
        &gen,
        setup_s,
        peak_rss_mb,
        &final_async,
        &final_fleet,
        &scale,
    );
    let end_to_end = pick(&figures, &END_TO_END, "");
    println!(
        "{{\"cpu\":{{{}}}}}",
        render(&pick(&figures, &REQUEST_CPU, ""))
    );
    let metrics = if args.trace {
        // The session is never traced, so these equal an untraced run's
        // figures up to noise; they are printed to show it.
        println!("{{\"end_to_end\":{{{}}}}}", render(&end_to_end));
        let layers = &mut outcome.layers;
        for key in ["loadgen.lag_ms", "loadgen.encode_us"] {
            for &v in gen.samples.get(key) {
                layers.push(key, v);
            }
        }
        layers.push("loadgen.cpu_share", gen.cpu_share);
        for m in pick(&figures, &REQUEST_CPU, "request.") {
            layers.push(&m.name, m.value);
        }
        kernels::measure(SCALE_ROWS, client::WINDOW, args.seed, layers)?;
        per_layer_metrics(layers)
    } else {
        end_to_end
    };
    println!(
        "{{\"timing\":{{\"run_s\":{}}}}}",
        json_num(started.elapsed().as_secs_f64())
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        problems.is_empty(),
        render(&metrics)
    );
    Ok(())
}

/// Renders metrics as the members of a JSON object.
fn render(metrics: &[Metric]) -> String {
    let mut body = String::new();
    for m in metrics {
        let _ = write!(
            body,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if body.is_empty() { "" } else { "," },
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    body
}

/// Per-request figure `field` of `route` in `phase`, in milliseconds.
fn per_request_ms(
    gen: &Generator,
    route: Route,
    phase: Phase,
    field: fn(&Exchange) -> f64,
) -> Vec<f64> {
    gen.log
        .iter()
        .filter(|e| e.route == route && e.phase == phase)
        .map(|e| field(e) / 1e3)
        .collect()
}

/// Slices a phase is cut into for the best-of-slices timings.
const SLICES: usize = 5;

/// Best of `SLICES` consecutive, equal-count slices of `values` (in
/// request order): `stat` of each slice, and the lowest of those. Host
/// contention comes and goes within a run; the least-disturbed slice is
/// the steadiest estimate of the daemon's own cost.
fn best_of_slices(values: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let size = values.len().div_ceil(SLICES).max(1);
    values.chunks(size).map(stat).fold(f64::NAN, f64::min)
}

/// Every session figure by name: the end-to-end metrics and the
/// per-request CPU timings.
fn session_figures(
    gen: &Generator,
    setup_s: f64,
    peak_rss_mb: f64,
    final_async: &str,
    final_fleet: &str,
    scale: &ScaleRun,
) -> BTreeMap<&'static str, f64> {
    // Daemon CPU time per request, ms, in request order.
    let cpu = |route: Route, phase: Phase| per_request_ms(gen, route, phase, |e| e.cpu_us);
    let p = |q: f64| move |slice: &[f64]| quantile(slice, q);
    let ingest = cpu(Route::Ingest, Phase::Stream);
    // Ingest throughput per CPU-second, best slice of every ingest body:
    // the slowest slice's CPU per sample is the lowest throughput.
    let per_sample_us: Vec<f64> = gen
        .log
        .iter()
        .filter(|e| e.route == Route::Ingest)
        .map(|e| e.cpu_us / json_field(&e.response, "applied").unwrap_or(f64::NAN))
        .collect();
    let mean = |slice: &[f64]| slice.iter().sum::<f64>() / slice.len() as f64;
    [
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("ingest_cpu_p50_ms", best_of_slices(&ingest, p(0.5))),
        ("ingest_cpu_p90_ms", quantile(&ingest, 0.9)),
        (
            "ingest_samples_per_cpu_s",
            1e6 / best_of_slices(&per_sample_us, mean),
        ),
        (
            "scrape_cpu_p50_ms",
            best_of_slices(&gen.scrape_rounds, p(0.5)) / 1e3,
        ),
        (
            "arrive_cpu_p50_ms",
            best_of_slices(&cpu(Route::Arrive, Phase::Churn), p(0.5)),
        ),
        (
            "arrive_cpu_p90_ms",
            best_of_slices(&cpu(Route::Arrive, Phase::Churn), p(0.9)),
        ),
        (
            "admit_cpu_p50_ms",
            best_of_slices(&cpu(Route::Admit, Phase::Churn), p(0.5)),
        ),
        (
            "repair_cpu_ms",
            best_of_slices(&cpu(Route::Repair, Phase::Churn), p(0.5)),
        ),
        ("commit_ratio", commit_ratio(final_fleet)),
        (
            "mean_rack_asynchrony",
            json_field(final_async, "mean_rack_asynchrony").unwrap_or(f64::NAN),
        ),
        ("scale_rows_per_cpu_s", SCALE_ROWS as f64 / scale.cpu_s),
    ]
    .into_iter()
    .collect()
}

/// The `table` entries of `figures` as metrics named `prefix` + name.
fn pick(
    figures: &BTreeMap<&str, f64>,
    table: &[(&str, &'static str)],
    prefix: &str,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name: format!("{prefix}{name}"),
            value: figures[name],
            unit,
        })
        .collect()
}

/// The user-visible wall-clock figures of the session, with the tail
/// percentiles the samples support. Printed, not gated: on a shared host
/// they move with hypervisor steal (see the README).
fn wall_figures(gen: &Generator, scale: &ScaleRun) -> String {
    let rtt = |route, phase| per_request_ms(gen, route, phase, |e| e.rtt_us);
    let (applied, capacity_ms) = gen
        .log
        .iter()
        .filter(|e| e.route == Route::Ingest && e.phase == Phase::Capacity)
        .fold((0.0, 0.0), |(a, t), e| {
            (
                a + json_field(&e.response, "applied").unwrap_or(0.0),
                t + e.rtt_us / 1e3,
            )
        });
    let arrive = rtt(Route::Arrive, Phase::Churn);
    let retire = rtt(Route::Retire, Phase::Churn);
    let lat_ingest = gen.samples.get("lat.ingest");
    let figures = [
        ("ingest_p50_ms", quantile(lat_ingest, 0.5)),
        ("ingest_p90_ms", quantile(lat_ingest, 0.9)),
        ("ingest_max_ms", quantile(lat_ingest, 1.0)),
        ("ingest_sps", applied / (capacity_ms / 1e3)),
        ("scrape_p50_ms", gen.samples.q("lat.scrape", 0.5)),
        ("scrape_max_ms", gen.samples.q("lat.scrape", 1.0)),
        ("arrive_p50_ms", quantile(&arrive, 0.5)),
        ("arrive_p90_ms", quantile(&arrive, 0.9)),
        ("arrive_p99_ms", quantile(&arrive, 0.99)),
        ("retire_p50_ms", quantile(&retire, 0.5)),
        ("retire_p99_ms", quantile(&retire, 0.99)),
        (
            "admit_p50_ms",
            quantile(&rtt(Route::Admit, Phase::Churn), 0.5),
        ),
        (
            "repair_ms",
            quantile(&rtt(Route::Repair, Phase::Churn), 0.5),
        ),
        ("scale_rows_per_s", SCALE_ROWS as f64 / scale.wall_s),
    ];
    let mut out = String::new();
    for (name, value) in figures {
        let sep = if out.is_empty() { "" } else { "," };
        let _ = write!(out, "{sep}{}:{}", json_str(name), json_num(value));
    }
    let _ = write!(
        out,
        ",\"samples\":{{\"ingest\":{},\"scrape_rounds\":{},\"arrive\":{},\"retire\":{}}}",
        lat_ingest.len(),
        gen.samples.get("lat.scrape").len(),
        arrive.len(),
        retire.len()
    );
    out
}

fn per_layer_metrics(layers: &Samples) -> Vec<Metric> {
    per_layer()
        .into_iter()
        .map(|(name, unit, key, fold)| {
            let value = match fold {
                Fold::Q(q) => layers.q(&key, q),
                Fold::Mean => layers.mean(&key),
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Committed arrivals over all arrivals the daemon has seen, the seed
/// fleet's included, from the final `/fleet` counters (1 − reject ratio).
fn commit_ratio(fleet: &str) -> f64 {
    let rejected = json_field(fleet, "rejected").unwrap_or(f64::NAN);
    let committed = json_field(fleet, "committed").unwrap_or(f64::NAN);
    committed / (rejected + committed)
}

/// Runs `smoothop scale` on the million-row diurnal rung with exact
/// quantiles, timed from outside; checks its checksum against the
/// committed `BENCH_scale.json` point for the same rung.
/// One `smoothop scale` run: wall and CPU seconds, and the checksum check.
struct ScaleRun {
    wall_s: f64,
    cpu_s: f64,
    check: Result<(), String>,
}

/// Runs `smoothop scale` on the million-row diurnal rung with exact
/// quantiles and one lane, timed from outside; checks its checksum
/// against the committed `BENCH_scale.json` point for the same rung.
fn scale_rung(smoothop: &Path, work: &Path, root: &Path) -> Result<ScaleRun, String> {
    let out = work.join("scale.json");
    let cpu0 = stats::children_cpu_s();
    let started = Instant::now();
    let status = Command::new(smoothop)
        .args([
            "scale",
            "--instances",
            &SCALE_ROWS.to_string(),
            "--threads",
            "1",
        ])
        .args(["--workload", "diurnal", "--quantiles", "exact", "--out"])
        .arg(&out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run smoothop scale: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = match (cpu0, stats::children_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    if !status.success() {
        return Err(format!("smoothop scale exited with {status}"));
    }
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let got = rung_checksum(&read(&out)?, SCALE_ROWS);
    let want = rung_checksum(&read(&root.join("BENCH_scale.json"))?, SCALE_ROWS);
    let check = match (got, want) {
        (Some(g), Some(w)) if g == w => Ok(()),
        (g, w) => Err(format!("scale checksum {g:?} differs from committed {w:?}")),
    };
    Ok(ScaleRun {
        wall_s,
        cpu_s,
        check,
    })
}

/// The `checksum` field of the point with `"instances": rows` in a
/// `BENCH_scale.json` document, verbatim.
fn rung_checksum(doc: &str, rows: usize) -> Option<String> {
    let point = doc
        .split("\"instances\": ")
        .find(|p| p.starts_with(&format!("{rows},")))?;
    let rest = point.split("\"checksum\": ").nth(1)?;
    Some(rest.split(['\n', ',']).next()?.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_rung_checksum() {
        let doc = "{\n \"points\": [\n {\n \"instances\": 10,\n \"checksum\": 1.5\n },\n {\n \"instances\": 1000000,\n \"checksum\": 676.25\n }\n ]\n}\n";
        assert_eq!(rung_checksum(doc, 1_000_000).as_deref(), Some("676.25"));
        assert_eq!(rung_checksum(doc, 10).as_deref(), Some("1.5"));
        assert_eq!(rung_checksum(doc, 7), None);
    }

    #[test]
    fn every_per_layer_name_is_unique() {
        let names: std::collections::BTreeSet<String> =
            per_layer().into_iter().map(|(n, ..)| n).collect();
        assert_eq!(names.len(), per_layer().len());
    }
}
