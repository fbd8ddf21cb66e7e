//! The `smoothop` command line rejects what it would otherwise ignore: an
//! unknown flag, a flag the chosen command does not read, an unknown
//! command, a `serve --instances` list, a `scale --quantiles` value
//! other than `exact`, and a `daemon` or `serve` config that would run
//! empty. Each is a one-line error with exit status 1, reported before
//! any work starts.
//!
//! Every invocation below would also run cheaply if it were accepted: a
//! small fleet, an `--out` file under the test target's temporary directory,
//! and a `serve` TTL.

use std::path::PathBuf;
use std::process::Command;

/// A per-test output path, so no invocation can touch the committed
/// `BENCH_*.json` files even if it ran.
fn temp_out(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir.join(name).to_string_lossy().into_owned()
}

/// Runs `smoothop args` and requires a one-line error naming `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_smoothop"))
        .args(args)
        .output()
        .expect("smoothop runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} did work before failing");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn unknown_flags_and_commands_are_rejected() {
    let out = temp_out("scale.json");
    assert_rejected(
        &[
            "scale",
            "--instances",
            "48",
            "--instance",
            "1200",
            "--out",
            &out,
        ],
        "unknown flag `--instance`",
    );
    let out = temp_out("online_unknown_flag.json");
    assert_rejected(
        &[
            "online",
            "--instances",
            "48",
            "--journal-cap",
            "3",
            "--out",
            &out,
        ],
        "unknown flag `--journal-cap`",
    );
    let out = temp_out("scale_chunk_rows.json");
    assert_rejected(
        &[
            "scale",
            "--instances",
            "48",
            "--chunk-rows",
            "12",
            "--out",
            &out,
        ],
        "unknown flag `--chunk-rows`",
    );
    assert_rejected(&["watch", "--instances", "48"], "unknown command `watch`");
}

#[test]
fn scale_quantiles_accepts_only_exact() {
    let out = temp_out("scale_sketch.json");
    assert_rejected(
        &[
            "scale",
            "--instances",
            "48",
            "--quantiles",
            "sketch",
            "--out",
            &out,
        ],
        "--quantiles must be `exact`, got `sketch`",
    );
}

#[test]
fn flags_the_command_does_not_read_are_rejected() {
    let out = temp_out("online_ttl.json");
    assert_rejected(
        &[
            "online",
            "--instances",
            "48",
            "--ttl-ms",
            "5",
            "--out",
            &out,
        ],
        "`online` does not read --ttl-ms",
    );
    assert_rejected(
        &["scenarios", "--plant-violation"],
        "`scenarios` does not read --plant-violation",
    );
    // Only the commands that record spans read --trace-out.
    let out = temp_out("scale_trace_out.json");
    let trace = temp_out("scale_trace_out.jsonl");
    assert_rejected(
        &[
            "scale",
            "--instances",
            "48",
            "--out",
            &out,
            "--trace-out",
            &trace,
        ],
        "`scale` does not read --trace-out",
    );
    assert!(!std::path::Path::new(&trace).exists());
}

#[test]
fn place_trace_out_writes_span_lines() {
    let trace = temp_out("place_trace_out.jsonl");
    let _ = std::fs::remove_file(&trace);
    let output = Command::new(env!("CARGO_BIN_EXE_smoothop"))
        .args(["place", "dc2", "96", "--trace-out", &trace])
        .output()
        .expect("smoothop runs");
    assert!(output.status.success(), "{output:?}");
    let log = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(
        log.lines()
            .any(|line| line.contains("\"kind\":\"span_start\"")),
        "no span line in {log:?}"
    );
}

#[test]
fn daemon_and_serve_reject_configs_that_would_run_empty() {
    let cases: [(&str, &[&str], &str); 3] = [
        (
            "instances",
            &["--instances", "0"],
            "instance counts must be positive",
        ),
        (
            "batches",
            &["--instances", "100", "--batches", "0"],
            "sweeps",
        ),
        (
            "probes",
            &["--instances", "100", "--probes", "0"],
            "sample_probes must be positive",
        ),
    ];
    for (name, flags, needle) in cases {
        let out = temp_out(&format!("daemon_zero_{name}.json"));
        let _ = std::fs::remove_file(&out);
        let mut args = vec!["daemon", "--out", &out];
        args.extend(flags);
        assert_rejected(&args, needle);
        assert!(!std::path::Path::new(&out).exists(), "{args:?} wrote {out}");
    }
    // Rejected before the daemon is built, so no `serving` announce.
    assert_rejected(
        &[
            "serve",
            "--instances",
            "10",
            "--probes",
            "0",
            "--ttl-ms",
            "1",
        ],
        "sample_probes must be positive",
    );
}

#[test]
fn serve_takes_exactly_one_instance_count() {
    assert_rejected(
        &["serve", "--instances", "30,90", "--ttl-ms", "1"],
        "--instances takes one count",
    );
}
