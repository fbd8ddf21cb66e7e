//! The `smoothop` command line rejects what it would otherwise ignore: an
//! unknown flag, a flag the chosen command does not read, an unknown
//! command, and a `serve --instances` list. Each is a one-line error with
//! exit status 1, reported before any work starts.
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
    let out = temp_out("online_journal_cap.json");
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
    assert_rejected(&["watch", "--instances", "48"], "unknown command `watch`");
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
}

#[test]
fn serve_takes_exactly_one_instance_count() {
    assert_rejected(
        &["serve", "--instances", "30,90", "--ttl-ms", "1"],
        "--instances takes one count",
    );
}
