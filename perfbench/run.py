#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list        # every metric with its unit

The script builds the `smoothop` binary from the repository and the
benchmark package in `perfbench/` (release profile, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs the benchmark.
Build output goes to stderr; the last stdout line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        sys.exit("perfbench: no Cargo.toml at %s; run from a full checkout" % ROOT)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build(target_dir, root_manifest, ["--bin", "smoothop"])
    build(target_dir, os.path.join(HERE, "Cargo.toml"), [])
    release = os.path.join(target_dir, "release")
    args = sys.argv[1:]
    if "--list" not in args:
        args += ["--smoothop", os.path.join(release, "smoothop"),
                 "--work", os.path.join(target_dir, "perfbench"),
                 "--root", ROOT,
                 "--rev", revision()]
    sys.stdout.flush()
    os.execv(os.path.join(release, "perfbench"), ["perfbench"] + args)


if __name__ == "__main__":
    main()
