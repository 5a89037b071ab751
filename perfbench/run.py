#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <bulk_hip|bulk_basic|rubis|faults> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). Build
output goes to stderr. The benchmark's own output, ending in one JSON
result line, goes to stdout. The exit code is non-zero, with no result
line, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def cargo():
    found = shutil.which("cargo")
    if found:
        return found
    home = os.path.expanduser("~/.cargo/bin/cargo")
    return home if os.path.exists(home) else "cargo"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env["CARGO_TARGET_DIR"] = target
    build = [cargo(), "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode or 1

    binary = os.path.join(target, "release", "perfbench")
    args = [binary] + sys.argv[1:] + ["--out", os.path.join(HERE, "out")]
    sys.stdout.flush()
    try:
        ran = subprocess.run(args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
