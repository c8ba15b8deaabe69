#!/usr/bin/env python3
"""Builds the piprov benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload vet_wire --seed 1 --seconds 20 --trace 0

The binary is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: .bench_build).  The binary's arguments are
passed through; its last line of output is the result.

The run is pinned to one fixed CPU, the highest-numbered one it may use,
which keeps every client to server hand-off on one core.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    binary = os.path.join(target, "release", "piprov-perfbench")
    work = os.path.join(HERE, ".work")
    code = subprocess.run([binary, *sys.argv[1:], "--work-dir", work]).returncode
    try:
        os.rmdir(work)
    except OSError:
        pass  # another run is still using it, or it was never made
    return code


if __name__ == "__main__":
    sys.exit(main())
