#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload pair_sweep --seed 42 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits
non-zero, printing no result, if the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Keep freed heap memory in the process instead of returning it to
    # the kernel between rounds: every round then reuses the same pages,
    # and host page-fault cost, which varies widely in a virtual machine,
    # stays out of the timings. Both sides of a comparison run alike.
    run_env = dict(env)
    run_env.update(MALLOC_TRIM_THRESHOLD_="4294967295", MALLOC_MMAP_THRESHOLD_="4294967295", MALLOC_TOP_PAD_="268435456")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(root, target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
