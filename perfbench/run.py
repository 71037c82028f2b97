#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Cargo's output goes to standard error;
the benchmark's standard output (ending in one JSON line) passes through
unchanged, and so does its exit code.  The build lands in $CARGO_TARGET_DIR
(default `.bench_build` at the checkout root); traces and scratch stores in
`perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--out-dir", os.path.join(HERE, "out")], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
