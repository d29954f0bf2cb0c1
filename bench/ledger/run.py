#!/usr/bin/env python3
"""Builds rita_ledger from source and runs it with the given arguments.

Run from the repository root:

    python3 bench/ledger/run.py --workload interactive --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/ledger (default .bench_build/ledger);
after the first run, configure and build are incremental no-ops. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the build fails (for example outside a full source checkout).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "ledger")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "-j", jobs, "--target", "rita_ledger"],
                   stdout=sys.stderr, check=True)
    binary = os.path.join(build, "rita_ledger")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as err:
        print(f"run.py: {err}", file=sys.stderr)
        sys.exit(1)
