#!/usr/bin/env python3
"""Calibrates the ledger's end-to-end bounds from repeated runs.

Run from the repository root:

    python3 bench/ledger/calibrate.py                      # 5 runs x seeds 1, 2
    python3 bench/ledger/calibrate.py --write-bounds       # ... and update BENCHMARK.json
    python3 bench/ledger/calibrate.py --runs 1 --seeds 1 2 3 4 5 6 7 8 9 10

Each run is `run.py --workload all` (every workload in its own process, per-
layer phase on). The script prints every metric's median and relative IQR
(interquartile range over median, as statistics.quantiles(n=4) gives it),
derives each end-to-end bound as max(0.05, 3 x the worst workload's relative
IQR) capped at 0.25 (setup_s: 0.25, the largest bound), checks that the
per-seed medians agree within those bounds, and flags per-layer counts that
do not repeat exactly across runs of one seed. Raw results and the host
fingerprint are saved under bench/ledger/runs/.
"""
import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MIN_BOUND, MAX_BOUND, SETUP_BOUND = 0.05, 0.25, 0.25
EXACT_UNITS = ("count", "bytes")


def rel_iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def run_all(seed, seconds, json_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--json", json_path]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"run printed no result: {' '.join(cmd)}")
    # A run that failed a check still reports; it is kept and flagged below.
    for line in lines:
        if line.startswith("# FAILED"):
            print(line, flush=True)
    result = json.loads(lines[-1])
    with open(json_path) as f:
        doc = json.load(f)
    hosts = [w["host"] for w in doc["workloads"].values()]
    return result, hosts[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--write-bounds", action="store_true",
                        help="write the derived end-to-end bounds into BENCHMARK.json")
    parser.add_argument("--label", default=None, help="file name under runs/")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    tmp = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "calibrate.json")
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    runs, host = [], None
    # Seed-interleaved so slow host drift spreads over every seed alike.
    for k in range(args.runs):
        for seed in args.seeds:
            result, host = run_all(seed, seconds, tmp)
            runs.append({"seed": seed, "run": k, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {n: m["value"] for n, m in result["metrics"].items()}})
            print(f"# run {k} seed {seed}: correct={result['correct']}", flush=True)

    problems = []
    if not all(r["correct"] for r in runs):
        problems.append("a run failed its correctness checks")

    def values(name, seed=None):
        return [r["metrics"][name] for r in runs
                if name in r["metrics"] and (seed is None or r["seed"] == seed)]

    bounds = {}
    print(f"\n{'metric':44s} {'median':>12s} {'rel_iqr':>8s} {'bound':>6s}  per-seed medians")
    for metric in e2e:
        derived = []
        for w in workloads:
            name = f"{w}.{metric}"
            v = values(name)
            iqr = rel_iqr(v)
            if metric == "setup_s":
                bound = SETUP_BOUND
            else:
                bound = min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * iqr) / 100))
                if 3 * iqr > MAX_BOUND:
                    problems.append(f"{name}: 3 x relative IQR {3 * iqr:.3f} exceeds the "
                                    f"{MAX_BOUND} cap (demote to per-layer or lengthen the run)")
            derived.append(bound)
            seed_meds = [statistics.median(values(name, s)) for s in args.seeds]
            med = statistics.median(v)
            spread = (max(seed_meds) - min(seed_meds)) / med if med else 0.0
            if args.runs > 1 and spread > bound:
                problems.append(f"{name}: per-seed medians differ by {spread:.3f} > bound {bound}")
            print(f"{name:44s} {med:12.4f} {iqr:8.4f} {bound:6.3f}  "
                  + " ".join(f"{m:.4f}" for m in seed_meds))
        bounds[metric] = max(derived)

    print(f"\n{'per-layer metric':44s} {'median':>12s} {'rel_iqr':>8s}")
    for metric, unit in layer_units.items():
        for w in workloads:
            name = f"{w}.{metric}"
            v = values(name)
            if not v:
                problems.append(f"{name}: missing")
                continue
            flag = ""
            if unit in EXACT_UNITS and any(len(set(values(name, s))) > 1 for s in args.seeds):
                flag = "  (count does not repeat exactly)"
            print(f"{name:44s} {statistics.median(v):12.4f} {rel_iqr(v):8.4f}{flag}")

    label = args.label or "calibration_" + datetime.date.today().isoformat()
    out_path = os.path.join(HERE, "runs", label + ".json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"host": host, "seconds": seconds, "seeds": args.seeds,
                   "runs_per_seed": args.runs, "bounds": bounds, "problems": problems,
                   "runs": runs}, f, indent=1)
    print(f"\nwrote {os.path.relpath(out_path, ROOT)}")
    print("derived bounds: " + json.dumps(bounds))

    if args.write_bounds:
        for m in bench["end_to_end"]:
            m["bound"] = bounds[m["name"]]
        with open(BENCHMARK, "w") as f:
            json.dump(bench, f, indent=2)
            f.write("\n")
        print("updated BENCHMARK.json")

    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
