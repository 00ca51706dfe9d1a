#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ against the library sources
in ../src and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale tiny]

Run it from the repository root. The first run configures and builds a
Release tree under .bench_build/perfbench (later runs rebuild only what
changed); result and spans files go to .bench_out/. Build output goes to
standard error. Standard output ends with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and every
per_layer metric with --trace 1. A per-layer metric of a layer that the
chosen workload never calls reads 0. The line before it carries provenance
(SIMD dispatch, memory layout, CPU model, nproc, build type, source id).

Exit status: 0 when every correctness check passed and no operation failed;
1 when the run completed but failed (the result line is still printed); 2
when the benchmark could not run at all (no sources, build error, bad
arguments), with no result line.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git sha when the tree is a git checkout, else a digest of the
    library and benchmark sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.SubprocessError) as err:
            die(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            die(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return BUILD_DIR / "perfbench"


def complete_metrics(spec, metrics, trace):
    """Checks the binary's metrics against BENCHMARK.json and returns them
    in its order; unreached per-layer metrics read 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(metrics) - names)
    if unknown:
        die(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                die(f"end-to-end metric {m['name']} not reported")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            die(f"{m['name']}: value {got['value']!r} is not a number")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read {spec_path}: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--out-dir", str(OUT_DIR), "--source-id", source_id()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{args.workload} exited {run.returncode} without a result")

    for line in lines[:-1]:
        print(line)
    result["metrics"] = complete_metrics(spec, result["metrics"],
                                         args.trace == 1)
    print(json.dumps(result))
    sys.stdout.flush()
    ok = run.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
