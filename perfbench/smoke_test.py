#!/usr/bin/env python3
"""Smoke test for the repository benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny sizes, untraced and traced,
under two seeds. Every run must pass all its correctness checks with no
failed operation and print exactly the metric names BENCHMARK.json lists
(end_to_end untraced, per_layer traced); both seeds must give the same
metric set; a traced run must write its spans file. Every per-layer metric
must be nonzero on at least one workload. Finally, a directory holding only
BENCHMARK.json and perfbench/ must make the benchmark exit nonzero without
printing a result. Exits 0 when all of this holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def run(cwd, workload, seed, trace):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    errors = []
    nonzero = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            names_by_seed = []
            for seed in SEEDS:
                label = f"{workload} trace={trace} seed={seed}"
                done = run(ROOT, workload, seed, trace)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    errors.append(f"{label}: exit {done.returncode}\n"
                                  f"{done.stderr[-2000:]}")
                    continue
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    errors.append(f"{label}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0 or \
                        result["attempted"] < 1:
                    errors.append(f"{label}: correct={result['correct']} "
                                  f"failed={result['failed']} "
                                  f"attempted={result['attempted']}")
                names = list(result["metrics"])
                if names != expected[trace]:
                    errors.append(f"{label}: metric names differ from "
                                  f"BENCHMARK.json: {names}")
                names_by_seed.append(names)
                for name, metric in result["metrics"].items():
                    if metric["value"] != 0:
                        nonzero.add((trace, name))
                if trace == 0 and any(metric["value"] == 0 for metric in
                                      result["metrics"].values()):
                    errors.append(f"{label}: an end-to-end metric reads 0")
                if trace == 1:
                    spans = (ROOT / ".bench_out" /
                             f"{workload}_seed{seed}_trace1_spans.csv")
                    if not spans.is_file() or spans.stat().st_size == 0:
                        errors.append(f"{label}: no spans file {spans}")
                    if result["metrics"]["trace.overhead_ratio"]["value"] <= 0:
                        errors.append(f"{label}: no trace.overhead_ratio")
            if len(names_by_seed) == 2 and names_by_seed[0] != names_by_seed[1]:
                errors.append(f"{workload} trace={trace}: seeds give "
                              "different metric sets")
    for name in expected[1]:
        if (1, name) not in nonzero:
            errors.append(f"per-layer metric {name} is 0 on every workload")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 1, 0)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("without library sources the benchmark exited "
                      f"{done.returncode} and printed {done.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print("FAIL:", error)
    print("smoke test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
