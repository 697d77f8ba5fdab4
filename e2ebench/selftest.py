#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the root of the repository:

    python3 e2ebench/selftest.py

Runs every workload at --tiny size twice with the same seed, untraced and
traced, through e2ebench/run.py (which builds the benchmark first), and checks:

  * the last line of standard output is a JSON object with exactly the keys
    correct, attempted, failed and metrics;
  * every run is correct, with no failed operation;
  * the metrics are exactly the end_to_end (untraced) or per_layer (traced)
    names of BENCHMARK.json, each with its unit;
  * the deterministic metrics repeat exactly between the two runs.

Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics that depend on the inputs only, never on timing or scheduling.
DETERMINISTIC = {
    "solved_fraction", "mean_candidates_solved",
    "harness.corpus_samples", "fitness.train_samples", "fitness.val_accuracy",
    "nn.model_bytes", "fitness.score_calls", "fitness.score_genes",
    "fitness.encode_captures", "fitness.trace_memo_hit_ratio",
    "fitness.trace_memo_misses", "core.generations", "core.ns_invocations",
    "core.found_by_ns", "service.result_cache_hits", "service.tasks_executed",
    "service.checkpoints_written", "service.durable_write_errors",
    "fleet.claims_submitted", "fleet.host_task_imbalance",
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    catalogue = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            what = f"{workload} trace={trace}"
            first, second = run(workload, trace), run(workload, trace)
            for result in (first, second):
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, f"{what}: result keys")
                check(result["correct"] is True and result["failed"] == 0,
                      f"{what}: correct={result['correct']} "
                      f"failed={result['failed']}")
                check(result["attempted"] >= 1, f"{what}: nothing attempted")
                want = {m["name"]: m["unit"] for m in catalogue[trace]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, f"{what}: metric names or units differ")
            for name in DETERMINISTIC & set(first["metrics"]):
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                check(a == b, f"{what}: {name} changed between runs "
                              f"({a} then {b})")
            print(f"ok {what}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
