#!/usr/bin/env python3
"""NetSyn end-to-end benchmark.

Run from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cold_start, search_nn, serve, fleet (see e2ebench/README.md).
The script builds the benchmark (CMake, Release) into .bench_build/e2ebench,
trains the models search_nn loads when the build has none yet, runs the
workload and relays its output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics for --trace 1. Build and
training logs go to standard error. Any failure to build or run exits non-zero
without printing a result.

--tiny shrinks every workload to a fraction of a second (the self-test uses
it); it is not a measurement.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "e2ebench")  # relative to ROOT
WORKLOADS = ("cold_start", "search_nn", "serve", "fleet")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd from ROOT with its output on stderr; True on exit code 0."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    return proc.returncode == 0


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "registry.hpp")):
        log("NetSyn sources (src/) not found next to e2ebench/")
        return None
    build_dir = os.path.join(ROOT, BUILD)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], timeout=300):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      timeout=850):
        return None
    binary = os.path.join(build_dir, "netsyn_e2e")
    return binary if os.path.isfile(binary) else None


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def prepare_models(binary):
    """Trains search_nn's models once per build of the binary."""
    model_dir = os.path.join(BUILD, "models")
    stamp = os.path.join(ROOT, model_dir, "READY")
    digest = file_digest(binary)
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return model_dir
    shutil.rmtree(os.path.join(ROOT, model_dir), ignore_errors=True)
    log("training the search_nn models for this build")
    if not run_logged([binary, "--prepare", f"--model-dir={model_dir}"],
                      timeout=600):
        return None
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return model_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    model_dir = prepare_models(binary)
    if model_dir is None:
        log("model training failed")
        return 1

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--model-dir={model_dir}",
           f"--work-dir={os.path.join(BUILD, 'work-' + args.workload)}"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        log("no result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
