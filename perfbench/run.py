#!/usr/bin/env python3
"""Runs one workload of the ftbfs end-to-end benchmark.

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 20 --trace 0

Builds the benchmark program and the library from source under
.bench_build/perfbench (CMake, RelWithDebInfo), writes the serving snapshot
with the code under test, runs the workload in its own process, and passes
its output through. The last line of standard output is one JSON object
{correct, attempted, failed, metrics}; the exit code is 0 only when every
answer was correct. README.md beside this file explains the workloads and
metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hot_hits", "fresh_faults", "build_cons2")
SERVING = ("hot_hits", "fresh_faults")
# Per child process; the whole run must end within 180 s.
PREPARE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then rebuilds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "tenant.h")):
        die("library sources not found in " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """Returns a list of problems with the result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("unexpected keys %s" % sorted(result))
        return problems
    declared = declared_metrics(trace)
    if declared is not None:
        got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
        if sorted(got) != sorted(declared):
            problems.append("metrics %s differ from BENCHMARK.json %s"
                            % (got, declared))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Host graph size; the self-test shrinks it. The benchmark is n=2000.
    parser.add_argument("--n", type=int, default=2000, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        die("build failed (%s)" % err)

    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        common = ["--seed", str(args.seed), "--n", str(args.n)]
        cmd = [binary, "run", "--workload", args.workload,
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        cmd += common
        if args.workload in SERVING:
            # Written by the code under test on every run: a snapshot is
            # never carried over from another build.
            snapshot = os.path.join(workdir, "tenant.ftb")
            subprocess.run([binary, "prepare", "--snapshot", snapshot] + common,
                           stdout=sys.stderr, check=True,
                           timeout=PREPARE_TIMEOUT_S)
            cmd += ["--snapshot", snapshot]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, args.workload + ".spans.csv")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.CalledProcessError as err:
        die("snapshot preparation failed (%s)" % err, 1)
    except subprocess.TimeoutExpired as err:
        die("timed out: %s" % " ".join(err.cmd), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = proc.stdout.rstrip("\n")
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out + "\n" if out else "")
        die("benchmark process failed (exit %d)" % proc.returncode, 1)
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("; ".join(problems), 1)
    print(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
