#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/self_test.py

Runs every workload untraced and traced on a 200-vertex graph for one second
each through run.py, and checks that:
  * the run exits 0 and its last line is the result object with exactly the
    keys correct, attempted, failed and metrics, with correct = true;
  * every metric BENCHMARK.json declares for the mode (end_to_end untraced,
    per_layer traced) is printed, as a `metric` line and in the result, with
    its unit, and nothing else is;
  * fail_ratio is 0: no wrong, refused or missing answer;
  * the end-to-end metrics are positive;
  * on hot_hits every probe hits the cache and the engine answers nothing;
    on build_cons2 the serving layers are idle; on the serving workloads the
    construction layer is idle.
Exits 1 on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--n", "200", "--seconds", "1", "--seed", "3"]
SERVING_LAYERS = ("net.", "protocol.", "service.", "cache.", "engine.",
                  "persist.", "client.", "trace.")


def check(condition, what):
    if not condition:
        print("self-test FAILED: " + what)
        sys.exit(1)


def run(workload, trace):
    cmd = RUN + ["--workload", workload, "--trace", str(trace)] + TINY
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    label = "%s trace=%d" % (workload, trace)
    check(proc.returncode == 0, "%s exited %d" % (label, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    check(lines, label + " printed nothing")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + " result keys " + str(sorted(result)))
    check(result["correct"] is True, label + " not correct")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          label + " attempted/failed %s/%s" % (result["attempted"],
                                               result["failed"]))
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] in ("metric", "diagnostic"):
            printed[fields[1]] = (float(fields[2]), fields[3])
    check(printed.get("fail_ratio") == (0.0, "ratio"),
          label + " fail_ratio " + str(printed.get("fail_ratio")))
    return label, result["metrics"], printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label, metrics, printed = run(workload, trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            check(sorted(metrics) == sorted(m["name"] for m in declared),
                  label + " metric names " + str(sorted(metrics)))
            for m in declared:
                name, unit = m["name"], m["unit"]
                got = metrics[name]
                check(got["unit"] == unit,
                      "%s %s unit %s" % (label, name, got["unit"]))
                check(isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      "%s %s value %r" % (label, name, got["value"]))
                check(printed.get(name) == (float(got["value"]), unit),
                      "%s %s printed as %s" % (label, name, printed.get(name)))
                if not trace:
                    check(got["value"] > 0, "%s %s is not positive" % (label,
                                                                      name))
            if trace:
                check_traced(label, workload, metrics)
            print("ok  " + label)
    print("self-test passed")


def check_traced(label, workload, metrics):
    value = {name: metrics[name]["value"] for name in metrics}
    if workload == "hot_hits":
        check(value["cache.hit_ratio"] >= 0.99,
              label + " cache.hit_ratio %r" % value["cache.hit_ratio"])
        engine = (value["engine.fast_path"] + value["engine.repair_bfs"]
                  + value["engine.full_bfs"])
        check(engine < 0.01, label + " engine answers per request %r" % engine)
    if workload == "build_cons2":
        busy = [n for n in value
                if n.startswith(SERVING_LAYERS) and value[n] != 0]
        check(not busy, label + " serving layers busy: " + str(busy))
        check(value["core.build_s"] > 0, label + " core.build_s is 0")
    else:
        busy = [n for n in value if n.startswith("core.") and value[n] != 0]
        check(not busy, label + " construction layer busy: " + str(busy))


if __name__ == "__main__":
    main()
