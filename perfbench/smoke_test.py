#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
at --size tiny with tracing off and on, and checks the result line's
schema, that every run is correct, and that its simulated statistics
match the fingerprints recorded for the development seed (1) and the
held-out seed (2). It also reproduces the C25 configuration (4 cores x
4096 requests per core, seed 42) and checks that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark fail cleanly.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
C25 = {"core_cycles": 45724394, "demand_accesses": 329545, "slices": 146465}

failures = []


def expect(ok, msg):
    if not ok:
        failures.append(msg)
        print("FAIL: " + msg, flush=True)


def check_benchmark_json(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json keys")
    expect(1 <= len(bench["paths"]) <= 16, "paths count")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(bench["workloads"]) <= 8, "workload count")
    expect(1 <= len(bench["end_to_end"]) <= 16, "end_to_end count")
    expect(1 <= len(bench["per_layer"]) <= 128, "per_layer count")
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"]] + \
        [m["name"] for m in bench["per_layer"]]
    for n in names:
        expect(NAME.match(n) is not None, "bad name %r" % n)
    expect(len(set(names)) == len(names), "names are not unique")
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               "workload %s" % w["name"])
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
               and m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25, "metric %s" % m["name"])
    expect(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"]), "setup_s metric")
    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
               and m["better"] in ("higher", "lower"), "metric %s" % m["name"])
    expect(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json size")


def run(bench, workload, seed, trace, size="tiny", cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                              "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(bench, r, label, metrics):
    expect(r.returncode == 0, "%s: exit code %d: %s" % (label, r.returncode, r.stderr[-500:]))
    if r.returncode != 0:
        return
    res = json.loads(r.stdout.splitlines()[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "%s: result keys" % label)
    expect(res["correct"] is True and res["failed"] == 0, "%s: not correct: %s" % (label, r.stderr[-500:]))
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1, "%s: attempted" % label)
    expect("no fingerprint recorded" not in r.stderr, "%s: no recorded fingerprint" % label)
    want = {m["name"]: m["unit"] for m in metrics}
    got = res["metrics"]
    expect(set(got) == set(want), "%s: metric names differ: %s" % (label, sorted(set(got) ^ set(want))))
    for name, v in got.items():
        expect(v.get("unit") == want.get(name), "%s: unit of %s" % (label, name))
        expect(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"]),
               "%s: value of %s" % (label, name))
    if metrics is bench["end_to_end"]:
        for name, v in got.items():
            expect(v["value"] > 0, "%s: end-to-end metric %s is 0" % (label, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_benchmark_json(bench)
    for w in bench["workloads"]:
        for seed in (1, 2):
            for trace in (0, 1):
                label = "%s seed %d trace %d" % (w["name"], seed, trace)
                print(label, flush=True)
                metrics = bench["per_layer"] if trace else bench["end_to_end"]
                check_result(bench, run(bench, w["name"], seed, trace), label, metrics)

    print("smp-kv at the C25 configuration", flush=True)
    check_result(bench, run(bench, "smp-kv", 42, 0, size="c25"), "c25", bench["end_to_end"])
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        recorded = json.load(f).get("smp-kv", {}).get("c25", {}).get("42", {})
    for k, v in C25.items():
        expect(recorded.get(k) == v, "c25 fingerprint %s: recorded %s, C25 reports %d" % (k, recorded.get(k), v))

    print("benchmark alone, without the sources", flush=True)
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = run(bench, "smp-kv", 1, 0, cwd=bare)
    expect(r.returncode != 0 and r.stdout.strip() == "", "bare directory: expected a clean failure")
    shutil.rmtree(bare)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
