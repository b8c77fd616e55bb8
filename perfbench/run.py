#!/usr/bin/env python3
"""Build and run the stallhide benchmark for one workload.

    python3 perfbench/run.py --workload smp-kv --seed 1 --seconds 10 --trace 0

Run from the root of a stallhide checkout. It builds perfbench/main.exe
from source (release profile, build directory _build_perfbench), runs it,
compares the simulated statistics with the fingerprints recorded in
perfbench/fingerprints.json for this workload, size and seed, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics. With --trace 1 the spans of the traced passes are written to
perfbench/out/<workload>-seed<seed>.trace.json.

--record stores this run's fingerprint instead of checking it.
--size tiny|c25 selects the smoke-test sizes (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_build_perfbench"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ["smp-kv", "cluster-kv", "pgo-single", "fuzz-oracles"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no stallhide sources next to perfbench/ (dune-project, lib/); run from a full checkout")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", "--cache=disabled",
           "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def load_fingerprints():
    if not os.path.isfile(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny", "c25"], default="full")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    correct, failed = res["correct"], res["failed"]
    fp = res["fingerprint"]
    table = load_fingerprints()
    key = (args.workload, args.size, str(args.seed))
    recorded = table.get(key[0], {}).get(key[1], {}).get(key[2])
    if args.record:
        if not correct:
            fail("run not correct; fingerprint not recorded")
        table.setdefault(key[0], {}).setdefault(key[1], {})[key[2]] = fp
        with open(FINGERPRINTS, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
    elif recorded is None:
        print("perfbench: no fingerprint recorded for %s/%s seed %s; "
              "checked only that every pass agrees" % key, file=sys.stderr)
    elif recorded != fp:
        diffs = sorted(k for k in set(recorded) | set(fp) if recorded.get(k) != fp.get(k))
        for k in diffs:
            print("perfbench: fingerprint %s: recorded %s, got %s" % (k, recorded.get(k), fp.get(k)),
                  file=sys.stderr)
        correct = False
        failed += 1
    for msg in res["failures"]:
        print("perfbench: failure: " + msg, file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
