#!/usr/bin/env python3
"""Short smoke run of the benchmark.

    python3 perfbench/smoke.py [--seconds S] [--seed N]

For every workload in BENCHMARK.json it runs perfbench/run.py twice with
--trace 0 and twice with --trace 1, all on one seed, and checks that:
  * every run exits 0 and reports correct answers;
  * every end_to_end (trace 0) and per_layer (trace 1) metric is printed,
    with the unit BENCHMARK.json gives it;
  * the two runs of one seed agree on the counts the program makes:
    plan.hit_pct, exec.guard_evals_per_read and
    replication.deliveries_per_step exactly; local_serve_pct and
    fleet.backend_tier_pct to within one clock step's worth of statements.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = ("plan.hit_pct", "exec.guard_evals_per_read",
         "replication.deliveries_per_step")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("FAIL %s trace=%d: exit %d" %
                         (workload, trace, proc.returncode))
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        for key, value in re.findall(r"(\w+)=(\d+)", line):
            info[key] = int(value)
    return result, info


def check_metrics(workload, result, wanted):
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("FAIL %s: incorrect answers" % workload)
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise SystemExit("FAIL %s: metric %s missing or wrong unit" %
                             (workload, metric["name"]))


def one_step_pct(info):
    """One clock step's statements as a share of those a count covers."""
    if not info.get("clock_every"):
        return 0.0
    counted = info.get("share_selects") or info.get("replay_selects") or 1
    return 100.0 * info["clock_every"] / counted


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        e2e = [run(name, args.seed, args.seconds, 0) for _ in range(2)]
        layer = [run(name, args.seed, args.seconds, 1) for _ in range(2)]
        for result, _ in e2e:
            check_metrics(name, result, bench["end_to_end"])
        for result, _ in layer:
            check_metrics(name, result, bench["per_layer"])

        (a, ia), (b, ib) = e2e
        tol = max(one_step_pct(ia), one_step_pct(ib))
        va = a["metrics"]["local_serve_pct"]["value"]
        vb = b["metrics"]["local_serve_pct"]["value"]
        if abs(va - vb) > tol:
            raise SystemExit("FAIL %s: local_serve_pct %.3f vs %.3f (> %.3f)"
                             % (name, va, vb, tol))
        (a, ia), (b, ib) = layer
        for key in EXACT:
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            if va != vb:
                raise SystemExit("FAIL %s: %s %r vs %r" % (name, key, va, vb))
        tol = max(one_step_pct(ia), one_step_pct(ib))
        va = a["metrics"]["fleet.backend_tier_pct"]["value"]
        vb = b["metrics"]["fleet.backend_tier_pct"]["value"]
        if abs(va - vb) > tol:
            raise SystemExit("FAIL %s: fleet.backend_tier_pct %.3f vs %.3f"
                             % (name, va, vb))
        print("ok %s" % name, flush=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
