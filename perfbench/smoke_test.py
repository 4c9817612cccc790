#!/usr/bin/env python3
"""Smoke test of the perfbench benchmark: short runs of every workload.

Usage (from the root of a checkout):

    python3 perfbench/smoke_test.py [--seconds 2] [--seed 7]

For each workload in BENCHMARK.json it runs perfbench/run.py once with
--trace 0 and twice with --trace 1 (same seed), and checks that:
  * the last stdout line is a result object with correct == true and
    failed == 0 (fail_ratio 0);
  * every end-to-end metric (trace 0) and every per-layer metric
    (trace 1) of BENCHMARK.json is printed, with its unit, and no other;
  * the exact-count metrics are identical across the two traced runs.
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Deterministic for a seed: counted over a fixed sequential op list
# (the census), never over the timed window.
EXACT = (
    "rules.fired_per_program",
    "core.extracted_ratio",
    "core.emitted_sql_bytes_per_program",
    "core.strategy.extracted_sql_share",
    "core.strategy.batching_share",
    "core.strategy.interpreted_share",
    "net.round_trips_per_op",
    "net.rows_per_op",
    "net.bytes_per_op",
    "exec.rows_in_per_op",
    "exec.index.probes_per_op",
)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd),
                                                proc.returncode,
                                                proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["notes"] = [l for l in lines[:-1] if l.startswith("#")]
    return result


def check_metrics(result, expected, label, errors):
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            errors.append("%s: metric %s missing" % (label, m["name"]))
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append("%s: metric %s has unit %s, want %s" %
                          (label, m["name"], got[m["name"]]["unit"],
                           m["unit"]))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        errors.append("%s: unexpected metrics %s" % (label, sorted(extra)))
    if not result["correct"] or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%d of %d\n  %s" %
                      (label, result["correct"], result["failed"],
                       result["attempted"], "\n  ".join(result["notes"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, args.seed, args.seconds, 0)
        check_metrics(plain, spec["end_to_end"], name + " trace 0", errors)
        first = run(name, args.seed, args.seconds, 1)
        second = run(name, args.seed, args.seconds, 1)
        for label, res in (("trace 1 (a)", first), ("trace 1 (b)", second)):
            check_metrics(res, spec["per_layer"], name + " " + label, errors)
        for m in EXACT:
            a = first["metrics"].get(m, {}).get("value")
            b = second["metrics"].get(m, {}).get("value")
            if a != b:
                errors.append("%s: exact metric %s differs: %r vs %r" %
                              (name, m, a, b))
        print("%s: ops %d / %d / %d, failed %d" %
              (name, plain["attempted"], first["attempted"],
               second["attempted"],
               plain["failed"] + first["failed"] + second["failed"]))
    for e in errors:
        print("FAIL " + e)
    print("smoke test %s" % ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
