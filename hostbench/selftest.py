#!/usr/bin/env python3
"""Self-test of the host-speed benchmark, at smoke size (8x8 frames).

Checks that every metric BENCHMARK.json names is printed with its unit
on every workload, traced and untraced, that the workload-specific
metrics appear where they apply, that traced and untraced runs report
the same outcome digest, and that the correctness gate fails on a
corrupted reference: one flipped film pixel, or one fake oracle
mismatch.

    python3 hostbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Workload-specific metrics: (workload, traced) -> names printed there.
WHERE_DEFINED = {
    ("fig09", False): ["coop_speedup", "paper_err_pct"],
    ("observed", False): ["coop_speedup"],
    ("query-base", True): ["query.oracle_s", "query.rounds",
                           "query.oracle_mismatches"],
    ("fig09", True): ["exec.parallel_eff", "exec.tail_s", "exec.job_p90_s",
                      "exec.steals"],
    ("observed", True): ["prof.overhead", "memscope.overhead",
                         "raytrace.overhead", "trace.overhead",
                         "telemetry.overhead"],
}
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL " + msg, flush=True)


def units_of(entries):
    return {m["name"]: m["unit"] for m in entries}


def check_catalogue():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check([w["name"] for w in bench["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    check(units_of(bench["end_to_end"]) == run.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(units_of(bench["per_layer"]) == run.PER_LAYER,
          "BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_workload(workload, traced):
    what = "%s %s" % (workload, "traced" if traced else "untraced")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace",
         "1" if traced else "0", "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    check(proc.returncode == 0, "%s exited %d" % (what, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        check(False, what + " printed nothing")
        return None
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          what + " result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, what + " not correct")
    names = run.PER_LAYER if traced else run.END_TO_END
    check(sorted(result["metrics"]) == sorted(names),
          what + " JSON metrics differ from the catalogue")
    text = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and not line.startswith("=="):
            text[parts[0]] = parts[2]
    for name, unit in names.items():
        got = result["metrics"].get(name, {})
        check(got.get("unit") == unit, "%s JSON %s unit" % (what, name))
        check(isinstance(got.get("value"), (int, float)),
              "%s JSON %s value" % (what, name))
        check(text.get(name) == unit,
              "%s does not print %s with unit %s" % (what, name, unit))
    for name in WHERE_DEFINED.get((workload, traced), []):
        check(name in text, "%s does not print %s" % (what, name))
    header = lines[0].split()
    if "digest" not in header:
        return None
    return header[header.index("digest") + 1].rstrip(")")


def check_gate(workload, inject, traced):
    what = "%s --inject %s%s" % (workload, inject,
                                 " traced" if traced else "")
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "3", "--seconds",
         "0", "--resolution", str(run.SMOKE_RESOLUTION), "--inject", inject,
         "--trace", "1" if traced else "0", "--out", run.OUT],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    check(proc.returncode == 1, "%s exited %d, want 1" %
          (what, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    check(result.get("failed", 0) >= 1, what + " did not fail the gate")


def main():
    run.build()
    check_catalogue()
    for workload in run.WORKLOADS:
        digests = [check_workload(workload, traced)
                   for traced in (False, True)]
        check(digests[0] is not None and digests[0] == digests[1],
              "%s outcome digest differs traced/untraced: %s" %
              (workload, digests))
    check_gate("observed", "film", False)
    check_gate("fig09", "film", True)
    check_gate("query-base", "oracle", False)
    check_gate("query-base", "oracle", True)
    print("hostbench self-test: %s (%d failures)"
          % ("FAILED" if failures else "passed", len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
