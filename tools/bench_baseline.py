#!/usr/bin/env python3
"""Bench-regression baselines for the figure suite.

Runs the performance-critical bench binaries (fig09 speedup, fig12
bandwidth) in --csv --json-out mode, normalizes their ndjson output
into one baseline document, and either writes it (--json-out, the
committed BENCH_PR<N>.json files) or compares the fresh run against a
committed baseline with per-metric tolerances (--compare).

Every tracked metric is simulated and deterministic; host speed is
measured by ``hostbench/`` (wall time, ns per fetch, peak RSS and
per-observer overhead), not here.

Regression sentinel: a scalar gate can only say *that* fig09
regressed; with the differential attribution engine (src/diff/,
DESIGN.md §18) it can also say *where the cycles went*. When a
tracked figure metric regresses, the gate re-runs the scene's
(baseline, CoopRT) pair with the profiler and memscope attached,
diffs the pair through ``diff_cli``, and appends the engine's
attribution summary to the regression line, e.g.::

    REGRESSION fig09/wknd/speedup: baseline 1.86 -> 1.74 (-6.45%)
      attribution: cycles +6.1%: starved_l2 +4.1% (depth 3-5), ...

The simulator is deterministic, so on an unmodified tree a comparison
matches the baseline exactly; the 5% tolerance only gives headroom to
intentional model changes, which must re-pin the baseline explicitly:

    # capture (from the repo root, after building the bench targets)
    python3 tools/bench_baseline.py --build-dir build --json-out BENCH_PR3.json

    # gate (CI): exit 1 on any >5% regression in a tracked metric
    python3 tools/bench_baseline.py --build-dir build --compare BENCH_PR3.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

# The tracked suite: binary, short name, and the metrics gated per
# scene row. "higher_is_better" decides the regression direction;
# non-tracked columns are carried in the baseline for context only.
SUITE = [
    {
        "name": "fig09",
        "binary": os.path.join("bench", "fig09_speedup_pt"),
        "banner_prefix": "Fig. 9",
        "metrics": {
            "speedup": {"higher_is_better": True, "tolerance": 0.05},
        },
    },
    {
        "name": "fig12",
        "binary": os.path.join("bench", "fig12_bandwidth"),
        "banner_prefix": "Fig. 12",
        "metrics": {
            "L2 bw": {"higher_is_better": True, "tolerance": 0.05},
            "DRAM bw": {"higher_is_better": True, "tolerance": 0.05},
        },
    },
]


def run_bench(build_dir: str, spec: dict, scenes: str | None,
              jobs: int | None) -> tuple[dict, float]:
    """Run one bench binary; return ({scene: {column: value}}, wall)."""
    binary = os.path.join(build_dir, spec["binary"])
    if not os.path.exists(binary):
        sys.exit(f"error: {binary} not built "
                 f"(cmake --build {build_dir} --target "
                 f"{os.path.basename(spec['binary'])})")
    with tempfile.NamedTemporaryFile(mode="r", suffix=".ndjson") as tmp:
        cmd = [binary, "--csv", "--json-out", tmp.name]
        if scenes:
            cmd += ["--scenes", scenes]
        if jobs:
            cmd += ["--jobs", str(jobs)]
        start = time.monotonic()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        wall_seconds = time.monotonic() - start
        lines = [json.loads(l) for l in tmp.read().splitlines() if l]
    for doc in lines:
        if doc["bench"].startswith(spec["banner_prefix"]):
            table = doc["table"]
            break
    else:
        sys.exit(f"error: {binary} emitted no table for "
                 f"{spec['banner_prefix']!r}")
    headers = table["headers"]
    rows = {}
    for row in table["rows"]:
        label = row[0]
        rows[label] = {
            headers[i]: row[i]
            for i in range(1, len(headers))
            if i < len(row) and isinstance(row[i], (int, float))
        }
    return rows, wall_seconds


def collect(build_dir: str, scenes: str | None,
            jobs: int | None) -> dict:
    benches = {}
    for spec in SUITE:
        print(f"[bench_baseline] running {spec['name']} ...",
              file=sys.stderr)
        rows, wall_seconds = run_bench(build_dir, spec, scenes, jobs)
        benches[spec["name"]] = {
            "metrics": spec["metrics"],
            "rows": rows,
            # Host wall clock of the campaign, for context only: it
            # sits outside "rows" so compare() never gates on it (the
            # simulated cycle counts are jobs-invariant; wall clock is
            # not).
            "wall_seconds": round(wall_seconds, 3),
        }
    return {"suite_version": 1, "benches": benches}


#: Benches whose rows are per-scene (baseline, CoopRT) comparisons
#: that the diff engine can attribute.
ATTRIBUTABLE = {"fig09", "fig12"}


def attribute_regression(build_dir: str, scene: str,
                         cache: dict) -> str | None:
    """One attribution line for a regressed scene: re-run its
    (baseline, CoopRT) pair with prof + memscope attached and pull
    the diff engine's summary out of the diff document."""
    if scene in cache:
        return cache[scene]
    simulate = os.path.join(build_dir, "examples", "simulate_cli")
    diff_cli = os.path.join(build_dir, "examples", "diff_cli")
    if not (os.path.exists(simulate) and os.path.exists(diff_cli)):
        cache[scene] = None
        return None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for tag, extra in (("base", []), ("coop", ["--coop"])):
                path = os.path.join(tmp, f"{tag}.json")
                with open(path, "w") as f:
                    subprocess.run(
                        [simulate, "--scene", scene, "--profile",
                         "--memscope", "--json", *extra],
                        check=True, stdout=f,
                        stderr=subprocess.DEVNULL)
                paths.append(path)
            out = subprocess.run(
                [diff_cli, "--json", "-", *paths],
                check=True, capture_output=True, text=True)
            doc = json.loads(out.stdout.splitlines()[0])
            cache[scene] = doc.get("attribution") or None
    except (subprocess.CalledProcessError, json.JSONDecodeError,
            IndexError):
        cache[scene] = None
    return cache[scene]


def compare(baseline: dict, current: dict,
            build_dir: str | None = None) -> int:
    """Print a report; return the number of tolerance regressions."""
    regressions = 0
    attribution_cache: dict = {}
    for name, base_bench in baseline["benches"].items():
        cur_bench = current["benches"].get(name)
        if cur_bench is None:
            print(f"REGRESSION {name}: bench missing from current run")
            regressions += 1
            continue
        for scene, base_row in base_bench["rows"].items():
            cur_row = cur_bench["rows"].get(scene)
            if cur_row is None:
                print(f"REGRESSION {name}/{scene}: scene missing")
                regressions += 1
                continue
            for metric, policy in base_bench["metrics"].items():
                if metric not in base_row:
                    continue
                base_v, cur_v = base_row[metric], cur_row.get(metric)
                if cur_v is None:
                    print(f"REGRESSION {name}/{scene}/{metric}: "
                          f"metric missing")
                    regressions += 1
                    continue
                if base_v == 0:
                    continue
                delta = (cur_v - base_v) / base_v
                worse = -delta if policy["higher_is_better"] else delta
                status = "ok"
                if worse > policy["tolerance"]:
                    status = "REGRESSION"
                    regressions += 1
                if status != "ok" or abs(delta) > 1e-12:
                    print(f"{status} {name}/{scene}/{metric}: "
                          f"baseline {base_v} -> {cur_v} "
                          f"({100 * delta:+.2f}%)")
                if (status == "REGRESSION" and build_dir
                        and name in ATTRIBUTABLE):
                    attribution = attribute_regression(
                        build_dir, scene, attribution_cache)
                    if attribution:
                        print(f"  attribution: {attribution}")
    return regressions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory with the bench "
                         "binaries (default: build)")
    ap.add_argument("--scenes", default=None,
                    help="comma-separated scene subset passed through "
                         "to the bench binaries")
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker threads passed through to the bench "
                         "binaries (campaign engine); simulated "
                         "results are identical for any value")
    ap.add_argument("--json-out", default=None,
                    help="write the collected baseline to this file")
    ap.add_argument("--compare", default=None, metavar="BASELINE",
                    help="compare a fresh run against this baseline; "
                         "exit 1 on any tracked-metric regression")
    args = ap.parse_args()
    if not args.json_out and not args.compare:
        ap.error("need --json-out (capture) or --compare (gate)")

    current = collect(args.build_dir, args.scenes, args.jobs)

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"[bench_baseline] wrote {args.json_out}",
              file=sys.stderr)

    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
        regressions = compare(baseline, current, args.build_dir)
        if regressions:
            print(f"[bench_baseline] {regressions} regression(s) vs "
                  f"{args.compare}", file=sys.stderr)
            return 1
        print(f"[bench_baseline] no regressions vs {args.compare}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
