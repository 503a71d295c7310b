#!/usr/bin/env python3
"""Host-speed benchmark for the cooprt simulator.

Builds the simulator and the benchmark binary from source into .bench_build/ at
the repository root, runs one workload and prints every metric by name,
unit and clock (host = simulator wall time, sim = simulated GPU), then
one JSON result object as the last line of standard output.

    python3 hostbench/run.py --workload fig09 --seed 1 --seconds 25 --trace 0
    python3 hostbench/run.py --workload all      # every workload, then traced

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run. Exit status is 0 only when every
correctness check passed. NOTES.md explains the workloads and metrics.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cooprt_hostbench")
MICRO = os.path.join(BUILD, "micro_kernels")
OUT = os.path.join(BUILD, "out")

WORKLOADS = ["fig09", "query-base", "observed"]
# Set-up runs in fresh processes (the scene and BVH caches are
# process-wide), so each sample pays the full build. A small set-up
# (a few ms on query-base and observed) spreads most from sample to
# sample, so samples are taken until their sum reaches SETUP_BUDGET_S,
# at least SETUP_MIN_SAMPLES and at most SETUP_MAX_SAMPLES of them.
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 15
SETUP_BUDGET_S = 2.0
# The metrics of the JSON result, name -> unit; BENCHMARK.json mirrors
# them. Metrics defined on some workloads only (coop_speedup, query.*,
# exec.*, <observer>.overhead, ...) are printed on the text lines but
# left out of the JSON result, which has one metric set for all.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "host_ns_per_fetch": "ns",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
}
PROF_BUCKETS = ["issue_compute", "fetch_queued", "stack_bound", "lbu_steal",
                "starved_l1", "starved_l2", "starved_dram", "subwarp_drain",
                "warp_buffer_full", "idle_no_ray"]
PER_LAYER = {
    "scene.build_s": "s", "bvh.build_s": "s", "bvh.nodes": "count",
    "bvh.depth": "count",
    "shaders.program_s": "s", "rtunit.self_s": "s",
    "rtunit.self_ns_per_fetch": "ns", "rtunit.tick_ns": "ns",
    "rtunit.next_event_ns": "ns", "rtunit.ticks_per_cycle": "ticks/cycle",
    "mem.fetch_s": "s", "mem.fetch_ns": "ns",
    "rtunit.node_fetches": "count", "rtunit.leaf_fetches": "count",
    "rtunit.box_tests": "count", "rtunit.tri_tests": "count",
    "rtunit.steals": "count", "rtunit.stale_pops": "count",
    "rtunit.issue_cycles": "cycles", "rtunit.retired_warps": "count",
    "rtunit.issue_util": "fraction", "rtunit.threads_per_fetch": "threads",
    "gpu.thread_util": "fraction",
    "mem.l1.accesses": "count", "mem.l1.hit_rate": "fraction",
    "mem.l1.mshr_merges": "count", "mem.l2.accesses": "count",
    "mem.l2.hit_rate": "fraction", "mem.dram.accesses": "count",
    "mem.dram.util": "fraction", "mem.l2_bytes": "bytes",
    "gpu.max_warp_latency": "cycles",
    **{"prof.%s_frac" % b: "fraction" for b in PROF_BUCKETS},
    "gpu.run_s": "s", "gpu.ns_per_cycle": "ns",
    "bench.traced_overhead": "s",
    "mem.micro_access_ns": "ns",
    "rtunit.micro_trace_us.base": "us",
    "rtunit.micro_trace_us.coop": "us",
}

# Google-benchmark name -> (metric, scale from ns).
MICRO_KERNELS = {
    "BM_CacheAccess": ("mem.micro_access_ns", 1.0),
    "BM_RtUnitFullTrace/0": ("rtunit.micro_trace_us.base", 1e-3),
    "BM_RtUnitFullTrace/1": ("rtunit.micro_trace_us.coop", 1e-3),
}
# Host times in the JSON result are scaled to a host that runs the
# binary's fixed reference loop (ref_s, timed after every pass) in
# REF_NOMINAL_S, so that a slow or fast spell of a shared host does
# not read as a change of the program. The times as measured are
# printed too, as <name>_raw lines.
REF_NOMINAL_S = 0.1
SCALED = {"wall_s": "wall_raw_s",
          "host_ns_per_fetch": "host_ns_per_fetch_raw",
          "setup_s": "setup_raw_s"}
SMOKE_RESOLUTION = 8
PR_SET_PDEATHSIG = 1  # linux/prctl.h


def log(msg):
    print("[hostbench] " + msg, file=sys.stderr, flush=True)


def _die_with_parent():
    """In a child: be killed when run.py dies, even by SIGKILL."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def run_child(cmd, **kw):
    """subprocess.run for every child of run.py. The child stays in
    run.py's process group, so a signal to the group reaches it too;
    if run.py is stopped while it runs, subprocess.run kills the child
    and waits for it (see on_signal)."""
    return subprocess.run(cmd, preexec_fn=_die_with_parent, **kw)


def on_signal(signum, frame):
    sys.exit(128 + signum)


def cache_dir(cache):
    """The build directory a CMakeCache.txt was written in, or None."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CACHEFILE_DIR:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    return None


def build():
    """Configure once, then build the benchmark binary and the
    micro-kernels. A build tree that fails to build (left half-built,
    say) is removed and the build is made once more from scratch."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources at %s/src; run from a full checkout"
            % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    # A build tree copied from another directory still builds into the
    # original one, so it is not reused.
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and cache_dir(cache) != os.path.realpath(BUILD):
        log("%s was configured in another directory; building afresh"
            % BUILD)
        shutil.rmtree(BUILD)

    def configure_and_build():
        if not os.path.isfile(cache):
            run_child(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      check=True, stdout=sys.stderr)
        run_child(["cmake", "--build", BUILD, "-j", jobs, "--target",
                   "cooprt_hostbench", "micro_kernels"],
                  check=True, stdout=sys.stderr)

    try:
        configure_and_build()
    except subprocess.CalledProcessError:
        log("build failed; building again in a clean %s" % BUILD)
        shutil.rmtree(BUILD, ignore_errors=True)
        configure_and_build()


def run_binary(args):
    """Run the benchmark binary; returns (exit code, parsed result or None)."""
    proc = run_child([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode not in (0, 1) or result is None:
        log("cooprt_hostbench %s exited %d" % (" ".join(args), proc.returncode))
        sys.exit(proc.returncode or 1)
    return proc.returncode, result


def micro_kernels(smoke):
    """The google-benchmark micro-kernels as per-layer metrics."""
    proc = run_child(
        [MICRO, "--benchmark_filter=^(BM_CacheAccess|BM_RtUnitFullTrace/.*)$",
         "--benchmark_format=json",
         "--benchmark_min_time=%s" % ("0.01" if smoke else "0.5")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    out = {}
    for b in json.loads(proc.stdout)["benchmarks"]:
        if b["name"] in MICRO_KERNELS:
            name, scale = MICRO_KERNELS[b["name"]]
            assert b["time_unit"] == "ns", b["time_unit"]
            out[name] = {"value": b["real_time"] * scale,
                         "unit": PER_LAYER[name], "clock": "host",
                         "samples": []}
    return out


def tail_note(samples):
    """Sample count plus the highest percentile with >= 10 samples
    beyond it."""
    n = len(samples)
    if n <= 1:
        return "n=%d" % n
    s = sorted(samples)
    note = "n=%d" % n
    for p in (99.9, 99, 95, 90, 75, 50):
        v = s[max(0, math.ceil(p / 100.0 * n) - 1)]
        beyond = sum(1 for x in s if x > v)
        if beyond >= 10:
            return note + ", p%g=%.6g (%d beyond)" % (p, v, beyond)
    return note + ", no percentile with >=10 samples beyond"


def print_metrics(workload, seed, digest, metrics):
    print("== %s (seed %d, outcome digest %s) ==" % (workload, seed, digest))
    for name, m in metrics.items():
        line = "%-30s %16.6g %-12s %-4s" % (name, m["value"], m["unit"],
                                            m["clock"])
        if m.get("samples"):
            line += "  " + tail_note(m["samples"])
        if name == "coop_speedup" and workload == "fig09":
            line += "  (paper: 2.15x)"
        print(line)


def scale_host_times(metrics, setup_ref):
    """Scale each sample of the SCALED metrics by the reference time
    measured right after it, in the same process: after each pass, or
    after each set-up. The times as measured stay in the SCALED
    names."""
    refs = {"wall_s": metrics["ref_s"]["samples"],
            "host_ns_per_fetch": metrics["ref_s"]["samples"],
            "setup_s": setup_ref}
    for name, raw in SCALED.items():
        m = metrics[name]
        metrics[raw] = dict(m)
        scaled = [x * REF_NOMINAL_S / r
                  for x, r in zip(m["samples"], refs[name])]
        m.update(value=statistics.median(scaled), samples=scaled)


def measure(workload, seed, seconds, traced, smoke):
    """One workload, untraced or traced: (correct, attempted, failed,
    outcome digest, metrics by name)."""
    common = ["--workload", workload, "--seed", str(seed), "--out", OUT]
    if smoke:
        common += ["--resolution", str(SMOKE_RESOLUTION)]
    if traced:
        rc, res = run_binary(common + ["--trace", "1"])
        metrics = {m["name"]: m for m in res["metrics"]}
        metrics.update(micro_kernels(smoke))
    else:
        setup, setup_ref = [], []
        while len(setup) < SETUP_MAX_SAMPLES and (
                len(setup) < SETUP_MIN_SAMPLES
                or sum(setup) < SETUP_BUDGET_S):
            _, r = run_binary(common + ["--setup-only"])
            m = {x["name"]: x["value"] for x in r["metrics"]}
            setup.append(m["setup_s"])
            setup_ref.append(m["ref_s"])
        rc, res = run_binary(common + ["--seconds", str(seconds),
                                       "--trace", "0"])
        metrics = {m["name"]: m for m in res["metrics"]}
        metrics["setup_s"].update(value=statistics.median(setup),
                                  samples=setup)
        scale_host_times(metrics, setup_ref)
    for f in res["failures"]:
        log("correctness check failed: " + f)
    correct = rc == 0 and res["failed"] == 0
    return correct, res["attempted"], res["failed"], res["digest"], metrics


def result_json(correct, attempted, failed, metrics, names):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": u}
                    for n, u in names.items()}})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny frames, for the self-test")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    build()

    if args.workload != "all":
        names = PER_LAYER if args.trace else END_TO_END
        correct, attempted, failed, digest, metrics = measure(
            args.workload, args.seed, args.seconds, args.trace, args.smoke)
        missing = [n for n in names if n not in metrics]
        if missing:
            log("cooprt_hostbench did not report " + ", ".join(missing))
            sys.exit(1)
        print_metrics(args.workload, args.seed, digest, metrics)
        print(result_json(correct, attempted, failed, metrics, names))
        sys.exit(0 if correct else 1)

    # Every workload untraced, then one traced run of each.
    ok, total_attempted, total_failed = True, 0, 0
    for traced in (False, True):
        for w in WORKLOADS:
            correct, attempted, failed, digest, metrics = measure(
                w, args.seed, args.seconds, traced, args.smoke)
            print_metrics(w + (" traced" if traced else ""), args.seed,
                          digest, metrics)
            ok &= correct
            total_attempted += attempted
            total_failed += failed
    print(json.dumps({"correct": ok, "attempted": total_attempted,
                      "failed": total_failed, "metrics": {}}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
