#!/usr/bin/env python3
"""Exit-code contract for the repository's command-line tools.

Every user-facing binary must reject bad input the same way: a
diagnostic on *stderr* and a non-zero exit status (2, the
conventional usage-error code), never a silent success or a crash.
Successful informational paths (``--list-configs``) must exit 0.

Registered as a ctest case; the binary paths arrive on argv:

    test_cli_exit_codes.py SIMULATE_CLI CAMPAIGN_CLI BENCH_BIN DIFF_CLI \
        WARP_TIMELINE
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import tempfile


def run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=120)


FAILURES: list[str] = []


def expect(argv: list[str], code: int, on_stderr: str = "") -> None:
    p = run(argv)
    label = " ".join(argv[1:]) or "(no args)"
    if p.returncode != code:
        FAILURES.append(
            f"{argv[0]} {label}: exit {p.returncode}, want {code}\n"
            f"    stderr: {p.stderr.strip()[:200]}")
        return
    if code != 0 and not p.stderr.strip():
        FAILURES.append(
            f"{argv[0]} {label}: failed silently (empty stderr)")
    if on_stderr and on_stderr not in p.stderr:
        FAILURES.append(
            f"{argv[0]} {label}: stderr {p.stderr.strip()[:200]!r} "
            f"does not mention {on_stderr!r}")


def short_writes(simulate: str, campaign: str, bench: str,
                 diff_cli: str) -> None:
    tiny = ["--resolution", "16"]
    with tempfile.TemporaryDirectory() as tmp:
        os.symlink("/dev/full", os.path.join(tmp, "wknd.report.json"))
        expect([simulate, "--scene", "wknd", *tiny, "--profile",
                "--out", tmp], 1, "wknd.report.json")
        os.symlink("/dev/full",
                   os.path.join(tmp, "wknd_base.report.json"))
        expect([campaign, "--scenes", "wknd", "--configs", "base",
                *tiny, "--out", tmp], 1, "wknd_base.report.json")
        with open("/dev/full", "w") as full:
            p = subprocess.run([simulate, "--scene", "wknd", *tiny,
                                "--json"], stdout=full,
                               stderr=subprocess.PIPE, text=True,
                               timeout=120)
        if p.returncode != 1 or "stdout" not in p.stderr:
            FAILURES.append(
                f"{simulate} --json > /dev/full: exit {p.returncode}, "
                f"want 1 naming stdout\n    stderr: "
                f"{p.stderr.strip()[:200]}")
        expect([campaign, "--scenes", "wknd", "--configs", "base",
                *tiny, "--json-out", "/dev/full"], 1, "/dev/full")
        base = os.path.join(tmp, "base")
        p = run([campaign, "--scenes", "wknd", "--configs", "base",
                 *tiny, "--out", base])
        if p.returncode != 0:
            FAILURES.append(f"{campaign} --out {base}: exit "
                            f"{p.returncode}")
        expect([campaign, "--scenes", "wknd", "--configs", "base",
                *tiny, "--diff-baseline", base, "--diff-out",
                "/dev/full"], 1, "/dev/full")
        expect([campaign, "--scenes", "wknd", "--configs", "base",
                *tiny, "--telemetry-log", "/dev/full"], 1, "/dev/full")
        report = os.path.join(base, "wknd_base.report.json")
        expect([diff_cli, "--json", "/dev/full", report, report], 1,
               "/dev/full")
        # Text reports and summary tables on a full stdout.
        for argv in ([diff_cli, report, report],
                     [campaign, "--scenes", "wknd", "--configs", "base",
                      *tiny]):
            with open("/dev/full", "w") as full:
                p = subprocess.run(argv, stdout=full,
                                   stderr=subprocess.PIPE, text=True,
                                   timeout=120)
            if p.returncode != 1 or "stdout" not in p.stderr:
                FAILURES.append(
                    f"{' '.join(argv)} > /dev/full: exit "
                    f"{p.returncode}, want 1 naming stdout\n"
                    f"    stderr: {p.stderr.strip()[:200]}")
        expect([bench, "--scenes", "wknd", "--json-out", "/dev/full"],
               1, "/dev/full")


def main(argv: list[str]) -> int:
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    simulate, campaign, bench, diff_cli, warp_timeline = argv[1:]

    # simulate_cli: every malformed invocation is a usage error.
    expect([simulate, "--no-such-flag"], 2, "unknown flag")
    expect([simulate, "--scene", "not-a-scene"], 2, "unknown scene")
    expect([simulate, "--shader", "bogus"], 2, "unknown shader")
    expect([simulate, "--ray-sample-k", "0"], 2, "--ray-sample-k")
    expect([simulate, "--telemetry-out"], 2, "--telemetry-out")
    expect([simulate, "--heartbeat-s"], 2, "--heartbeat-s")
    expect([simulate, "--heartbeat-s", "0"], 2, "--heartbeat-s")
    expect([simulate, "--heartbeat-s", "-1"], 2, "--heartbeat-s")

    # Malformed numbers: the whole token must parse and lie in range
    # (std::from_chars in the shared flag table), never a silent
    # atoi fallback to a default or a wrapped unsigned.
    small = ["--scene", "wknd", "--resolution", "8"]
    for flag, value in (("--resolution", "abc"), ("--resolution", "-5"),
                        ("--bounces", "-1"), ("--subwarp", "8x"),
                        ("--trace-capacity", "-3")):
        expect([simulate, *small, flag, value], 2, flag)

    # Run identity: the default resolution and the same resolution
    # given explicitly are one run, so they carry one fingerprint.
    keys = []
    for extra in ([], ["--resolution", "48"]):
        p = run([simulate, "--scene", "wknd", "--json", *extra])
        if p.returncode != 0:
            FAILURES.append(f"{simulate} --scene wknd --json {extra}: "
                            f"exit {p.returncode}")
            break
        keys.append(json.loads(p.stdout)["run_key"]["fingerprint"])
    else:
        if keys[0] != keys[1]:
            FAILURES.append(
                f"{simulate} wknd: default-resolution fingerprint "
                f"{keys[0]} != --resolution 48 fingerprint {keys[1]}")

    # campaign_cli: flag errors exit 2; --list-configs is a success.
    expect([campaign, "--no-such-flag"], 2)
    expect([campaign, "--configs", "no-such-config"], 2)
    expect([campaign, "--jobs"], 2)
    expect([campaign, "--ray-sample-k", "0"], 2)
    expect([campaign, "--telemetry-log"], 2, "--telemetry-log")
    expect([campaign, "--heartbeat-s", "0"], 2, "--heartbeat-s")
    expect([campaign, "--heartbeat-s", "-0.5"], 2, "--heartbeat-s")
    expect([campaign, "--list-configs"], 0)
    tiny = ["--scenes", "wknd", "--configs", "base", "--resolution", "8"]
    for flag, value in (("--jobs", "abc"), ("--jobs", "-2"),
                        ("--retries", "-1"), ("--timeout-s", "abc"),
                        ("--resolution", "abc")):
        expect([campaign, *tiny, flag, value], 2, flag)
    # A matrix pair that cannot run is rejected before any job starts
    # (no "[campaign] <tag>" progress line), not as a failed job.
    p = run([campaign, *tiny, "--shader", "knn"])
    if p.returncode != 2 or "shader" not in p.stderr or \
            "[campaign] wknd/base" in p.stderr:
        FAILURES.append(
            f"{campaign} --scenes wknd --shader knn: exit "
            f"{p.returncode}, want 2 before any job\n"
            f"    stderr: {p.stderr.strip()[:200]}")

    # `--json-out -` contract: stdout is *pure* JSON lines (human
    # output goes to stderr), so piping into jq etc. always works.
    p = run([campaign, "--scenes", "wknd", "--configs", "base",
             "--resolution", "16", "--json-out", "-"])
    if p.returncode != 0:
        FAILURES.append(f"{campaign} --json-out -: exit "
                        f"{p.returncode}\n    stderr: "
                        f"{p.stderr.strip()[:200]}")
    else:
        lines = p.stdout.splitlines()
        if not lines:
            FAILURES.append(f"{campaign} --json-out -: empty stdout")
        for i, line in enumerate(lines, 1):
            try:
                json.loads(line)
            except json.JSONDecodeError:
                FAILURES.append(
                    f"{campaign} --json-out -: stdout line {i} is "
                    f"not JSON: {line[:120]!r}")
                break

    # bench binaries share bench_util's strict parser.
    expect([bench, "--no-such-flag"], 2, "unknown flag")
    expect([bench, "--scenes"], 2, "needs a value")
    expect([bench, "--scenes", "not-a-scene"], 2, "unknown scene")
    expect([bench, "--scenes", "wknd", "--jobs", "-2"], 2, "--jobs")
    # fig09's own --config flag rides on the shared table.
    p = run([bench, "--config", "--scenes", "wknd"])
    if p.returncode != 0 or "DRAM:" not in p.stdout:
        FAILURES.append(
            f"{bench} --config --scenes wknd: exit {p.returncode}, "
            f"stdout {p.stdout.strip()[:120]!r}")

    # --version is a success path everywhere it exists.
    for binary in (simulate, campaign, diff_cli):
        p = run([binary, "--version"])
        if p.returncode != 0 or "revision" not in p.stdout:
            FAILURES.append(
                f"{binary} --version: exit {p.returncode}, "
                f"stdout {p.stdout.strip()[:120]!r}")

    # diff_cli: the exit-2 contract separates "not comparable" from
    # "regressed" for scripted gates (DESIGN.md section 18).
    expect([diff_cli], 2)
    expect([diff_cli, "--no-such-flag", "a", "b"], 2, "unknown flag")
    expect([diff_cli, "/does/not/exist.json",
            "/does/not/exist2.json"], 2, "no such input")
    with tempfile.TemporaryDirectory() as tmp:
        # Two reports from different scenes: parseable, stamped,
        # but with mismatched run keys -> exit 2.
        reports = {}
        for scene in ("wknd", "fox"):
            p = run([simulate, "--scene", scene,
                     "--resolution", "16", "--json"])
            if p.returncode != 0:
                FAILURES.append(
                    f"{simulate} --scene {scene} --json: exit "
                    f"{p.returncode}")
                break
            path = os.path.join(tmp, f"{scene}.json")
            with open(path, "w") as f:
                f.write(p.stdout)
            reports[scene] = path
        else:
            expect([diff_cli, reports["wknd"], reports["fox"]], 2,
                   "mismatch")
            # Matching keys diff cleanly (identity pair, exit 0).
            expect([diff_cli, reports["wknd"], reports["wknd"]], 0)
            # A file cannot be diffed against a directory.
            expect([diff_cli, reports["wknd"], tmp], 2)
        # Empty/missing baseline directories are usage errors.
        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        other = os.path.join(tmp, "other")
        os.mkdir(other)
        expect([diff_cli, empty, other], 2, "no *.json")

        # campaign_cli --diff-baseline contract: needs --diff-out,
        # and the baseline must be an existing directory.
        expect([campaign, "--diff-baseline", empty], 2, "--diff-out")
        expect([campaign, "--diff-baseline",
                os.path.join(tmp, "missing"), "--diff-out",
                os.path.join(tmp, "d.ndjson")], 2,
               "not a directory")

        # --prom-out publishes by rename, so a path that exists and
        # is not a regular file is refused before anything runs and
        # left as it was.
        fifo = os.path.join(tmp, "prom.fifo")
        os.mkfifo(fifo)
        for target in (fifo, empty):
            expect([campaign, *tiny, "--prom-out", target], 2,
                   "--prom-out")
        if not stat.S_ISFIFO(os.stat(fifo).st_mode) or \
                not os.path.isdir(empty):
            FAILURES.append(f"{campaign} --prom-out replaced a "
                            f"non-regular file")

    # A sink that cannot be written in full is a failure naming the
    # file, never a silent success: a report file that is a symlink
    # to /dev/full (ENOSPC on every write), and stdout, --json-out,
    # --diff-out, --telemetry-log or diff_cli --json pointing there.
    if os.path.exists("/dev/full"):
        short_writes(simulate, campaign, bench, diff_cli)

    # warp_timeline: an unknown scene is a usage error; a skip SM 0
    # never reaches is a failure naming
    # the skip, not two empty timelines; a reachable one draws both.
    expect([warp_timeline, "no-such-scene"], 2, "no-such-scene")
    expect([warp_timeline, "wknd", "80", "100000"], 1, "100000")
    p = run([warp_timeline, "wknd", "80", "7"])
    spans = [l for l in p.stdout.splitlines() if "span" in l]
    if p.returncode != 0 or len(spans) != 2:
        FAILURES.append(
            f"{warp_timeline} wknd 80 7: exit {p.returncode}, "
            f"{len(spans)} span lines, want exit 0 and 2")

    if FAILURES:
        print("test_cli_exit_codes: FAIL")
        for f in FAILURES:
            print("  -", f)
        return 1
    print("test_cli_exit_codes: OK (diagnostics on stderr, "
          "non-zero exits on bad input)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
