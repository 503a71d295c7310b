#!/usr/bin/env python3
"""Validate observer sinks: one schema-and-conservation check per
file suffix, plus the laws that span the sinks of one run.

``core::ObserverSet`` writes every sink of a run as
``<DIR>/<stem><suffix>`` (stem = scene label for simulate_cli, the
sanitized job tag such as ``wknd_coop`` for campaign_cli). ``SINKS``
below holds the same ten suffixes; a file is checked by its longest
matching suffix, so ``x.memscope.folded`` is never read as a prof
``.folded``. JSON-lines files (``.jsonl``/``.ndjson``, and a
``.json`` file given by name that no sink suffix matches) hold one
kind of line each, told apart by shape:

  - ``events`` (``"ev"``): a telemetry event log, checked as a whole
    for conservation (DESIGN.md §16);
  - ``diffs`` (``"other_key"``): diff documents, checked for the
    delta laws (DESIGN.md §18);
  - ``campaign`` (``"tag"``): campaign lines, whose outcomes must be
    ok, schema-valid reports (query runs: oracle-clean, §17);
  - ``reports`` (``"run_key"``): ``simulate_cli --json`` reports.

``--lines KIND`` demands that kind of every JSON-lines file given;
``--lines queries`` demands campaign lines whose outcomes all carry a
query block.

Laws spanning one stem's sinks: every sink names the same scene; the
prof folded stacks sum to the bucket total; the memscope folded
heatmap sums to the node fetches; ``raystats.csv`` holds one row per
sampled ray; the metrics CSV carries ``memscope.*`` and
``telemetry.*`` columns when those observers ran; the trace carries
the ``rays ...``/``... lane ...`` tracks when the ray recorder ran.

Usage (exit 0 ok, 1 a check failed, 2 usage)::

    python3 tools/validate_sinks.py [--lines KIND] PATH...  # files, DIRs
    python3 tools/validate_sinks.py --identical A B
    python3 tools/validate_sinks.py --run SIMULATE_CLI DIFF_CLI [SMOKE...]

Every file in a directory must carry a known sink suffix, so a new
sink cannot go unvalidated. ``--identical`` compares the
deterministic projection of two sinks or event logs: every ``"host"``
object stripped, per-job event lines sorted (CI uses it to prove
``--jobs 1`` and ``--jobs 4`` agree). ``--run`` produces its own
inputs through the given binaries and validates them; each named
smoke (default: all of ``SMOKES``) is the ctest case
``validate_<smoke>``.
"""

from __future__ import annotations

import csv
import functools
import json
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import lintlib

tool = lintlib.Tool("validate_sinks")
fail = tool.fail
counter = tool.expect_counter
#: Sinks are read once, by their own check and by check_stem.
load_json = functools.cache(tool.load_json)

LEVELS = ("l1", "l2", "dram")
PHASES = ("ramp", "traverse", "drain")
TELEMETRY_PHASES = ("scene_load", "bvh_build", "warmup", "sim_loop",
                    "report")
BUILD_FIELDS = {"revision": str, "dirty": bool, "compiler": str,
                "build_type": str, "check": bool}
EVENTS = ("campaign_begin", "job_start", "job_retry", "job_timeout",
          "job_finish", "campaign_end")
QUERY_WORKLOADS = ("knn", "radius", "contain")
CHECKSUM_RE = re.compile(r"^0x[0-9a-f]{1,16}$")
SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: The one prof bucket outside the resident-cycle conservation sum.
NON_RESIDENT_BUCKET = "warp_buffer_full"
#: Relative tolerance for derived gauges recomputed from their inputs.
REL_TOL = 1e-6


# ---------------------------------------------------------------- helpers

def expect_number(obj: dict, key: str, where: str) -> float:
    """``obj[key]`` as a finite non-negative number, or fail."""
    if key not in obj:
        fail(f"{where}: missing field {key!r}")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        fail(f"{where}: {key} = {v!r} is not a number")
    if not 0.0 <= v < float("inf"):
        fail(f"{where}: {key} = {v!r} is not finite and non-negative")
    return float(v)


def expect(obj: dict, key: str, kind: type, where: str):
    """``obj[key]`` of type ``kind``, or fail."""
    v = obj.get(key)
    if not isinstance(v, kind):
        fail(f"{where}: {key!r} is not a {kind.__name__}")
    return v


def level_sum(obj: dict, where: str, value=counter) -> int:
    return sum(value(obj, lvl, where) for lvl in LEVELS)


def check_build(build, where: str) -> None:
    if not isinstance(build, dict):
        fail(f"{where}: 'build' is not an object")
    for key, kind in BUILD_FIELDS.items():
        if not isinstance(build.get(key), kind):
            fail(f"{where}.build: {key} = {build.get(key)!r} is not "
                 f"a {kind.__name__}")
    if build["revision"] == "":
        fail(f"{where}.build: empty revision")


def expect_delta(obj: dict, key: str, where: str) -> dict:
    """``obj[key]`` as a {base, other, delta} triple of exact ints
    with ``delta == other - base``."""
    d = expect(obj, key, dict, where)
    for f in ("base", "other", "delta"):
        v = d.get(f)
        if not isinstance(v, int) or isinstance(v, bool):
            fail(f"{where}.{key}: {f} = {v!r} is not an integer")
    if d["delta"] != d["other"] - d["base"]:
        fail(f"{where}.{key}: delta {d['delta']} != other "
             f"{d['other']} - base {d['base']}")
    return d


def delta(obj: dict, key: str, where: str) -> int:
    return expect_delta(obj, key, where)["delta"]


def check_depths(rows: list, where: str, value,
                 nodes: tuple[int, int]) -> None:
    """Memscope depth rows (``value`` = counter) or their diff
    (``value`` = delta): depths strictly increasing, each row's
    serving levels summing to its accesses, and the rows summing to
    the node (accesses, bytes)."""
    sums, last = [0, 0], 0
    for i, row in enumerate(rows):
        rwhere = f"{where}.depths[{i}]"
        depth = counter(row, "depth", rwhere)
        if depth <= last:
            fail(f"{rwhere}: depth {depth} not strictly increasing")
        last = depth
        acc = value(row, "accesses", rwhere)
        if level_sum(row, rwhere, value) != acc:
            fail(f"{rwhere}: serving levels do not sum to accesses {acc}")
        sums[0] += acc
        sums[1] += value(row, "bytes", rwhere)
    if tuple(sums) != nodes:
        fail(f"{where}: depth rows hold {sums[0]} accesses / {sums[1]} "
             f"bytes, not the node {nodes[0]} / {nodes[1]}")


@functools.cache
def read_folded(path: Path, frames: int) -> list[tuple[list[str], int]]:
    """``a;b;c count`` lines as (frames, count) pairs."""
    rows = []
    for i, line in enumerate(path.read_text().splitlines(), 1):
        stack, _, count = line.rpartition(" ")
        parts = stack.split(";")
        if len(parts) != frames or not count.isdigit():
            fail(f"{path}:{i}: {line!r} is not {frames} frames and "
                 f"a count")
        rows.append((parts, int(count)))
    if not rows:
        fail(f"{path}: empty folded file")
    if len({parts[0] for parts, _ in rows}) != 1:
        fail(f"{path}: folded lines name more than one scene")
    return rows


@functools.cache
def read_csv(path: Path) -> list[list[str]]:
    """Data rows (header first), ``#`` comment lines dropped; every
    row as wide as the header."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    if len(rows) < 2:
        fail(f"{path}: no header or no data rows")
    if any(len(r) != len(rows[0]) for r in rows):
        fail(f"{path}: ragged rows")
    return rows


def read_lines(path: Path) -> list[dict]:
    """Every line of a JSON-lines file as an object."""
    docs = []
    for i, line in enumerate(path.read_text().splitlines(), 1):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: not a JSON line: {e}")
        if not isinstance(doc, dict):
            fail(f"{path}:{i}: not a JSON object")
        docs.append(doc)
    if not docs:
        fail(f"{path}: no JSON lines")
    return docs


# ------------------------------------------------------ per-suffix checks
# Each takes the sink's path and returns the scene it names (or None);
# the cross-sink laws of one stem are in check_stem.

def check_query(doc: dict, where: str) -> None:
    """The report's query block: conservation and oracle agreement."""
    resolution = counter(doc, "resolution", where)
    q = doc.get("query")
    if not isinstance(q, dict):
        fail(f"{where}: missing 'query' object (not a query run?)")
    where += ".query"
    if q.get("workload") != doc["run_key"]["shader"]:
        fail(f"{where}: workload {q.get('workload')!r} is not the "
             f"run's shader {doc['run_key']['shader']!r}")
    queries = counter(q, "queries", where)
    rounds = counter(q, "rounds", where)
    found = counter(q, "found", where)
    if queries != resolution * resolution:
        fail(f"{where}: {queries} queries != resolution^2 = "
             f"{resolution * resolution}")
    if rounds < queries:
        fail(f"{where}: {rounds} rounds < {queries} queries (every "
             "query issues at least one round)")
    if found > rounds:
        fail(f"{where}: found {found} exceeds rounds {rounds} (at "
             "most one accept per round)")
    checksum = q.get("checksum")
    if not isinstance(checksum, str) or not CHECKSUM_RE.match(checksum):
        fail(f"{where}: checksum {checksum!r} is not a 64-bit hex "
             "string")
    oracle = q.get("oracle")
    if not isinstance(oracle, dict):
        fail(f"{where}: missing 'oracle' object (run without "
             "--no-oracle to cross-check)")
    checked = counter(oracle, "checked", f"{where}.oracle")
    mismatches = counter(oracle, "mismatches", f"{where}.oracle")
    if checked != queries:
        fail(f"{where}.oracle: checked {checked} != {queries} queries")
    if oracle.get("matches") is not True:
        fail(f"{where}.oracle: 'matches' is {oracle.get('matches')!r}, "
             "expected true")
    if mismatches != 0:
        fail(f"{where}.oracle: {mismatches} of {checked} queries "
             "disagree with the brute-force oracle")


def check_report_doc(doc: dict, where: str) -> str:
    """A run report (``.report.json``, ``--json``, campaign outcome);
    query shaders must carry an oracle-clean query block."""
    tool.expect_stamp(doc, where)
    scene = expect(doc, "scene", str, where)
    counter(doc, "resolution", where)
    counter(doc, "cycles", where)
    check_build(doc.get("build"), where)
    for key in expect(doc, "rt_unit", dict, where):
        counter(doc["rt_unit"], key, f"{where}.rt_unit")
    shader = expect(doc, "run_key", dict, where).get("shader")
    if shader in QUERY_WORKLOADS or "query" in doc:
        check_query(doc, where)
    return scene


def check_report(path: Path) -> str:
    return check_report_doc(load_json(path), str(path))


def check_trace(path: Path) -> None:
    events = expect(load_json(path), "traceEvents", list, str(path))
    if not events:
        fail(f"{path}: trace has no events")
    phases = {e.get("ph") for e in events}
    for ph, what in (("X", "duration"), ("C", "counter")):
        if ph not in phases:
            fail(f"{path}: no {what} events")


def check_metrics(path: Path) -> None:
    with open(path, encoding="utf-8") as f:
        first = f.readline()
    if not first.startswith("# cooprt schema_version="):
        fail(f"{path}: first line {first.strip()!r} is not the "
             "schema comment")
    header = read_csv(path)[0]
    if header[0] != "cycle":
        fail(f"{path}: first column is {header[0]!r}, not 'cycle'")
    if "rtunit.thread_utilization" not in header:
        fail(f"{path}: no rtunit.thread_utilization column")


def check_prof_folded(path: Path) -> str:
    """``scene;sm<i>;rtunit;<bucket> cycles``; the bucket names and
    total are checked against the stem's prof.json in check_stem."""
    rows = read_folded(path, 4)
    for (scene, sm, unit, bucket), _ in rows:
        if (not re.fullmatch(r"sm\d+", sm) or unit != "rtunit"
                or not SNAKE_RE.match(bucket)):
            fail(f"{path}: bad frames {scene};{sm};{unit};{bucket}")
    return rows[0][0][0]


def check_prof(path: Path) -> str:
    doc = load_json(path)
    where = str(path)
    scene = expect(doc, "scene", str, where)
    buckets = expect(doc, "buckets", dict, where)
    for name in buckets:
        counter(buckets, name, f"{where}.buckets")
    resident = sum(v for k, v in buckets.items()
                   if k != NON_RESIDENT_BUCKET)
    if resident != counter(doc, "resident_cycles", where):
        fail(f"{where}: non-{NON_RESIDENT_BUCKET} buckets sum to "
             f"{resident}, not resident_cycles {doc['resident_cycles']}")
    return scene


def check_raystats(path: Path) -> str:
    doc = load_json(path)
    where = str(path)
    tool.expect_stamp(doc, where)
    scene = expect(doc, "scene", str, where)
    for key in ("sample_k", "seed", "warps_seen", "warps_sampled",
                "warps_retired", "rays_sampled", "events_recorded",
                "events_dropped", "steal_events"):
        counter(doc, key, where)
    sample_k = doc["sample_k"]
    if sample_k <= 0:
        fail(f"{where}: sample_k = {sample_k} must be positive")
    warps = expect(doc, "warps", list, where)
    if len(warps) != doc["warps_sampled"]:
        fail(f"{where}: warps_sampled = {doc['warps_sampled']} but the "
             f"warps array holds {len(warps)} records")
    rays_total = 0
    for i, w in enumerate(warps):
        wwhere = f"{where}: warps[{i}]"
        for key in ("sm", "ordinal", "warp_id", "submit", "retire",
                    "sampled_mask"):
            if key not in w:
                fail(f"{wwhere}: missing field {key!r}")
        expect(w, "retired", bool, wwhere)
        rays = expect(w, "rays", list, wwhere)
        if len(rays) > sample_k:
            fail(f"{wwhere}: {len(rays)} rays sampled with "
                 f"sample_k = {sample_k}")
        lanes = set()
        for j, r in enumerate(rays):
            rwhere = f"{wwhere}.rays[{j}]"
            for key in ("lane", "launch", "retire", "node_visits",
                        "node_pops", "stale_pops", "node_pushes",
                        "leaf_tests", "steals_in", "steals_out",
                        "stack_hwm", "events", "events_dropped"):
                counter(r, key, rwhere)
            lane = r["lane"]
            if lane in lanes:
                fail(f"{rwhere}: duplicate lane {lane}")
            lanes.add(lane)
            if not (w["sampled_mask"] >> lane) & 1:
                fail(f"{rwhere}: lane {lane} not in sampled_mask "
                     f"{w['sampled_mask']:#x}")
            levels = r.get("levels")
            if not isinstance(levels, list) or len(levels) != 3:
                fail(f"{rwhere}: 'levels' is not a 3-entry array")
            if sum(levels) != r["node_visits"]:
                fail(f"{rwhere}: node_visits = {r['node_visits']} but "
                     f"levels sum to {sum(levels)}")
            if w["retired"] and r["launch"] > r["retire"]:
                fail(f"{rwhere}: launch {r['launch']} after retire "
                     f"{r['retire']}")
        rays_total += len(rays)
    if rays_total != doc["rays_sampled"]:
        fail(f"{where}: rays_sampled = {doc['rays_sampled']} but "
             f"per-warp records hold {rays_total} rays")
    return scene


def check_raystats_csv(path: Path) -> None:
    rows = read_csv(path)
    if rows[0][:4] != ["sm", "ordinal", "warp_id", "lane"]:
        fail(f"{path}: header {rows[0][:4]} does not start with "
             "sm,ordinal,warp_id,lane")
    if not all(v.isdigit() for r in rows[1:] for v in r):
        fail(f"{path}: a field is not a non-negative integer")


def check_reuse(obj: dict, where: str) -> int:
    cold = counter(obj, "cold", where)
    tracked = counter(obj, "tracked", where)
    hist = obj.get("hist")
    if not isinstance(hist, list) or len(hist) != 32:
        fail(f"{where}: 'hist' is not a 32-entry array")
    if cold + sum(hist) != tracked:
        fail(f"{where}: cold {cold} + histogram {sum(hist)} != "
             f"tracked {tracked}")
    return tracked


def check_memscope(path: Path) -> str:
    doc = load_json(path)
    where = str(path)
    tool.expect_stamp(doc, where)
    scene = expect(doc, "scene", str, where)

    nodes = expect(doc, "nodes", dict, where)
    for key in ("accesses", "bytes", "lanes"):
        counter(nodes, key, f"{where}: nodes")
    total = nodes["accesses"]
    if level_sum(expect(nodes, "levels", dict, where),
                 f"{where}: nodes.levels") != total:
        fail(f"{where}: nodes: serving-level histogram does not sum to "
             f"accesses = {total}")

    depths = expect(doc, "depths", list, where)
    check_depths(depths, where, counter, (total, nodes["bytes"]))
    for i, d in enumerate(depths):
        dwhere = f"{where}.depths[{i}]"
        counter(d, "lanes", dwhere)
        phases = expect(d, "phases", dict, dwhere)
        if sum(counter(phases, p, f"{dwhere}.phases")
               for p in PHASES) != d["accesses"]:
            fail(f"{dwhere}: phase histogram does not sum to "
                 f"accesses = {d['accesses']}")

    prev = None
    for i, h in enumerate(expect(doc, "hot_nodes", list, where)):
        hwhere = f"{where}: hot_nodes[{i}]"
        node = counter(h, "node", hwhere)
        counter(h, "depth", hwhere)
        acc = counter(h, "accesses", hwhere)
        if acc > total:
            fail(f"{hwhere}: {acc} accesses exceeds the node total")
        if level_sum(h, hwhere) != acc:
            fail(f"{hwhere}: level histogram does not sum to "
                 f"accesses = {acc}")
        if prev is not None and (acc, -node) > prev:
            fail(f"{hwhere}: ranking broken: ({acc}, node {node}) "
                 f"after ({prev[0]}, node {-prev[1]})")
        prev = (acc, -node)

    reuse = expect(doc, "reuse", dict, where)
    l1_tracked = check_reuse(reuse.get("l1", {}), f"{where}: reuse.l1")
    check_reuse(reuse.get("l2", {}), f"{where}: reuse.l2")
    counter(reuse, "l2_sets_touched", f"{where}: reuse")
    counter(reuse, "l2_set_max_accesses", f"{where}: reuse")

    mem = expect(doc, "mem", dict, where)
    for key in ("line_l1", "line_l2", "line_dram", "l2_fill_bytes",
                "bank_requests", "bank_conflicts", "bank_wait_cycles"):
        counter(mem, key, f"{where}: mem")
    lines = mem["line_l1"] + mem["line_l2"] + mem["line_dram"]
    if lines != l1_tracked:
        fail(f"{where}: mem: per-level line counts sum to {lines} but "
             f"the L1 reuse stack tracked {l1_tracked} accesses")
    if mem["bank_conflicts"] > mem["bank_requests"]:
        fail(f"{where}: mem: more bank conflicts than bank requests")

    dram = expect(doc, "dram", dict, where)
    for key in ("requests", "bytes", "row_hits", "row_misses"):
        counter(dram, key, f"{where}: dram")
    if dram["row_hits"] + dram["row_misses"] != dram["requests"]:
        fail(f"{where}: dram: row hits {dram['row_hits']} + misses "
             f"{dram['row_misses']} != requests {dram['requests']}")

    unit_acc = unit_bytes = 0
    for i, u in enumerate(expect(doc, "units", list, where)):
        uwhere = f"{where}: units[{i}]"
        counter(u, "sm", uwhere)
        unit_acc += counter(u, "accesses", uwhere)
        unit_bytes += counter(u, "bytes", uwhere)
    if (unit_acc, unit_bytes) != (total, nodes["bytes"]):
        fail(f"{where}: per-unit rows hold {unit_acc} accesses / "
             f"{unit_bytes} bytes but nodes hold {total} / "
             f"{nodes['bytes']}")
    return scene


def check_memscope_folded(path: Path) -> str:
    """``scene;depth<d>;node<n> fetches``; the total is checked
    against the stem's memscope.json in check_stem."""
    rows = read_folded(path, 3)
    for (scene, depth, node), _ in rows:
        if not (re.fullmatch(r"depth\d+", depth)
                and re.fullmatch(r"node\d+", node)):
            fail(f"{path}: bad frames {scene};{depth};{node}")
    if sum(n for _, n in rows) == 0:
        fail(f"{path}: empty folded heatmap")
    return rows[0][0][0]


def check_telemetry(path: Path) -> str:
    """Per-run sink: schema, phase spans and derived throughput."""
    doc = load_json(path)
    where = str(path)
    tool.expect_stamp(doc, where)
    scene = expect(doc, "scene", str, where)
    if doc.get("telemetry_version") != 1:
        fail(f"{where}: telemetry_version != 1")
    check_build(doc.get("build"), where)
    sim = expect(doc, "sim", dict, where)
    cycles = counter(sim, "cycles", f"{where}: sim")
    counter(sim, "retired_warps", f"{where}: sim")

    host = expect(doc, "host", dict, where)
    phases = expect(host, "phases", dict, f"{where}: host")
    if tuple(phases) != TELEMETRY_PHASES:
        fail(f"{where}: host.phases keys {tuple(phases)} != "
             f"{TELEMETRY_PHASES}")
    for name, span in phases.items():
        pwhere = f"{where}: host.phases.{name}"
        if not isinstance(span, dict):
            fail(f"{pwhere}: not an object")
        expect_number(span, "seconds", pwhere)
        counter(span, "count", pwhere)
        if span["count"] == 0 and span["seconds"] != 0:
            fail(f"{pwhere}: nonzero seconds with zero entries")
    hwhere = f"{where}: host"
    sim_seconds = expect_number(host, "sim_seconds", hwhere)
    cps = expect_number(host, "cycles_per_sec", hwhere)
    wps = expect_number(host, "retired_warps_per_sec", hwhere)
    counter(host, "rss_current_kb", hwhere)
    counter(host, "rss_peak_kb", hwhere)
    if host["rss_peak_kb"] < host["rss_current_kb"]:
        fail(f"{hwhere}: rss_peak_kb below rss_current_kb")
    loop = phases["sim_loop"]["seconds"]
    if abs(sim_seconds - loop) > REL_TOL * max(sim_seconds, loop):
        fail(f"{hwhere}: sim_seconds {sim_seconds} != sim_loop span "
             f"{loop}")
    if sim_seconds > 0:
        want = cycles / sim_seconds
        # cycles_per_sec is printed with %g (6 significant digits).
        if abs(cps - want) > max(1.0, REL_TOL * want) * 1e3:
            fail(f"{hwhere}: cycles_per_sec {cps} inconsistent with "
                 f"cycles {cycles} / sim_seconds {sim_seconds}")
    elif cps != 0 or wps != 0:
        fail(f"{hwhere}: nonzero throughput with sim_seconds == 0")
    return scene


#: The sink suffixes core::ObserverSet writes, each with its check.
SINKS = {
    ".report.json": check_report,
    ".trace.json": check_trace,
    ".metrics.csv": check_metrics,
    ".folded": check_prof_folded,
    ".prof.json": check_prof,
    ".raystats.json": check_raystats,
    ".raystats.csv": check_raystats_csv,
    ".memscope.json": check_memscope,
    ".memscope.folded": check_memscope_folded,
    ".telemetry.json": check_telemetry,
}
LINE_SUFFIXES = (".jsonl", ".ndjson")
#: JSON document kinds, each told apart by a key it carries, tried in
#: this order (a diff also carries a run_key, a job event a tag).
DOC_KINDS = {"events": "ev", "diffs": "other_key", "campaign": "tag",
             "reports": "run_key"}
#: ``--lines`` kinds: the document kinds, and campaign lines that must
#: all carry a query block.
LINES_KINDS = (*DOC_KINDS, "queries")


def sink_suffix(name: str) -> str | None:
    """The longest known sink suffix of a file name."""
    hits = [s for s in SINKS if name.endswith(s) and len(name) > len(s)]
    return max(hits, key=len, default=None)


# ------------------------------------------------- cross-sink (per stem)

def check_stem(stem: str, sinks: dict[str, Path],
               scenes: set[str]) -> None:
    """The laws that span the sinks one run wrote under ``stem``."""
    if len(scenes) > 1:
        fail(f"{stem}: sinks name different scenes {sorted(scenes)}")

    if ".folded" in sinks and ".prof.json" in sinks:
        buckets = load_json(sinks[".prof.json"])["buckets"]
        rows = read_folded(sinks[".folded"], 4)
        unknown = {parts[3] for parts, _ in rows} - set(buckets)
        if unknown:
            fail(f"{sinks['.folded']}: buckets {sorted(unknown)} not in "
                 "the prof.json taxonomy")
        total = sum(n for _, n in rows)
        if total != sum(buckets.values()):
            fail(f"{sinks['.folded']}: folded total {total} != prof "
                 f"bucket sum {sum(buckets.values())}")

    if ".memscope.folded" in sinks and ".memscope.json" in sinks:
        total = sum(n for _, n in read_folded(sinks[".memscope.folded"], 3))
        want = load_json(sinks[".memscope.json"])["nodes"]["accesses"]
        if total != want:
            fail(f"{sinks['.memscope.folded']}: folded total {total} != "
                 f"memscope node fetches {want}")

    if ".raystats.csv" in sinks and ".raystats.json" in sinks:
        rays = len(read_csv(sinks[".raystats.csv"])) - 1
        want = load_json(sinks[".raystats.json"])["rays_sampled"]
        if rays != want:
            fail(f"{sinks['.raystats.csv']}: {rays} rows != "
                 f"rays_sampled {want}")

    if ".metrics.csv" in sinks:
        header = read_csv(sinks[".metrics.csv"])[0]
        for sink, column in ((".memscope.json", "memscope.gpu.node_accesses"),
                             (".memscope.json", "memscope.mem.line_l1"),
                             (".telemetry.json", "telemetry.retired_warps")):
            if sink in sinks and column not in header:
                fail(f"{sinks['.metrics.csv']}: no {column} column "
                     f"beside {stem}{sink}")

    if ".trace.json" in sinks and ".raystats.json" in sinks:
        events = load_json(sinks[".trace.json"])["traceEvents"]
        tracks = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        if not any(t.startswith("rays ") for t in tracks) or \
                not any(" lane " in t for t in tracks):
            fail(f"{sinks['.trace.json']}: no 'rays ...' warp and "
                 f"'... lane ...' ray tracks beside {stem}.raystats.json")


# ----------------------------------------------------------- JSON lines

def check_event_log(path: Path, events: list[dict]) -> int:
    """Event-log schema + conservation; returns the job count."""
    for i, ev in enumerate(events, 1):
        if ev.get("ev") not in EVENTS:
            fail(f"{path}:{i}: unknown event {ev.get('ev')!r}")
        if not isinstance(ev.get("host"), dict):
            fail(f"{path}:{i}: missing 'host' object")
    begin, end = events[0], events[-1]
    if begin["ev"] != "campaign_begin" or end["ev"] != "campaign_end":
        fail(f"{path}: log runs {begin['ev']}..{end['ev']}, expected "
             "campaign_begin..campaign_end")
    jobs = counter(begin, "jobs", "campaign_begin")
    check_build(begin.get("build"), "campaign_begin")

    started: set[int] = set()
    finished: dict[int, dict] = {}
    retries = 0
    for i, ev in enumerate(events[1:-1], 2):
        where = f"{path}:{i} ({ev['ev']})"
        if ev["ev"] in ("campaign_begin", "campaign_end"):
            fail(f"{where}: lifecycle event in the middle of the log")
        index = counter(ev, "index", where)
        if index >= jobs:
            fail(f"{where}: index {index} out of range for {jobs} jobs")
        expect(ev, "tag", str, where)
        if ev["ev"] == "job_start":
            counter(ev, "attempt", where)
            started.add(index)
        elif ev["ev"] == "job_retry":
            counter(ev, "next_attempt", where)
            retries += 1
        elif ev["ev"] == "job_timeout":
            expect_number(ev, "budget_s", where)
        elif ev["ev"] == "job_finish":
            expect(ev, "ok", bool, where)
            counter(ev, "attempts", where)
            counter(ev, "cycles", where)
            if index in finished:
                fail(f"{where}: job {index} finished twice")
            finished[index] = ev

    if started != set(range(jobs)):
        fail(f"{path}: job_start covers indices {sorted(started)}, "
             f"expected 0..{jobs - 1}")
    if set(finished) != set(range(jobs)):
        fail(f"{path}: job_finish covers {sorted(finished)}, expected "
             f"0..{jobs - 1}")
    done = counter(end, "done", "campaign_end")
    failed = counter(end, "failed", "campaign_end")
    if done + failed != jobs:
        fail(f"{path}: campaign_end done {done} + failed {failed} != "
             f"jobs {jobs}")
    oks = sum(1 for ev in finished.values() if ev["ok"])
    if oks != done:
        fail(f"{path}: {oks} ok job_finish lines but campaign_end "
             f"done = {done}")
    if counter(end, "retried", "campaign_end") != retries:
        fail(f"{path}: campaign_end retried != {retries} job_retry lines")
    return jobs


def check_key(doc: dict, name: str, where: str) -> dict:
    key = expect(doc, name, dict, where)
    for f in ("scene", "shader", "resolution", "fingerprint"):
        if f not in key:
            fail(f"{where}: {name} is missing field {f!r}")
    if not isinstance(key["scene"], str) or not key["scene"]:
        fail(f"{where}: {name} has an empty scene")
    fp = key["fingerprint"]
    if not isinstance(fp, str) or not fp.startswith("0x") or len(fp) != 18:
        fail(f"{where}: {name}.fingerprint {fp!r} is not a 0x-prefixed "
             "64-bit hex string")
    return key


def check_diff(doc: dict, where: str) -> bool:
    """One diff document's delta laws; returns same_fingerprint."""
    if doc.get("schema_version") != 2:
        fail(f"{where}: schema_version = {doc.get('schema_version')!r}, "
             "want 2")
    base_key = check_key(doc, "run_key", where)
    other_key = check_key(doc, "other_key", where)
    for f in ("scene", "shader", "resolution"):
        if base_key[f] != other_key[f]:
            fail(f"{where}: keys disagree on {f}: {base_key[f]!r} vs "
                 f"{other_key[f]!r} (not comparable)")
    identical = base_key["fingerprint"] == other_key["fingerprint"]
    if doc.get("same_fingerprint") != identical:
        fail(f"{where}: same_fingerprint = {doc.get('same_fingerprint')!r}"
             f" but fingerprints {'match' if identical else 'differ'}")
    if "revision" not in expect(doc, "build", dict, where):
        fail(f"{where}: missing build provenance block")

    cycles = expect_delta(doc, "cycles", where)
    speedup = doc.get("speedup")
    if isinstance(speedup, bool) or not isinstance(speedup, (int, float)):
        fail(f"{where}: 'speedup' is not a number")
    if cycles["other"] > 0:
        want = cycles["base"] / cycles["other"]
        # The document prints 6 significant digits.
        if abs(speedup - want) > 1e-4 * max(1.0, abs(want)):
            fail(f"{where}: speedup {speedup} != base/other cycles {want}")
    if identical and cycles["delta"] != 0:
        fail(f"{where}: identity diff (equal fingerprints) has a "
             f"non-zero cycle delta {cycles['delta']}")
    bw = expect(doc, "bandwidth", dict, where)
    expect_delta(bw, "l2_bytes", f"{where}.bandwidth")
    expect_delta(bw, "dram_bytes", f"{where}.bandwidth")

    if "prof" in doc:
        prof = expect(doc, "prof", dict, where)
        pwhere = f"{where}.prof"
        resident = expect_delta(prof, "resident_cycles", pwhere)
        expect_delta(prof, "rt_stall_cycles", pwhere)
        buckets = prof.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            fail(f"{pwhere}: 'buckets' is not a non-empty array")
        names = set()
        total = 0
        for i, b in enumerate(buckets):
            name = b.get("name")
            if not isinstance(name, str) or not name or name in names:
                fail(f"{pwhere}.buckets[{i}]: missing or duplicate "
                     f"bucket name {name!r}")
            names.add(name)
            if b.get("delta") != b.get("other") - b.get("base"):
                fail(f"{pwhere}.buckets[{i}]: delta is not other - base")
            if name != NON_RESIDENT_BUCKET:
                total += b["delta"]
        # Conservation under subtraction: exact, no epsilon.
        if total != resident["delta"]:
            fail(f"{pwhere}: non-{NON_RESIDENT_BUCKET} bucket deltas "
                 f"sum to {total}, but the resident-cycle delta is "
                 f"{resident['delta']}")

    if "memscope" in doc:
        ms = expect(doc, "memscope", dict, where)
        mwhere = f"{where}.memscope"
        accesses = delta(ms, "node_accesses", mwhere)
        node_bytes = delta(ms, "node_bytes", mwhere)
        level_delta = level_sum(expect(ms, "levels", dict, mwhere),
                                f"{mwhere}.levels", delta)
        if level_delta != accesses:
            fail(f"{mwhere}: serving-level deltas sum to {level_delta}, "
                 f"not the access delta {accesses}")
        check_depths(expect(ms, "depths", list, mwhere), mwhere, delta,
                     (accesses, node_bytes))

    if "attribution" not in doc:
        fail(f"{where}: missing 'attribution' summary")
    return identical


def check_campaign_line(doc: dict, where: str, query: bool) -> None:
    """An ok job whose outcome is a valid report (with a query block
    if ``query``)."""
    if expect(doc, "ok", bool, where) is not True:
        fail(f"{where}: job {doc['tag']!r} did not finish ok")
    outcome = expect(doc, "outcome", dict, where)
    where += f" ({doc['tag']})"
    check_report_doc(outcome, where)
    if query and "query" not in outcome:
        fail(f"{where}: outcome carries no 'query' block")


def check_lines(path: Path, want: str | None) -> str:
    """A JSON-lines file of one kind of line (``want``, if given)."""
    docs = read_lines(path)
    kinds = set()
    for i, doc in enumerate(docs, 1):
        kind = next((k for k, key in DOC_KINDS.items() if key in doc), None)
        if kind is None:
            fail(f"{path}:{i}: line is not one of {', '.join(DOC_KINDS)}")
        kinds.add(kind)
    if len(kinds) != 1:
        fail(f"{path}: mixes {' and '.join(sorted(kinds))}; a JSON-lines "
             "file holds one kind")
    kind = kinds.pop()
    if want not in (None, kind) and (want, kind) != ("queries", "campaign"):
        fail(f"{path}: holds {kind}, expected {want}")
    if kind == "events":
        return f"{len(docs)} events over {check_event_log(path, docs)} jobs"
    for i, doc in enumerate(docs, 1):
        where = f"{path}:{i}"
        if kind == "diffs":
            check_diff(doc, where)
        elif kind == "reports":
            check_report_doc(doc, where)
        else:
            check_campaign_line(doc, where, query=want == "queries")
    return f"{len(docs)} lines of {kind}"


# ---------------------------------------------------------------- drivers

def validate(paths: list[str], want: str | None = None) -> str:
    """Check every file (directories: every file in them, each of
    which must be a known sink), then the laws of each stem. ``want``
    is the kind every JSON-lines file must hold."""
    stems: dict[str, dict[str, Path]] = defaultdict(dict)
    scenes: dict[str, set[str]] = defaultdict(set)
    notes = []
    for arg in paths:
        p = Path(arg)
        if p.is_dir():
            files = sorted(p.iterdir())
            if not files:
                fail(f"{p}: empty directory")
        elif p.is_file():
            files = [p]
        else:
            fail(f"{p}: no such file or directory")
        for f in files:
            suffix = sink_suffix(f.name)
            if suffix is None:
                if p.is_dir() or not f.name.endswith(
                        (*LINE_SUFFIXES, ".json")):
                    fail(f"{f}: not a known sink suffix "
                         f"({', '.join(SINKS)})")
                notes.append(f"{f}: {check_lines(f, want)}")
                continue
            stem = str(f)[:-len(suffix)]
            stems[stem][suffix] = f
            scene = SINKS[suffix](f)
            if scene is not None:
                scenes[stem].add(scene)
    if want is not None and not notes:
        fail(f"--lines {want}: no JSON-lines file given")
    for stem, sinks in sorted(stems.items()):
        check_stem(stem, sinks, scenes[stem])
    if stems:
        sinks = sum(len(s) for s in stems.values())
        notes.insert(0, f"{sinks} sinks over {len(stems)} stems")
    return "; ".join(notes)


def strip_host(obj):
    """Drop every ``"host"`` object, recursively."""
    if isinstance(obj, dict):
        return {k: strip_host(v) for k, v in obj.items() if k != "host"}
    if isinstance(obj, list):
        return [strip_host(v) for v in obj]
    return obj


def projection(path: Path) -> list:
    """The deterministic projection of a sink or event log: lifecycle
    lines keep their order, per-job lines are sorted (workers
    interleave them, but their set is a pure function of the run)."""
    if path.name.endswith(LINE_SUFFIXES):
        docs = [strip_host(d) for d in read_lines(path)]
    else:
        return [strip_host(load_json(path))]
    key = lambda d: json.dumps(d, sort_keys=True)  # noqa: E731
    is_job = lambda d: str(d.get("ev", "")).startswith("job_")  # noqa: E731
    return ([d for d in docs if not is_job(d)]
            + sorted((d for d in docs if is_job(d)), key=key))


def check_identical(a: Path, b: Path) -> str:
    pa, pb = projection(a), projection(b)
    for i, (da, db) in enumerate(zip(pa, pb)):
        if da != db:
            fail(f"deterministic projections differ at entry {i}:\n"
                 f"  {a}: {da}\n  {b}: {db}")
    if len(pa) != len(pb):
        fail(f"deterministic projections differ in length: {a} has "
             f"{len(pa)} entries, {b} has {len(pb)}")
    return f"{a} and {b}: deterministic projections identical"


# ---------------------------------------------------------------- smokes
#
# ``--run`` makes its own inputs through the binaries. Each run writes
# into its own directory and says exactly which sinks it must find
# there, so an observer that writes too much or too little fails.

WKND = ("--scene", "wknd", "--resolution", "32")
PROF_SINKS = (".folded", ".prof.json")
RAY_SINKS = (".raystats.json", ".raystats.csv")
MEM_SINKS = (".memscope.json", ".memscope.folded")

#: ``--run`` smokes by name, each the ctest case validate_<name>: its
#: simulate_cli runs as (out dir, args, stem, sinks beside the report).
SMOKES = {
    # Every observer on: one file per SINKS row, so the table cannot
    # drift from ObserverSet.
    "sinks": [("sinks", (*WKND, "--coop", "--trace", "--metrics",
                         "--profile", "--ray-trace", "--ray-sample-k",
                         "2", "--memscope", "--telemetry"),
               "wknd", tuple(x for x in SINKS if x != ".report.json"))],
    "memscope": [("memscope", (*WKND, "--coop", "--memscope",
                               "--metrics"),
                  "wknd", (".metrics.csv", *MEM_SINKS))],
    "raystats": [("raystats", (*WKND, "--coop", "--ray-trace",
                               "--ray-sample-k", "2", "--trace"),
                  "wknd", (".trace.json", *RAY_SINKS))],
    "telemetry": [("telemetry", (*WKND, "--shader", "pt", "--telemetry",
                                 "--metrics"),
                   "wknd", (".metrics.csv", ".telemetry.json"))],
    # Scene defaulting: knn lands on ptsu, contain on amrs.
    "query": [(shader, ("--shader", shader, "--resolution", "12"),
               scene, ())
              for shader, scene in (("knn", "ptsu"), ("contain", "amrs"))],
    # A (baseline, CoopRT) pair, diffed in run(), and the identity diff.
    "diff": [(out, (*WKND, "--profile", "--memscope", *extra),
              "wknd", (*PROF_SINKS, *MEM_SINKS))
             for out, extra in (("base", ()), ("coop", ("--coop",)))],
}


def call(cmd: list[str]) -> None:
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        fail(f"{' '.join(cmd)} exited {r.returncode}")


def run(simulate_cli: str, diff_cli: str, names: list[str]) -> str:
    """Run the named smokes, then validate everything they wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for out, args, stem, writes in (r for n in names for r in SMOKES[n]):
            paths.append(Path(tmp) / out)
            cmd = [simulate_cli, *args, "--out", str(paths[-1])]
            call(cmd)
            written = sorted(f.name for f in paths[-1].iterdir())
            want = sorted(stem + s for s in (".report.json", *writes))
            if written != want:
                fail(f"{' '.join(cmd)} wrote {written}, not {want}")
        if "diff" in names:
            base, coop = (f"{tmp}/{d}/wknd.report.json"
                          for d in ("base", "coop"))
            for name, other in (("pair", coop), ("identity", base)):
                paths.append(Path(tmp) / f"{name}.ndjson")
                call([diff_cli, "--quiet", "--json", str(paths[-1]), base,
                      other])
            if not json.loads(paths[-1].read_text())["same_fingerprint"]:
                fail("identity diff does not report same_fingerprint")
        return f"{', '.join(names)}: " + validate(list(map(str, paths)))


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[1] == "--run" and \
            set(argv[4:]) <= set(SMOKES):
        return tool.report([], ok=run(argv[2], argv[3],
                                      argv[4:] or list(SMOKES)))
    if len(argv) == 4 and argv[1] == "--identical":
        return tool.report([], ok=check_identical(Path(argv[2]),
                                                  Path(argv[3])))
    args, want = argv[1:], None
    if len(args) >= 2 and args[0] == "--lines" and args[1] in LINES_KINDS:
        args, want = args[2:], args[1]
    if args and not any(a.startswith("-") for a in args):
        return tool.report([], ok=validate(args, want))
    return tool.usage(
        "usage: validate_sinks.py [--lines KIND] PATH...   (sink files, "
        "JSON-lines files or --out DIRs)\n"
        f"         (KIND: {', '.join(LINES_KINDS)})\n"
        "       validate_sinks.py --identical A B\n"
        "       validate_sinks.py --run SIMULATE_CLI DIFF_CLI [SMOKE...]"
        f"\n         (SMOKE: {', '.join(SMOKES)}; default all)")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
