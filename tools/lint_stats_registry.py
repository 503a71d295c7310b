#!/usr/bin/env python3
"""Cross-check stats counters against trace::Registry registrations.

Every ``std::uint64_t`` counter in the simulator's stats structs is
supposed to be observable through the ``cooprt::trace`` registry (the
PR-1 observability layer), so metric CSVs and Chrome traces never
silently lag behind a newly added counter. This lint parses the stats
struct definitions and the corresponding ``registerMetrics`` /
``attachTrace`` registration code and fails when a counter exists but
is never registered.

``RtUnitStats`` is not parsed here: its fields and their probes come
from one table (``COOPRT_RTUNIT_STATS`` in src/rtunit/rt_unit.hpp),
checked by a ``static_assert`` and the ``RtUnitStatsTable`` gtests.

Run from the repository root (CI registers it as a ctest case):

    python3 tools/lint_stats_registry.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import lintlib

tool = lintlib.Tool("lint_stats_registry")
REPO = lintlib.REPO

FIELD_RE = re.compile(
    r"^\s*std::uint64_t\s+(\w+)\s*=\s*0\s*;", re.MULTILINE)


def struct_fields(header: Path, struct: str) -> list[str]:
    """The uint64 counter fields of ``struct`` in ``header``."""
    text = header.read_text()
    m = re.search(rf"struct\s+{struct}\b.*?^\}};", text,
                  re.MULTILINE | re.DOTALL)
    if m is None:
        tool.fail(f"struct {struct} not found in {header}")
    return FIELD_RE.findall(m.group(0))


def registered_fields(source: Path, pattern: str) -> set[str]:
    """Field names captured by ``pattern`` across ``source``."""
    return set(re.findall(pattern, source.read_text()))


def check(struct: str, header: str, source: str,
          pattern: str) -> list[str]:
    fields = struct_fields(REPO / header, struct)
    registered = registered_fields(REPO / source, pattern)
    return [f"{header}: {struct}.{field} is never registered in "
            f"{source}"
            for field in fields if field not in registered]


def prof_bucket_problems() -> list[str]:
    """Cross-check the prof stall taxonomy across its three homes.

    The Bucket enum (prof.hpp), the kBucketNames table (prof.cpp) and
    the DESIGN.md taxonomy section must agree; every name must be
    snake_case and unique; prof.cpp must still publish them as
    ``prof.*`` registry probes (cooprt_lint's registry-authority rule
    keeps ``prof.*`` registrations out of every other file).
    """
    problems: list[str] = []
    hpp = (REPO / "src/prof/prof.hpp").read_text()
    cpp = (REPO / "src/prof/prof.cpp").read_text()

    m = re.search(r"enum\s+class\s+Bucket\s*:\s*int\s*\{(.*?)\};",
                  hpp, re.DOTALL)
    if m is None:
        return ["src/prof/prof.hpp: Bucket enum not found"]
    enum_members = re.findall(r"^\s*(\w+)\s*(?:=\s*\d+)?\s*,",
                              m.group(1), re.MULTILINE)

    m = re.search(r"kBucketNames\s*=\s*\{(.*?)\};", cpp, re.DOTALL)
    if m is None:
        return ["src/prof/prof.cpp: kBucketNames table not found"]
    names = re.findall(r'"([^"]+)"', m.group(1))

    if len(enum_members) != len(names):
        problems.append(
            f"prof taxonomy size mismatch: {len(enum_members)} enum "
            f"members vs {len(names)} kBucketNames entries")
    if len(set(names)) != len(names):
        problems.append("duplicate names in kBucketNames")
    for member, name in zip(enum_members, names):
        if not re.fullmatch(r"[a-z][a-z0-9_]*", name):
            problems.append(f"bucket name {name!r} is not snake_case")
        # The table is order-indexed by the enum: the snake_case name
        # must be the member name itself (IssueCompute/issue_compute).
        if member.lower() != name.replace("_", ""):
            problems.append(
                f"kBucketNames[{names.index(name)}] = {name!r} does "
                f"not match enum member {member} — table order "
                f"drifted from the enum")

    design = (REPO / "DESIGN.md").read_text()
    for name in names:
        if f"`{name}`" not in design:
            problems.append(
                f"bucket `{name}` is missing from the DESIGN.md "
                f"stall-taxonomy table")

    if "prof.sm" not in cpp or "prof.gpu." not in cpp:
        problems.append(
            "src/prof/prof.cpp no longer registers prof.sm<i>.* and "
            "prof.gpu.* probes")
    return problems


def required_probe_problems() -> list[str]:
    """The probes each observer surface must keep registering, and
    the DESIGN.md rows of memscope's computed names. (Single
    registration authority and a DESIGN.md entry per literal name are
    cooprt_lint's registry-authority rule.)"""
    problems: list[str] = []
    # Conservation-critical memscope families (per-SM, GPU,
    # interconnect, DRAM, reuse); the names are computed, so match
    # the family prefix in the source text.
    cpp = (REPO / "src/memscope/memscope.cpp").read_text()
    for family in ("memscope.sm", "memscope.gpu.", "memscope.mem.",
                   "memscope.dram.", "memscope.l1.", "memscope.l2."):
        if family not in cpp:
            problems.append(
                f"src/memscope/memscope.cpp no longer registers "
                f"{family}* probes")
    design = (REPO / "DESIGN.md").read_text()
    for pattern in ("`memscope.sm<i>.node_accesses`",
                    "`memscope.sm<i>.node_bytes`",
                    "`memscope.gpu.level_<lvl>`"):
        if pattern not in design:
            problems.append(
                f"probe pattern {pattern} is missing from the "
                f"DESIGN.md memscope probe table")

    # Telemetry: per-run deterministic progress and campaign host
    # gauges. Query: the three run-progress probes of
    # ResultStore::registerMetrics.
    for src, required in (
            ("src/telemetry/telemetry.cpp",
             ("telemetry.sim_cycle", "telemetry.retired_warps",
              "telemetry.ewma_job_seconds", "telemetry.eta_seconds")),
            ("src/query/query.cpp",
             ("query.queries", "query.rounds", "query.found"))):
        text = (REPO / src).read_text()
        for name in required:
            if not re.search(rf'probe\(\s*"{re.escape(name)}"', text):
                problems.append(
                    f"{src} no longer registers the {name} probe")
    return problems


def main() -> int:
    problems: list[str] = []

    # Cache counters -> <prefix>.* probes in Cache::registerMetrics.
    problems += check(
        "CacheStats", "src/mem/cache.hpp", "src/mem/cache.cpp",
        r'add\("(\w+)",\s*&s->\w+\)')

    # DRAM counters -> mem.dram.* probes.
    problems += check(
        "DramStats", "src/mem/dram.hpp", "src/mem/memory_system.cpp",
        r'registry\.probe\("mem\.dram\.(\w+)"')

    # Memory-system aggregates -> mem.l2.* probes (field l2_bytes is
    # registered as mem.l2.bytes, so strip the l2_ prefix).
    fields = struct_fields(REPO / "src/mem/memory_system.hpp",
                           "MemSystemStats")
    registered = registered_fields(
        REPO / "src/mem/memory_system.cpp",
        r'registry\.probe\("mem\.l2\.(\w+)"')
    for field in fields:
        if field.removeprefix("l2_") not in registered:
            problems.append(
                f"src/mem/memory_system.hpp: MemSystemStats.{field} "
                f"is never registered as a mem.l2.* probe")

    # Ray-provenance recorder counters -> ray.* probes in
    # Recorder::registerMetrics.
    problems += check(
        "RecorderStats", "src/raytrace/raytrace.hpp",
        "src/raytrace/raytrace.cpp",
        r'reg\.probe\("ray\.(\w+)"')

    # Stall-taxonomy cross-check (enum <-> name table <-> DESIGN.md
    # <-> prof.* registry probes).
    problems += prof_bucket_problems()

    # Required probes of the memscope, telemetry and query surfaces.
    problems += required_probe_problems()

    return tool.report(problems, ok="all stats counters are "
                                    "registry-observable")


if __name__ == "__main__":
    sys.exit(main())
