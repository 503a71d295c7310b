"""Shared scaffolding for the repository's Python lint/validation
tools (``lint_stats_registry``, ``validate_sinks`` and
``cooprt_lint``).

Every tool follows the same contract, enforced here once:

  - usage errors print to stderr and exit 2;
  - a failed check prints ``<tool>: FAIL`` (plus the problems) and
    exits 1;
  - success prints one ``<tool>: OK (...)`` summary line and exits 0;
  - JSON inputs are loaded with uniform error reporting;
  - counter fields are validated as non-negative integers the same
    way everywhere.

Usage::

    import lintlib
    tool = lintlib.Tool("validate_foo")
    doc = tool.load_json(path)
    n = tool.expect_counter(doc, "requests", "top level")
    ...
    return tool.report(problems, ok=f"{n} requests validated")
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NoReturn

#: Repository root (tools/ lives directly under it).
REPO = Path(__file__).resolve().parent.parent

#: Conventional exit codes shared by every tool.
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class Tool:
    """One lint/validation tool's reporting surface."""

    def __init__(self, name: str):
        self.name = name

    def fail(self, msg: str) -> NoReturn:
        """Abort immediately: ``<tool>: FAIL: <msg>`` and exit 1."""
        sys.exit(f"{self.name}: FAIL: {msg}")

    def usage(self, text: str) -> int:
        """Print usage to stderr; return the usage exit code (2)."""
        print(text, file=sys.stderr)
        return EXIT_USAGE

    def load_json(self, path: str | Path):
        """Load a JSON document, failing with a uniform message."""
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            self.fail(f"{path}: {e}")

    def expect_counter(self, obj: dict, key: str, where: str) -> int:
        """``obj[key]`` as a non-negative integer, or fail."""
        if key not in obj:
            self.fail(f"{where}: missing field {key!r}")
        v = obj[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            self.fail(
                f"{where}: {key} = {v!r} is not a non-negative "
                f"integer")
        return v

    def expect_stamp(self, doc: dict, where: str = "top level",
                     run_key: bool = True) -> None:
        """Assert the schema-v2 stamp every JSON sink carries: a
        ``schema_version`` field and (for per-run sinks) a complete
        ``run_key`` identity block (DESIGN.md §18)."""
        v = doc.get("schema_version")
        if not isinstance(v, int) or v < 2:
            self.fail(f"{where}: schema_version = {v!r} (want an "
                      f"integer >= 2; re-capture with a current "
                      f"build)")
        if not run_key:
            return
        key = doc.get("run_key")
        if not isinstance(key, dict):
            self.fail(f"{where}: missing 'run_key' identity block")
        for f in ("scene", "shader", "resolution", "fingerprint"):
            if f not in key:
                self.fail(f"{where}: run_key is missing {f!r}")
        fp = key["fingerprint"]
        if (not isinstance(fp, str) or not fp.startswith("0x")
                or len(fp) != 18):
            self.fail(f"{where}: run_key.fingerprint {fp!r} is not "
                      f"a 0x-prefixed 64-bit hex string")

    def report(self, problems: list[str], ok: str) -> int:
        """Print the verdict and return the exit code.

        A non-empty ``problems`` list prints ``<tool>: FAIL`` with
        one indented line per problem and returns 1; otherwise prints
        ``<tool>: OK (<ok>)`` and returns 0.
        """
        if problems:
            print(f"{self.name}: FAIL")
            for p in problems:
                print("  -", p)
            return EXIT_FAIL
        print(f"{self.name}: OK ({ok})")
        return EXIT_OK
