"""Structural text frontend.

Dependency-free fact extraction: declaration scanning for
unordered-container / floating-point variables, clock aliases,
for-loop body resolution, and COOPRT_AUDIT / COOPRT_CHECK_ONLY
argument spans. Offsets come from the stripped ``code`` view so
comments and string literals can never fake a declaration or a loop.

This frontend is deliberately conservative: it classifies by
declared-name lookup within a unit (see ``resolve_units``), which
the libclang frontend replaces with real type information when
available. Both fill the identical ``FileFacts`` schema.
"""

from __future__ import annotations

import re
from pathlib import Path

from model import FileFacts, Loop
from source import SourceFile, Span, match_forward

_UNORDERED_TYPE_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")

_UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*[^;\n]*unordered_(?:map|set|multimap"
    r"|multiset)")

_FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float)\s+(&?\s*\w+)\s*(?:[;={(,)]|\s*=)")

_CLOCK_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std::chrono::(?:steady_clock"
    r"|system_clock|high_resolution_clock)\s*;")

_FOR_RE = re.compile(r"\bfor\s*\(")

_AUDIT_RE = re.compile(r"\b(?:COOPRT_AUDIT|COOPRT_CHECK_ONLY)\s*\(")


def _declared_names(code: str, type_re: re.Pattern) -> set[str]:
    """Declarator names for template types: @p type_re must end at
    the opening ``<``; the declarator follows the balanced ``>``."""
    names: set[str] = set()
    for m in type_re.finditer(code):
        # m.end() is just past '<'; walk to the balanced '>'.
        i = m.end()
        depth = 1
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", code[i:])
        if dm:
            names.add(dm.group(1))
    return names


def _alias_names(code: str, alias_re: re.Pattern) -> set[str]:
    return {m.group(1) for m in alias_re.finditer(code)}


def _scan_loops(sf: SourceFile) -> list[Loop]:
    loops: list[Loop] = []
    code = sf.code
    for m in _FOR_RE.finditer(code):
        open_paren = m.end() - 1
        close = match_forward(code, open_paren, "(", ")")
        header = code[open_paren + 1:close - 1]
        # Top-level ':' (not '::') splits a range-for header.
        iterated = ""
        depth = 0
        for i, c in enumerate(header):
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth -= 1
            elif (c == ":" and depth == 0
                  and header[i - 1:i] != ":"
                  and header[i + 1:i + 2] != ":"):
                iterated = header[i + 1:].strip()
                break
        # Body: a braced block or a single statement.
        j = close
        while j < len(code) and code[j].isspace():
            j += 1
        if j < len(code) and code[j] == "{":
            body = Span(j + 1, match_forward(code, j, "{", "}") - 1)
        else:
            end = code.find(";", j)
            body = Span(j, len(code) if end < 0 else end)
        loops.append(Loop(line=sf.line_of(m.start()), header=header,
                          iterated=iterated, body=body))
    return loops


def _scan_audit_spans(sf: SourceFile) -> list[Span]:
    spans = []
    for m in _AUDIT_RE.finditer(sf.code):
        open_paren = m.end() - 1
        spans.append(Span(open_paren + 1,
                          match_forward(sf.code, open_paren,
                                        "(", ")") - 1))
    return spans


def analyze_file(path: Path, rel: str) -> FileFacts:
    sf = SourceFile(path, rel, path.read_text(encoding="utf-8",
                                              errors="replace"))
    facts = FileFacts(src=sf)

    aliases = _alias_names(sf.code, _UNORDERED_ALIAS_RE)
    facts.unordered_vars = _declared_names(sf.code,
                                           _UNORDERED_TYPE_RE)
    for alias in aliases:
        # `Alias<...> name` or `Alias name`.
        for m in re.finditer(r"\b" + re.escape(alias)
                             + r"(?:\s*<)?", sf.code):
            i = m.end()
            if sf.code[m.end() - 1:m.end()] == "<":
                depth = 1
                while i < len(sf.code) and depth > 0:
                    if sf.code[i] == "<":
                        depth += 1
                    elif sf.code[i] == ">":
                        depth -= 1
                    i += 1
            dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", sf.code[i:])
            if dm and dm.group(1) != alias:
                facts.unordered_vars.add(dm.group(1))

    # The float regex captures the declarator itself (group 1).
    facts.float_vars = {m.group(1).lstrip("& ").strip()
                        for m in _FLOAT_DECL_RE.finditer(sf.code)}
    facts.clock_aliases = _alias_names(sf.code, _CLOCK_ALIAS_RE)
    facts.loops = _scan_loops(sf)
    facts.audit_spans = _scan_audit_spans(sf)
    return facts


def _unit(rel: str) -> str:
    """A header and its source share a unit: the path minus suffix."""
    return rel.rsplit(".", 1)[0]


def resolve_units(files: list[FileFacts]) -> None:
    """Second pass once every file's names are known: each file's
    unordered and float names become its unit's (the file plus its
    matching ``.hpp``/``.cpp``, where members are declared and used),
    then range-fors over unordered containers are marked."""
    from model import last_identifier
    units: dict[str, list[FileFacts]] = {}
    for f in files:
        units.setdefault(_unit(f.rel), []).append(f)
    for unit in units.values():
        unordered = set().union(*(f.unordered_vars for f in unit))
        floats = set().union(*(f.float_vars for f in unit))
        for f in unit:
            f.unordered_vars, f.float_vars = unordered, floats
    for f in files:
        for loop in f.loops:
            if not loop.iterated:
                continue
            loop.over_unordered = (
                "unordered_" in loop.iterated
                or last_identifier(loop.iterated) in f.unordered_vars)
