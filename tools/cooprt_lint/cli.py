"""Command-line driver.

Invocation (from the repo root)::

    python3 tools/cooprt_lint                    # gate against baseline
    python3 tools/cooprt_lint --keys             # stable keys (goldens)
    python3 tools/cooprt_lint --update-baseline  # accept current findings
    python3 tools/cooprt_lint --repo <dir>       # lint a fixture mini-repo

Exit codes follow the repo tool convention (lintlib): 0 clean,
1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import baseline as baseline_mod
import frontend_clang
import frontend_text
import lintlib
from model import FileFacts, Finding, Project
from rules import ALL_RULES, RULE_IDS

_EXTS = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx"}
_DEFAULT_ROOTS = ("src", "bench", "examples", "tests")

# Meta-rules produced by the suppression machinery itself; they are
# not suppressible and not listed in --list-rules.
BAD_SUPPRESSION = "bad-suppression"
UNUSED_SUPPRESSION = "unused-suppression"


def _gather(repo: Path, paths: list[str]) -> list[Path]:
    out: list[Path] = []
    if paths:
        for p in paths:
            pp = Path(p)
            if pp.is_dir():
                out.extend(f for f in pp.rglob("*")
                           if f.suffix in _EXTS)
            else:
                out.append(pp)
    else:
        for root in _DEFAULT_ROOTS:
            d = repo / root
            if d.is_dir():
                out.extend(f for f in d.rglob("*")
                           if f.suffix in _EXTS)
    return sorted(set(p.resolve() for p in out))


def _rel(repo: Path, path: Path) -> str:
    try:
        return path.relative_to(repo).as_posix()
    except ValueError:
        return path.name


def _analyze(repo: Path, files: list[Path],
             frontend: str) -> list[FileFacts]:
    use_clang = (frontend == "clang"
                 or (frontend == "auto"
                     and frontend_clang.available()))
    compile_commands = (
        frontend_clang.load_compile_commands(repo)
        if use_clang else {})
    facts: list[FileFacts] = []
    for f in files:
        rel = _rel(repo, f)
        if use_clang:
            facts.append(frontend_clang.analyze_file(
                f, rel, repo, compile_commands))
        else:
            facts.append(frontend_text.analyze_file(f, rel))
    frontend_text.resolve_units(facts)
    return facts


def _run_rules(project: Project, rule_ids: list[str]
               ) -> list[Finding]:
    findings: list[Finding] = []

    def add(rule, rel, line, what, message):
        findings.append(Finding(rule, rel, line, what, message))

    for rule in ALL_RULES:
        if rule.id not in rule_ids:
            continue
        for facts in project.files:
            if rule.applies_to(facts.rel):
                rule.check_file(facts, add)
        rule.check_project(project, add)
    return findings


def _apply_suppressions(project: Project, findings: list[Finding],
                        full_rule_set: bool) -> list[Finding]:
    """Drop findings covered by a valid allow-annotation; emit
    meta-findings for malformed or unused annotations."""
    by_rel = {f.rel: f for f in project.files}
    kept: list[Finding] = []
    for finding in findings:
        facts = by_rel.get(finding.rel)
        suppressed = False
        if facts is not None:
            for s in facts.src.suppressions:
                if not s.covers(finding.line):
                    continue
                if finding.rule not in s.rules:
                    continue
                if not s.reason:
                    continue  # invalid: does not suppress
                s.used = True
                suppressed = True
                break
        if not suppressed:
            kept.append(finding)

    for facts in project.files:
        # The header that defines COOPRT_LINT_ALLOW documents the
        # annotation syntax; its examples are not live suppressions.
        if "#define COOPRT_LINT_ALLOW" in facts.src.text:
            continue
        for s in facts.src.suppressions:
            bad = [r for r in s.rules if r not in RULE_IDS]
            if bad or not s.rules:
                kept.append(Finding(
                    BAD_SUPPRESSION, facts.rel, s.line,
                    f"allow() names unknown rule "
                    f"'{','.join(bad) or '<empty>'}'",
                    f"allow({', '.join(s.rules) or ''}) names no "
                    f"valid rule id; known rules: "
                    f"{', '.join(RULE_IDS)}"))
            if not s.reason:
                kept.append(Finding(
                    BAD_SUPPRESSION, facts.rel, s.line,
                    f"allow({','.join(s.rules)}) missing reason",
                    f"suppressions are contracts: "
                    f"allow({', '.join(s.rules)}) must state why "
                    f"the pattern is safe here"))
            elif full_rule_set and not s.used and not bad:
                kept.append(Finding(
                    UNUSED_SUPPRESSION, facts.rel, s.line,
                    f"unused allow({','.join(s.rules)})",
                    f"allow({', '.join(s.rules)}) matched no "
                    f"finding; delete it so stale suppressions "
                    f"cannot mask future regressions"))
    return kept


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="cooprt-lint", add_help=True,
        description="static determinism & audit-coverage analysis")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: src bench "
                         "examples tests under --repo)")
    ap.add_argument("--repo", type=Path, default=lintlib.REPO,
                    help="repo root (default: auto-detected)")
    ap.add_argument("--frontend",
                    choices=("auto", "text", "clang"),
                    default="auto")
    ap.add_argument("--rules", default="",
                    help="comma-separated rule ids to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline file (default: "
                         "tools/cooprt_lint/BASELINE.json)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="every finding fails, baseline ignored")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from current "
                         "findings and exit 0")
    ap.add_argument("--keys", action="store_true",
                    help="print stable finding keys (for goldens) "
                         "and exit 0")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return lintlib.EXIT_USAGE if e.code not in (0, None) \
            else lintlib.EXIT_OK

    if args.list_rules:
        for r in ALL_RULES:
            print(f"{r.id:32s} {r.description}")
        return lintlib.EXIT_OK

    rule_ids = list(RULE_IDS)
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",")
                    if r.strip()]
        unknown = [r for r in rule_ids if r not in RULE_IDS]
        if unknown:
            print(f"cooprt-lint: unknown rule(s): "
                  f"{', '.join(unknown)}")
            return lintlib.EXIT_USAGE

    repo = args.repo.resolve()
    files = _gather(repo, args.paths)
    if not files:
        print(f"cooprt-lint: no C++ sources found under {repo}")
        return lintlib.EXIT_USAGE

    facts = _analyze(repo, files, args.frontend)
    project = Project(repo, facts)
    findings = _run_rules(project, rule_ids)
    findings = _apply_suppressions(project, findings,
                                   full_rule_set=not args.rules)
    findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.what))

    if args.keys:
        for f in findings:
            print(f.key())
        return lintlib.EXIT_OK

    baseline_path = args.baseline or (
        Path(__file__).resolve().parent / "BASELINE.json")

    if args.update_baseline:
        baseline_mod.save(baseline_path, findings)
        print(f"cooprt-lint: baseline updated "
              f"({len(findings)} findings -> {baseline_path})")
        return lintlib.EXIT_OK

    known = set() if args.no_baseline \
        else baseline_mod.load(baseline_path)
    new, stale = baseline_mod.compare(findings, known)

    for f in new:
        print(f.render())
    for key in sorted(stale):
        print(f"cooprt-lint: warning: stale baseline entry: {key}")

    if new:
        print(f"cooprt-lint: FAIL ({len(new)} new, "
              f"{len(findings) - len(new)} baselined, "
              f"{len(stale)} stale) over {len(files)} files")
        return lintlib.EXIT_FAIL
    print(f"cooprt-lint: OK ({len(files)} files, "
          f"{len(rule_ids)} rules, {len(findings)} baselined, "
          f"{len(stale)} stale)")
    return lintlib.EXIT_OK
