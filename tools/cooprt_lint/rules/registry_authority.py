"""Rule: registry-authority.

The trace registry is the single authority for metric names: every
tool downstream (report tables, lint_stats_registry, campaign
manifests) resolves names against it. Two registrations of the same
literal name shadow each other silently (last wins), and a metric
that exists in code but not in DESIGN.md cannot be reviewed against
the paper's figure list.

Only *literal dotted* names (``"exec.jobs_queued"``) are checked
for duplicates and documentation; computed names (``prefix +
".hits"``) follow their prefix family's wildcard entry (``rtunit.*``)
and are validated at runtime by the registry's own collision audit.
A wildcard documents its family only as the first cell of a DESIGN.md
table row.

Some metric families additionally have a single *owning file* (the
DESIGN.md authority tables): a ``prof.*`` probe registered outside
``src/prof/prof.cpp`` would fork the taxonomy, so any registration
whose name literal starts with an owned family (``"prof.x"`` or a
computed ``"prof." + x``) outside its home file is a finding.
Families whose names are legitimately registered from several files
(``mem.*``, ``rtunit.*``) are not in the map.
"""

from __future__ import annotations

import re

from model import Project, Rule

#: A registration whose name starts with a string literal: group 1 is
#: the literal, group 2 its ``family.`` prefix. A computed name
#: (``"memscope." + x``) matches as well as a literal one.
_REG_RE = re.compile(r'\b(?:probe|add)\s*\(\s*"((\w+\.)[^"]*)"')

#: A literal that is a whole dotted name, not a computed name's prefix.
_DOTTED_RE = re.compile(r"\w+(?:\.\w+)+")

#: A wildcard family documented as the first cell of a table row.
_WILDCARD_ROW_RE = re.compile(r"^\s*\|\s*`([\w.]+)\.\*`\s*\|", re.M)

#: Metric families with a single registration authority: names under
#: the prefix may only be registered from the owning file (mirrors
#: the DESIGN.md authority tables; in-repo paths).
_AUTHORITY_FILES = {
    "prof.": "src/prof/prof.cpp",
    "memscope.": "src/memscope/memscope.cpp",
    "exec.": "src/exec/exec.cpp",
    "telemetry.": "src/telemetry/telemetry.cpp",
    "query.": "src/query/query.cpp",
    "diff.": "src/diff/diff.cpp",
}


class RegistryAuthority(Rule):
    id = "registry-authority"
    description = ("literal metric name registered twice or absent "
                   "from DESIGN.md")
    roots = ("src",)

    def check_project(self, project: Project, add) -> None:
        sites: dict[str, list[tuple[str, int]]] = {}
        for facts in project.files:
            if not self.applies_to(facts.rel):
                continue
            nc = facts.src.nc
            for m in _REG_RE.finditer(nc):
                line = facts.src.line_of(m.start())
                if _DOTTED_RE.fullmatch(m.group(1)):
                    sites.setdefault(m.group(1), []).append(
                        (facts.rel, line))
                owner = _AUTHORITY_FILES.get(m.group(2))
                if owner is not None and facts.rel != owner:
                    add(self.id, facts.rel, line,
                        f"metric '{m.group(1)}' registered outside "
                        f"its authority file",
                        f"the {m.group(2)}* family is registered "
                        f"only from {owner} (DESIGN.md authority "
                        f"table); move the registration there or "
                        f"compute the name through that module's "
                        f"API")

        design = project.design_md()
        # Only a row that opens with it documents a wildcard family:
        # prose or a later cell that names `exec.*` does not document
        # every exec name.
        wildcards = {w + "." for w in _WILDCARD_ROW_RE.findall(design)}

        for name in sorted(sites):
            where = sites[name]
            if len(where) > 1:
                first = f"{where[0][0]}:{where[0][1]}"
                for rel, line in where[1:]:
                    add(self.id, rel, line,
                        f"metric '{name}' registered more than once",
                        f"metric '{name}' is already registered at "
                        f"{first}; the registry is single-authority "
                        f"— rename or merge")
            documented = (f"`{name}`" in design
                          or any(name.startswith(w)
                                 for w in wildcards))
            if not documented:
                rel, line = where[0]
                add(self.id, rel, line,
                    f"metric '{name}' not documented in DESIGN.md",
                    f"metric '{name}' is registered here but has "
                    f"no `{name}` (or wildcard family) entry in "
                    f"DESIGN.md; document it in the metric "
                    f"catalogue")
