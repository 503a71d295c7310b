"""Rule: float-accumulation-order.

Floating-point addition is not associative: summing the same set of
doubles in two different orders yields different low bits, and
low bits leak into report files and figure tables. Two shapes are
hazardous here:

  - ``x += ...`` on a float/double inside a loop over an unordered
    container (hash order decides the accumulation order), and
  - ``x += ...`` on a float/double anywhere in ``src/exec/``
    (campaign workers complete in scheduling order; accumulating
    across jobs in completion order is nondeterministic under
    ``--jobs N``).

Per-slot writes (a single writer filling its own result slot) are
fine and should carry an allow() stating exactly that.
"""

from __future__ import annotations

import re

from model import Project, Rule, last_identifier

_ACCUM_RE = re.compile(r"([A-Za-z_][\w.\[\]]*(?:->[\w.\[\]]+)*)"
                       r"\s*\+=")


class FloatAccumulationOrder(Rule):
    id = "float-accumulation-order"
    description = ("float += where iteration/completion order "
                   "decides the sum")

    def check_project(self, project: Project, add) -> None:
        for facts in project.files:
            if not self.applies_to(facts.rel):
                continue
            code = facts.src.code
            # Shape 1: accumulation inside an unordered loop.
            for loop in facts.loops:
                if not loop.over_unordered:
                    continue
                body = code[loop.body.start:loop.body.end]
                for m in _ACCUM_RE.finditer(body):
                    name = last_identifier(m.group(1))
                    if name in facts.float_vars:
                        off = loop.body.start + m.start()
                        add(self.id, facts.rel,
                            facts.src.line_of(off),
                            f"float '+=' on '{name}' in unordered "
                            f"loop",
                            f"'{name}' accumulates in hash order; "
                            f"sort the keys first or accumulate "
                            f"into an ordered intermediate")
            # Shape 2: accumulation in the campaign engine.
            if not facts.rel.startswith("src/exec/"):
                continue
            for m in _ACCUM_RE.finditer(code):
                name = last_identifier(m.group(1))
                if name in facts.float_vars:
                    add(self.id, facts.rel,
                        facts.src.line_of(m.start()),
                        f"float '+=' on '{name}' in exec worker "
                        f"path",
                        f"'{name}' accumulates where worker "
                        f"completion order is scheduler-dependent; "
                        f"make it per-slot or reduce in job order")
