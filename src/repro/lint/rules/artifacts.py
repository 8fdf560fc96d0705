"""RL04x — artifact-path hygiene.

PR 4 replaced string-path plumbing with typed ``Artifact`` handles:
``store.declare(name, fmt)`` (or ``Artifact.in_dir``) owns the
extension, the directory layout, and the schema hint.  A raw
``"…-jobs.csv"`` literal in pipeline/workflow/analytics code
re-implements that arithmetic by hand and silently diverges the moment
the layout (or the ``.npf`` twin negotiation) changes — so any string
literal ending in ``.csv``/``.npf`` in those packages is a finding.

The bare extension tokens (``".csv"``) used for ``endswith`` checks and
format tables are exempt, as are docstrings.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule

__all__ = ["ArtifactPathRule"]

_EXTENSIONS = (".csv", ".npf")


class ArtifactPathRule(Rule):
    """RL041: raw ``.csv``/``.npf`` path literal instead of a handle."""

    id = "RL041"
    title = "raw artifact-path literal"
    node_types = (ast.Constant,)
    dirs = ("pipeline", "workflows", "analytics")

    def visit(self, node: ast.Constant, ctx: FileContext) -> None:
        value = node.value
        if not isinstance(value, str) or value in _EXTENSIONS:
            return
        if not value.endswith(_EXTENSIONS):
            return
        if ctx.is_docstring(node):
            return
        ctx.report(self.id, node,
                   f"raw artifact path literal {value!r}; declare a "
                   "typed handle instead (store.declare(name, fmt) or "
                   "Artifact.in_dir) so the format owns the extension "
                   "and the layout")

