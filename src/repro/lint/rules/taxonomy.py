"""RL03x — event/metric taxonomy discipline.

Provenance is only queryable while the event vocabulary is closed
(Souza et al., "LLM Agents for Interactive Workflow Provenance"):
every ``bus.emit(kind, ...)`` literal must name a kind registered in
:mod:`repro.obs.taxonomy`, every ``counter("…")``/``gauge("…")``
literal must name a registered metric of that kind, and — the converse
drift — every non-dynamic registry entry must be emitted by at least
one callsite, or the registry is documenting vocabulary that no longer
exists (RL034; needs a complete scan, so it is skipped under
``--rule``/``--path`` filters).
"""

from __future__ import annotations

import ast
import os

from repro.lint.engine import (
    FileContext,
    Finding,
    LintEngine,
    Rule,
    str_const,
)
from repro.obs import taxonomy as _taxonomy

__all__ = ["TaxonomyRule"]

#: metric-reporting attribute names → the kind they register.
#: ``_count`` is the repo's standard optional-obs counter wrapper
#: (serve.cache / store / fabric use it).
_METRIC_ATTRS = {"counter": "counter", "_count": "counter",
                 "gauge": "gauge"}


def _name_consts(node: ast.AST) -> list[str]:
    """String constants a name argument can evaluate to: a literal, or
    both arms of a conditional (the ``hits if … else misses`` idiom)."""
    value = str_const(node)
    if value is not None:
        return [value]
    if isinstance(node, ast.IfExp):
        return _name_consts(node.body) + _name_consts(node.orelse)
    return []


def _is_bus_emit(func: ast.AST) -> bool:
    """``bus.emit`` / ``self.bus.emit`` / ``ctx.bus.emit`` — the value
    the ``emit`` attribute hangs off must itself be named ``bus``."""
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return False
    value = func.value
    return ((isinstance(value, ast.Name) and value.id == "bus")
            or (isinstance(value, ast.Attribute) and value.attr == "bus"))


class TaxonomyRule(Rule):
    """RL031/RL032/RL033 at callsites; RL034 at finish."""

    id = "RL031"
    title = "event/metric names match the declared taxonomy"
    node_types = (ast.Call,)

    def __init__(self, events: dict | None = None,
                 metrics: dict | None = None) -> None:
        #: injectable registries so the rule is testable against a
        #: synthetic taxonomy; defaults to the live one
        self.events = _taxonomy.EVENT_KINDS if events is None else events
        self.metrics = _taxonomy.METRICS if metrics is None else metrics
        self.seen_events: set[str] = set()
        self.seen_metrics: set[str] = set()

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        if _is_bus_emit(node.func) and node.args:
            for kind in _name_consts(node.args[0]):
                self.seen_events.add(kind)
                if kind not in self.events:
                    ctx.report("RL031", node.args[0],
                               f"event kind {kind!r} is not registered "
                               "in repro.obs.taxonomy.EVENT_KINDS")
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _METRIC_ATTRS and node.args):
            return
        want_kind = _METRIC_ATTRS[func.attr]
        for name in _name_consts(node.args[0]):
            self.seen_metrics.add(name)
            entry = self.metrics.get(name)
            if entry is None:
                ctx.report("RL032", node.args[0],
                           f"metric {name!r} is not registered in "
                           "repro.obs.taxonomy.METRICS")
            elif entry.kind != want_kind:
                ctx.report("RL033", node.args[0],
                           f"metric {name!r} is registered as a "
                           f"{entry.kind} but used here as a "
                           f"{want_kind}")

    def finish(self, engine: LintEngine) -> list[Finding]:
        """RL034: registry entries no scanned callsite emits."""
        out: list[Finding] = []
        path, lines = self._registry_source()
        for kind in sorted(set(self.events) - self.seen_events):
            out.append(Finding(
                path=path, line=lines.get(kind, 1), col=1, rule="RL034",
                message=f"event kind {kind!r} is registered but no "
                        "scanned bus.emit() literal produces it"))
        for name in sorted(set(self.metrics) - self.seen_metrics):
            if getattr(self.metrics[name], "dynamic", False):
                continue
            out.append(Finding(
                path=path, line=lines.get(name, 1), col=1, rule="RL034",
                message=f"metric {name!r} is registered but no scanned "
                        "counter()/gauge() literal reports it"))
        return out

    def _registry_source(self) -> tuple[str, dict[str, int]]:
        """Registry file path + first line each name appears on, so
        RL034 findings point at the stale entry itself."""
        if self.events is not _taxonomy.EVENT_KINDS \
                or self.metrics is not _taxonomy.METRICS:
            return "<registry>", {}
        path = _taxonomy.__file__
        lines: dict[str, int] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            names = set(self.events) | set(self.metrics)
            for node in ast.walk(ast.parse(source)):
                value = str_const(node)
                if value in names and value not in lines:
                    lines[value] = node.lineno
        except (OSError, SyntaxError):
            pass
        return os.path.relpath(path), lines
