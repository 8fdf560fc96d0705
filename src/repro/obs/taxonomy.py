"""The closed event and metric taxonomy: one declared registry.

Provenance is only queryable if the event vocabulary is closed and
stable — a dashboard, a lineage query, or an LLM provenance agent can
only filter on ``kind`` values it knows exist.  Until this module, the
taxonomy lived as scattered string literals plus a hand-maintained
table in ``docs/architecture.md``; now both are checked against *this*
registry:

- **statically** — ``repro.lint`` (rule family RL03x) verifies every
  ``bus.emit(...)`` / ``metrics.counter(...)`` / ``gauge(...)`` literal
  against the registry and flags registry entries nothing emits;
- **at runtime** — :class:`repro.obs.events.EventBus` in strict mode
  (on by default under pytest) raises on unknown event kinds;
- **in the docs** — ``tests/test_lint.py`` asserts the event table in
  ``docs/architecture.md`` matches :data:`EVENT_KINDS` exactly.

Adding an event kind or metric is therefore a three-line change: the
entry here, the emitting callsite, and the docs table row.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EVENT_KINDS", "METRICS", "MetricDef", "is_event_kind",
           "metric_kind", "dynamic_metric_names"]

#: Every legal ``Event.kind``, with the emitting layer.  The run
#: manifest (``events.jsonl``) contains these kinds and no others.
EVENT_KINDS: dict[str, str] = {
    "run_started":   "FlowEngine.run: engine run begins",
    "run_finished":  "FlowEngine.run: engine run ends",
    "task_ready":    "engine dispatch: task handed to the worker pool",
    "task_started":  "worker thread: task function begins executing",
    "task_retried":  "worker thread: one attempt failed, another follows",
    "task_finished": "engine main loop: terminal task outcome",
    "task_skipped":  "engine main loop: task never ran",
    "span_started":  "RunContext.span: timing span opened",
    "span_finished": "RunContext.span: timing span closed",
    "artifact":      "RunContext.record_artifact: ledger recorded an artifact",
    "llm_call":      "LLMClient.complete: one LLM completion",
    "fabric_transition": "FabricStore: durable job changed state",
    "run_ingested":  "serve ingest: verified run committed to the registry",
    "scenario_run":  "repro.scenarios: one scenario execution finished",
}


@dataclass(frozen=True)
class MetricDef:
    """One registered metric: its kind and who reports it.

    ``dynamic`` marks names produced by runtime string formatting
    (e.g. per-status-class HTTP counters); the linter cannot see such
    callsites statically, so dynamic entries are exempt from the
    nothing-emits-this check (RL034) but still validate ``/metrics``
    exposition and registry kind collisions.
    """

    kind: str                   # "counter" | "gauge"
    description: str
    dynamic: bool = False


_C, _G = "counter", "gauge"

#: Every legal metric name.  ``MetricRegistry`` names outside this
#: registry are lint findings (RL032); a literal used with the wrong
#: kind is RL033.
METRICS: dict[str, MetricDef] = {
    # -- scheduler (repro.workflows.shard.record_sched_metrics) ----------------
    "sched.passes":          MetricDef(_C, "scheduler passes executed"),
    "sched.backfill_hits":   MetricDef(_C, "jobs started by EASY backfill"),
    "sched.preemptions":     MetricDef(_C, "jobs preempted"),
    "sched.jobs":            MetricDef(_C, "jobs realized into records"),
    "sched.queue_depth_hwm": MetricDef(_G, "peak pending-queue depth"),

    # -- scenario injections (repro.workflows.shard / repro.scenarios) -----------
    "sched.scenario.injections": MetricDef(
        _C, "scenario injection ops applied (fault/cap/elastic onsets)"),
    "sched.scenario.victims": MetricDef(
        _C, "running jobs evicted by injected node faults"),
    "sched.scenario.shrunk": MetricDef(
        _C, "nodes released by elastic windows"),
    "scenario.runs": MetricDef(_C, "scenario executions completed"),

    # -- sharded execution (repro.workflows.shard) -------------------------------
    "sched.shard.windows":   MetricDef(_C, "generator windows simulated"),
    "sched.shard.handoffs":  MetricDef(_C, "boundary-state handoffs exported"),
    "sched.shard.carried_jobs": MetricDef(
        _C, "live jobs serialized across shard cuts"),
    "sched.shard.spool_rows": MetricDef(
        _C, "outcome rows spooled for deferred finalization"),
    "sched.shard.live_jobs_hwm": MetricDef(
        _G, "peak live jobs in any shard core"),
    # -- LLM client (repro.llm.client) ------------------------------------------
    "llm.calls":             MetricDef(_C, "completed LLM calls"),
    "llm.failures":          MetricDef(_C, "LLM calls that exhausted retries"),
    "llm.retries":           MetricDef(_C, "extra attempts beyond the first"),
    "llm.prompt_tokens":     MetricDef(_C, "prompt tokens (estimated)"),
    "llm.completion_tokens": MetricDef(_C, "completion tokens (estimated)"),
    # -- artifact store (repro.store.store) -------------------------------------
    "store.loads":           MetricDef(_C, "tables parsed from disk"),
    "store.memo_hits":       MetricDef(_C, "frame loads served from the memo"),
    "store.npf_reads":       MetricDef(_C, "loads served from .npf twins"),
    # -- service layer (repro.serve) --------------------------------------------
    "serve.http.requests":         MetricDef(_C, "requests dispatched"),
    "serve.http.not_modified":     MetricDef(_C, "conditional GETs answered 304"),
    "serve.http.unhandled_errors": MetricDef(_C, "requests that hit the 500 path"),
    "serve.http.status.2xx":       MetricDef(_C, "responses by status class",
                                             dynamic=True),
    "serve.http.status.3xx":       MetricDef(_C, "responses by status class",
                                             dynamic=True),
    "serve.http.status.4xx":       MetricDef(_C, "responses by status class",
                                             dynamic=True),
    "serve.http.status.5xx":       MetricDef(_C, "responses by status class",
                                             dynamic=True),
    "serve.charts.rendered":       MetricDef(_C, "charts rendered (LRU misses)"),
    "serve.cache.hits":            MetricDef(_C, "response-LRU hits"),
    "serve.cache.misses":          MetricDef(_C, "response-LRU misses"),
    "serve.cache.evictions":       MetricDef(_C, "response-LRU evictions"),
    "serve.cache.entries":         MetricDef(_G, "response-LRU entry count"),
    "serve.cache.bytes":           MetricDef(_G, "response-LRU payload bytes"),
    "serve.jobs.rejected":         MetricDef(_C, "submissions refused (429)"),
    # -- event-loop transport (repro.serve.loop) ---------------------------------
    "serve.loop.accepted":         MetricDef(_C, "connections accepted by the event loop"),
    "serve.loop.open":             MetricDef(_G, "connections currently open"),
    "serve.loop.timeouts":         MetricDef(_C, "connections cut by idle/header deadlines"),
    "serve.loop.bad_requests":     MetricDef(_C, "connections poisoned by protocol errors"),
    "serve.loop.streamed":         MetricDef(_C, "responses sent with chunked streaming"),
    "serve.http.rate_limited":     MetricDef(_C, "requests answered 429 by the token bucket"),
    # -- run ingest (repro.serve.ingest) -----------------------------------------
    "serve.ingest.accepted":       MetricDef(_C, "runs ingested and registered"),
    "serve.ingest.rejected":       MetricDef(_C, "ingest archives refused"),
    "serve.ingest.bytes":          MetricDef(_C, "archive bytes accepted"),
    "serve.ingest.verified":       MetricDef(_C, "artifacts hash-verified at ingest"),
    # -- durable job fabric (repro.fabric.store) ---------------------------------
    "serve.fabric.submitted":      MetricDef(_C, "jobs accepted into the durable store"),
    "serve.fabric.leased":         MetricDef(_C, "leases granted to launcher workers"),
    "serve.fabric.completed":      MetricDef(_C, "fabric jobs finished ok"),
    "serve.fabric.failed":         MetricDef(_C, "fabric jobs that went terminal failed"),
    "serve.fabric.requeued":       MetricDef(_C, "spent attempts returned to pending"),
    "serve.fabric.heartbeats":     MetricDef(_C, "lease extensions recorded"),
    "serve.fabric.pending":        MetricDef(_G, "runnable jobs waiting in the store"),
    "serve.fabric.running":        MetricDef(_G, "jobs currently leased or running"),
}


def is_event_kind(kind: str) -> bool:
    """Whether ``kind`` is a registered event kind."""
    return kind in EVENT_KINDS


def metric_kind(name: str) -> str | None:
    """``"counter"``/``"gauge"`` for a registered metric, else None."""
    m = METRICS.get(name)
    return m.kind if m else None


def dynamic_metric_names() -> frozenset[str]:
    """Registry names produced by runtime formatting (RL034-exempt)."""
    return frozenset(n for n, m in METRICS.items() if m.dynamic)
