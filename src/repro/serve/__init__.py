"""``repro.serve`` — a concurrent HTTP service layer over finished runs.

The batch workflow ends with a workdir full of typed artifacts: curated
tables, charts with primitives sidecars, LLM reports, a provenance
ledger, and a run manifest.  This package turns one or more of those
workdirs into a long-lived daemon: a stdlib-only HTTP service (no
frameworks) with

- one ``selectors``-based non-blocking event-loop transport
  (keep-alive, pipelining, idle/header timeouts, chunked streaming,
  per-client rate limiting) with ``--procs N`` ``SO_REUSEPORT``
  process sharding,
- a JSON API over runs, manifests, events, and provenance (including
  lineage traversal), with offset/limit cursor pagination,
- artifact downloads with content negotiation and content-hash ETags
  (conditional GET returns 304); large bodies and event listings
  stream with ``Transfer-Encoding: chunked``,
- a write path: ``POST /api/runs`` ingests a tar-streamed workdir,
  verifies every artifact against its provenance content hash, and
  hot-registers the run — no restart,
- background jobs for expensive work (LLM insight analysis,
  policy-lab simulations and campaigns) held in the durable
  :mod:`repro.fabric` store and run by in-process launcher threads,
  with explicit backpressure (queue-full → 429 + ``Retry-After``),
- Prometheus-style ``/metrics`` text export of the run context's
  :class:`~repro.obs.metrics.MetricRegistry` (``shard`` label under
  ``--procs``), and
- the dashboard and trace pages served live.

Start it with ``repro-serve --workdir out/`` or
``python -m repro.serve --workdir out/``.
"""

from repro.serve.cache import LRUCache
from repro.serve.jobs import JobQueue, QueueFull
from repro.serve.limit import RateLimiter
from repro.serve.proto import ParsedRequest, ProtocolError, RequestParser
from repro.serve.router import (
    MethodNotAllowed,
    NotFound,
    Router,
    ServeError,
)
from repro.serve.runs import RunDir, RunRegistry
from repro.serve.api import Request, Response, ServeApp, StreamBody
from repro.serve.ingest import ingest_run
from repro.serve.loop import EventLoopServer
from repro.serve.shard import run_sharded, sharding_supported

__all__ = [
    "LRUCache",
    "JobQueue",
    "QueueFull",
    "RateLimiter",
    "ParsedRequest",
    "ProtocolError",
    "RequestParser",
    "MethodNotAllowed",
    "NotFound",
    "Router",
    "ServeError",
    "RunDir",
    "RunRegistry",
    "Request",
    "Response",
    "StreamBody",
    "ServeApp",
    "ingest_run",
    "EventLoopServer",
    "run_sharded",
    "sharding_supported",
]
