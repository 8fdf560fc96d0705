"""The service application: routes, handlers, and response building.

:class:`ServeApp` is transport-free — it maps a :class:`Request` to a
:class:`Response` through the router, with no socket in sight, which is
what makes the endpoint suite testable without binding ports.  The HTTP
layer (:mod:`repro.serve.loop`) is a thin adapter on top.

Read paths (artifacts, charts, pages) are conditional-GET aware: every
response body is addressed by the underlying file's content hash (the
same streaming SHA-256 the provenance ledger uses), served as a strong
ETag, and short-circuited to ``304 Not Modified`` when the client already
holds it.  Expensive work is a background job in the durable fabric
store (:class:`~repro.serve.jobs.JobQueue`), run by the server's own
launcher threads; every ``POST`` endpoint returns ``202`` plus a
polling URL.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field

from repro._util.clock import wall_now
from repro._util.errors import DataError, ReproError
from repro.fabric.campaign import submit_campaign
from repro.fabric.runners import simulate_payload
from repro.fabric.store import FabricStore, fabric_db_path
from repro.frame.io import iter_table
from repro.obs import RunContext
from repro.serve.cache import LRUCache
from repro.serve.jobs import JobQueue, QueueFull
from repro.serve.router import NotFound, Router, ServeError
from repro.serve.runs import RunDir, RunRegistry
from repro.store.hashing import default_hash_cache
from repro.store.store import read_table_fast, resolve_table_path

__all__ = ["Request", "Response", "StreamBody", "ServeApp"]

_CTYPES = {
    ".csv": "text/csv; charset=utf-8",
    ".npf": "application/x-npf",
    ".txt": "text/plain; charset=utf-8",
    ".html": "text/html; charset=utf-8",
    ".png": "image/png",
    ".md": "text/markdown; charset=utf-8",
    ".json": "application/json",
    ".jsonl": "application/jsonl",
    ".svg": "image/svg+xml",
}


@dataclass
class Request:
    """One parsed HTTP request, transport-free."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


class StreamBody:
    """An iterable-of-chunks response body.

    ``Response.body`` may be one of these instead of ``bytes``: the
    event-loop transport sends each chunk with ``Transfer-Encoding:
    chunked`` as it arrives, so a year-scale ``events.jsonl`` or a
    large artifact never materializes server-side.  Dispatch-level
    callers (the endpoint test matrix, the benchmarks) keep the
    ``bytes`` surface they already use — ``decode()``, ``bytes()``,
    ``len()``, ``startswith()`` — by materializing on first touch, so
    switching a handler to streaming is invisible below the transport.
    """

    def __init__(self, chunks) -> None:
        self._chunks = chunks
        self._consumed = False
        self._cached: bytes | None = None

    def __iter__(self):
        if self._cached is not None:
            yield self._cached
            return
        if self._consumed:
            raise RuntimeError("stream body already consumed")
        self._consumed = True
        for chunk in self._chunks:
            yield bytes(chunk)

    def materialize(self) -> bytes:
        if self._cached is None:
            self._cached = b"".join(self)
        return self._cached

    def decode(self, encoding: str = "utf-8",
               errors: str = "strict") -> str:
        return self.materialize().decode(encoding, errors)

    def startswith(self, prefix) -> bool:
        return self.materialize().startswith(prefix)

    def __bytes__(self) -> bytes:
        return self.materialize()

    def __len__(self) -> int:
        return len(self.materialize())

    def __getitem__(self, item):
        return self.materialize()[item]

    def close(self) -> None:
        closer = getattr(self._chunks, "close", None)
        if closer is not None:
            closer()


@dataclass
class Response:
    """Status, body, and headers, ready for any transport.

    ``body`` is ``bytes`` for buffered responses or a
    :class:`StreamBody` for chunked streaming ones.
    """

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def _sanitize(value):
    """JSON-safe deep copy: numpy scalars unwrap, NaN/inf become null."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()            # numpy scalar
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_response(payload, status: int = 200,
                  headers: dict[str, str] | None = None) -> Response:
    body = json.dumps(_sanitize(payload), sort_keys=True).encode("utf-8")
    return Response(status=status, body=body,
                    content_type="application/json",
                    headers=dict(headers or {}))


def error_response(status: int, message: str,
                   headers: dict[str, str] | None = None) -> Response:
    return json_response({"error": {"status": status, "message": message}},
                         status=status, headers=headers)


def _call_with_timeout(fn, timeout_s: float | None):
    """Run ``fn`` with a hard wall-clock bound (504 on expiry).

    The worker thread is daemonic: a stuck handler cannot block
    shutdown, it is simply abandoned after its response slot expired.
    """
    if not timeout_s:
        return fn()
    box: dict[str, object] = {}

    def run() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:    # re-raised on the request thread
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True, name="serve-handler")
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise ServeError(504, f"request exceeded {timeout_s:g}s")
    if "error" in box:
        raise box["error"]              # type: ignore[misc]
    return box["value"]


class ServeApp:
    """Everything the server does, minus the sockets."""

    def __init__(self, workdirs, *, obs: RunContext | None = None,
                 llm_backend: str = "chart-analyst",
                 cache_entries: int = 128,
                 cache_bytes: int = 64 * 1024 * 1024,
                 job_workers: int = 2, job_capacity: int = 8,
                 request_timeout_s: float | None = 30.0,
                 max_body_bytes: int = 1 << 20,
                 retry_after_s: int = 1,
                 fabric: str | os.PathLike | None = None,
                 ingest_dir: str | os.PathLike | None = None,
                 max_ingest_bytes: int = 256 * 1024 * 1024,
                 stream_threshold_bytes: int = 256 * 1024) -> None:
        self.registry = RunRegistry(workdirs, ingest_dir=ingest_dir)
        #: bounded history: a long-lived server must not accumulate an
        #: unbounded event/span record the way a batch run may
        self.obs = obs or RunContext(max_history=2048)
        self.hashes = default_hash_cache()
        self.cache = LRUCache(cache_entries, cache_bytes, obs=self.obs)
        #: every background job is a row in one fabric database (by
        #: default the first workdir's), shared by all shards and by
        #: any repro-launcher attached to it
        db = fabric if fabric is not None \
            else fabric_db_path(self.registry.runs[0].root)
        self.jobs = JobQueue(FabricStore(db, obs=self.obs),
                             workers=job_workers, capacity=job_capacity,
                             obs=self.obs)
        self.llm_backend = llm_backend
        self.request_timeout_s = request_timeout_s
        self.max_body_bytes = max_body_bytes
        self.max_ingest_bytes = max_ingest_bytes
        self.stream_threshold_bytes = stream_threshold_bytes
        self.retry_after_s = retry_after_s
        #: shard index under --procs (labels /metrics); None unsharded
        self.shard: str | None = None
        self.started_s = wall_now()     # display only; uptime is below
        self._started_mono = time.monotonic()
        self.router = self._build_router()

    @property
    def transport_body_cap(self) -> int:
        """The largest request body any route admits — what a
        transport should allow through before routing happens."""
        return max(self.max_body_bytes, self.max_ingest_bytes)

    def _build_router(self) -> Router:
        r = Router()
        r.get("/healthz", self._h_healthz)
        r.get("/metrics", self._h_metrics)
        r.get("/api/runs", self._h_runs)
        r.post("/api/runs", self._h_post_run)
        r.get("/api/runs/<id>/artifacts", self._h_run_artifacts)
        r.get("/api/runs/<id>/manifest", self._h_run_manifest)
        r.get("/api/runs/<id>/summary", self._h_run_summary)
        r.get("/api/runs/<id>/events", self._h_run_events)
        r.get("/api/runs/<id>/provenance", self._h_run_provenance)
        r.get("/api/artifacts/<name>", self._h_artifact)
        r.get("/api/charts", self._h_chart_index)
        r.get("/api/charts/<file>", self._h_chart)
        r.get("/api/jobs", self._h_jobs)
        r.get("/api/jobs/<id>", self._h_job)
        r.post("/api/insights", self._h_post_insight)
        r.post("/api/simulate", self._h_post_simulate)
        r.get("/api/campaigns", self._h_campaigns)
        r.get("/api/campaigns/<id>", self._h_campaign)
        r.post("/api/campaigns", self._h_post_campaign)
        r.get("/", self._h_dashboard)
        r.get("/dashboard", self._h_dashboard)
        r.get("/trace", self._h_trace)
        r.get("/charts/<file>", self._h_chart_page)
        return r

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Route and execute one request; never raises."""
        self.obs.counter("serve.http.requests").inc()
        try:
            route, params = self.router.resolve(request.method,
                                                request.path)
            cap = self.max_ingest_bytes \
                if (request.method == "POST"
                    and route.pattern == "/api/runs") \
                else self.max_body_bytes
            if len(request.body) > cap:
                raise ServeError(413, f"body exceeds {cap} bytes")
            with self.obs.span(f"http:{route.pattern}",
                               method=request.method):
                response = _call_with_timeout(
                    lambda: route.handler(request, params),
                    self.request_timeout_s)
        except ServeError as exc:
            response = error_response(exc.status, exc.message,
                                      headers=exc.headers)
        except ReproError as exc:
            response = error_response(400, str(exc))
        except Exception as exc:        # pragma: no cover - defensive
            self.obs.counter("serve.http.unhandled_errors").inc()
            response = error_response(
                500, f"internal error: {type(exc).__name__}: {exc}")
        self.obs.counter(
            f"serve.http.status.{response.status // 100}xx").inc()
        return response

    def close(self, timeout: float | None = 5.0) -> bool:
        """Stop the job workers, letting running jobs finish (SIGTERM
        path).  Pending jobs stay in the store for the next start."""
        return self.jobs.close(timeout)

    def clear_caches(self) -> None:
        """Drop the response LRU and the hash memo (benchmark cold
        path; never needed in normal operation)."""
        self.cache.clear()
        self.hashes.clear()

    # -- shared helpers ------------------------------------------------------------

    def _run(self, request: Request,
             run_id: str | None = None) -> RunDir:
        run = self.registry.get(run_id or request.query.get("run"))
        if run is None:
            raise NotFound(f"unknown run "
                           f"{run_id or request.query.get('run')!r}")
        return run

    def _conditional(self, request: Request, etag: str,
                     factory, content_type: str,
                     cache_key=None) -> Response:
        """Strong-ETag conditional GET with optional LRU body reuse."""
        quoted = f'"{etag}"'
        if quoted in request.header("if-none-match"):
            self.obs.counter("serve.http.not_modified").inc()
            return Response(status=304, body=b"",
                            content_type=content_type,
                            headers={"ETag": quoted})
        if cache_key is not None:
            body, _hit = self.cache.get_or_put(cache_key, factory)
        else:
            body = factory()
        return Response(status=200, body=body, content_type=content_type,
                        headers={"ETag": quoted})

    def _serve_file(self, request: Request, path: str) -> Response:
        ext = os.path.splitext(path)[1].lower()
        ctype = _CTYPES.get(ext, "application/octet-stream")
        try:
            sha = self.hashes.sha256(path)
            size = os.path.getsize(path)
        except OSError:
            raise NotFound(f"missing file {os.path.basename(path)!r}") \
                from None
        if size > self.stream_threshold_bytes:
            # large bodies stream chunked (uncached): buffering them
            # whole would defeat both the LRU bound and the event loop
            def stream() -> StreamBody:
                def chunks():
                    with open(path, "rb") as fh:
                        while True:
                            block = fh.read(256 * 1024)
                            if not block:
                                return
                            yield block
                return StreamBody(chunks())

            return self._conditional(request, sha, stream, ctype)

        def read() -> bytes:
            with open(path, "rb") as fh:
                return fh.read()

        return self._conditional(request, sha, read, ctype,
                                 cache_key=("file", sha))

    # -- service endpoints ---------------------------------------------------------

    def _h_healthz(self, request: Request, params: dict) -> Response:
        payload = {
            "ok": True,
            "runs": [r.basename for r in self.registry.runs],
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        return json_response(payload)

    def _h_metrics(self, request: Request, params: dict) -> Response:
        """Prometheus text exposition of the run context's registry.

        Under ``--procs`` each shard is its own process with its own
        registry, so every sample carries a ``shard`` label — scrape
        each shard and sum, exactly like any multi-process exporter.
        """
        label = "" if self.shard is None \
            else '{shard="%s"}' % self.shard
        lines = []
        for name, (kind, value) in \
                self.obs.metrics.typed_snapshot().items():
            metric = "repro_" + "".join(
                c if c.isalnum() else "_" for c in name)
            if kind == "counter":
                metric += "_total"
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric}{label} {value:g}")
        body = ("\n".join(lines) + "\n").encode("utf-8")
        return Response(body=body,
                        content_type="text/plain; version=0.0.4; "
                                     "charset=utf-8")

    # -- pagination ----------------------------------------------------------------

    @staticmethod
    def _page_params(request: Request) -> tuple[int | None, int | None]:
        """``(offset, limit)`` cursor; ``None`` where not given."""
        out = []
        for name in ("offset", "limit"):
            raw = request.query.get(name)
            if raw is None:
                out.append(None)
                continue
            try:
                value = int(raw)
            except ValueError:
                raise ServeError(400, f"{name} must be an integer") \
                    from None
            if value < 0:
                raise ServeError(400, f"{name} must be >= 0")
            out.append(value)
        return out[0], out[1]

    @staticmethod
    def _next_link(path: str, offset: int, limit: int,
                   extra: dict[str, str] | None = None) -> str:
        query = dict(extra or {})
        query["offset"] = str(offset)
        query["limit"] = str(limit)
        pairs = "&".join(f"{k}={v}" for k, v in sorted(query.items()))
        return f"{path}?{pairs}"

    def _paginate(self, request: Request, path: str, items: list,
                  key: str, extra_query: dict[str, str] | None = None,
                  extra_payload: dict | None = None) -> Response:
        """Slice ``items`` by the offset/limit cursor, linking the
        next page while more remain (cursors are plain offsets, so
        they stay stable as long as the listing only *appends* — which
        ingest guarantees for runs)."""
        offset, limit = self._page_params(request)
        payload = dict(extra_payload or {})
        payload["n_total"] = len(items)
        if offset is None and limit is None:
            payload[key] = items
            return json_response(payload)
        offset = offset or 0
        window = items[offset:offset + limit] if limit is not None \
            else items[offset:]
        payload[key] = window
        payload["offset"] = offset
        if limit is not None and offset + limit < len(items):
            payload["next"] = self._next_link(
                path, offset + limit, limit, extra_query)
        return json_response(payload)

    # -- run endpoints -------------------------------------------------------------

    def _h_runs(self, request: Request, params: dict) -> Response:
        return self._paginate(request, "/api/runs",
                              self.registry.list_runs(), "runs")

    def _h_run_manifest(self, request: Request, params: dict) -> Response:
        return json_response(self._run(request, params["id"]).manifest())

    def _h_run_summary(self, request: Request, params: dict) -> Response:
        return json_response(self._run(request, params["id"]).summary())

    def _h_run_events(self, request: Request, params: dict) -> Response:
        """Run events: tail page, cursor page, or full stream.

        ``?limit=N`` alone keeps the original contract (the last N
        matching events, buffered — a dashboard's "what just
        happened").  With ``?offset`` the listing walks *forward* with
        a ``next`` cursor, and the body streams chunked off the
        ``events.jsonl`` reader — as does the no-parameter full dump —
        so paper-scale manifests never materialize server-side.
        """
        run = self._run(request, params["id"])
        kind = request.query.get("kind")
        offset, limit = self._page_params(request)
        if offset is None and limit is not None:
            events = run.events(kind=kind, limit=limit)
            return json_response({"run_id": run.run_id,
                                  "n": len(events), "events": events})
        start = offset or 0
        # open before committing to a 200: a missing manifest 404s here
        events_iter = run.iter_events(kind)
        path = f"/api/runs/{params['id']}/events"
        extra = {"kind": kind} if kind is not None else None

        def generate():
            parts = [f'{{"offset": {start}, '
                     f'"run_id": {json.dumps(run.run_id)}, "events": [']
            size = taken = 0
            more = False
            for index, event in enumerate(events_iter):
                if index < start:
                    continue
                if limit is not None and taken >= limit:
                    more = True
                    break
                text = json.dumps(_sanitize(event), sort_keys=True)
                parts.append(("," if taken else "") + text)
                taken += 1
                size += len(text)
                if size >= 64 * 1024:
                    yield "".join(parts).encode("utf-8")
                    parts, size = [], 0
            parts.append(f'], "n": {taken}')
            if more:
                link = self._next_link(path, start + limit, limit, extra)
                parts.append(f', "next": {json.dumps(link)}')
            parts.append("}")
            yield "".join(parts).encode("utf-8")

        return Response(status=200, body=StreamBody(generate()),
                        content_type="application/json")

    def _h_run_provenance(self, request: Request,
                          params: dict) -> Response:
        run = self._run(request, params["id"])
        artifact = request.query.get("artifact")
        if artifact is None:
            return json_response(run.provenance())
        direction = request.query.get("direction", "up")
        try:
            return json_response(run.lineage(artifact, direction))
        except DataError as exc:
            status = 404 if "no provenance record" in str(exc) else 400
            raise ServeError(status, str(exc)) from None

    def _h_run_artifacts(self, request: Request,
                         params: dict) -> Response:
        """Paginated provenance-record listing for one run."""
        run = self._run(request, params["id"])
        records = list(run.provenance().get("artifacts", []))
        return self._paginate(
            request, f"/api/runs/{params['id']}/artifacts",
            records, "artifacts",
            extra_payload={"run_id": run.run_id})

    # -- ingest (the write path) ---------------------------------------------------

    def _h_post_run(self, request: Request, params: dict) -> Response:
        """Ingest a completed workdir (tar stream) into the registry.

        Every artifact is verified against its ``provenance.json``
        content hash before the run becomes visible; a tampered or
        incomplete archive is rejected with a structured error and
        leaves no trace on disk.
        """
        if self.registry.ingest_dir is None:
            raise ServeError(503, "run ingest is disabled (start "
                                  "repro-serve with --ingest-dir)")
        from repro.serve.ingest import ingest_run
        result = ingest_run(request.body, self.registry, self.obs)
        return json_response(result, status=201)

    # -- artifact endpoint ---------------------------------------------------------

    def _negotiate(self, request: Request, path: str) -> str:
        """Representation: ``csv``/``npf``/``json``/``jsonl``/``raw``."""
        fmt = request.query.get("format")
        if fmt is not None:
            if fmt not in ("csv", "npf", "json", "jsonl", "raw"):
                raise ServeError(400, f"unknown format {fmt!r}; "
                                      f"want csv|npf|json|jsonl|raw")
            return fmt
        accept = request.header("accept")
        tabular = path.endswith((".csv", ".npf"))
        if tabular and "application/json" in accept:
            return "json"
        if tabular and "application/x-npf" in accept:
            return "npf"
        if tabular and "text/csv" in accept:
            return "csv"
        return "raw"

    def _h_artifact(self, request: Request, params: dict) -> Response:
        run = self._run(request)
        path = run.find_artifact(params["name"])
        if path is None:
            raise NotFound(f"no artifact {params['name']!r} in run "
                           f"{run.basename!r}")
        fmt = self._negotiate(request, path)
        if fmt == "npf" and path.endswith(".csv"):
            # only a hash-verified twin may substitute for the CSV
            twin = resolve_table_path(path, hash_cache=self.hashes)
            if not twin.endswith(".npf"):
                raise ServeError(406, "no current .npf twin for "
                                      f"{params['name']!r}")
            path = twin
        elif fmt == "csv" and not path.endswith(".csv"):
            raise ServeError(406, f"{params['name']!r} has no CSV form")
        if fmt not in ("json", "jsonl"):
            return self._serve_file(request, path)
        if not path.endswith((".csv", ".npf")):
            raise ServeError(406, f"{params['name']!r} is not tabular; "
                                  f"only csv/npf convert to {fmt}")
        if fmt == "jsonl":
            return self._stream_jsonl(request, params["name"], path)
        sha = self.hashes.sha256(path)

        def to_json() -> bytes:
            frame = read_table_fast(path, hash_cache=self.hashes)
            payload = {"name": params["name"], "n_rows": len(frame),
                       "columns": frame.to_dict()}
            return json.dumps(_sanitize(payload),
                              sort_keys=True).encode("utf-8")

        return self._conditional(request, sha + "-json", to_json,
                                 "application/json",
                                 cache_key=("artifact-json", sha))

    def _stream_jsonl(self, request: Request, name: str,
                      path: str) -> Response:
        """Row-streamed table conversion: one JSON object per line,
        produced chunk-by-chunk off :func:`repro.frame.io.iter_table`.
        A CSV streams from its current ``.npf`` twin (as ``?format=npf``
        resolves it), so a paper-scale table never lives in memory
        whole and the rows hold the values ``?format=json`` serves.
        Negotiation checks only the twin's header, so the twin's payload
        is decoded once, a chunk at a time, before the first byte: a
        twin that fails to decode streams the CSV instead, as
        ``?format=json`` reads it, rather than cutting the body."""
        sha = self.hashes.sha256(path)

        def generate():
            source = resolve_table_path(path, hash_cache=self.hashes)
            if source != path:
                try:
                    for _ in iter_table(source, chunk_rows=4096):
                        pass
                except (DataError, OSError):
                    source = path
            for frame in iter_table(source, chunk_rows=4096):
                columns = frame.to_dict()
                names = list(columns)
                lines = []
                for values in zip(*(columns[n] for n in names)):
                    record = dict(zip(names, values))
                    lines.append(json.dumps(_sanitize(record),
                                            sort_keys=True))
                if lines:
                    yield ("\n".join(lines) + "\n").encode("utf-8")

        return self._conditional(request, sha + "-jsonl",
                                 lambda: StreamBody(generate()),
                                 "application/jsonl")

    # -- chart endpoints -----------------------------------------------------------

    def _h_chart_index(self, request: Request, params: dict) -> Response:
        run = self._run(request)
        return json_response({"run_id": run.run_id,
                              "charts": run.chart_keys()})

    def _render_chart(self, sidecar: str, ext: str) -> bytes:
        from repro.charts.render import Primitive
        from repro.charts.svg import primitives_to_svg
        with open(sidecar, encoding="utf-8") as fh:
            payload = json.load(fh)
        prims = [Primitive(**raw) for raw in payload["primitives"]]
        width = int(payload["width"])
        height = int(payload["height"])
        self.obs.counter("serve.charts.rendered").inc()
        if ext == "svg":
            return primitives_to_svg(prims, width, height).encode("utf-8")
        from repro.raster.draw import Canvas
        from repro.raster.png import encode_png
        canvas = Canvas(width, height)
        for prim in prims:
            canvas.draw(prim)
        return encode_png(canvas.to_uint8())

    def _h_chart(self, request: Request, params: dict) -> Response:
        run = self._run(request)
        key, dot, ext = params["file"].rpartition(".")
        if not dot or ext not in ("svg", "png"):
            raise NotFound("chart endpoint serves <key>.svg or "
                           "<key>.png")
        sidecar = run.chart_sidecar(key)
        if sidecar is None:
            raise NotFound(f"no renderable chart {key!r} in run "
                           f"{run.basename!r}")
        sha = self.hashes.sha256(sidecar)
        ctype = _CTYPES[f".{ext}"]
        return self._conditional(
            request, f"{sha}-{ext}",
            lambda: self._render_chart(sidecar, ext), ctype,
            cache_key=("chart", sha, ext))

    def _h_chart_page(self, request: Request, params: dict) -> Response:
        run = self._run(request)
        name = params["file"]
        if not name.endswith(".html"):
            name += ".html"
        path = run.find_artifact(f"charts/{name}")
        if path is None:
            raise NotFound(f"no chart page {params['file']!r}")
        return self._serve_file(request, path)

    # -- live pages ----------------------------------------------------------------

    def _h_dashboard(self, request: Request, params: dict) -> Response:
        run = self._run(request)
        path = run.find_artifact("dashboard/index.html")
        if path is None:
            # no dashboard yet: a minimal index so `/` always answers
            return json_response({
                "service": "repro.serve",
                "runs": [r.basename for r in self.registry.runs],
                "api": sorted({f"{r.method} {r.pattern}"
                               for r in self.router.routes}),
            })
        return self._serve_file(request, path)

    def _h_trace(self, request: Request, params: dict) -> Response:
        run = self._run(request)
        path = run.find_artifact("dashboard/trace.html")
        if path is None:
            raise NotFound(f"run {run.basename!r} has no trace page")
        return self._serve_file(request, path)

    # -- background jobs -----------------------------------------------------------

    def _h_jobs(self, request: Request, params: dict) -> Response:
        """Every stored job, oldest first, optionally filtered by
        ``campaign`` and by reported ``state`` (a leased job is
        ``pending``); the durable history is unbounded, so clients page
        it with ``offset``/``limit``."""
        filters = {k: request.query[k] for k in ("campaign", "state")
                   if k in request.query}
        jobs = [j.to_dict() for j in
                self.jobs.list_jobs(campaign=filters.get("campaign"))]
        if "state" in filters:
            jobs = [j for j in jobs if j["status"] == filters["state"]]
        return self._paginate(request, "/api/jobs", jobs, "jobs",
                              extra_query=filters)

    def _h_job(self, request: Request, params: dict) -> Response:
        job = self.jobs.get(params["id"])
        if job is None:
            raise NotFound(f"no job {params['id']!r}")
        out = job.to_dict()
        if request.query.get("history") in ("1", "true"):
            out["transitions"] = self.jobs.store.transitions(job.id)
        return json_response(out)

    def _submit(self, kind: str, payload: dict) -> Response:
        """Store one job: ``202`` plus its poll URL, or ``429`` with
        ``Retry-After`` when the store holds ``job_capacity`` pending
        jobs."""
        try:
            job = self.jobs.submit(kind, payload)
        except QueueFull as exc:
            raise ServeError(
                429, str(exc),
                headers={"Retry-After": str(self.retry_after_s)}) \
                from None
        return json_response({"job": job.to_dict(),
                              "poll": f"/api/jobs/{job.id}"},
                             status=202)

    def _json_body(self, request: Request) -> dict:
        try:
            payload = json.loads(request.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            raise ServeError(400, "body must be JSON") from None
        if not isinstance(payload, dict):
            raise ServeError(400, "body must be a JSON object")
        return payload

    def _h_post_insight(self, request: Request, params: dict) -> Response:
        body = self._json_body(request)
        key = body.get("chart")
        if not isinstance(key, str) or not key:
            raise ServeError(400, 'body needs {"chart": "<key>"}')
        run = self._run(request, body.get("run"))
        if run.chart_sidecar(key) is None:
            raise NotFound(f"no renderable chart {key!r} in run "
                           f"{run.basename!r}")
        payload = {"run": run.run_id, "run_root": run.root,
                   "chart": key, "backend": self.llm_backend}
        return self._submit("insight", payload)

    def _h_post_simulate(self, request: Request, params: dict) -> Response:
        # validation errors (ReproError) surface as 400s in dispatch
        payload = simulate_payload(self._json_body(request))
        return self._submit("simulate", payload)

    # -- campaigns -----------------------------------------------------------------

    def _h_campaigns(self, request: Request, params: dict) -> Response:
        return json_response(
            {"campaigns": self.jobs.store.list_campaigns()})

    def _h_campaign(self, request: Request, params: dict) -> Response:
        try:
            status = self.jobs.store.campaign_status(params["id"])
        except DataError:
            raise NotFound(f"no campaign {params['id']!r}") from None
        if request.query.get("jobs") in ("1", "true"):
            status["jobs"] = [j.to_dict() for j in
                              self.jobs.list_jobs(campaign=params["id"])]
        return json_response(status)

    def _h_post_campaign(self, request: Request, params: dict) -> Response:
        """Durably enqueue one parameter-sweep campaign (idempotent:
        resubmitting the same name+spec resumes it).  Its members run
        on the server's job workers and on any ``repro-launcher``
        attached to the same database; they do not count against
        ``job_capacity``."""
        body = self._json_body(request)
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ServeError(400, 'body needs {"name": "<campaign>"}')
        spec = body.get("spec", {})
        if not isinstance(spec, dict):
            raise ServeError(400, "spec must be a JSON object")
        status = submit_campaign(self.jobs.store, name, spec)
        self.jobs.launcher.wake()
        return json_response(
            {"campaign": status,
             "poll": f"/api/campaigns/{status['id']}"}, status=202)
