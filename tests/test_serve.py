"""Tests for the ``repro.serve`` HTTP service layer.

Most endpoint coverage goes through :meth:`ServeApp.dispatch` directly
(transport-free, no ports); one integration test binds a real
ephemeral-port event-loop server and exercises every endpoint over
sockets.
"""

import json
import os
import struct
import threading
import time
from http.client import HTTPConnection

import pytest

from repro._util.errors import ConfigError, DataError
from repro.fabric import FabricStore
from repro.serve import (
    EventLoopServer,
    JobQueue,
    LRUCache,
    MethodNotAllowed,
    NotFound,
    QueueFull,
    Request,
    Router,
    RunDir,
    RunRegistry,
    ServeApp,
)
from repro.workflows import SchedulingAnalysisWorkflow, WorkflowConfig


@pytest.fixture(scope="module")
def served_workdir(tmp_path_factory):
    """One finished workflow workdir the whole module serves."""
    workdir = str(tmp_path_factory.mktemp("served"))
    cfg = WorkflowConfig(system="testsys", months=("2024-01",),
                         workdir=workdir, workers=2, seed=5,
                         rate_scale=0.04)
    SchedulingAnalysisWorkflow(cfg).run()
    return workdir


@pytest.fixture(scope="module")
def app(served_workdir, tmp_path_factory):
    app = ServeApp([served_workdir], job_workers=1, job_capacity=4,
                   request_timeout_s=30.0,
                   fabric=str(tmp_path_factory.mktemp("jobs") / "db"))
    yield app
    app.close()


def get(app, path, query=None, headers=None):
    return app.dispatch(Request(method="GET", path=path,
                                query=query or {}, headers=headers or {}))


def post(app, path, payload):
    return app.dispatch(Request(method="POST", path=path,
                                body=json.dumps(payload).encode()))


def body_json(resp):
    return json.loads(resp.body.decode("utf-8"))


class TestRouter:
    def _router(self):
        r = Router()
        r.get("/api/runs", lambda req, p: "runs")
        r.get("/api/runs/<id>/summary", lambda req, p: p)
        r.post("/api/insights", lambda req, p: "submit")
        return r

    def test_exact_match(self):
        route, params = self._router().resolve("GET", "/api/runs")
        assert route.handler(None, params) == "runs"
        assert params == {}

    def test_param_capture(self):
        route, params = self._router().resolve("GET",
                                               "/api/runs/wf-1/summary")
        assert params == {"id": "wf-1"}

    def test_trailing_slash_tolerated(self):
        route, _ = self._router().resolve("GET", "/api/runs/")
        assert route.pattern == "/api/runs"

    def test_unknown_path_404(self):
        with pytest.raises(NotFound):
            self._router().resolve("GET", "/api/nope")

    def test_param_never_spans_segments(self):
        with pytest.raises(NotFound):
            self._router().resolve("GET", "/api/runs/a/b/summary")

    def test_wrong_method_405_with_allow(self):
        with pytest.raises(MethodNotAllowed) as ei:
            self._router().resolve("DELETE", "/api/insights")
        assert ei.value.allowed == ["POST"]
        assert ei.value.headers["Allow"] == "POST"

    def test_empty_segment_not_captured(self):
        with pytest.raises(NotFound):
            self._router().resolve("GET", "/api/runs//summary")


class TestLRUCache:
    def test_get_or_put_and_hit(self):
        cache = LRUCache(max_entries=4)
        calls = []
        value, hit = cache.get_or_put("k", lambda: calls.append(1) or b"v")
        assert (value, hit) == (b"v", False)
        value, hit = cache.get_or_put("k", lambda: calls.append(1) or b"v")
        assert (value, hit) == (b"v", True)
        assert len(calls) == 1

    def test_entry_eviction_lru_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"   # refresh a
        cache.put("c", b"3")            # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == b"1"

    def test_byte_bound_eviction(self):
        cache = LRUCache(max_entries=100, max_bytes=10)
        cache.put("a", b"x" * 6)
        cache.put("b", b"y" * 6)        # 12 bytes > 10: evicts a
        assert cache.get("a") is None
        assert cache.get("b") is not None

    def test_oversized_value_not_cached(self):
        cache = LRUCache(max_entries=4, max_bytes=4)
        cache.put("big", b"x" * 10)
        assert cache.get("big") is None

    def test_clear(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", b"1")
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None


def job_queue(tmp_path, runners=None, **kwargs):
    """A JobQueue over its own store, with extra test runners."""
    q = JobQueue(FabricStore(str(tmp_path / "jobs.sqlite3")), **kwargs)
    q.launcher.runners.update(runners or {})
    return q


def wait_status(q, job_id, statuses, timeout=10.0):
    """Poll ``job_id`` until its reported status is in ``statuses``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = q.get(job_id)
        if job.to_dict()["status"] in statuses:
            return job
        time.sleep(0.005)
    pytest.fail(f"job {job_id} never reached {sorted(statuses)}")


class TestJobQueue:
    def test_lifecycle_pending_running_done(self, tmp_path):
        gate = threading.Event()
        q = job_queue(tmp_path, {"test": lambda p, obs: gate.wait(5)
                                 and "result"}, workers=1, capacity=4)
        job = q.submit("test", {})
        assert job.to_dict()["status"] == "pending"
        wait_status(q, job.id, {"running"})
        gate.set()
        done = wait_status(q, job.id, {"done", "failed"})
        assert done.state == "done" and done.result == "result"
        assert job.created_s <= done.started_s <= done.finished_s
        assert q.close(timeout=5)

    def test_failure_recorded(self, tmp_path):
        def boom(payload, obs):
            raise DataError("payload can never succeed")

        q = job_queue(tmp_path, {"boom": boom}, workers=1, capacity=4)
        job = q.submit("boom", {})
        failed = wait_status(q, job.id, {"done", "failed"})
        assert failed.state == "failed"
        assert "DataError" in failed.error
        assert "error" in failed.to_dict()
        q.close()

    def test_bounded_queue_rejects(self, tmp_path):
        gate = threading.Event()
        q = job_queue(tmp_path, {"hold": lambda p, obs: gate.wait(5)},
                      workers=1, capacity=1)
        held = q.submit("hold", {})     # occupies the worker
        wait_status(q, held.id, {"running"})
        q.submit("noop", {})            # the one pending slot
        with pytest.raises(QueueFull):
            q.submit("noop", {})
        gate.set()
        q.close()

    def test_drain_refuses_new_work(self, tmp_path):
        # a closed queue runs nothing more: a later submission is kept
        # pending in the store for the next start
        q = job_queue(tmp_path, workers=1, capacity=4)
        assert q.close(timeout=5)
        late = q.submit("noop", {})
        time.sleep(0.2)
        assert q.get(late.id).state == "pending"

    def test_drain_waits_for_queued_jobs(self, tmp_path):
        # close() waits for the running job; the queued ones stay
        # pending in the store
        started, release = threading.Event(), threading.Event()

        def slow(payload, obs):
            started.set()
            release.wait(5)
            return payload["i"]

        q = job_queue(tmp_path, {"slow": slow}, workers=1, capacity=4)
        jobs = [q.submit("slow", {"i": i}) for i in range(3)]
        assert started.wait(5)
        threading.Timer(0.1, release.set).start()
        assert q.close(timeout=10)
        held = [q.get(j.id) for j in jobs]
        assert [j.state for j in held] == ["done", "pending", "pending"]
        assert held[0].result == 0

    def test_unknown_job_is_none(self, tmp_path):
        q = job_queue(tmp_path, workers=1, capacity=1)
        assert q.get("job-999") is None
        q.close()

    def test_list_jobs_in_submission_order(self, tmp_path):
        q = job_queue(tmp_path, workers=1, capacity=12)
        jobs = [q.submit("noop", {}) for _ in range(12)]
        assert [j.id for j in q.list_jobs()] == [j.id for j in jobs]
        q.close()

    def test_drain_deadline_ignores_wall_clock_jumps(self, tmp_path,
                                                     monkeypatch):
        # a time.time()-based deadline would expire instantly when the
        # wall clock steps forward (NTP, DST); monotonic must not care
        import repro.serve.jobs as jobs_mod

        class ClockShim:
            """`time` stand-in with independently steerable clocks."""

            def __init__(self):
                self.wall_offset = 0.0
                self.mono_offset = 0.0

            def time(self):
                return time.time() + self.wall_offset

            def monotonic(self):
                return time.monotonic() + self.mono_offset

            def sleep(self, s):
                time.sleep(s)

        shim = ClockShim()
        monkeypatch.setattr(jobs_mod, "time", shim)
        q = job_queue(tmp_path, {"quick": lambda p, obs: time.sleep(0.05)},
                      workers=1, capacity=4)
        job = q.submit("quick", {})
        wait_status(q, job.id, {"running", "done"})
        shim.wall_offset = 1e6          # massive forward step
        assert q.close(timeout=10)      # still finishes, still True
        assert q.get(job.id).state == "done"

    def test_drain_deadline_follows_monotonic_clock(self, tmp_path,
                                                    monkeypatch):
        import repro.serve.jobs as jobs_mod

        class ClockShim:
            def __init__(self):
                self.mono_offset = 0.0

            def time(self):
                return time.time()

            def monotonic(self):
                return time.monotonic() + self.mono_offset

            def sleep(self, s):
                time.sleep(s)

        shim = ClockShim()
        monkeypatch.setattr(jobs_mod, "time", shim)
        gate = threading.Event()
        q = job_queue(tmp_path, {"hold": lambda p, obs: gate.wait(10)},
                      workers=1, capacity=4)
        wait_status(q, q.submit("hold", {}).id, {"running"})

        def advance():
            time.sleep(0.1)
            shim.mono_offset = 3600.0   # fake an hour passing

        threading.Thread(target=advance, daemon=True).start()
        t0 = time.monotonic()
        assert q.close(timeout=30.0) is False
        assert time.monotonic() - t0 < 5
        gate.set()
        shim.mono_offset = 0.0
        assert q.close(timeout=10)

    def test_worker_reraises_keyboard_interrupt(self, tmp_path,
                                                monkeypatch):
        # regression: `except BaseException` swallowed KeyboardInterrupt
        # and SystemExit, keeping the worker alive through a Ctrl-C
        escaped = []
        monkeypatch.setattr(
            threading, "excepthook",
            lambda hook_args: escaped.append(hook_args.exc_type))

        def interrupt(payload, obs):
            raise KeyboardInterrupt("simulated ctrl-c")

        q = job_queue(tmp_path, {"interrupt": interrupt}, workers=1,
                      capacity=4)
        job = q.submit("interrupt", {})
        deadline = time.monotonic() + 5
        while not escaped and time.monotonic() < deadline:
            time.sleep(0.005)
        # the attempt is recorded, then the exception propagated out of
        # the worker thread
        assert escaped == [KeyboardInterrupt]
        held = q.get(job.id)
        assert held.attempt == 1 and "KeyboardInterrupt" in held.error
        q.close()


class TestRunDir:
    def test_run_id_from_manifest(self, served_workdir):
        run = RunDir(served_workdir)
        assert run.run_id.startswith("run-")
        assert run.manifest()["files"]["summary.json"]["exists"]

    def test_missing_workdir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunDir(str(tmp_path / "nope"))

    def test_find_artifact_by_name_and_path(self, served_workdir):
        run = RunDir(served_workdir)
        by_name = run.find_artifact("2024-01-jobs")
        assert by_name and by_name.endswith(".csv")
        by_path = run.find_artifact("data/2024-01-jobs.csv")
        assert by_path == by_name

    def test_traversal_rejected(self, served_workdir):
        run = RunDir(served_workdir)
        assert run.find_artifact("../secrets.txt") is None
        assert run.find_artifact("/etc/passwd") is None
        assert run.chart_sidecar("../volume") is None

    def test_lineage_up_reaches_inputs(self, served_workdir):
        run = RunDir(served_workdir)
        lin = run.lineage("charts/volume.html", direction="up")
        paths = {n["path"] for n in lin["nodes"]}
        assert "charts/volume.html" in paths
        assert any(p.endswith("-jobs.csv") for p in paths)
        assert all(edge[1] in paths for edge in lin["edges"])

    def test_lineage_down_reaches_consumers(self, served_workdir):
        run = RunDir(served_workdir)
        lin = run.lineage("data/2024-01-jobs.csv", direction="down")
        paths = {n["path"] for n in lin["nodes"]}
        assert any(p.startswith("charts/") for p in paths)

    def test_lineage_unknown_artifact(self, served_workdir):
        run = RunDir(served_workdir)
        with pytest.raises(DataError, match="no provenance record"):
            run.lineage("data/none.csv")
        with pytest.raises(DataError, match="up|down"):
            run.lineage("charts/volume.html", direction="sideways")

    def test_registry_lookup(self, served_workdir):
        reg = RunRegistry([served_workdir])
        base = os.path.basename(served_workdir)
        assert reg.get(None) is reg.default
        assert reg.get(base) is reg.default
        assert reg.get(reg.default.run_id) is reg.default
        assert reg.get("missing") is None


class TestEndpoints:
    def test_healthz(self, app):
        resp = get(app, "/healthz")
        assert resp.status == 200 and body_json(resp)["ok"] is True

    def test_runs_listing(self, app, served_workdir):
        runs = body_json(get(app, "/api/runs"))["runs"]
        assert len(runs) == 1
        assert runs[0]["workdir"] == os.path.basename(served_workdir)
        assert runs[0]["n_artifacts"] > 10

    def test_manifest_summary_events(self, app, served_workdir):
        rid = os.path.basename(served_workdir)
        assert body_json(get(app, f"/api/runs/{rid}/manifest"))[
            "files"]["events.jsonl"]["exists"]
        summary = body_json(get(app, f"/api/runs/{rid}/summary"))
        assert summary["n_events"] > 0
        events = body_json(get(app, f"/api/runs/{rid}/events",
                               query={"kind": "task_finished",
                                      "limit": "5"}))
        assert events["n"] == 5
        assert all(e["kind"] == "task_finished"
                   for e in events["events"])

    def test_events_bad_limit_400(self, app, served_workdir):
        rid = os.path.basename(served_workdir)
        resp = get(app, f"/api/runs/{rid}/events",
                   query={"limit": "many"})
        assert resp.status == 400

    def test_unknown_run_404(self, app):
        assert get(app, "/api/runs/ghost/summary").status == 404

    def test_provenance_and_lineage(self, app, served_workdir):
        rid = os.path.basename(served_workdir)
        prov = body_json(get(app, f"/api/runs/{rid}/provenance"))
        assert prov["artifacts"]
        lin = body_json(get(app, f"/api/runs/{rid}/provenance",
                            query={"artifact": "charts/volume.html",
                                   "direction": "up"}))
        assert lin["direction"] == "up" and len(lin["nodes"]) > 1
        missing = get(app, f"/api/runs/{rid}/provenance",
                      query={"artifact": "data/ghost.csv"})
        assert missing.status == 404

    def test_artifact_raw_with_etag_304(self, app):
        resp = get(app, "/api/artifacts/2024-01-jobs")
        assert resp.status == 200
        assert resp.content_type.startswith("text/csv")
        etag = resp.headers["ETag"]
        assert etag.startswith('"') and len(etag) > 40
        cached = get(app, "/api/artifacts/2024-01-jobs",
                     headers={"if-none-match": etag})
        assert cached.status == 304 and cached.body == b""
        assert cached.headers["ETag"] == etag

    def test_artifact_etag_matches_store_hash(self, app, served_workdir):
        resp = get(app, "/api/artifacts/2024-01-jobs")
        path = os.path.join(served_workdir, "data", "2024-01-jobs.csv")
        assert resp.headers["ETag"] == f'"{app.hashes.sha256(path)}"'

    def test_artifact_json_negotiation(self, app):
        resp = get(app, "/api/artifacts/2024-01-jobs",
                   headers={"accept": "application/json"})
        assert resp.status == 200
        payload = body_json(resp)
        assert payload["n_rows"] > 0
        assert "JobID" in payload["columns"]
        explicit = get(app, "/api/artifacts/2024-01-jobs",
                       query={"format": "json"})
        assert body_json(explicit)["n_rows"] == payload["n_rows"]

    def test_artifact_npf_twin_negotiation(self, app):
        resp = get(app, "/api/artifacts/2024-01-jobs",
                   query={"format": "npf"})
        assert resp.status == 200
        assert resp.content_type == "application/x-npf"
        assert resp.body[:4] == b"NPF1"

    def test_artifact_unknown_format_400(self, app):
        assert get(app, "/api/artifacts/2024-01-jobs",
                   query={"format": "parquet"}).status == 400

    def test_artifact_not_tabular_406(self, app):
        resp = get(app, "/api/artifacts/volume",
                   query={"format": "json"})
        assert resp.status == 406

    def test_artifact_missing_404(self, app):
        assert get(app, "/api/artifacts/ghost").status == 404

    def test_artifact_traversal_404(self, app):
        assert get(app, "/api/artifacts/..").status == 404
        assert get(app,
                   "/api/artifacts/../../etc/passwd").status == 404

    def test_chart_index(self, app):
        charts = body_json(get(app, "/api/charts"))["charts"]
        assert "volume" in charts and "2024-01-waits" in charts

    def test_chart_svg_and_png_with_lru(self, app):
        svg = get(app, "/api/charts/volume.svg")
        assert svg.status == 200 and svg.body.startswith(b"<svg")
        before = app.obs.metrics.snapshot().get("serve.cache.hits", 0)
        first = get(app, "/api/charts/occupancy.png")
        assert first.status == 200 and first.body[:8] == \
            b"\x89PNG\r\n\x1a\n"
        again = get(app, "/api/charts/occupancy.png")
        assert again.body == first.body
        hits = app.obs.metrics.snapshot()["serve.cache.hits"]
        assert hits >= before + 1       # second render came from cache

    def test_chart_conditional_304(self, app):
        first = get(app, "/api/charts/volume.svg")
        etag = first.headers["ETag"]
        cached = get(app, "/api/charts/volume.svg",
                     headers={"if-none-match": etag})
        assert cached.status == 304

    def test_chart_unknown_404(self, app):
        assert get(app, "/api/charts/ghost.svg").status == 404
        assert get(app, "/api/charts/volume.pdf").status == 404

    def test_dashboard_trace_and_chart_pages(self, app):
        for path in ("/", "/dashboard", "/trace",
                     "/charts/volume.html", "/charts/volume"):
            resp = get(app, path)
            assert resp.status == 200, path
            assert resp.content_type.startswith("text/html"), path

    def test_method_not_allowed(self, app):
        resp = app.dispatch(Request(method="POST", path="/healthz"))
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET"

    def test_unknown_route_404(self, app):
        assert get(app, "/api/nope").status == 404

    def test_insight_job_validation(self, app):
        assert post(app, "/api/insights", {}).status == 400
        assert post(app, "/api/insights",
                    {"chart": "ghost"}).status == 404

    def test_simulate_validation(self, app):
        assert post(app, "/api/simulate",
                    {"system": "notasystem"}).status == 400
        assert post(app, "/api/simulate",
                    {"month": "2024-13"}).status == 400
        assert post(app, "/api/simulate",
                    {"rate_scale": 0}).status == 400
        assert post(app, "/api/simulate",
                    {"variants": ["nope"]}).status == 400

    def test_oversized_body_413(self, served_workdir):
        small = ServeApp([served_workdir], max_body_bytes=64,
                         job_workers=1, job_capacity=1)
        resp = small.dispatch(Request(method="POST",
                                      path="/api/insights",
                                      body=b"x" * 100))
        assert resp.status == 413
        small.close()

    def test_request_timeout_504(self, served_workdir):
        slow = ServeApp([served_workdir], request_timeout_s=0.05,
                        job_workers=1, job_capacity=1)
        slow.router.get("/slow", lambda req, p: time.sleep(1))
        resp = slow.dispatch(Request(method="GET", path="/slow"))
        assert resp.status == 504
        slow.close()

    def test_metrics_exposition(self, app):
        get(app, "/healthz")            # ensure request counters exist
        wait_status(app.jobs, app.jobs.submit("noop", {}).id, {"done"})
        text = get(app, "/metrics").body.decode()
        assert "# TYPE repro_serve_http_requests_total counter" in text
        assert "repro_serve_http_requests_total " in text
        assert "# TYPE repro_serve_fabric_pending gauge" in text
        assert "repro_serve_http_status_2xx_total" in text



class TestArtifactJsonl:
    def test_jsonl_rows_equal_json_columns(self, tmp_path):
        """jsonl streams the twin, so a column empty for the first 4,096
        rows (one stream chunk) keeps the values ``?format=json`` reads;
        the ETag still names the CSV's content."""
        from repro.pipeline.curate import CuratedCsvWriter
        from repro.store import ArtifactStore

        art = ArtifactStore(str(tmp_path)).declare(
            "2024-01-jobs", "csv", schema=["JobID", "User", "Comment"])
        with CuratedCsvWriter(art) as writer:
            writer.write_rows({"JobID": 1000 + i, "User": f"u{i % 5}",
                               "Comment": f"c{i}" if i >= 4096 else ""}
                              for i in range(4200))
        app = ServeApp([str(tmp_path)], job_workers=1, job_capacity=1)
        try:
            resp = get(app, "/api/artifacts/2024-01-jobs",
                       query={"format": "jsonl"})
            assert resp.status == 200
            sha = app.hashes.sha256(art.path)
            assert resp.headers["ETag"] == f'"{sha}-jsonl"'
            rows = [json.loads(line)
                    for line in resp.body.decode().splitlines()]
            columns = body_json(get(app, "/api/artifacts/2024-01-jobs",
                                    query={"format": "json"}))["columns"]
        finally:
            app.close()
        assert len(rows) == 4200
        assert rows[0]["Comment"] == ""
        assert {c: [r[c] for r in rows] for c in columns} == columns

    def test_corrupt_twin_streams_the_csv(self, tmp_path):
        """A twin whose header checks out but whose payload does not
        decode (the top bit of the 200th ``User`` value offset flipped)
        is still the negotiated source.  jsonl then streams the CSV's
        rows in one complete body, the rows ``?format=json`` serves,
        instead of raising ``DataError`` part-way through the body."""
        from repro.frame import sniff_npf
        from repro.pipeline.curate import CuratedCsvWriter
        from repro.store import ArtifactStore, resolve_table_path

        art = ArtifactStore(str(tmp_path)).declare(
            "2024-03-jobs", "csv", schema=["JobID", "User"])
        with CuratedCsvWriter(art) as writer:
            writer.write_rows({"JobID": 1000 + i, "User": f"u{i % 5}"}
                              for i in range(1017))
        twin = art.path[:-4] + ".npf"
        blob = bytearray(open(twin, "rb").read())
        hlen = struct.unpack("<I", blob[4:8])[0]
        base = (8 + hlen + 63) // 64 * 64
        user = next(c for c in sniff_npf(twin)["columns"]
                    if c["name"] == "User")
        blob[base + user["offsets"][0] + 8 * 200 + 7] ^= 0x80
        with open(twin, "wb") as fh:
            fh.write(blob)
        assert resolve_table_path(art.path) == twin
        app = ServeApp([str(tmp_path)], job_workers=1, job_capacity=1)
        try:
            resp = get(app, "/api/artifacts/2024-03-jobs",
                       query={"format": "jsonl"})
            assert resp.status == 200
            rows = [json.loads(line)
                    for line in resp.body.decode().splitlines()]
            columns = body_json(get(app, "/api/artifacts/2024-03-jobs",
                                    query={"format": "json"}))["columns"]
        finally:
            app.close()
        assert len(rows) == 1017
        assert {c: [r[c] for r in rows] for c in columns} == columns
        assert columns["User"][200] == "u0"


class TestBackpressure:
    def test_queue_full_maps_to_429(self, served_workdir, tmp_path):
        app = ServeApp([served_workdir], job_workers=1, job_capacity=1,
                       fabric=str(tmp_path / "jobs.sqlite3"))
        gate = threading.Event()
        app.jobs.launcher.runners["hold"] = lambda p, obs: gate.wait(5)
        held = app.jobs.submit("hold", {})      # occupies the worker
        wait_status(app.jobs, held.id, {"running"})
        app.jobs.submit("noop", {})             # fills the queue
        resp = post(app, "/api/insights", {"chart": "volume"})
        assert resp.status == 429
        assert resp.headers["Retry-After"] == "1"
        assert body_json(resp)["error"]["status"] == 429
        rejected = app.obs.metrics.snapshot()["serve.jobs.rejected"]
        assert rejected >= 1
        gate.set()
        assert app.close(timeout=10)


class TestGracefulDrain:
    def test_close_completes_queued_jobs(self, served_workdir, tmp_path):
        # close() lets every running job finish; what is still pending
        # stays in the store for the next start
        app = ServeApp([served_workdir], job_workers=2, job_capacity=4,
                       fabric=str(tmp_path / "jobs.sqlite3"))
        done, gate = [], threading.Event()

        def slow(payload, obs):
            gate.wait(5)
            done.append(payload["i"])

        app.jobs.launcher.runners["slow"] = slow
        jobs = [app.jobs.submit("slow", {"i": i}) for i in range(3)]
        for job in jobs[:2]:
            wait_status(app.jobs, job.id, {"running"})
        threading.Timer(0.1, gate.set).start()
        assert app.close(timeout=10)
        assert sorted(done) == [0, 1]
        assert app.jobs.get(jobs[2].id).state == "pending"

    def test_server_close_drains(self, served_workdir, tmp_path):
        app = ServeApp([served_workdir], job_workers=1, job_capacity=4,
                       fabric=str(tmp_path / "jobs.sqlite3"))
        server = EventLoopServer(app, port=0).start()
        marker = []
        app.jobs.launcher.runners["slow"] = lambda p, obs: (
            time.sleep(0.1), marker.append("done"))
        wait_status(app.jobs, app.jobs.submit("slow", {}).id,
                    {"running", "done"})
        assert server.close(graceful=True, timeout=10)
        assert marker == ["done"]


class TestSocketIntegration:
    """The acceptance test: a served workdir over real sockets."""

    @pytest.fixture(scope="class")
    def server(self, served_workdir, tmp_path_factory):
        app = ServeApp([served_workdir], job_workers=1, job_capacity=8,
                       request_timeout_s=60.0,
                       fabric=str(tmp_path_factory.mktemp("jobs") / "db"))
        server = EventLoopServer(app, port=0).start()
        yield server
        server.close(graceful=True)

    def _request(self, server, method, path, body=None, headers=None):
        host, port = server.address
        conn = HTTPConnection(host, port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def _poll_job(self, server, job_id, timeout=60.0):
        statuses = []
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, _, body = self._request(server, "GET",
                                            f"/api/jobs/{job_id}")
            assert status == 200
            job = json.loads(body)
            if not statuses or statuses[-1] != job["status"]:
                statuses.append(job["status"])
            if job["status"] in ("done", "failed"):
                return job, statuses
            time.sleep(0.02)
        pytest.fail(f"job {job_id} did not finish")

    def test_every_endpoint_over_sockets(self, server, served_workdir):
        rid = os.path.basename(served_workdir)
        # health + runs + manifest family
        status, _, body = self._request(server, "GET", "/healthz")
        assert status == 200 and json.loads(body)["ok"]
        status, _, body = self._request(server, "GET", "/api/runs")
        assert status == 200 and json.loads(body)["runs"]
        for sub in ("manifest", "summary", "events", "provenance"):
            status, _, _ = self._request(server, "GET",
                                         f"/api/runs/{rid}/{sub}")
            assert status == 200, sub
        status, _, body = self._request(
            server, "GET",
            f"/api/runs/{rid}/provenance?"
            "artifact=charts/volume.html&direction=up")
        assert status == 200 and json.loads(body)["nodes"]

        # conditional artifact GET round-trip
        status, headers, body = self._request(
            server, "GET", "/api/artifacts/2024-01-jobs")
        assert status == 200 and body
        etag = headers["ETag"]
        status, headers, body = self._request(
            server, "GET", "/api/artifacts/2024-01-jobs",
            headers={"If-None-Match": etag})
        assert status == 304 and body == b""
        status, _, body = self._request(
            server, "GET", "/api/artifacts/2024-01-jobs",
            headers={"Accept": "application/json"})
        assert status == 200 and json.loads(body)["n_rows"] > 0

        # on-demand chart rendering hits the LRU on the second request
        app = server.app
        status, _, first = self._request(server, "GET",
                                         "/api/charts/volume.png")
        assert status == 200 and first[:8] == b"\x89PNG\r\n\x1a\n"
        before = app.obs.metrics.snapshot().get("serve.cache.hits", 0)
        status, _, again = self._request(server, "GET",
                                         "/api/charts/volume.png")
        assert status == 200 and again == first
        assert app.obs.metrics.snapshot()["serve.cache.hits"] > before
        status, _, svg = self._request(server, "GET",
                                       "/api/charts/volume.svg")
        assert status == 200 and svg.startswith(b"<svg")

        # live pages
        for page in ("/", "/trace", "/charts/volume.html"):
            status, headers, _ = self._request(server, "GET", page)
            assert status == 200, page
            assert headers["Content-Type"].startswith("text/html")

        # queued insight job: pending -> running -> done via polling
        status, _, body = self._request(
            server, "POST", "/api/insights",
            body=json.dumps({"chart": "volume"}))
        assert status == 202
        submitted = json.loads(body)
        assert submitted["job"]["status"] == "pending"
        job, statuses = self._poll_job(server, submitted["job"]["id"])
        assert job["status"] == "done"
        assert len(job["result"]["insight"]) > 50
        assert set(statuses) <= {"pending", "running", "done"}

        # simulate job over the policy lab
        status, _, body = self._request(
            server, "POST", "/api/simulate",
            body=json.dumps({"system": "testsys", "month": "2024-01",
                             "rate_scale": 0.02, "days": 2,
                             "variants": ["baseline", "no-backfill"]}))
        assert status == 202
        job, _ = self._poll_job(server, json.loads(body)["job"]["id"])
        assert job["status"] == "done"
        names = [o["name"] for o in job["result"]["outcomes"]]
        assert names == ["baseline", "no-backfill"]

        # job listing + metrics expose the traffic just generated
        status, _, body = self._request(server, "GET", "/api/jobs")
        assert status == 200 and len(json.loads(body)["jobs"]) >= 2
        status, _, body = self._request(server, "GET", "/metrics")
        text = body.decode()
        assert "repro_serve_http_requests_total" in text
        assert "repro_serve_fabric_pending" in text
        assert "repro_llm_calls_total" in text

        # error surfaces: 404, 405 (+Allow), 400
        status, _, _ = self._request(server, "GET", "/api/nope")
        assert status == 404
        status, headers, _ = self._request(server, "DELETE", "/healthz")
        assert status == 405 and headers["Allow"] == "GET"
        status, _, _ = self._request(server, "POST", "/api/insights",
                                     body="not json")
        assert status == 400
