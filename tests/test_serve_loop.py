"""Tests for the event-loop transport and the run-ingest write path.

The adversarial transport corners live here: slowloris partials hitting
the header timeout, pipelined keep-alive requests answered in order,
rate-limit 429s followed by recovery, pagination cursors staying stable
while ingest appends runs concurrently, and a SIGKILL'd shard leaving a
sibling's accept loop intact.  Protocol-parser and rate-limiter units
run transport-free; socket tests use a lightweight synthetic workdir
(manifests hand-written, artifact hashed for real) so no workflow has
to run.
"""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import tarfile
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.serve import (
    EventLoopServer,
    ProtocolError,
    RateLimiter,
    Request,
    RequestParser,
    ServeApp,
    StreamBody,
    ingest_run,
    sharding_supported,
)
from repro.serve.runs import RunDir, _FileCache
from repro.store.hashing import file_sha256

# ---------------------------------------------------------------------------
# synthetic workdir + tar helpers
# ---------------------------------------------------------------------------

N_EVENTS = 60


def make_workdir(root, run_id, n_events=N_EVENTS, payload="alpha"):
    """A minimal finished-workdir: manifests plus one hashed artifact."""
    os.makedirs(os.path.join(root, "data"), exist_ok=True)
    with open(os.path.join(root, "events.jsonl"), "w",
              encoding="utf-8") as fh:
        for i in range(n_events):
            kind = "task_started" if i % 3 else "task_finished"
            fh.write(json.dumps({"seq": i, "t_s": i * 0.5, "kind": kind,
                                 "name": f"t{i}", "attrs": {}}) + "\n")
    csv = os.path.join(root, "data", "jobs.csv")
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("a,b\n")
        for i in range(200):
            fh.write(f"{i},{payload}\n")
    prov = {"version": 1, "artifacts": [{
        "path": "data/jobs.csv", "sha256": file_sha256(csv),
        "bytes": os.path.getsize(csv), "producer": "test",
        "inputs": []}]}
    with open(os.path.join(root, "provenance.json"), "w",
              encoding="utf-8") as fh:
        json.dump(prov, fh)
    with open(os.path.join(root, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "n_events": n_events,
                   "n_artifacts": 1, "metrics": {}}, fh)
    return root


def make_tar(workdir):
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tf:
        tf.add(workdir, arcname=os.path.basename(workdir))
    return buf.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("loop-runs") / "base-run")
    return make_workdir(root, "base-run")


@pytest.fixture(scope="module")
def rid(workdir):
    return os.path.basename(workdir)


@pytest.fixture(scope="module")
def server(workdir, tmp_path_factory):
    """One event-loop server the read-only transport tests share."""
    app = ServeApp([workdir], job_workers=1, job_capacity=4,
                   ingest_dir=str(tmp_path_factory.mktemp("loop-ingest")))
    srv = EventLoopServer(app, port=0, handler_threads=4).start()
    yield srv
    srv.close(graceful=False)


def http(server):
    host, port = server.address
    return HTTPConnection(host, port, timeout=10)


def get_json(conn, path):
    conn.request("GET", path)
    resp = conn.getresponse()
    data = resp.read()
    return resp, json.loads(data)


def read_raw_response(fh):
    """Parse one non-chunked response off a socket file: (status,
    headers, body)."""
    status = int(fh.readline().split()[1])
    headers = {}
    while True:
        line = fh.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = fh.read(length) if length else b""
    return status, headers, body


# ---------------------------------------------------------------------------
# parser units
# ---------------------------------------------------------------------------

class TestRequestParser:
    def test_simple_get(self):
        out = RequestParser().feed(
            b"GET /api/runs?limit=2 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert len(out) == 1
        req = out[0]
        assert req.method == "GET"
        assert req.target == "/api/runs?limit=2"
        assert req.version == "HTTP/1.1"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_two_pipelined_in_one_feed(self):
        out = RequestParser().feed(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        assert [r.target for r in out] == ["/a", "/b"]

    def test_trickled_byte_at_a_time(self):
        parser = RequestParser()
        wire = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
        out = []
        for i in range(len(wire)):
            out += parser.feed(wire[i:i + 1])
        assert len(out) == 1
        assert out[0].body == b"abc"
        assert not parser.mid_request

    def test_mid_request_flag(self):
        parser = RequestParser()
        assert not parser.mid_request
        parser.feed(b"GET /x HT")
        assert parser.mid_request
        parser.feed(b"TP/1.1\r\n\r\n")
        assert not parser.mid_request

    def test_chunked_body_decoded(self):
        wire = (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n")
        out = RequestParser().feed(wire)
        assert out[0].body == b"Wikipedia"

    def test_chunked_trailers_ignored(self):
        wire = (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\n")
        out = RequestParser().feed(wire)
        assert out[0].body == b"abc"

    def test_cl_and_te_is_400(self):
        with pytest.raises(ProtocolError) as err:
            RequestParser().feed(
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n")
        assert err.value.status == 400

    def test_non_chunked_te_is_501(self):
        with pytest.raises(ProtocolError) as err:
            RequestParser().feed(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n")
        assert err.value.status == 501

    def test_oversized_head_431(self):
        parser = RequestParser(max_head_bytes=128)
        with pytest.raises(ProtocolError) as err:
            parser.feed(b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * 256)
        assert err.value.status == 431

    def test_oversized_declared_body_413(self):
        parser = RequestParser(max_body_bytes=8)
        with pytest.raises(ProtocolError) as err:
            parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n")
        assert err.value.status == 413

    def test_oversized_chunked_body_413(self):
        parser = RequestParser(max_body_bytes=8)
        with pytest.raises(ProtocolError) as err:
            parser.feed(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"9\r\nabcdefghi\r\n0\r\n\r\n")
        assert err.value.status == 413

    def test_malformed_request_line_400(self):
        with pytest.raises(ProtocolError) as err:
            RequestParser().feed(b"NOT A REQUEST\r\n\r\n")
        assert err.value.status == 400

    def test_keep_alive_defaults(self):
        def ka(version, connection=None):
            head = f"GET /x {version}\r\n"
            if connection:
                head += f"Connection: {connection}\r\n"
            return RequestParser().feed(
                head.encode() + b"\r\n")[0].keep_alive
        assert ka("HTTP/1.1") is True
        assert ka("HTTP/1.1", "close") is False
        assert ka("HTTP/1.0") is False
        assert ka("HTTP/1.0", "keep-alive") is True

    def test_expects_continue_window(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\n"
                    b"Content-Length: 3\r\n\r\n")
        assert parser.expects_continue
        out = parser.feed(b"abc")
        assert out[0].body == b"abc"
        assert not parser.expects_continue


# ---------------------------------------------------------------------------
# rate limiter units
# ---------------------------------------------------------------------------

class TestRateLimiter:
    def test_burst_then_denied_with_retry_after(self):
        clock = [0.0]
        rl = RateLimiter(rate=2.0, burst=3, clock=lambda: clock[0])
        assert [rl.allow("p")[0] for _ in range(3)] == [True] * 3
        allowed, retry = rl.allow("p")
        assert not allowed
        assert retry == pytest.approx(0.5)

    def test_refill_restores_tokens(self):
        clock = [0.0]
        rl = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        assert rl.allow("p")[0]
        assert not rl.allow("p")[0]
        clock[0] = 1.01
        assert rl.allow("p")[0]

    def test_peers_isolated(self):
        rl = RateLimiter(rate=1.0, burst=1, clock=lambda: 0.0)
        assert rl.allow("a")[0]
        assert not rl.allow("a")[0]
        assert rl.allow("b")[0]

    def test_peer_table_bounded(self):
        clock = [0.0]
        rl = RateLimiter(rate=100.0, burst=2, max_peers=16,
                         clock=lambda: clock[0])
        for i in range(200):
            clock[0] += 1.0          # everyone else refills to full
            rl.allow(f"peer-{i}")
        assert len(rl) <= 16

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0)


# ---------------------------------------------------------------------------
# StreamBody + bounded caches (satellites 1 and 2)
# ---------------------------------------------------------------------------

class TestStreamBody:
    def test_materializes_like_bytes(self):
        body = StreamBody(iter([b"ab", b"cd", b"ef"]))
        assert len(body) == 6
        assert bytes(body) == b"abcdef"
        assert body.decode("utf-8") == "abcdef"
        assert body.startswith(b"ab")

    def test_single_consumption(self):
        body = StreamBody(iter([b"ab"]))
        assert b"".join(body) == b"ab"
        with pytest.raises(RuntimeError):
            list(body)


class TestBoundedManifestCache:
    def test_entry_bound_holds(self, tmp_path):
        cache = _FileCache(max_entries=4, max_bytes=1 << 20)
        for i in range(16):
            path = tmp_path / f"m{i}.json"
            path.write_text(json.dumps({"i": i}))
            assert cache.load(str(path), lambda p: i) == i
        assert len(cache) <= 4

    def test_reload_only_on_change(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("one")
        calls = []

        def parser(p):
            calls.append(p)
            return path.read_text()

        cache = _FileCache()
        assert cache.load(str(path), parser) == "one"
        assert cache.load(str(path), parser) == "one"
        assert len(calls) == 1
        path.write_text("two!")     # different size -> new stat key
        assert cache.load(str(path), parser) == "two!"
        assert len(calls) == 2


class TestEventTail:
    def test_tail_keeps_last_n(self, workdir):
        run = RunDir(workdir)
        tail = run.events(limit=5)
        assert [e["seq"] for e in tail] == list(range(N_EVENTS - 5,
                                                      N_EVENTS))

    def test_tail_respects_kind_filter(self, workdir):
        run = RunDir(workdir)
        tail = run.events(kind="task_finished", limit=3)
        assert len(tail) == 3
        assert all(e["kind"] == "task_finished" for e in tail)

    def test_iter_events_is_lazy(self, workdir):
        it = RunDir(workdir).iter_events()
        assert next(it)["seq"] == 0
        it.close()                  # no exhaustion required


# ---------------------------------------------------------------------------
# loop transport over sockets
# ---------------------------------------------------------------------------

class TestLoopTransport:
    def test_healthz(self, server):
        conn = http(server)
        resp, payload = get_json(conn, "/healthz")
        assert resp.status == 200
        assert payload["ok"] is True
        conn.close()

    def test_keep_alive_reuses_connection(self, server):
        conn = http(server)
        resp, _ = get_json(conn, "/healthz")
        sock_before = conn.sock
        resp, payload = get_json(conn, "/api/runs")
        assert resp.status == 200
        assert conn.sock is sock_before
        conn.close()

    def test_pipelined_requests_answered_in_order(self, server, rid):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        wire = b"".join(
            f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            for path in ("/healthz", f"/api/runs/{rid}/summary",
                         "/nope"))
        sock.sendall(wire)
        fh = sock.makefile("rb")
        first = read_raw_response(fh)
        second = read_raw_response(fh)
        third = read_raw_response(fh)
        assert first[0] == 200 and b'"ok"' in first[2]
        assert second[0] == 200
        assert json.loads(second[2])["run_id"] == "base-run"
        assert third[0] == 404
        sock.close()

    def test_head_suppresses_body(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                     b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        fh = sock.makefile("rb")
        status = int(fh.readline().split()[1])
        assert status == 200
        length = None
        while True:
            line = fh.readline()
            if line in (b"\r\n", b"\n"):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        assert length and length > 0
        # body suppressed: next bytes are the second response's line
        assert fh.readline().startswith(b"HTTP/1.1 200")
        sock.close()

    def test_events_stream_is_chunked(self, server, rid):
        conn = http(server)
        conn.request("GET", f"/api/runs/{rid}/events")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Transfer-Encoding") == "chunked"
        payload = json.loads(resp.read())
        assert payload["n"] == N_EVENTS
        assert len(payload["events"]) == N_EVENTS
        conn.close()

    def test_events_tail_contract_unchanged(self, server, rid):
        conn = http(server)
        resp, payload = get_json(conn, f"/api/runs/{rid}/events?limit=3")
        assert resp.status == 200
        assert payload["n"] == 3
        assert [e["seq"] for e in payload["events"]] == [57, 58, 59]
        conn.close()

    def test_events_cursor_pages_walk_forward(self, server, rid):
        conn = http(server)
        seen = []
        path = f"/api/runs/{rid}/events?offset=0&limit=25"
        while path:
            resp, payload = get_json(conn, path)
            assert resp.status == 200
            seen += [e["seq"] for e in payload["events"]]
            path = payload.get("next")
        assert seen == list(range(N_EVENTS))
        conn.close()

    def test_runs_listing_pagination(self, server):
        conn = http(server)
        resp, payload = get_json(conn, "/api/runs?offset=0&limit=1")
        assert resp.status == 200
        assert payload["offset"] == 0
        assert len(payload["runs"]) == 1
        conn.close()

    def test_artifact_listing_pagination(self, server, rid):
        conn = http(server)
        resp, payload = get_json(
            conn, f"/api/runs/{rid}/artifacts?offset=0&limit=10")
        assert resp.status == 200
        assert payload["run_id"] == "base-run"
        assert payload["n_total"] == 1
        assert payload["artifacts"][0]["path"] == "data/jobs.csv"
        conn.close()

    def test_bad_cursor_params_400(self, server):
        conn = http(server)
        resp, payload = get_json(conn, "/api/runs?limit=wat")
        assert resp.status == 400
        resp, payload = get_json(conn, "/api/runs?offset=-1")
        assert resp.status == 400
        conn.close()

    def test_chunked_request_body_reaches_routes(self, server):
        """A chunked POST is decoded and routed; an application-level
        reject keeps the connection alive for the next request."""
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"POST /api/runs HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n"
                     b"4\r\njunk\r\n0\r\n\r\n")
        fh = sock.makefile("rb")
        status, headers, body = read_raw_response(fh)
        assert status == 400        # decoded, routed, not a tar
        assert b"tar" in body
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, _ = read_raw_response(fh)
        assert status == 200
        sock.close()

    def test_expect_100_continue_interim(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"POST /api/runs HTTP/1.1\r\nHost: x\r\n"
                     b"Expect: 100-continue\r\nContent-Length: 4\r\n\r\n")
        fh = sock.makefile("rb")
        assert fh.readline().startswith(b"HTTP/1.1 100")
        assert fh.readline() in (b"\r\n", b"\n")
        sock.sendall(b"junk")
        status, _, body = read_raw_response(fh)
        assert status == 400
        sock.close()

    def test_smuggling_vector_400_and_close(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"POST /x HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 3\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n")
        fh = sock.makefile("rb")
        status, _, _ = read_raw_response(fh)
        assert status == 400
        assert fh.read() == b""     # poisoned stream closes
        sock.close()

    def test_oversized_head_431(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * 40960
                     + b"\r\n\r\n")
        fh = sock.makefile("rb")
        status, _, _ = read_raw_response(fh)
        assert status == 431
        sock.close()


class TestTimeouts:
    @pytest.fixture()
    def quick_server(self, workdir):
        app = ServeApp([workdir], job_workers=1)
        srv = EventLoopServer(app, port=0, handler_threads=2,
                              header_timeout_s=0.4,
                              idle_timeout_s=0.4).start()
        yield srv
        srv.close(graceful=False)

    def test_slowloris_partial_head_gets_408(self, quick_server):
        host, port = quick_server.address
        sock = socket.create_connection((host, port), timeout=10)
        start = time.monotonic()
        sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
        fh = sock.makefile("rb")
        status, _, _ = read_raw_response(fh)   # blocks until the sweep
        elapsed = time.monotonic() - start
        assert status == 408
        assert 0.3 <= elapsed < 5.0
        assert fh.read() == b""     # then the connection closes
        sock.close()

    def test_idle_connection_reaped_silently(self, quick_server):
        host, port = quick_server.address
        sock = socket.create_connection((host, port), timeout=10)
        assert sock.recv(1024) == b""   # EOF, no 408 for idle peers
        sock.close()

    def test_idle_after_response_reaped(self, quick_server):
        conn = HTTPConnection(*quick_server.address, timeout=10)
        resp, _ = get_json(conn, "/healthz")
        assert resp.status == 200
        assert conn.sock.recv(1024) == b""
        conn.close()


class TestRateLimitedTransport:
    def test_429_retry_after_then_recovery(self, workdir):
        app = ServeApp([workdir], job_workers=1)
        srv = EventLoopServer(
            app, port=0, handler_threads=2,
            rate_limit=RateLimiter(rate=5.0, burst=2)).start()
        try:
            conn = HTTPConnection(*srv.address, timeout=10)
            statuses = []
            retry_after = None
            for _ in range(4):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                statuses.append(resp.status)
                if resp.status == 429 and retry_after is None:
                    retry_after = resp.getheader("Retry-After")
                resp.read()
            assert statuses[:2] == [200, 200]
            assert 429 in statuses
            assert retry_after is not None and int(retry_after) >= 1
            time.sleep(0.45)        # > 1 token at 5/s
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            conn.close()
        finally:
            srv.close(graceful=False)


class TestGracefulShutdown:
    def test_close_drains_and_stops_accepting(self, workdir):
        app = ServeApp([workdir], job_workers=1)
        srv = EventLoopServer(app, port=0, handler_threads=2).start()
        conn = HTTPConnection(*srv.address, timeout=10)
        resp, _ = get_json(conn, "/healthz")
        assert resp.status == 200
        assert srv.close(graceful=True, timeout=5.0)
        with pytest.raises(OSError):
            socket.create_connection(srv.address, timeout=1)
        conn.close()


# ---------------------------------------------------------------------------
# ingest write path
# ---------------------------------------------------------------------------

class TestIngest:
    @pytest.fixture()
    def app(self, workdir, tmp_path):
        app = ServeApp([workdir], job_workers=1,
                       ingest_dir=str(tmp_path / "ingest"))
        yield app
        app.close()

    def post_tar(self, app, body):
        return app.dispatch(Request(method="POST", path="/api/runs",
                                    body=body))

    def test_round_trip_and_hot_registration(self, app, tmp_path):
        src = make_workdir(str(tmp_path / "src" / "ingested-a"),
                           "ingested-a")
        resp = self.post_tar(app, make_tar(src))
        assert resp.status == 201
        payload = json.loads(resp.body.decode())
        assert payload["run"]["workdir"] == "ingested-a"
        assert payload["artifacts_verified"] == 1
        # registered without a restart: queryable immediately
        summary = app.dispatch(Request(
            method="GET", path="/api/runs/ingested-a/summary"))
        assert summary.status == 200
        assert json.loads(summary.body.decode())["run_id"] == "ingested-a"
        listing = app.dispatch(Request(method="GET", path="/api/runs"))
        names = [r["workdir"]
                 for r in json.loads(listing.body.decode())["runs"]]
        assert "ingested-a" in names

    def test_duplicate_409(self, app, tmp_path):
        src = make_workdir(str(tmp_path / "src" / "ingested-b"),
                           "ingested-b")
        body = make_tar(src)
        assert self.post_tar(app, body).status == 201
        resp = self.post_tar(app, body)
        assert resp.status == 409

    def test_tampered_artifact_422_no_residue(self, app, tmp_path):
        src = make_workdir(str(tmp_path / "src" / "tampered"),
                           "tampered")
        with open(os.path.join(src, "data", "jobs.csv"), "a",
                  encoding="utf-8") as fh:
            fh.write("999,evil\n")   # after provenance hashed it
        resp = self.post_tar(app, make_tar(src))
        assert resp.status == 422
        assert b"verification" in resp.body
        # nothing committed, no temp dirs left behind
        assert os.listdir(app.registry.ingest_dir) == []

    def test_garbage_body_400(self, app):
        resp = self.post_tar(app, b"this is not a tar archive")
        assert resp.status == 400
        resp = self.post_tar(app, b"")
        assert resp.status == 400

    def test_hostile_members_400(self, app, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w:gz") as tf:
            info = tarfile.TarInfo("run/summary.json")
            info.size = 2
            tf.addfile(info, io.BytesIO(b"{}"))
            link = tarfile.TarInfo("run/escape")
            link.type = tarfile.SYMTYPE
            link.linkname = "/etc/passwd"
            tf.addfile(link)
        resp = self.post_tar(app, buf.getvalue())
        assert resp.status == 400

    def test_missing_summary_422(self, app, tmp_path):
        src = str(tmp_path / "src" / "no-summary")
        make_workdir(src, "no-summary")
        os.unlink(os.path.join(src, "summary.json"))
        resp = self.post_tar(app, make_tar(src))
        assert resp.status == 422

    def test_no_ingest_dir_503(self, workdir):
        app = ServeApp([workdir], job_workers=1)
        try:
            resp = app.dispatch(Request(method="POST", path="/api/runs",
                                        body=b"x"))
            assert resp.status == 503
        finally:
            app.close()

    def test_cursors_stable_under_concurrent_ingest(self, app, tmp_path):
        """Offset cursors never skip or duplicate while ingest appends
        runs between (and during) page fetches."""
        for i in range(3):
            src = make_workdir(
                str(tmp_path / "src" / f"seed-{i}"), f"seed-{i}")
            assert self.post_tar(app, make_tar(src)).status == 201

        stop = threading.Event()
        failures = []

        def ingester():
            i = 0
            while not stop.is_set() and i < 12:
                src = make_workdir(
                    str(tmp_path / "src" / f"mid-{i}"), f"mid-{i}")
                status = self.post_tar(app, make_tar(src)).status
                if status != 201:
                    failures.append(status)
                i += 1

        thread = threading.Thread(target=ingester)
        thread.start()
        try:
            first = app.dispatch(Request(
                method="GET", path="/api/runs",
                query={"offset": "0", "limit": "2"}))
            page0 = json.loads(first.body.decode())
            seen = [r["workdir"] for r in page0["runs"]]
            link = page0.get("next")
            while link:
                path, _, query = link.partition("?")
                params = dict(pair.split("=")
                              for pair in query.split("&"))
                resp = app.dispatch(Request(method="GET", path=path,
                                            query=params))
                assert resp.status == 200
                payload = json.loads(resp.body.decode())
                seen += [r["workdir"] for r in payload["runs"]]
                link = payload.get("next")
        finally:
            stop.set()
            thread.join()
        assert not failures
        assert len(seen) == len(set(seen))      # no duplicates
        # every run that existed before the walk started shows up
        for name in ("seed-0", "seed-1", "seed-2"):
            assert name in seen
        # page 0 is reproducible after ingest appended more runs
        again = app.dispatch(Request(
            method="GET", path="/api/runs",
            query={"offset": "0", "limit": "2"}))
        assert [r["workdir"]
                for r in json.loads(again.body.decode())["runs"]] \
            == seen[:2]

    def test_ingested_over_loop_transport(self, workdir, tmp_path):
        """End-to-end: tar uploaded over a socket, verified, queryable."""
        app = ServeApp([workdir], job_workers=1,
                       ingest_dir=str(tmp_path / "ingest"))
        srv = EventLoopServer(app, port=0, handler_threads=2).start()
        try:
            src = make_workdir(str(tmp_path / "src" / "wired"), "wired")
            conn = HTTPConnection(*srv.address, timeout=10)
            conn.request("POST", "/api/runs", body=make_tar(src),
                         headers={"Content-Type": "application/x-tar"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 201
            assert payload["run"]["workdir"] == "wired"
            resp, summary = get_json(conn, "/api/runs/wired/summary")
            assert resp.status == 200
            assert summary["run_id"] == "wired"
            conn.close()
        finally:
            srv.close(graceful=False)


# ---------------------------------------------------------------------------
# sharding: SIGKILL'd shard leaves the sibling accept loop intact
# ---------------------------------------------------------------------------

_SHARD_CHILD = """
import sys
from repro.serve.api import ServeApp
from repro.serve.loop import EventLoopServer
from repro.serve.shard import reuseport_socket
workdir, port = sys.argv[1], int(sys.argv[2])
sock = reuseport_socket("127.0.0.1", port)
print("READY", sock.getsockname()[1], flush=True)
app = ServeApp([workdir], job_workers=1)
EventLoopServer(app, sock=sock, handler_threads=2).serve_forever()
"""

_FLEET_MAIN = """
import signal, sys, threading
from repro.serve.shard import run_sharded


def child_main(shard, sock):
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *a: done.set())
    done.wait(30)
    sock.close()
    return 0


def ready(host, port, pids):
    print("READY", port, *pids, flush=True)


sys.exit(run_sharded(2, "127.0.0.1", 0, child_main,
                     shutdown_grace_s=5.0, on_ready=ready))
"""


def _spawn(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                     os.pardir, "src")
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True)


@pytest.mark.skipif(not sharding_supported(),
                    reason="needs SO_REUSEPORT + fork")
class TestSharding:
    def test_sigkilled_shard_does_not_corrupt_sibling(self, workdir):
        a = _spawn(_SHARD_CHILD, workdir, "0")
        port = int(a.stdout.readline().split()[1])
        b = _spawn(_SHARD_CHILD, workdir, str(port))
        try:
            assert b.stdout.readline().startswith("READY")
            os.kill(a.pid, signal.SIGKILL)
            a.wait(timeout=10)
            # the sibling's accept queue still answers; the kernel may
            # RST a few connections it had hashed to the dead socket,
            # so retry until the survivor responds
            ok = 0
            deadline = time.monotonic() + 10.0
            while ok < 3 and time.monotonic() < deadline:
                try:
                    conn = HTTPConnection("127.0.0.1", port, timeout=2)
                    conn.request("GET", "/healthz")
                    resp = conn.getresponse()
                    if resp.status == 200:
                        ok += 1
                    resp.read()
                    conn.close()
                except OSError:
                    time.sleep(0.1)
            assert ok >= 3
        finally:
            for proc in (a, b):
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10)

    def test_signal_killed_shard_folds_fleet_nonzero(self):
        fleet = _spawn(_FLEET_MAIN)
        line = fleet.stdout.readline().split()
        assert line[0] == "READY"
        pids = [int(p) for p in line[2:]]
        os.kill(pids[0], signal.SIGKILL)
        assert fleet.wait(timeout=30) != 0
