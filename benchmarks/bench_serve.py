"""repro.serve hot paths: cached vs uncached artifact and chart GETs.

The service layer's performance story is its two caches: the
content-hash memo (ETag computation without re-reading bytes) and the
hash-keyed LRU holding rendered bodies (chart SVG/PNG pixels, tabular
JSON conversions).  The bench runs one quick workflow, serves its
workdir through :class:`repro.serve.ServeApp`, and times four GET
endpoints two ways per request:

``uncached``
    :meth:`ServeApp.clear_caches` before every dispatch — each request
    pays the full file read + hash + render/convert cost.
``cached``
    caches warmed once, then steady-state dispatches — ETag memo hit
    plus LRU body reuse.

Reported per endpoint: requests/sec plus p50/p99 latency for both
modes.  The acceptance gate (``--min-speedup``, default 5) compares
cached vs uncached p50 on the tabular-JSON artifact endpoint.  A
socket round-trip measurement over a live ephemeral-port
:class:`~repro.serve.EventLoopServer` is included so the numbers cover
the real transport, not just dispatch.

The **concurrency leg** holds many keep-alive connections open at
once: a ``selectors``-based closed-loop load generator (sharded over
forked worker processes so it never shares a GIL with an in-process
server under test) drives 256 (quick) to 1000+ (full) connections and
measures req/s and p99 against the event loop in one process, then
against ``python -m repro.serve --procs N`` (``SO_REUSEPORT`` shards,
started as the real command).  The run fails unless every leg
completes every request (``conns × per_conn``) with zero errors.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py          # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick  # CI smoke

or under pytest (quick shape only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection

from repro._util.tables import TextTable
from repro.serve import EventLoopServer, Request, ServeApp
from repro.serve.shard import sharding_supported
from repro.workflows import SchedulingAnalysisWorkflow, WorkflowConfig

#: (label, path, query) — the serve layer's cacheable GET surface
ENDPOINTS = [
    ("artifact raw csv", "/api/artifacts/2024-01-jobs", {}),
    ("artifact json", "/api/artifacts/2024-01-jobs", {"format": "json"}),
    ("chart svg", "/api/charts/volume.svg", {}),
    ("chart png", "/api/charts/volume.png", {}),
]

QUICK_N = 20
FULL_N = 100


@dataclass
class Measurement:
    """Latency distribution for one endpoint in one cache mode."""

    label: str
    mode: str
    n: int
    p50_s: float
    p99_s: float
    rps: float


def build_workdir(root: str, rate_scale: float = 0.05) -> str:
    """One quick testsys month: the workdir every endpoint serves."""
    workdir = os.path.join(root, "served")
    cfg = WorkflowConfig(system="testsys", months=("2024-01",),
                         workdir=workdir, workers=2, seed=11,
                         rate_scale=rate_scale)
    SchedulingAnalysisWorkflow(cfg).run()
    return workdir


def _percentile(sorted_s: list[float], frac: float) -> float:
    idx = min(len(sorted_s) - 1, int(frac * len(sorted_s)))
    return sorted_s[idx]


def _measure(label: str, mode: str, n: int, dispatch_once) -> Measurement:
    laps = []
    for _ in range(n):
        t0 = time.perf_counter()
        status = dispatch_once()
        laps.append(time.perf_counter() - t0)
        assert status == 200, f"{label}: HTTP {status}"
    laps.sort()
    total = sum(laps)
    return Measurement(label=label, mode=mode, n=n,
                       p50_s=_percentile(laps, 0.50),
                       p99_s=_percentile(laps, 0.99),
                       rps=n / total if total else float("inf"))


def measure_dispatch(app: ServeApp, n: int) -> list[Measurement]:
    """Cached vs uncached timings through ``ServeApp.dispatch``."""
    results = []
    for label, path, query in ENDPOINTS:
        request = Request(method="GET", path=path, query=query)

        def once() -> int:
            return app.dispatch(request).status

        def once_cold() -> int:
            app.clear_caches()
            return app.dispatch(request).status

        results.append(_measure(label, "uncached", n, once_cold))
        once()                          # warm the LRU + hash memo
        results.append(_measure(label, "cached", n, once))
    return results


def measure_socket(app: ServeApp, n: int) -> list[Measurement]:
    """Steady-state (cached) round-trips over a real ephemeral port."""
    server = EventLoopServer(app, port=0).start()
    host, port = server.address
    results = []
    try:
        for label, path, query in ENDPOINTS:
            target = path
            if query:
                pairs = "&".join(f"{k}={v}" for k, v in query.items())
                target = f"{path}?{pairs}"

            def once() -> int:
                conn = HTTPConnection(host, port, timeout=30)
                try:
                    conn.request("GET", target)
                    resp = conn.getresponse()
                    resp.read()
                    return resp.status
                finally:
                    conn.close()

            once()                      # warm caches + page cache
            results.append(_measure(label, "socket", n, once))
    finally:
        server.close(graceful=True)
    return results


# ---------------------------------------------------------------------------
# concurrency leg: many keep-alive connections at once
# ---------------------------------------------------------------------------

_CONC_REQUEST = (b"GET /healthz HTTP/1.1\r\nHost: bench\r\n"
                 b"Connection: keep-alive\r\n\r\n")


@dataclass
class ConcMeasurement:
    """Closed-loop load at ``conns`` keep-alive connections."""

    transport: str
    conns: int
    completed: int
    errors: int
    rps: float
    p50_s: float
    p99_s: float


def _raise_nofile(need: int) -> None:
    """Best-effort RLIMIT_NOFILE bump so 1k+ sockets can open."""
    try:
        import resource
    except ImportError:                 # pragma: no cover - non-unix
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, max(soft, need))
    if want > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


class _LoadConn:
    """One closed-loop client: exactly one request in flight."""

    __slots__ = ("sock", "buf", "out", "left", "t0", "lats")

    def __init__(self, sock: socket.socket, per_conn: int) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.out = b""
        self.left = per_conn
        self.t0 = 0.0
        self.lats: list[float] = []


def _complete_response(buf: bytearray) -> bool:
    """Pop one full Content-Length-framed response off ``buf``."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return False
    length = 0
    for line in bytes(buf[:end]).lower().split(b"\r\n")[1:]:
        if line.startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
            break
    total = end + 4 + length
    if len(buf) < total:
        return False
    del buf[:total]
    return True


def _load_worker(host: str, port: int, conns: int, per_conn: int,
                 timeout_s: float) -> tuple[list[float], int, float]:
    """One generator loop: ``conns`` closed-loop clients; returns
    ``(latencies, errors, elapsed_s)``."""
    sel = selectors.DefaultSelector()
    states: list[_LoadConn] = []
    errors = 0
    for _ in range(conns):
        sock = socket.create_connection((host, port), timeout=10)
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:                 # pragma: no cover - platform
            pass
        states.append(_LoadConn(sock, per_conn))

    start = time.perf_counter()
    open_count = 0
    for state in states:
        state.out = _CONC_REQUEST
        state.t0 = time.perf_counter()
        sel.register(state.sock, selectors.EVENT_WRITE, state)
        open_count += 1

    def drop(state: _LoadConn) -> None:
        nonlocal open_count
        sel.unregister(state.sock)
        state.sock.close()
        open_count -= 1

    deadline = start + timeout_s
    while open_count and time.perf_counter() < deadline:
        for key, mask in sel.select(timeout=1.0):
            state: _LoadConn = key.data
            try:
                if mask & selectors.EVENT_WRITE and state.out:
                    sent = state.sock.send(state.out)
                    state.out = state.out[sent:]
                    if not state.out:
                        sel.modify(state.sock, selectors.EVENT_READ,
                                   state)
                if mask & selectors.EVENT_READ:
                    data = state.sock.recv(65536)
                    if not data:
                        errors += 1
                        drop(state)
                        continue
                    state.buf += data
                    if _complete_response(state.buf):
                        state.lats.append(time.perf_counter() - state.t0)
                        state.left -= 1
                        if state.left <= 0:
                            drop(state)
                        else:
                            state.out = _CONC_REQUEST
                            state.t0 = time.perf_counter()
                            sel.modify(state.sock,
                                       selectors.EVENT_WRITE
                                       | selectors.EVENT_READ, state)
            except OSError:
                errors += 1
                drop(state)
    elapsed = time.perf_counter() - start
    for state in states:                # timeout stragglers
        if state.left > 0 and state.sock.fileno() >= 0:
            try:
                drop(state)
            except (KeyError, ValueError):
                state.sock.close()
    sel.close()
    lats = [lap for state in states for lap in state.lats]
    return lats, errors, elapsed


def _forked_workers(host: str, port: int, sizes: list[int],
                    per_conn: int,
                    timeout_s: float) -> list[tuple[list[float], int,
                                                    float]]:
    """Run one ``_load_worker`` per forked process; results come back
    over pipes.  Separate processes mean the generator never shares a
    GIL with an in-process server under test."""
    pids: list[int] = []
    read_fds: list[int] = []
    for size in sizes:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:                    # pragma: no cover - child
            try:
                os.close(read_fd)
                for fd in read_fds:
                    os.close(fd)
                lats, errors, elapsed = _load_worker(
                    host, port, size, per_conn, timeout_s)
                payload = json.dumps({
                    "lats": lats, "errors": errors,
                    "elapsed": elapsed}).encode("utf-8")
                written = 0
                while written < len(payload):
                    written += os.write(write_fd, payload[written:])
                os.close(write_fd)
            finally:
                os._exit(0)
        os.close(write_fd)
        pids.append(pid)
        read_fds.append(read_fd)
    outputs = []
    for read_fd, pid in zip(read_fds, pids):
        chunks = []
        while True:
            data = os.read(read_fd, 65536)
            if not data:
                break
            chunks.append(data)
        os.close(read_fd)
        os.waitpid(pid, 0)
        result = json.loads(b"".join(chunks))
        outputs.append((result["lats"], result["errors"],
                        result["elapsed"]))
    return outputs


def conc_load(host: str, port: int, conns: int, per_conn: int,
              transport: str, timeout_s: float = 120.0,
              gen_workers: int | None = None) -> ConcMeasurement:
    """Drive ``conns`` concurrent keep-alive clients, ``per_conn``
    sequential requests each.

    The generator is sharded over a few forked worker processes (each
    its own ``selectors`` loop) so the server under test — never the
    load generator or a shared GIL — is the bottleneck being measured.
    Falls back to threads where ``fork`` is unavailable.
    """
    _raise_nofile(conns + 64)
    if gen_workers is None:
        gen_workers = min(4, max(1, conns // 32))
    share, extra = divmod(conns, gen_workers)
    sizes = [share + (1 if i < extra else 0) for i in range(gen_workers)]
    sizes = [s for s in sizes if s]
    if hasattr(os, "fork"):
        outputs = _forked_workers(host, port, sizes, per_conn, timeout_s)
    else:                               # pragma: no cover - non-unix
        outputs = [None] * len(sizes)

        def run(index: int, size: int) -> None:
            outputs[index] = _load_worker(host, port, size, per_conn,
                                          timeout_s)

        threads = [threading.Thread(target=run, args=(i, size))
                   for i, size in enumerate(sizes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    lats = sorted(lap for out in outputs for lap in out[0])
    errors = sum(out[1] for out in outputs)
    elapsed = max(out[2] for out in outputs)
    completed = len(lats)
    return ConcMeasurement(
        transport=transport, conns=conns, completed=completed,
        errors=errors, rps=completed / elapsed if elapsed else 0.0,
        p50_s=_percentile(lats, 0.50) if lats else float("nan"),
        p99_s=_percentile(lats, 0.99) if lats else float("nan"))


def _start_sharded(workdir: str, procs: int,
                   conns: int) -> tuple[subprocess.Popen, str, int]:
    """``python -m repro.serve --procs N`` on an ephemeral port; returns
    once every shard has printed its banner."""
    _raise_nofile(conns + 64)           # inherited by the shards
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--workdir", workdir,
         "--port", "0", "--procs", str(procs), "--job-workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        text=True)
    address, shards = None, 0
    while address is None or shards < procs:
        line = proc.stdout.readline()
        if not line:
            _stop_server(proc)
            raise RuntimeError("repro-serve --procs exited before its "
                               "banner")
        if f"{procs} shards on http://" in line:
            address = line.split("http://", 1)[1].split()[0]
        elif ": shard " in line:
            shards += 1
    host, port = address.split(":")
    return proc, host, int(port)


def _stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:   # pragma: no cover - stuck drain
        proc.kill()
        proc.wait()
    proc.stdout.close()


def measure_concurrency(workdir: str, conns: int, per_conn: int,
                        procs: int) -> list[ConcMeasurement]:
    """The event loop in this process, then ``procs`` shards of the
    ``repro-serve`` command."""
    results = []

    app = ServeApp([workdir], job_workers=1)
    loop_server = EventLoopServer(app, port=0).start()
    try:
        results.append(conc_load(*loop_server.address, conns, per_conn,
                                 "loop x1"))
    finally:
        loop_server.close(graceful=False)

    if procs > 1 and sharding_supported():
        proc, host, port = _start_sharded(workdir, procs, conns)
        try:
            results.append(conc_load(host, port, conns, per_conn,
                                     f"loop x{procs}"))
        finally:
            _stop_server(proc)
    return results


def render_concurrency(results: list[ConcMeasurement]) -> str:
    table = TextTable(
        ["transport", "conns", "completed", "errors", "req/s",
         "p50", "p99"],
        title="repro.serve — concurrent keep-alive load (closed loop)")
    for m in results:
        table.add_row([m.transport, m.conns, m.completed, m.errors,
                       f"{m.rps:,.0f}",
                       f"{m.p50_s * 1e3:.2f} ms",
                       f"{m.p99_s * 1e3:.2f} ms"])
    return table.render()


def incomplete_legs(results: list[ConcMeasurement],
                    per_conn: int) -> list[ConcMeasurement]:
    """Legs that missed a request or saw an error: every leg must
    answer ``conns × per_conn`` requests with zero errors."""
    return [m for m in results
            if m.completed != m.conns * per_conn or m.errors]


def render(results: list[Measurement]) -> str:
    table = TextTable(
        ["endpoint", "mode", "n", "p50", "p99", "req/s"],
        title="repro.serve — cached vs uncached GETs (per-request)")
    for m in results:
        table.add_row([m.label, m.mode, m.n,
                       f"{m.p50_s * 1e3:.2f} ms",
                       f"{m.p99_s * 1e3:.2f} ms",
                       f"{m.rps:,.0f}"])
    return table.render()


def gate_speedup(results: list[Measurement],
                 label: str = "artifact json") -> float:
    by_mode = {m.mode: m for m in results if m.label == label}
    return by_mode["uncached"].p50_s / by_mode["cached"].p50_s


def test_serve_bench_quick(tmp_path):
    """Pytest smoke: caching must win on every endpoint at any scale."""
    workdir = build_workdir(str(tmp_path), rate_scale=0.03)
    app = ServeApp([workdir], job_workers=1, job_capacity=2)
    try:
        results = measure_dispatch(app, n=10)
    finally:
        app.close()
    print()
    print(render(results))
    for label, _, _ in ENDPOINTS:
        modes = {m.mode: m for m in results if m.label == label}
        assert modes["cached"].p50_s < modes["uncached"].p50_s, label


def test_serve_conc_load_quick(tmp_path):
    """Pytest smoke for the load generator: every request completes
    cleanly against the event loop at a small connection count."""
    workdir = build_workdir(str(tmp_path), rate_scale=0.03)
    conns, per_conn = 16, 3
    results = measure_concurrency(workdir, conns, per_conn, procs=1)
    print()
    print(render_concurrency(results))
    assert {m.transport for m in results} == {"loop x1"}
    assert not incomplete_legs(results, per_conn)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer requests, lighter workload (CI smoke)")
    ap.add_argument("--out", default=None,
                    help="write bench_serve.json results here")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="fail unless cached artifact-JSON GETs are at "
                         "least this many times faster than uncached")
    ap.add_argument("--conns", type=int, default=None,
                    help="concurrent keep-alive connections for the "
                         "concurrency leg (default 256 quick, 1000 full)")
    ap.add_argument("--procs", type=int,
                    default=min(4, max(2, (os.cpu_count() or 2) // 2)),
                    help="event-loop shards for the sharded "
                         "concurrency leg (0 disables it)")
    args = ap.parse_args(argv)
    n = QUICK_N if args.quick else FULL_N
    rate = 0.03 if args.quick else 0.1
    conns = args.conns if args.conns else (256 if args.quick else 1000)
    per_conn = 5 if args.quick else 10

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        workdir = build_workdir(root, rate_scale=rate)
        app = ServeApp([workdir], job_workers=1, job_capacity=2)
        try:
            results = measure_dispatch(app, n)
            results += measure_socket(app, max(10, n // 2))
        finally:
            app.close()
        conc = measure_concurrency(workdir, conns, per_conn,
                                   procs=args.procs)

    print(render(results))
    speedup = gate_speedup(results)
    print(f"artifact-JSON GET: cached {speedup:.1f}x faster than "
          f"uncached (p50)")
    print()
    print(render_concurrency(conc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bench_serve.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"results": [vars(m) for m in results],
                       "artifact_json_speedup": round(speedup, 2),
                       "concurrency": [vars(m) for m in conc]},
                      fh, indent=2)
        print(f"results kept in {args.out}/")
    failed = False
    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x < required "
              f"{args.min_speedup:.1f}x")
        failed = True
    incomplete = incomplete_legs(conc, per_conn)
    if incomplete:
        names = ", ".join(f"{m.transport} ({m.completed}/"
                          f"{m.conns * per_conn}, {m.errors} errors)"
                          for m in incomplete)
        print(f"FAIL: concurrency legs short of every request or "
              f"with errors: {names}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
