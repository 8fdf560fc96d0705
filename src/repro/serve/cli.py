"""The ``repro-serve`` command: serve finished workdirs over HTTP.

::

    repro-workflow --workdir out/ --system testsys --dates 2024-01
    repro-serve --workdir out/ --port 8080

then::

    curl localhost:8080/api/runs
    curl localhost:8080/api/artifacts/2024-01-jobs -H 'Accept: application/json'
    curl localhost:8080/api/charts/volume.svg
    curl localhost:8080/metrics

Requests are served by one ``selectors`` event loop
(:class:`~repro.serve.loop.EventLoopServer`).  ``--procs N`` forks N
event-loop shards sharing the port via ``SO_REUSEPORT`` — each shard
is a full process with its own ``/metrics`` (labelled ``shard="i"``).
``--ingest-dir`` opens the write path (``POST /api/runs``);
``--rate-limit R`` answers 429 once a client exceeds R
requests/second.

Background jobs are rows in one fabric database (``<first
workdir>/.store/fabric.sqlite3``, or ``--fabric DB`` — a read-only
workdir needs one somewhere writable), run by ``--job-workers``
launcher threads in every shard: all shards share its job ids and the
``--job-capacity`` bound.

``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting,
in-flight requests finish, running background jobs complete (pending
ones stay in the database for the next start), then the process (or
every shard) exits.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro._util.errors import ReproError
from repro.serve.api import ServeApp
from repro.serve.limit import RateLimiter
from repro.serve.loop import EventLoopServer
from repro.serve.shard import run_sharded

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="HTTP service over repro-workflow output "
                    "directories")
    p.add_argument("--workdir", action="append", required=True,
                   help="a finished workflow workdir to serve "
                        "(repeatable)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("--procs", type=int, default=1,
                   help="fork N SO_REUSEPORT event-loop shards "
                        "(1 = in-process, no fork)")
    p.add_argument("--handler-threads", type=int, default=8,
                   help="event-loop dispatch worker pool size")
    p.add_argument("--rate-limit", type=float, default=None,
                   metavar="RPS",
                   help="per-client token-bucket rate (requests/s; "
                        "excess answered 429 + Retry-After)")
    p.add_argument("--ingest-dir", default=None, metavar="DIR",
                   help="enable POST /api/runs: verified ingested "
                        "runs are committed under DIR and served "
                        "immediately")
    p.add_argument("--job-workers", type=int, default=2,
                   help="launcher threads running background jobs")
    p.add_argument("--job-capacity", type=int, default=8,
                   help="pending ad-hoc jobs the database may hold "
                        "(full -> 429)")
    p.add_argument("--cache-entries", type=int, default=128,
                   help="response LRU entry bound")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="response LRU payload bound (MiB)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request handler timeout in seconds "
                        "(0 disables)")
    p.add_argument("--max-body-kb", type=int, default=1024,
                   help="request body limit (KiB; larger -> 413; "
                        "POST /api/runs has its own archive cap)")
    p.add_argument("--llm-backend", default="chart-analyst",
                   help="backend for POST /api/insights jobs")
    p.add_argument("--fabric", nargs="?", default=None, metavar="DB",
                   help="the background jobs' fabric database "
                        "(default: <first workdir>/.store/"
                        "fabric.sqlite3)")
    return p


def _build_server(args, sock=None):
    app = ServeApp(
        args.workdir,
        llm_backend=args.llm_backend,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_mb * 1024 * 1024,
        job_workers=args.job_workers,
        job_capacity=args.job_capacity,
        request_timeout_s=args.timeout or None,
        max_body_bytes=args.max_body_kb * 1024,
        ingest_dir=args.ingest_dir,
        fabric=args.fabric)
    limiter = None if args.rate_limit is None \
        else RateLimiter(args.rate_limit)
    return app, EventLoopServer(
        app, host=args.host, port=args.port, sock=sock,
        handler_threads=args.handler_threads, rate_limit=limiter)


def _announce(line: str) -> None:
    """One stdout line in one flushed write: clients parse the banner,
    and ``print`` writes text and newline apart, so the banners of
    shards sharing stdout could interleave into one line."""
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _serve_until_signal(app, server, banner: str) -> int:
    stop = threading.Event()

    def request_shutdown(signum, frame) -> None:   # pragma: no cover
        stop.set()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)
    _announce(banner)
    server.start()
    try:
        while not stop.wait(timeout=0.2):   # pragma: no cover - signal loop
            pass
    finally:
        print("repro-serve: draining...", file=sys.stderr)
        clean = server.close(graceful=True)
        print(f"repro-serve: {'clean' if clean else 'forced'} shutdown",
              file=sys.stderr)
    return 0 if clean else 1


def _shard_main(args, shard: int, sock) -> int:
    """Runs inside one forked shard (its own process, app, metrics)."""
    app, server = _build_server(args, sock=sock)
    app.shard = str(shard)
    return _serve_until_signal(
        app, server, f"repro-serve: shard {shard} on "
                     f"http://{args.host}:{sock.getsockname()[1]}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.procs < 1:
        print("error: --procs must be >= 1", file=sys.stderr)
        return 2

    if args.procs > 1:
        try:
            return run_sharded(
                args.procs, args.host, args.port,
                lambda shard, sock: _shard_main(args, shard, sock),
                on_ready=lambda host, port, pids: _announce(
                    f"repro-serve: {args.procs} shards on "
                    f"http://{host}:{port} (pids {pids})"))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        app, server = _build_server(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host, port = server.address
    runs = ", ".join(r.basename for r in app.registry.runs)
    return _serve_until_signal(
        app, server, f"repro-serve: {runs} on http://{host}:{port}")


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
