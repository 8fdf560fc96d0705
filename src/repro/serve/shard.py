"""``--procs N`` sharding: fork-per-shard accept loops on one port.

``SO_REUSEPORT`` lets N processes bind the same address and gives each
its *own* kernel accept queue — the kernel hashes incoming connections
across all bound sockets, so shards never contend on a shared accept
lock and one shard dying (even ``SIGKILL``) cannot corrupt a sibling's
queue.  The choreography here is deliberate:

1. the parent binds a throwaway ``SO_REUSEPORT`` socket first, purely
   to resolve ``--port 0`` to a concrete port every shard will share;
2. each forked child binds its *own* socket (separate accept queue)
   and writes one readiness byte to a pipe;
3. only after every child reports ready does the parent close its
   socket — closing it earlier would be fine, but keeping a bound,
   never-accepting ``SO_REUSEPORT`` socket open *after* children are
   serving would blackhole the fraction of connections the kernel
   hashes to it, so the parent socket's lifetime is kept minimal and
   explicit.

Shutdown mirrors the single-process path: the parent fans ``SIGTERM``
out to every shard, each shard drains gracefully (stop accepting,
finish in-flight responses, drain jobs), and the parent ``SIGKILL``\\ s
any shard still alive past the grace deadline (measured on
``time.monotonic()``).  An unexpected child death tears the whole
fleet down rather than serving with silently reduced capacity.

The parent's own death, by any signal including ``SIGKILL``, reaches
the shards through a lifeline pipe: the parent holds its only write
end, so when the parent is gone each shard's read end sees EOF, and
the shard starts the same graceful drain ``SIGTERM`` starts.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

from repro._util.errors import ReproError

__all__ = ["run_sharded", "sharding_supported", "reuseport_socket"]


def sharding_supported() -> bool:
    """Whether this platform can run ``--procs N > 1``."""
    return hasattr(socket, "SO_REUSEPORT") and hasattr(os, "fork")


def reuseport_socket(host: str, port: int,
                     backlog: int = 1024) -> socket.socket:
    """A listening socket siblings may also bind (separate queues)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(backlog)
    except OSError:
        sock.close()
        raise
    return sock


def _reap(children: dict[int, int | None]) -> None:
    """Collect any exited children without blocking."""
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
        if pid in children:
            children[pid] = (os.waitstatus_to_exitcode(status)
                             if hasattr(os, "waitstatus_to_exitcode")
                             else status)


def _watch_lifeline(read_fd: int) -> None:
    """In a shard: drain as on ``SIGTERM`` once the parent is gone.

    The parent never writes to the lifeline, so ``os.read`` returns only
    at EOF, when the last write end (the parent's) has closed.
    """
    def watch() -> None:
        try:
            os.read(read_fd, 1)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch, name="lifeline", daemon=True).start()


def run_sharded(procs: int, host: str, port: int, child_main, *,
                shutdown_grace_s: float = 20.0,
                on_ready=None) -> int:
    """Fork ``procs`` shards, each running ``child_main(shard, sock)``.

    ``child_main`` receives the shard index and a fresh
    ``SO_REUSEPORT`` listening socket; it must serve until SIGTERM and
    return an exit status (it runs inside the forked child and its
    return value becomes the child's exit code).  ``on_ready(host,
    port, pids)`` fires in the parent once every shard has bound and
    signalled readiness.  Returns the worst child exit status.
    """
    if procs < 2:
        raise ReproError("run_sharded wants procs >= 2; run the "
                         "server in-process for a single shard")
    if not sharding_supported():
        raise ReproError("--procs sharding needs SO_REUSEPORT and "
                         "fork(), unavailable on this platform")

    # resolve --port 0 once so every shard binds the same number
    resolver = reuseport_socket(host, port)
    bound_host, bound_port = resolver.getsockname()[:2]

    children: dict[int, int | None] = {}   # pid -> exit status
    ready_fds: list[int] = []
    # the parent keeps the only write end open for its whole life
    life_read, life_write = os.pipe()
    for shard in range(procs):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:                        # pragma: no cover - child
            status = 1
            try:
                os.close(life_write)
                _watch_lifeline(life_read)
                os.close(read_fd)
                resolver.close()
                for fd in ready_fds:
                    os.close(fd)
                sock = reuseport_socket(bound_host, bound_port)
                os.write(write_fd, b"\x01")
                os.close(write_fd)
                status = int(child_main(shard, sock) or 0)
            finally:
                os._exit(status)
        os.close(write_fd)
        children[pid] = None
        ready_fds.append(read_fd)
    os.close(life_read)

    stop = threading.Event()

    def _forward(signum, frame) -> None:    # pragma: no cover - signal
        stop.set()

    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)

    ok = True
    for read_fd in ready_fds:
        if os.read(read_fd, 1) != b"\x01":  # EOF: child died binding
            ok = False
        os.close(read_fd)
    resolver.close()
    if not ok:
        stop.set()
    elif on_ready is not None:
        on_ready(bound_host, bound_port, sorted(children))

    def _alive() -> list[int]:
        return [pid for pid, status in children.items()
                if status is None]

    while not stop.is_set():
        _reap(children)
        if len(_alive()) < len(children):
            # a shard died underneath us: fold the fleet rather than
            # keep serving at silently reduced capacity
            stop.set()
            break
        stop.wait(timeout=0.2)

    for pid in _alive():
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + shutdown_grace_s
    while _alive() and time.monotonic() < deadline:
        _reap(children)
        time.sleep(0.05)
    forced = False
    for pid in _alive():
        forced = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _reap(children)
    while _alive():                         # pragma: no cover - defensive
        try:
            pid, status = os.waitpid(-1, 0)
        except ChildProcessError:
            break
        if pid in children:
            children[pid] = status
    os.close(life_write)
    worst = 0
    for status in children.values():
        code = status or 0
        if code < 0:                    # shard died on a signal
            code = 1
        worst = max(worst, code)
    if forced or not ok:
        worst = max(worst, 1)
    return worst
