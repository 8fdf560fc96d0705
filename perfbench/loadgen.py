"""A single-threaded HTTP/1.1 load generator over keep-alive connections.

One process, one thread, ``selectors`` over a fixed set of connections,
no pipelining: each connection carries one request at a time.  Two
load loops share the connection code:

* :meth:`Client.open_loop` sends every request when it falls due, on the
  first idle connection; a request that finds none waits in a FIFO.  Its
  latency is measured from its due time, so a server stall also charges
  the requests queued behind it.  ``lag`` is how late the generator
  itself noticed a due request.
* :meth:`Client.closed_loop` sends the next request on a connection as
  soon as its previous response is complete.

Follow-up requests (job polls) are scheduled by the response handler.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import time
from collections import deque

__all__ = ["Op", "Response", "Client"]


class Response:
    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict, body: bytes) -> None:
        self.status = status
        self.headers = headers
        self.body = body


class Op:
    """One request and what happened to it (times are ``perf_counter``)."""

    __slots__ = ("method", "path", "headers", "body", "due", "sent",
                 "done", "lag", "response", "error", "tag")

    def __init__(self, method: str, path: str, *, headers=None,
                 body: bytes = b"", due: float = 0.0, tag=None) -> None:
        self.method = method
        self.path = path
        self.headers = headers or {}
        self.body = body
        self.due = due
        self.sent = self.done = None
        self.lag = 0.0
        self.response: Response | None = None
        self.error = ""
        self.tag = tag

    def encode(self, host: str) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1", f"Host: {host}"]
        lines += [f"{k}: {v}" for k, v in self.headers.items()]
        if self.body or self.method == "POST":
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(self.body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") \
            + self.body


class _Parser:
    """Incremental response parser: Content-Length and chunked bodies."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self._reset()

    def _reset(self) -> None:
        self.state = "head"
        self.status = 0
        self.headers: dict[str, str] = {}
        self.body = bytearray()
        self.need = 0

    def feed(self, data: bytes) -> Response | None:
        buf = self.buf
        buf += data
        while True:
            if self.state == "head":
                end = buf.find(b"\r\n\r\n")
                if end < 0:
                    return None
                lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
                del buf[:end + 4]
                self.status = int(lines[0].split()[1])
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    self.headers[name.strip().lower()] = value.strip()
                if self.headers.get("transfer-encoding") == "chunked":
                    self.state = "size"
                else:
                    self.need = int(self.headers.get("content-length", 0))
                    self.state = "body"
            elif self.state == "body":
                if len(buf) < self.need:
                    return None
                self.body = bytes(buf[:self.need])
                del buf[:self.need]
                return self._finish()
            elif self.state == "size":
                end = buf.find(b"\r\n")
                if end < 0:
                    return None
                size = int(bytes(buf[:end]).split(b";")[0], 16)
                del buf[:end + 2]
                self.need = size
                self.state = "chunk" if size else "trailer"
            elif self.state == "chunk":
                if len(buf) < self.need + 2:
                    return None
                self.body += buf[:self.need]
                del buf[:self.need + 2]
                self.state = "size"
            else:                       # trailer
                end = buf.find(b"\r\n")
                if end < 0:
                    return None
                del buf[:end + 2]
                if end == 0:
                    return self._finish()

    def _finish(self) -> Response:
        resp = Response(self.status, self.headers, bytes(self.body))
        self._reset()
        return resp


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.parser = _Parser()
        self.op: Op | None = None


class Client:
    """``n_conns`` keep-alive connections to one server."""

    def __init__(self, host: str, port: int, n_conns: int = 2,
                 timeout_s: float = 30.0) -> None:
        self.host, self.port = host, port
        self.timeout_s = timeout_s
        self.sel = selectors.DefaultSelector()
        self.conns = [self._connect() for _ in range(n_conns)]
        self._failed: list[Op] = []

    def _connect(self) -> _Conn:
        conn = _Conn(self.host, self.port)
        self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    # -- one connection ------------------------------------------------------

    def _send(self, conn: _Conn, op: Op) -> None:
        op.sent = time.perf_counter()
        conn.op = op
        data = op.encode(f"{self.host}:{self.port}")
        conn.sock.setblocking(True)
        try:
            conn.sock.sendall(data)
        except OSError as exc:
            self._fail(conn, f"send: {exc}")
        else:
            conn.sock.setblocking(False)

    def _fail(self, conn: _Conn, error: str) -> None:
        """Finish the connection's request as failed and reconnect; the
        op is handed back by the next :meth:`_poll`."""
        op = conn.op
        op.done = time.perf_counter()
        op.error = error
        self._failed.append(op)
        self.sel.unregister(conn.sock)
        conn.sock.close()
        self.conns[self.conns.index(conn)] = self._connect()

    def _poll(self, timeout: float) -> list[tuple[_Conn | None, Op]]:
        """Wait up to ``timeout`` s; returns the requests that finished
        (with their connection, or ``None`` when it failed)."""
        now = time.perf_counter()
        for conn in list(self.conns):
            if conn.op is not None and now - conn.op.sent > self.timeout_s:
                self._fail(conn, "timeout")
        if self._failed:
            timeout = 0.0
        finished = []
        for key, _ in self.sel.select(max(0.0, timeout)):
            conn = key.data
            if conn.op is None:
                continue
            try:
                data = conn.sock.recv(262144)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError as exc:
                self._fail(conn, f"recv: {exc}")
                continue
            if not data:
                self._fail(conn, "closed")
                continue
            resp = conn.parser.feed(data)
            if resp is not None:
                op, conn.op = conn.op, None
                op.done = time.perf_counter()
                op.response = resp
                finished.append((conn, op))
        finished += [(None, op) for op in self._failed]
        self._failed.clear()
        return finished

    def request(self, method: str, path: str, headers=None,
                body: bytes = b"") -> Op:
        """One blocking request on the first connection."""
        op = Op(method, path, headers=headers, body=body,
                due=time.perf_counter())
        self._send(self.conns[0], op)
        while op.done is None:
            self._poll(1.0)
        if op in self._failed:          # failed on send: not for a loop
            self._failed.remove(op)
        return op

    # -- load loops ----------------------------------------------------------

    def open_loop(self, schedule: list[Op], on_done, drain_s: float = 30.0
                  ) -> None:
        """Send each op of ``schedule`` (sorted by ``due``) when due.

        ``on_done(op)`` may return a follow-up op (its ``due`` set),
        which joins the schedule.  Returns once every op finished, or
        ``drain_s`` after the last scheduled one fell due (the rest
        fail as timed out).
        """
        timers: list = []
        seq = itertools.count()
        waiting: deque[Op] = deque()
        i = 0
        last_due = schedule[-1].due if schedule else time.perf_counter()
        while True:
            now = time.perf_counter()
            while i < len(schedule) and schedule[i].due <= now:
                op = schedule[i]
                op.lag = now - op.due
                waiting.append(op)
                i += 1
            while timers and timers[0][0] <= now:
                op = heapq.heappop(timers)[2]
                op.lag = now - op.due
                waiting.append(op)
            for conn in self.conns:
                if conn.op is None and waiting:
                    self._send(conn, waiting.popleft())
            busy = any(conn.op is not None for conn in self.conns)
            if i == len(schedule) and not timers and not waiting \
                    and not busy and not self._failed:
                return
            if now > last_due + drain_s:
                for op in list(waiting) + [t[2] for t in timers]:
                    op.error = "not sent before the drain deadline"
                    op.done = now
                    on_done(op)
                for conn in list(self.conns):
                    if conn.op is not None:
                        self._fail(conn, "timeout")
                for _, op in self._poll(0.0):
                    on_done(op)
                return
            due = [schedule[i].due] if i < len(schedule) else []
            if timers:
                due.append(timers[0][0])
            timeout = min([0.05] + [d - now for d in due])
            for _conn, op in self._poll(timeout):
                follow = on_done(op)
                if follow is not None:
                    heapq.heappush(timers, (follow.due, next(seq), follow))

    def closed_loop(self, make_op, seconds: float, on_done) -> None:
        """Keep every connection busy with ``make_op()`` requests for
        ``seconds``, then let the last ones finish."""
        end = time.perf_counter() + seconds
        while True:
            if time.perf_counter() < end:
                for conn in self.conns:
                    if conn.op is None:
                        self._send(conn, make_op())
            elif all(conn.op is None for conn in self.conns) \
                    and not self._failed:
                return
            for _conn, op in self._poll(0.05):
                on_done(op)
