"""The event-loop HTTP transport: one thread of readiness, no blocking.

A thread-per-connection server spends one OS thread per connection,
which caps a box at a few hundred concurrent keep-alive clients.  This
transport instead runs a single ``selectors``-based loop that owns every
socket: non-blocking accept, incremental request parsing
(:mod:`repro.serve.proto`), deadline enforcement (a slowloris client
trickling header bytes is cut at the header timeout, an idle keep-alive
connection at the idle timeout), and write-readiness-driven response
flushing.  The loop never executes a handler: every complete request is
dispatched to a bounded worker pool, so a slow ``.npf`` read or chart
render occupies a pool slot, not the accept path.

Responses flow back through a per-connection outbox with byte-bounded
backpressure: a worker streaming a large chunked body blocks (on the
*worker* thread) once the outbox passes its high-water mark and resumes
as the loop drains it to the socket — a slow client throttles its own
response instead of buffering it in server memory.

Requests pipelined on one connection are answered strictly in order;
per-client token-bucket rate limiting (:mod:`repro.serve.limit`)
answers 429 + ``Retry-After`` before a request ever reaches the pool.
"""

from __future__ import annotations

import math
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.serve.api import Request, Response, error_response
from repro.serve.limit import RateLimiter
from repro.serve.proto import (
    CHUNK_END,
    ParsedRequest,
    ProtocolError,
    RequestParser,
    encode_chunk,
    response_head,
)

__all__ = ["EventLoopServer"]

#: outbox byte bounds: a worker pushing response bytes blocks above
#: HIGH and resumes below LOW as the loop drains to the socket
_HIGH_WATER = 1 << 20
_LOW_WATER = 256 * 1024
_RECV_SIZE = 64 * 1024


class _EndOfResponse:
    """Outbox marker: everything before it is one complete response."""

    __slots__ = ("close",)

    def __init__(self, close: bool) -> None:
        self.close = close


class _Connection:
    """Per-socket state.  Attribute ownership is split: the loop thread
    owns parser/pending/deadline/interest; outbox fields are shared and
    guarded by ``lock``; workers only touch the outbox (via the
    server's ``_push``) and read ``closed``."""

    __slots__ = ("sock", "peer", "parser", "pending", "lock", "can_push",
                 "outbox", "outbox_bytes", "dispatching", "close_after",
                 "closed", "error", "reject_input", "continue_sent",
                 "deadline", "deadline_kind", "interest")

    def __init__(self, sock: socket.socket, peer: str,
                 parser: RequestParser) -> None:
        self.sock = sock
        self.peer = peer
        self.parser = parser
        self.pending: deque[ParsedRequest] = deque()
        self.lock = threading.Lock()
        self.can_push = threading.Condition(self.lock)
        self.outbox: deque = deque()
        self.outbox_bytes = 0
        self.dispatching = False
        self.close_after = False
        self.closed = False
        self.error = False
        self.reject_input = False
        self.continue_sent = False
        self.deadline: float | None = None
        self.deadline_kind = ""
        self.interest = selectors.EVENT_READ


class EventLoopServer:
    """Socket lifecycle around one :class:`ServeApp`: ``address``/
    ``url``, ``start()``, ``serve_forever()``,
    ``close(graceful=, timeout=)``."""

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0, *,
                 sock: socket.socket | None = None,
                 handler_threads: int = 8,
                 idle_timeout_s: float = 60.0,
                 header_timeout_s: float = 10.0,
                 rate_limit: RateLimiter | None = None,
                 backlog: int = 1024) -> None:
        self.app = app
        self.idle_timeout_s = idle_timeout_s
        self.header_timeout_s = header_timeout_s
        self.rate_limit = rate_limit
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(backlog)
        self.listener = sock
        self.listener.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._pool = ThreadPoolExecutor(
            max_workers=handler_threads,
            thread_name_prefix="serve-loop-handler")
        self._conns: set[_Connection] = set()
        self._stop_evt = threading.Event()
        self._drain_evt = threading.Event()
        self._done_evt = threading.Event()      # loop fully exited
        self._wake_lock = threading.Lock()
        self._dirty: set[_Connection] = set()
        r, w = socket.socketpair()
        r.setblocking(False)
        w.setblocking(False)
        self._wake_r, self._wake_w = r, w
        self._thread: threading.Thread | None = None
        self._listener_open = True
        #: the transport-level body cap must admit the largest body any
        #: route accepts (the ingest archive path dwarfs the JSON one)
        self._body_cap = getattr(app, "transport_body_cap",
                                 app.max_body_bytes)

    # -- addressing ----------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.listener.getsockname()[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- wakeup plumbing -----------------------------------------------------------

    def _mark_dirty(self, conn: _Connection) -> None:
        with self._wake_lock:
            self._dirty.add(conn)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass                        # a wakeup is already pending

    def _drain_wakeups(self) -> list[_Connection]:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        with self._wake_lock:
            dirty = list(self._dirty)
            self._dirty.clear()
        return dirty

    # -- metrics -------------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.app.obs.counter(name).inc()

    def _gauge_open(self) -> None:
        self.app.obs.gauge("serve.loop.open").set(len(self._conns))

    # -- lifecycle -----------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the readiness loop until :meth:`close` stops it."""
        self._sel.register(self.listener, selectors.EVENT_READ, None)
        self._sel.register(self._wake_r, selectors.EVENT_READ, None)
        next_sweep = 0.0
        try:
            while not self._stop_evt.is_set():
                if self._drain_evt.is_set() and self._listener_open:
                    self._sel.unregister(self.listener)
                    self.listener.close()
                    with self._wake_lock:
                        self._listener_open = False
                timeout = self._select_timeout()
                for key, mask in self._sel.select(timeout):
                    if key.data is None:
                        if key.fileobj is self._wake_r:
                            for conn in self._drain_wakeups():
                                if conn in self._conns:
                                    self._service(conn)
                        else:
                            self._accept()
                        continue
                    conn = key.data
                    if conn not in self._conns:
                        continue        # closed earlier this iteration
                    if mask & selectors.EVENT_READ:
                        self._on_read(conn)
                    if conn in self._conns \
                            and mask & selectors.EVENT_WRITE:
                        self._service(conn)
                now = time.monotonic()
                if now >= next_sweep or self._drain_evt.is_set():
                    self._sweep(now)
                    next_sweep = now + 0.25
        finally:
            for conn in list(self._conns):
                self._close_conn(conn)
            if self._listener_open:
                self._sel.unregister(self.listener)
                self.listener.close()
                with self._wake_lock:
                    self._listener_open = False
            self._sel.unregister(self._wake_r)
            self._sel.close()
            self._done_evt.set()

    def start(self) -> "EventLoopServer":
        """Serve on a daemon thread (tests, benchmarks, embedding)."""
        thread = threading.Thread(target=self.serve_forever,
                                  daemon=True, name="repro-serve-loop")
        with self._wake_lock:
            self._thread = thread
        thread.start()
        return self

    def close(self, graceful: bool = True,
              timeout: float | None = 10.0) -> bool:
        """Stop accepting, let in-flight responses finish, stop the job
        workers (``graceful`` waits for running jobs).  Returns ``True``
        when everything completed."""
        self._drain_evt.set()
        self._wake()
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while self._conns and self._thread is not None \
                and self._thread.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        self._stop_evt.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        else:
            self._done_evt.wait(timeout=5.0)
        self._pool.shutdown(wait=False)
        try:
            self._wake_r.close()
            self._wake_w.close()
        except OSError:                 # pragma: no cover - defensive
            pass
        return self.app.close(timeout if graceful else 0)

    # -- loop internals ------------------------------------------------------------

    def _select_timeout(self) -> float:
        nearest = None
        for conn in self._conns:
            if conn.deadline is not None:
                nearest = conn.deadline if nearest is None \
                    else min(nearest, conn.deadline)
        if nearest is None:
            return 0.25 if self._drain_evt.is_set() else 0.5
        return min(0.5, max(0.0, nearest - time.monotonic()))

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self.listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if self._drain_evt.is_set():
                sock.close()
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:             # pragma: no cover - platform
                pass
            peer = addr[0] if isinstance(addr, tuple) else str(addr)
            conn = _Connection(sock, peer, RequestParser(
                max_body_bytes=self._body_cap))
            conn.deadline = time.monotonic() + self.idle_timeout_s
            conn.deadline_kind = "idle"
            self._conns.add(conn)
            self._sel.register(sock, selectors.EVENT_READ, conn)
            self._count("serve.loop.accepted")
            self._gauge_open()

    def _on_read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            # peer closed its write side; if a response is still being
            # produced or flushed, let it finish — otherwise done
            with conn.lock:
                busy = conn.dispatching or bool(conn.outbox)
            if busy:
                conn.reject_input = True
                self._update_interest(conn)
            else:
                self._close_conn(conn)
            return
        if conn.reject_input:
            return                      # poisoned: draining the error out
        try:
            requests = conn.parser.feed(data)
        except ProtocolError as exc:
            self._count("serve.loop.bad_requests")
            self._enqueue_response(
                conn, error_response(exc.status, exc.message),
                close=True)
            conn.reject_input = True
            self._service(conn)
            return
        if conn.parser.expects_continue and not conn.continue_sent:
            conn.continue_sent = True
            with conn.lock:
                frame = b"HTTP/1.1 100 Continue\r\n\r\n"
                conn.outbox.append(frame)
                conn.outbox_bytes += len(frame)
        if requests:
            conn.pending.extend(requests)
            conn.continue_sent = False
        self._service(conn)

    def _service(self, conn: _Connection) -> None:
        """Flush what the socket will take, process response boundaries,
        start the next pipelined dispatch — the loop-thread driver."""
        while not conn.closed:
            self._flush_outbox(conn)
            if conn.error:
                self._close_conn(conn)
                return
            if conn.dispatching or not conn.pending:
                break
            if not self._begin(conn, conn.pending.popleft()):
                continue                # answered inline (rate limit)
            break
        if conn.closed:
            return
        with conn.lock:
            outbox_empty = not conn.outbox
        if conn.close_after and outbox_empty and not conn.dispatching:
            self._close_conn(conn)
            return
        if self._drain_evt.is_set() and outbox_empty \
                and not conn.dispatching and not conn.pending \
                and not conn.parser.mid_request:
            self._close_conn(conn)
            return
        self._arm_deadline(conn)
        self._update_interest(conn)

    def _begin(self, conn: _Connection, req: ParsedRequest) -> bool:
        """Hand one request to the pool; ``False`` when it was answered
        inline (rate-limited) and the next may start immediately."""
        if self.rate_limit is not None:
            allowed, retry_s = self.rate_limit.allow(conn.peer)
            if not allowed:
                self._count("serve.http.rate_limited")
                response = error_response(
                    429, "rate limit exceeded; slow down",
                    headers={"Retry-After":
                             str(max(1, math.ceil(retry_s)))})
                self._enqueue_response(
                    conn, response,
                    close=not req.keep_alive or self._drain_evt.is_set())
                return False
        conn.dispatching = True
        conn.deadline = None
        self._pool.submit(self._handle, conn, req)
        return True

    def _flush_outbox(self, conn: _Connection) -> None:
        with conn.lock:
            while conn.outbox:
                item = conn.outbox[0]
                if isinstance(item, _EndOfResponse):
                    conn.outbox.popleft()
                    conn.dispatching = False
                    conn.close_after = conn.close_after or item.close
                    continue
                try:
                    n = conn.sock.send(item)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    conn.error = True
                    break
                conn.outbox_bytes -= n
                if n == len(item):
                    conn.outbox.popleft()
                else:
                    conn.outbox[0] = memoryview(item)[n:]
                    break
            if conn.outbox_bytes <= _LOW_WATER:
                conn.can_push.notify_all()

    def _arm_deadline(self, conn: _Connection) -> None:
        if conn.dispatching:
            conn.deadline = None
            conn.deadline_kind = ""
            return
        now = time.monotonic()
        if conn.parser.mid_request:
            # fixed from the first partial byte: a slowloris sender
            # trickling one header byte per tick must not reset it
            if conn.deadline_kind != "header":
                conn.deadline = now + self.header_timeout_s
                conn.deadline_kind = "header"
        else:
            conn.deadline = now + self.idle_timeout_s
            conn.deadline_kind = "idle"

    def _update_interest(self, conn: _Connection) -> None:
        if conn.closed:
            return
        with conn.lock:
            want_write = bool(conn.outbox)
        interest = selectors.EVENT_WRITE if want_write else 0
        if not conn.reject_input:
            interest |= selectors.EVENT_READ
        if interest == 0:
            interest = selectors.EVENT_READ
        if interest != conn.interest:
            conn.interest = interest
            try:
                self._sel.modify(conn.sock, interest, conn)
            except (KeyError, ValueError, OSError):
                pass                    # pragma: no cover - racing close

    def _sweep(self, now: float) -> None:
        for conn in list(self._conns):
            draining_idle = (self._drain_evt.is_set()
                             and not conn.dispatching
                             and not conn.pending
                             and not conn.outbox)
            if draining_idle:
                self._close_conn(conn)
                continue
            if conn.deadline is None or now < conn.deadline:
                continue
            self._count("serve.loop.timeouts")
            if conn.deadline_kind == "header":
                # slowloris: answer 408 best-effort, then cut
                response = error_response(408, "request header timeout")
                head = response_head(response.status, [
                    ("Content-Type", response.content_type),
                    ("Content-Length", str(len(response.body))),
                    ("Connection", "close")])
                try:
                    conn.sock.send(head + response.body)
                except OSError:
                    pass
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        with conn.lock:
            conn.closed = True
            conn.can_push.notify_all()
        self._conns.discard(conn)
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:                 # pragma: no cover - defensive
            pass
        self._gauge_open()

    # -- worker side ---------------------------------------------------------------

    def _push(self, conn: _Connection, data) -> bool:
        """Queue outbound data from a worker thread, blocking above the
        outbox high-water mark; ``False`` once the connection died."""
        with conn.can_push:
            while conn.outbox_bytes > _HIGH_WATER and not conn.closed:
                conn.can_push.wait(timeout=0.5)
            if conn.closed:
                return False
            conn.outbox.append(data)
            if not isinstance(data, _EndOfResponse):
                conn.outbox_bytes += len(data)
        self._mark_dirty(conn)
        return True

    def _enqueue_response(self, conn: _Connection, response: Response,
                          close: bool) -> None:
        """Loop-thread path: serialize a small response without
        blocking on the high-water mark (error/429 bodies are tiny)."""
        head = response_head(response.status, [
            ("Content-Type", response.content_type),
            ("Content-Length", str(len(response.body))),
            *response.headers.items(),
            ("Connection", "close" if close else "keep-alive")])
        with conn.lock:
            conn.outbox.append(head + response.body)
            conn.outbox_bytes += len(head) + len(response.body)
            conn.outbox.append(_EndOfResponse(close))

    def _to_request(self, raw: ParsedRequest) -> Request:
        split = urlsplit(raw.target)
        return Request(
            method="GET" if raw.method == "HEAD" else raw.method,
            path=unquote(split.path),
            query=dict(parse_qsl(split.query)),
            headers=raw.headers,
            body=raw.body)

    def _handle(self, conn: _Connection, raw: ParsedRequest) -> None:
        """Worker thread: dispatch, serialize, stream into the outbox."""
        try:
            response = self.app.dispatch(self._to_request(raw))
        except Exception as exc:        # dispatch() never raises; belt
            self._count("serve.http.unhandled_errors")
            response = error_response(
                500, f"transport error: {type(exc).__name__}")
        close = (not raw.keep_alive) or self._drain_evt.is_set()
        suppress = raw.method == "HEAD" or response.status in (204, 304)
        body = response.body
        streaming = not isinstance(body, (bytes, bytearray))
        if streaming and raw.version == "HTTP/1.0":
            # no chunked transfer before HTTP/1.1: materialize
            body = b"".join(bytes(c) for c in body)
            streaming = False

        headers = list(response.headers.items())
        have = {name.lower() for name, _ in headers}
        if response.status == 304:
            headers.append(("Content-Length", "0"))
        else:
            if "content-type" not in have:
                headers.append(("Content-Type", response.content_type))
            if streaming:
                headers.append(("Transfer-Encoding", "chunked"))
            else:
                headers.append(("Content-Length", str(len(body))))
        headers.append(("Connection",
                        "close" if close else "keep-alive"))
        ok = self._push(conn, response_head(response.status, headers))

        if streaming:
            self._count("serve.loop.streamed")
            completed = ok
            if suppress:
                closer = getattr(body, "close", None)
                if closer is not None:
                    closer()
            else:
                try:
                    for chunk in body:
                        if not ok:
                            completed = False
                            break
                        chunk = bytes(chunk)
                        if chunk:
                            ok = self._push(conn, encode_chunk(chunk))
                            completed = ok
                except Exception:
                    # mid-stream failure after the 200 head went out:
                    # truncate the chunked framing so the client sees a
                    # broken transfer, never a silently short body
                    self._count("serve.http.unhandled_errors")
                    completed = False
            if completed:
                self._push(conn, CHUNK_END)
            else:
                close = True
        elif ok and not suppress and len(body):
            self._push(conn, bytes(body))
        self._push(conn, _EndOfResponse(close))
