"""The bounded background job queue behind the expensive endpoints.

LLM insight analysis and policy-lab simulations take seconds to
minutes; running them on a request thread would pin connections and
invite timeouts.  Instead ``POST`` endpoints enqueue a job and return
``202`` with a polling URL; a small worker pool drains the queue.  The
queue is *bounded* and rejection is explicit: a full queue raises
:class:`QueueFull`, which the HTTP layer maps to ``429`` with a
``Retry-After`` header — backpressure the client can see, instead of an
unbounded in-memory backlog.  Finished jobs stay pollable until
:data:`MAX_FINISHED_JOBS` newer ones have finished, so a long-lived
server's job history is bounded too.  Job-count metrics land on the run
context as ``serve.jobs.*`` counters and gauges.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro._util.clock import wall_now

from repro._util.errors import ReproError

__all__ = ["Job", "JobQueue", "QueueFull", "QueueDraining"]

#: terminal and non-terminal job states
JOB_STATES = ("pending", "running", "done", "failed")

#: finished (done or failed) jobs kept for polling; past this many the
#: earliest finished is forgotten (pending and running jobs never are)
MAX_FINISHED_JOBS = 256


class QueueFull(ReproError):
    """The bounded queue rejected a submission (HTTP 429)."""


class QueueDraining(ReproError):
    """The queue no longer accepts work (server shutting down; 503)."""


@dataclass
class Job:
    """One unit of background work and its lifecycle record."""

    id: str
    kind: str
    status: str = "pending"
    result: object = None
    error: str = ""
    submitted_s: float = field(default_factory=wall_now)
    started_s: float | None = None
    finished_s: float | None = None

    def to_dict(self) -> dict:
        out = {"id": self.id, "kind": self.kind, "status": self.status,
               "submitted_s": round(self.submitted_s, 3)}
        if self.started_s is not None:
            out["started_s"] = round(self.started_s, 3)
        if self.finished_s is not None:
            out["finished_s"] = round(self.finished_s, 3)
        if self.status == "done":
            out["result"] = self.result
        if self.status == "failed":
            out["error"] = self.error
        return out


class JobQueue:
    """A worker pool over a bounded FIFO of callables."""

    def __init__(self, workers: int = 2, capacity: int = 8,
                 obs=None) -> None:
        if workers < 1:
            raise ValueError("job queue needs at least one worker")
        if capacity < 1:
            raise ValueError("job queue needs capacity >= 1")
        self.capacity = capacity
        self.obs = obs
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._jobs: dict[str, Job] = {}     # submission order
        self._finished: deque[str] = deque()  # ids, earliest finish first
        self._lock = threading.Lock()
        self._seq = 0
        self._accepting = True
        self._active = 0
        #: submitted-but-not-finished count (covers the window between
        #: a worker dequeuing a job and marking it running, which
        #: ``qsize``/``_active`` alone would miss)
        self._outstanding = 0
        self._idle = threading.Condition(self._lock)
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"serve-job-worker-{i}")
            for i in range(workers)]
        for t in self._threads:
            t.start()

    # -- metrics -----------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.counter(name).inc()

    def _gauges(self) -> None:
        if self.obs is not None:
            self.obs.gauge("serve.jobs.queued").set(self._queue.qsize())
            with self._lock:
                active = self._active
            self.obs.gauge("serve.jobs.active").set(active)

    # -- submission / polling ------------------------------------------------------

    def submit(self, kind: str, fn) -> Job:
        """Enqueue ``fn`` (no-arg callable); returns its :class:`Job`.

        Raises :class:`QueueDraining` after :meth:`drain`, or
        :class:`QueueFull` when the bounded queue has no room.
        """
        with self._lock:
            if not self._accepting:
                raise QueueDraining("job queue is draining")
            self._seq += 1
            job = Job(id=f"job-{self._seq}", kind=kind)
            self._jobs[job.id] = job
            # counted before the job becomes visible to workers: a fast
            # worker finishing between put_nowait and a late increment
            # would drive the counter to -1 and let drain() return with
            # work still in flight
            self._outstanding += 1
        try:
            self._queue.put_nowait((job, fn))
        except queue.Full:
            with self._lock:
                del self._jobs[job.id]
                self._outstanding -= 1
            self._count("serve.jobs.rejected")
            raise QueueFull(
                f"job queue full ({self.capacity} queued)") from None
        self._count("serve.jobs.submitted")
        self._gauges()
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        """Every job still held, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished and forget the earliest finished
        jobs past :data:`MAX_FINISHED_JOBS` (caller holds the lock)."""
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    # -- worker loop ---------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:            # shutdown sentinel
                self._queue.task_done()
                return
            job, fn = item
            with self._lock:
                self._active += 1
                job.status = "running"
                job.started_s = wall_now()
            self._gauges()
            try:
                result = fn()
            except BaseException as exc:
                with self._lock:
                    job.status = "failed"
                    job.error = "".join(traceback.format_exception_only(
                        type(exc), exc)).strip()
                    job.finished_s = wall_now()
                    self._retire(job)
                self._count("serve.jobs.failed")
                if not isinstance(exc, Exception):
                    # KeyboardInterrupt/SystemExit must still stop the
                    # thread — record the failure, then propagate (the
                    # finally clause below keeps the counters honest)
                    raise
            else:
                with self._lock:
                    job.status = "done"
                    job.result = result
                    job.finished_s = wall_now()
                    self._retire(job)
                self._count("serve.jobs.completed")
            finally:
                with self._idle:
                    self._active -= 1
                    self._outstanding -= 1
                    self._idle.notify_all()
                self._queue.task_done()
                self._gauges()

    # -- shutdown ------------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work and wait for queued + running jobs.

        Returns ``True`` when everything finished within ``timeout``.
        The deadline is monotonic: a wall-clock jump (NTP step, DST)
        can neither extend nor truncate shutdown.
        """
        with self._lock:
            self._accepting = False
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._idle:
            while self._outstanding:
                rem = None if deadline is None \
                    else deadline - time.monotonic()
                if rem is not None and rem <= 0:
                    return False
                self._idle.wait(timeout=0.05 if rem is None
                                else min(0.05, rem))
        return True

    def _discard_queued(self) -> int:
        """Pop queued-but-unstarted jobs, failing them as cancelled.

        Runs only after a drain timeout: whatever is still *queued*
        will never be started, so report that honestly instead of
        leaving the entries pending forever (or blocking shutdown on a
        full queue).  Returns how many jobs were discarded.
        """
        n = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return n
            if item is None:
                # someone's shutdown sentinel: hand it back to a worker
                try:
                    self._queue.put_nowait(None)
                except queue.Full:      # pragma: no cover - defensive
                    pass
                return n
            job, _fn = item
            with self._idle:
                job.status = "failed"
                job.error = "cancelled at shutdown"
                job.finished_s = wall_now()
                self._retire(job)
                self._outstanding -= 1
                self._idle.notify_all()
            self._queue.task_done()
            self._count("serve.jobs.cancelled")
            n += 1

    def close(self, timeout: float | None = 5.0) -> bool:
        """Drain, then stop the worker threads.

        A timed-out drain leaves jobs in the queue; a blocking
        ``put(None)`` on that full queue would hang shutdown forever.
        Instead the leftovers are discarded (marked failed, `cancelled
        at shutdown`) and the sentinels injected without blocking,
        bounded by a one-second monotonic budget for workers stuck on
        a job that never returns.
        """
        finished = self.drain(timeout)
        if not finished:
            self._discard_queued()
        sentinels = len(self._threads)
        stop_by = time.monotonic() + 1.0
        while sentinels:
            try:
                self._queue.put_nowait(None)
                sentinels -= 1
            except queue.Full:
                if not self._discard_queued():
                    if time.monotonic() >= stop_by:
                        break           # stuck worker; threads are daemonic
                    time.sleep(0.005)
        for t in self._threads:
            t.join(timeout=1.0)
        self._gauges()
        return finished
