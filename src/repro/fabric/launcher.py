"""The launcher: a worker pool that executes leased work.

A :class:`Launcher` is the execution half of the fabric (Balsam's
``launcher/`` shape): it owns no queue and no job state of its own —
everything durable lives in the :class:`~repro.fabric.store.FabricStore`
— it merely leases runnable jobs, executes them through the runner
registry (:mod:`repro.fabric.runners`), and reports outcomes back under
its lease token.  It runs as ``repro-launcher`` or as threads inside
``repro-serve``, where :meth:`Launcher.wake` starts a submission at once.

The liveness contract:

- every leased job is heartbeat-extended from one beat thread at
  roughly a third of the lease length, so a healthy launcher never
  loses a lease mid-run, however long the job;
- the same beat tick sweeps :meth:`FabricStore.requeue_expired`, so a
  fleet of launchers collectively recovers any member's orphans;
- a crashed launcher (``kill -9``) simply stops beating — its leases
  expire and the jobs are requeued elsewhere, bounded by each job's
  ``max_attempts``.

Beat *scheduling* uses ``time.monotonic`` (a wall-clock jump must not
stall heartbeats or mass-expire leases from the launcher's own side);
the lease expiry instants stored in the database are epoch seconds
because they must be comparable across processes.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass

from repro._util.errors import ReproError
from repro.fabric.runners import BUILTIN_RUNNERS
from repro.fabric.store import FabricStore, TERMINAL_STATES

__all__ = ["Launcher", "LauncherStats"]


@dataclass
class LauncherStats:
    """What one launcher run did (snapshot, returned by :meth:`run`)."""

    completed: int = 0
    failed: int = 0
    requeued: int = 0
    beats: int = 0

    def to_dict(self) -> dict:
        return {"completed": self.completed, "failed": self.failed,
                "requeued": self.requeued, "beats": self.beats}


class Launcher:
    """Lease, execute, heartbeat, recover — until told to stop.

    ``max_jobs`` bounds how many jobs this launcher finishes before
    exiting (tests, benchmarks); ``idle_exit_s`` exits after the store
    has held no incomplete work for that long (drain-style runs); both
    default to run-forever, the service shape.
    """

    def __init__(self, store: FabricStore, runners: dict | None = None,
                 *, workers: int = 2, lease_s: float = 30.0,
                 poll_s: float = 0.2, launcher_id: str | None = None,
                 max_jobs: int | None = None,
                 idle_exit_s: float | None = None, obs=None,
                 log=None) -> None:
        if workers < 1:
            raise ReproError("launcher needs at least one worker")
        if lease_s <= 0:
            raise ReproError("lease_s must be positive")
        self.store = store
        self.runners = dict(BUILTIN_RUNNERS)
        if runners:
            self.runners.update(runners)
        self.workers = workers
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.id = launcher_id or f"launcher-{threading.get_native_id()}"
        self.max_jobs = max_jobs
        self.idle_exit_s = idle_exit_s
        self.obs = obs
        self.log = log or (lambda msg: None)
        self.stats = LauncherStats()
        self._lock = threading.Lock()
        #: job id -> lease token for everything this launcher is
        #: executing right now (the heartbeat set)
        self._inflight: dict[str, str] = {}
        #: one token per wake(): an idle worker leases again at once
        self._wakeups = threading.Semaphore(0)
        self._finished = 0
        self._idle_since_m: float | None = None

    # -- main loop -----------------------------------------------------------------

    def run(self, stop: threading.Event | None = None) -> LauncherStats:
        """Block until stopped; returns the run's stats.

        ``stop`` lets an embedding process (tests, ``repro-serve``'s
        job workers) request a graceful exit: workers finish their current
        job, nothing new is leased.
        """
        stop = stop if stop is not None else threading.Event()
        self.store.requeue_expired()     # recover promptly on restart
        threads = [
            threading.Thread(target=self._work, args=(stop, i),
                             daemon=True, name=f"{self.id}-worker-{i}")
            for i in range(self.workers)]
        for t in threads:
            t.start()
        beat_every = max(0.05, self.lease_s / 3.0)
        next_beat = time.monotonic()
        try:
            while not stop.is_set():
                now_m = time.monotonic()
                if now_m >= next_beat:
                    self._beat()
                    next_beat = now_m + beat_every
                if self._should_exit(now_m):
                    stop.set()
                    break
                stop.wait(timeout=min(self.poll_s, beat_every))
        finally:
            stop.set()
            for _ in threads:
                self._wakeups.release()
            for t in threads:
                t.join(timeout=self.lease_s)
        return self.stats

    def wake(self) -> None:
        """A job was just submitted: let one idle worker lease now."""
        self._wakeups.release()

    def _should_exit(self, now_m: float) -> bool:
        with self._lock:
            if self.max_jobs is not None \
                    and self._finished >= self.max_jobs:
                return True
        if self.idle_exit_s is None:
            return False
        counts = self.store.counts()
        busy = sum(v for s, v in counts.items()
                   if s not in TERMINAL_STATES)
        with self._lock:
            if busy:
                self._idle_since_m = None
                return False
            if self._idle_since_m is None:
                self._idle_since_m = now_m
            return now_m - self._idle_since_m >= self.idle_exit_s

    # -- heartbeats / recovery -----------------------------------------------------

    def _beat(self) -> None:
        """Extend every in-flight lease, then sweep for orphans."""
        with self._lock:
            inflight = dict(self._inflight)
            self.stats.beats += 1
        for job_id, lease in sorted(inflight.items()):
            if not self.store.heartbeat(job_id, lease, self.lease_s):
                self.log(f"{self.id}: lost lease on {job_id} "
                         "(expired and requeued elsewhere)")
        requeued = self.store.requeue_expired()
        if requeued:
            with self._lock:
                self.stats.requeued += len(requeued)
            self.log(f"{self.id}: requeued {len(requeued)} orphaned "
                     f"job(s): {', '.join(requeued)}")

    # -- workers -------------------------------------------------------------------

    def _work(self, stop: threading.Event, index: int) -> None:
        worker_id = f"{self.id}/{index}"
        while not stop.is_set():
            with self._lock:
                if self.max_jobs is not None \
                        and self._finished >= self.max_jobs:
                    return
            job = self.store.lease(worker_id, self.lease_s)
            if job is None:
                self._wakeups.acquire(timeout=self.poll_s)
                continue
            self._execute(job, worker_id)

    def _execute(self, job, worker_id: str) -> None:
        """Run one leased job to a reported outcome.

        Outcome mapping: a :class:`ReproError` is a bad payload — every
        retry would fail identically, so it goes terminal at once; any
        other exception is retryable (transient environment); a
        non-``Exception`` (``KeyboardInterrupt``/``SystemExit``) is
        recorded as a retryable failure and then re-raised so shutdown
        still propagates.
        """
        if not self.store.start(job.id, job.lease):
            return                      # lease lost before we began
        with self._lock:
            self._inflight[job.id] = job.lease
        self.log(f"{worker_id}: running {job.id} ({job.kind})")
        try:
            runner = self.runners.get(job.kind)
            if runner is None:
                raise ReproError(
                    f"no runner for job kind {job.kind!r} "
                    f"(have {sorted(self.runners)})")
            result = runner(job.payload, self.obs)
        except BaseException as exc:
            error = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
            retryable = not isinstance(exc, ReproError)
            state = self.store.fail(job.id, job.lease, error,
                                    retryable=retryable)
            with self._lock:
                self._inflight.pop(job.id, None)
                self._finished += 1
                if state == "failed":
                    self.stats.failed += 1
            self.log(f"{worker_id}: {job.id} failed -> {state}: {error}")
            if not isinstance(exc, Exception):
                raise
        else:
            self.store.complete(job.id, job.lease, result)
            with self._lock:
                self._inflight.pop(job.id, None)
                self._finished += 1
                self.stats.completed += 1
            self.log(f"{worker_id}: {job.id} done")
