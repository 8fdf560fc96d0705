"""The server's background jobs: a front for one durable job store.

LLM insights and policy-lab simulations take seconds to minutes, so
``POST`` endpoints submit a job and return ``202`` with a polling URL.
Every job is a ``(kind, payload)`` row in one
:class:`~repro.fabric.store.FabricStore`, run by
:class:`~repro.fabric.launcher.Launcher` threads in the server process:
every ``--procs`` shard, ``repro-launcher`` and restart on the same
database sees one job id space and one transition history.

A submission finding ``capacity`` pending ad-hoc jobs in the store
raises :class:`QueueFull` (HTTP ``429`` with ``Retry-After``, counted
on ``serve.jobs.rejected``); the count shares the insert's write
transaction, so all shards share the bound.
"""

from __future__ import annotations

import threading
import time

from repro.fabric.launcher import Launcher
from repro.fabric.store import FabricJob, FabricStore, QueueFull

__all__ = ["JobQueue", "QueueFull"]


class JobQueue:
    """Bounded submission into ``store`` plus the in-process launcher
    that runs what it holds (``workers`` threads)."""

    def __init__(self, store: FabricStore, workers: int = 2,
                 capacity: int = 8, obs=None) -> None:
        if capacity < 1:
            raise ValueError("job queue needs capacity >= 1")
        self.store = store
        self.capacity = capacity
        self.obs = obs
        # a submission here wakes a worker at once; the poll only finds
        # work other processes submitted or retries whose backoff ran
        # out, so each idle worker polls every `workers` seconds: about
        # one store poll a second in all
        self.launcher = Launcher(store, workers=workers,
                                 poll_s=float(workers), obs=obs)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self.launcher.run, args=(self._stop,), daemon=True,
            name="serve-job-launcher")
        self._thread.start()

    def submit(self, kind: str, payload: dict) -> FabricJob:
        """Store one pending job and wake a worker; returns the stored
        job as submitted.  Raises :class:`QueueFull` when the store
        already holds ``capacity`` pending ad-hoc jobs."""
        try:
            job = self.store.submit(kind, payload,
                                    capacity=self.capacity)
        except QueueFull:
            if self.obs is not None:
                self.obs.counter("serve.jobs.rejected").inc()
            raise
        self.launcher.wake()
        return job

    def get(self, job_id: str) -> FabricJob | None:
        return self.store.get(job_id)

    def list_jobs(self, campaign: str | None = None) -> list[FabricJob]:
        """Every stored job (or one campaign's members), oldest first."""
        return self.store.list_jobs(campaign=campaign)

    def close(self, timeout: float | None = 5.0) -> bool:
        """Stop leasing and wait for the running jobs to finish.

        Pending jobs stay in the store for the next start (or any
        launcher on the same database).  Returns ``True`` when the
        workers finished within ``timeout``; the deadline is monotonic,
        so a wall-clock step can neither extend nor truncate shutdown.
        """
        self._stop.set()
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while self._thread.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            self._thread.join(timeout=0.05)
        return True
