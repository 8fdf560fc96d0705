"""An accounting database standing in for slurmdbd.

:class:`AccountingDB` holds finished :class:`JobRecord`\\ s sorted by
submit time and answers the date-range queries the *Obtain data* stage
issues (``sacct -S <start> -E <end>``).  Query results are emitted as
sacct pipe text through a :class:`~repro.slurm.emit.SacctEmitter`, so the
rest of the pipeline is exercised on exactly the bytes a real system
would produce.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Iterable, Sequence

import numpy as np

from repro._util.errors import ConfigError
from repro._util.timefmt import month_bounds
from repro.slurm.emit import SacctEmitter
from repro.slurm.records import JobRecord

__all__ = ["AccountingDB"]


class AccountingDB:
    """In-memory job accounting store with date-range queries.

    Jobs are indexed by submit time.  A query returns every job *submitted*
    in ``[start, end)`` — the same semantics the paper's monthly data pulls
    rely on (a job belongs to the month it entered the queue).
    """

    def __init__(self, cluster: str = "cluster") -> None:
        self.cluster = cluster
        self._jobs: list[JobRecord] = []
        self._submits: list[int] = []
        self._sorted = True
        # the Obtain stage queries one shared DB from a worker pool;
        # the lazy sort must not run under a concurrent bisect
        self._sort_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._jobs)

    def _add_locked(self, job: JobRecord) -> None:
        self._jobs.append(job)
        self._sorted = False

    def add(self, job: JobRecord) -> None:
        with self._sort_lock:
            self._add_locked(job)

    def extend(self, jobs: Iterable[JobRecord]) -> None:
        # one acquisition for the whole batch (the Lock is not reentrant)
        with self._sort_lock:
            for job in jobs:
                self._add_locked(job)

    def _ensure_sorted(self) -> None:
        with self._sort_lock:
            if not self._sorted:
                self._jobs.sort(key=lambda j: (j.submit, j.jobid))
                self._submits = [j.submit for j in self._jobs]
                self._sorted = True
            elif len(self._submits) != len(self._jobs):
                self._submits = [j.submit for j in self._jobs]

    @property
    def jobs(self) -> list[JobRecord]:
        """All jobs, sorted by submit time."""
        self._ensure_sorted()
        return self._jobs

    # -- queries -------------------------------------------------------------

    def query(self, start: int, end: int) -> list[JobRecord]:
        """Jobs submitted in ``[start, end)`` (epoch seconds)."""
        if end < start:
            raise ConfigError(f"query end {end} precedes start {start}")
        self._ensure_sorted()
        lo = bisect.bisect_left(self._submits, start)
        hi = bisect.bisect_left(self._submits, end)
        return self._jobs[lo:hi]

    def query_month(self, month: str) -> list[JobRecord]:
        """Jobs submitted in a ``YYYY-MM`` month."""
        start, end = month_bounds(month)
        return self.query(start, end)

    def months(self) -> list[str]:
        """The sorted list of months with at least one submission."""
        self._ensure_sorted()
        seen: dict[str, None] = {}
        from repro._util.timefmt import format_timestamp
        for job in self._jobs:
            seen.setdefault(format_timestamp(job.submit)[:7])
        return sorted(seen)

    def n_steps(self) -> int:
        return sum(len(j.steps) for j in self._jobs)

    # -- sacct-shaped output -------------------------------------------------

    def dump_sacct(self, path: str | os.PathLike, start: int, end: int,
                   fields: Sequence[str] | None = None,
                   include_steps: bool = True,
                   malformed_rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> int:
        """Write the query result as sacct pipe text; returns row count."""
        emitter = SacctEmitter(fields=fields, include_steps=include_steps,
                               malformed_rate=malformed_rate, rng=rng)
        return emitter.write(self.query(start, end), str(path))

    def dump_sacct_month(self, path: str | os.PathLike, month: str,
                         **kwargs) -> int:
        start, end = month_bounds(month)
        return self.dump_sacct(path, start, end, **kwargs)
