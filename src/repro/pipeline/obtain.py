"""The Obtain stage: parameterized, cached, concurrent data pulls.

Mirrors the paper's description: "users can define the desired date range
(e.g., spanning multiple years), choose the data granularity (yearly or
monthly), and indicate whether previously cached data should be used.  If
cached data is unavailable, the system automatically fetches fresh
records ... For large-scale retrievals across many months or years, GNU
Parallel is employed to execute multiple database queries concurrently."

Here the database is an :class:`~repro.slurm.db.AccountingDB` and the
GNU-Parallel role is played by a thread pool (the queries release the GIL
while writing files, and correctness does not depend on true
parallelism — only the concurrency structure is reproduced).
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._util.errors import ConfigError
from repro._util.timefmt import iter_months, month_bounds
from repro.slurm.db import AccountingDB
from repro.slurm.emit import DEFAULT_MALFORMED_RATE
from repro.store import Artifact

__all__ = ["ObtainConfig", "ObtainStage", "ObtainReport", "window_seed",
           "window_rng"]


def window_seed(name: str) -> int:
    """Process-stable RNG seed word for a window name.

    Built-in ``hash()`` on strings is salted per interpreter
    (``PYTHONHASHSEED``), which would make "cached vs fresh" runs
    synthesize different data across invocations; crc32 is a stable
    digest of the name alone.
    """
    return zlib.crc32(name.encode("utf-8"))


def window_rng(seed: int, name: str) -> np.random.Generator:
    """The malformed-row fault stream of one window's pull.

    Obtain draws it while writing the window's sacct text; the sharded
    emit phase replays it per month (``name`` is the month) so both
    curate front-ends drop the same rows.
    """
    return np.random.default_rng([seed, window_seed(name)])


@dataclass(frozen=True)
class ObtainConfig:
    """Parameters of one Obtain run (the workflow's date_spec/dates/cache
    arguments)."""

    start_month: str
    end_month: str
    granularity: str = "monthly"          # "monthly" | "yearly"
    cache_dir: str = "cache"
    use_cache: bool = True
    workers: int = 4
    malformed_rate: float = DEFAULT_MALFORMED_RATE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.granularity not in ("monthly", "yearly"):
            raise ConfigError(f"bad granularity {self.granularity!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # validate months eagerly
        list(iter_months(self.start_month, self.end_month))

    def windows(self) -> list[tuple[str, list[str]]]:
        """``(window_name, months)`` pairs at the configured granularity."""
        months = list(iter_months(self.start_month, self.end_month))
        if self.granularity == "monthly":
            return [(m, [m]) for m in months]
        by_year: dict[str, list[str]] = {}
        for m in months:
            by_year.setdefault(m[:4], []).append(m)
        return sorted(by_year.items())


@dataclass
class ObtainReport:
    """What an Obtain run did.

    ``files`` holds typed :class:`~repro.store.Artifact` handles
    (``os.PathLike``, so existing path consumers keep working)."""

    files: list[Artifact] = field(default_factory=list)
    fetched: list[str] = field(default_factory=list)   # window names pulled
    cached: list[str] = field(default_factory=list)    # served from cache
    rows: int = 0


class ObtainStage:
    """Pull sacct text for each window of a date range, with caching.

    ``db`` is the database, or a function returning it that is called
    only on a cache miss (then ``cluster`` names the cache files).
    """

    def __init__(self, db: AccountingDB | Callable[[], AccountingDB],
                 config: ObtainConfig, obs=None, *,
                 cluster: str | None = None) -> None:
        self.db = db
        self.cluster = cluster or db.cluster
        self.config = config
        #: optional repro.obs.RunContext — every produced (or cache-hit)
        #: sacct window file is registered in the provenance ledger with
        #: a content fingerprint
        self.obs = obs

    def _window_artifact(self, name: str) -> Artifact:
        return Artifact(name=f"{self.cluster}-{name}", fmt="pipe",
                        path=os.path.join(self.config.cache_dir,
                                          f"{self.cluster}-{name}.txt"))

    def _fetch(self, db: AccountingDB, name: str,
               months: list[str]) -> tuple[str, int]:
        start, _ = month_bounds(months[0])
        _, end = month_bounds(months[-1])
        path = self._window_artifact(name).path
        rows = db.dump_sacct(path, start, end,
                             malformed_rate=self.config.malformed_rate,
                             rng=window_rng(self.config.seed, name))
        return path, rows

    def run(self) -> ObtainReport:
        """Fetch (or reuse) every window; windows fetch concurrently."""
        report = ObtainReport()
        todo: list[tuple[str, list[str]]] = []
        for name, months in self.config.windows():
            art = self._window_artifact(name)
            if self.config.use_cache and art.exists():
                report.cached.append(name)
                report.files.append(art)
                self._record_provenance(name, art.path, cached=True)
            else:
                todo.append((name, months))
        if todo:
            db = self.db() if callable(self.db) else self.db
            with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
                futures = {pool.submit(self._fetch, db, name, months): name
                           for name, months in todo}
                results = {}
                for fut, name in futures.items():
                    path, rows = fut.result()
                    results[name] = (path, rows)
            for name, _ in todo:   # keep window order deterministic
                path, rows = results[name]
                report.fetched.append(name)
                report.files.append(self._window_artifact(name))
                report.rows += rows
                self._record_provenance(name, path, cached=False)
        report.files.sort(key=os.fspath)
        return report

    def _record_provenance(self, name: str, path: str,
                           cached: bool) -> None:
        """Register a window file in the run's provenance ledger.  A
        cache hit is re-fingerprinted: the ledger states what this run
        actually consumed, whoever produced the bytes."""
        if self.obs is None:
            return
        producer = f"obtain:{name}" + (":cached" if cached else "")
        self.obs.record_artifact(path, producer=producer)
