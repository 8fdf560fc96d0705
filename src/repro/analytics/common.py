"""Shared analytics helpers: loading curated tables, time bucketing.

Loaders accept curated CSVs, their binary ``.npf`` twins, or typed
:class:`repro.store.Artifact` handles interchangeably.  Each table is
read through :func:`repro.store.read_table_fast` (a CSV whose twin is
hash-valid is served from the twin: no parse, no dtype inference), so a
loader returns exactly the Frame
:meth:`repro.store.ArtifactStore.load_frame` returns for the same table.
"""

from __future__ import annotations

import os

import numpy as np

from repro._util.errors import DataError
from repro.frame import Frame, concat
from repro.slurm.records import JOB_STATES
from repro.store import read_table_fast

__all__ = ["load_jobs", "load_steps", "epoch_to_month", "epoch_to_year",
           "filter_states", "iqr_bounds"]


def load_jobs(paths) -> Frame:
    """Load one or more curated jobs tables (``.csv`` or ``.npf``, path
    or artifact handle), concatenated in the order given."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    frames = [read_table_fast(p) for p in paths]
    if not frames:
        raise DataError("no tables given")
    return frames[0] if len(frames) == 1 else concat(frames)


def load_steps(paths) -> Frame:
    """Load one or more curated steps tables (see :func:`load_jobs`)."""
    return load_jobs(paths)


def epoch_to_month(epochs: np.ndarray) -> np.ndarray:
    """Vectorized epoch-seconds → ``YYYY-MM`` strings (UTC)."""
    arr = np.asarray(epochs, dtype="int64")
    months = arr.astype("datetime64[s]").astype("datetime64[M]")
    return months.astype(str).astype(object)


def epoch_to_year(epochs: np.ndarray) -> np.ndarray:
    """Vectorized epoch-seconds → ``YYYY`` strings (UTC)."""
    arr = np.asarray(epochs, dtype="int64")
    years = arr.astype("datetime64[s]").astype("datetime64[Y]")
    return years.astype(str).astype(object)


def filter_states(frame: Frame, states: list[str]) -> Frame:
    """Keep rows whose State is in ``states`` (validated against the
    catalog; CANCELLED matches Slurm's 'CANCELLED by <uid>' variants)."""
    unknown = [s for s in states if s not in JOB_STATES]
    if unknown:
        raise DataError(f"unknown job states {unknown}")
    col = frame["State"]
    mask = np.zeros(len(frame), dtype=bool)
    for s in states:
        mask |= np.fromiter((str(v).startswith(s) for v in col),
                            dtype=bool, count=len(frame))
    return frame.filter(mask)


def iqr_bounds(values: np.ndarray, k: float = 1.5) -> tuple[float, float]:
    """Tukey outlier fences — the paper's Figure 4 'outliers are omitted
    for clarity' filter."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return (0.0, 0.0)
    q1, q3 = np.percentile(v, [25, 75])
    span = q3 - q1
    return (q1 - k * span, q3 + k * span)
