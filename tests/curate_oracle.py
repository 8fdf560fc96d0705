"""The sacct text round trip: reference for the typed curate path.

:func:`repro.pipeline.curate.curate_records` maps accounting records
straight to curated columns, and
:class:`repro.pipeline.curate.CuratedCsvWriter` builds each ``.npf`` twin
from the cells it writes.  These functions keep the slower route both
replace, so tests can hold the shipped path to its bytes:

- :func:`oracle_curate_records` formats each record as a sacct pipe row
  (``SacctEmitter.job_row``/``step_row``), parses it back with
  ``record_from_row``, and builds the curated row with
  :class:`CurateStage`'s text-path row builders;
- :func:`oracle_write_table` writes a curated CSV row by row and derives
  the twin by re-reading it: ``write_npf(read_csv(csv))``.
"""

from __future__ import annotations

import csv
import os

from repro.frame.io import _cell, read_csv, write_npf
from repro.pipeline.curate import CurateStage
from repro.slurm.emit import SacctEmitter
from repro.slurm.parse import record_from_row
from repro.store import default_hash_cache


def oracle_curate_records(records) -> tuple[list[dict], list[dict]]:
    """``(job_rows, step_rows)`` through sacct text and back."""
    emitter = SacctEmitter()
    names = emitter.names
    job_rows: list[dict] = []
    step_rows: list[dict] = []
    for job in records:
        typed = record_from_row(names, emitter.job_row(job).split("|"))
        job_rows.append(CurateStage._job_row(typed))
        for step in job.steps:
            typed = record_from_row(names,
                                    emitter.step_row(step).split("|"))
            step_rows.append(CurateStage._step_row(typed))
    return job_rows, step_rows


def oracle_write_table(rows: list[dict], columns: list[str],
                       csv_path: str, twin_path: str) -> None:
    """A curated CSV, then its twin from a re-read of that CSV."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    write_npf(read_csv(csv_path), twin_path,
              meta={"source": os.path.basename(csv_path),
                    "source_sha256": default_hash_cache().sha256(csv_path),
                    "infer": True})
