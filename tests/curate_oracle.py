"""The sacct text round trip: reference for the typed curate path.

:func:`repro.pipeline.curate.curate_records` maps accounting records
straight to curated columns, and
:class:`repro.pipeline.curate.CuratedCsvWriter` builds each ``.npf`` twin
from the cells it writes.  These functions keep the slower route both
replace, so tests can hold the shipped path to its bytes:

- :func:`oracle_curate_records` formats each record as a sacct pipe row
  (``SacctEmitter.rows``, truncating the rows a fault stream hits),
  parses it back with ``record_from_row``, drops the rows that fail to
  parse, and builds the curated row with :class:`CurateStage`'s
  text-path row builders;
- :func:`oracle_write_table` writes a curated CSV row by row and derives
  the twin by re-reading it: ``write_npf(read_csv(csv))``.
"""

from __future__ import annotations

import csv
import os

from repro._util.errors import DataError
from repro.frame.io import _cell, read_csv, write_npf
from repro.pipeline.curate import CurateStage
from repro.slurm.emit import SacctEmitter
from repro.slurm.parse import is_step_jobid, record_from_row
from repro.store import default_hash_cache


def oracle_curate_records(records, faults=None
                          ) -> tuple[list[dict], list[dict]]:
    """``(job_rows, step_rows)`` through sacct text and back.

    ``faults`` (a :class:`~repro.slurm.emit.RowFaults`) is handed to the
    emitter, which truncates the rows it hits, as Obtain's does; the
    parse then drops them, as Curate's does.
    """
    emitter = SacctEmitter()
    if faults is not None:
        emitter.faults = faults
    names = emitter.names
    job_rows: list[dict] = []
    step_rows: list[dict] = []
    for row in emitter.rows(records):
        try:
            typed = record_from_row(names, row.split("|"))
        except DataError:
            continue
        if is_step_jobid(str(typed["JobID"])):
            step_rows.append(CurateStage._step_row(typed))
        else:
            job_rows.append(CurateStage._job_row(typed))
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
