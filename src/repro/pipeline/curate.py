"""The Curate stage: clean, normalize, and reformat to CSV.

Per the paper: "cleans the raw output by removing malformed entries and
reformats the dataset from pipe-separated text to CSV for compatibility
with Python-based analysis libraries", plus the "light preprocessing
step ... unit conversions (e.g., node counts expressed as 'K' for
thousands) or formatting adjustments (e.g., converting raw seconds to
minutes for readability)".

Output is two typed CSVs per input: one with job rows, one with step
rows.  All Slurm text quirks are resolved here; downstream analytics see
plain integers/floats/strings.

Two entry points build the same curated rows:

- :class:`CurateStage` parses real sacct pipe text (the paper's
  Obtain → Curate workflow) and drops malformed rows;
- :func:`curate_records` maps in-memory accounting records straight to
  curated columns (the sharded emit phase, which has no pipe text).

``tests/curate_oracle.py`` keeps the text round trip (emit → parse →
:class:`CurateStage` row builders) as the reference for the second, and
the hypothesis property in ``tests/test_curate_typed.py`` requires both
to give the same CSV and ``.npf`` bytes.

Every curated CSV is written by :class:`CuratedCsvWriter`, which also
writes its binary columnar ``.npf`` twin: the *parse result* of the
CSV, built from the cell text just written through the dtype inference
:func:`~repro.frame.read_csv` applies, so ``read_npf(twin) ==
read_csv(csv)`` exactly without a re-read.  The twin's header records
the CSV's SHA-256; :func:`repro.store.read_table_fast` serves the twin
while that hash still matches, which is what lets every downstream
chart skip CSV parsing and dtype inference on the hot path.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro._util.errors import DataError
from repro.frame.io import _cell, parse_csv_cells, write_npf
# read_csv, write_csv: looked up by name by perfbench/tracing.py
from repro.frame.io import read_csv, write_csv
from repro.slurm.parse import is_step_jobid, record_from_row
from repro.slurm.records import JobRecord, StepRecord
from repro.store import Artifact, default_hash_cache

__all__ = ["CurateStage", "CurateReport", "CuratedCsvWriter",
           "JOB_CSV_COLUMNS", "STEP_CSV_COLUMNS", "curate_records"]

#: Curated job-row CSV schema (normalized units: epochs, seconds, KiB).
JOB_CSV_COLUMNS = [
    "JobID", "User", "Account", "Partition", "QOS", "JobName", "State",
    "ExitCode", "Reason", "SubmitTime", "Eligible", "StartTime", "EndTime",
    "Elapsed", "ElapsedMin", "Timelimit", "TimelimitMin", "WaitS",
    "NNodes", "NCPUs", "NTasks", "ReqMem", "ReqGRES", "NodeList",
    "Priority", "Backfill", "Dependency", "ArrayJobID", "Restarts",
    "ConsumedEnergy", "TotalCPU", "MaxRSS", "AveRSS", "VMSize",
    "AveDiskRead", "AveDiskWrite", "MaxDiskRead", "MaxDiskWrite",
    "WorkDir", "Flags", "Comment",
]

#: Curated step-row CSV schema.
STEP_CSV_COLUMNS = [
    "StepID", "ParentJobID", "JobName", "State", "ExitCode",
    "StartTime", "EndTime", "Elapsed", "NNodes", "NTasks", "Layout",
    "AveCPU", "MaxRSS", "AveDiskRead", "AveDiskWrite",
]


@dataclass
class CurateReport:
    """Counters from one curation run (paper: malformed < 0.002%)."""

    input_rows: int = 0
    job_rows: int = 0
    step_rows: int = 0
    malformed: int = 0

    @property
    def malformed_fraction(self) -> float:
        return self.malformed / self.input_rows if self.input_rows else 0.0


class CuratedCsvWriter:
    """Stream curated rows into a CSV, then write its ``.npf`` twin.

    A context manager: ``art`` is the CSV :class:`Artifact`, its
    ``schema`` the column order.  Cells are formatted once, written, and
    kept; a clean exit closes the CSV and builds the twin from them with
    :func:`~repro.frame.io.parse_csv_cells`, storing the CSV's SHA-256
    in its ``meta``.  An exception only closes the CSV.
    """

    def __init__(self, art: Artifact) -> None:
        self.art = art
        self.twin = art.with_fmt("npf")
        self.columns = list(art.schema)
        self._cells: list[list[str]] = []
        os.makedirs(os.path.dirname(os.path.abspath(art.path)),
                    exist_ok=True)
        self._fh = open(art.path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.columns)

    def write_rows(self, rows: Iterable[Mapping]) -> None:
        """Append rows (dicts keyed by the schema's columns)."""
        columns = self.columns
        cells = [[_cell(row[c]) for c in columns] for row in rows]
        self._writer.writerows(cells)
        self._cells.extend(cells)

    def __enter__(self) -> "CuratedCsvWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if exc_type is None:
            write_npf(parse_csv_cells(self.columns, self._cells),
                      self.twin.path,
                      meta={"source": os.path.basename(self.art.path),
                            "source_sha256":
                                default_hash_cache().sha256(self.art.path),
                            "infer": True})
        self._cells = []


def _wait_s(start: int, eligible: int, end: int) -> int:
    """Queue wait from curated epochs (``-1`` = Unknown)."""
    if start >= 0:
        return max(0, start - max(0, eligible))
    if end >= 0 and eligible >= 0:
        return max(0, end - eligible)   # cancelled while pending
    return 0


class CurateStage:
    """Turn one sacct pipe file into jobs.csv + steps.csv."""

    def __init__(self, out_dir: str, obs=None) -> None:
        self.out_dir = out_dir
        #: optional repro.obs.RunContext — both output CSVs are
        #: registered in the provenance ledger, fingerprinted, with the
        #: source pipe file as their declared input
        self.obs = obs

    def run(self, pipe_path: str | os.PathLike, tag: str | None = None
            ) -> tuple[Artifact, Artifact, CurateReport]:
        """Curate ``pipe_path``; returns (jobs, steps, report).

        The first two elements are typed CSV :class:`Artifact` handles
        (``os.PathLike`` — existing path consumers are unaffected);
        their ``.npf`` twins land next to them."""
        tag = tag or os.path.splitext(os.path.basename(pipe_path))[0]
        report = CurateReport()
        with open(pipe_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise DataError(f"empty sacct file: {pipe_path}")
        names = lines[0].split("|")
        job_rows: list[dict] = []
        step_rows: list[dict] = []
        for line in lines[1:]:
            if not line:
                continue
            report.input_rows += 1
            cells = line.split("|")
            try:
                typed = record_from_row(names, cells)
            except DataError:
                report.malformed += 1
                continue
            if is_step_jobid(str(typed.get("JobID", ""))):
                step_rows.append(self._step_row(typed))
                report.step_rows += 1
            else:
                job_rows.append(self._job_row(typed))
                report.job_rows += 1
        jobs = Artifact.in_dir(self.out_dir, f"{tag}-jobs", "csv",
                               schema=JOB_CSV_COLUMNS)
        steps = Artifact.in_dir(self.out_dir, f"{tag}-steps", "csv",
                                schema=STEP_CSV_COLUMNS)
        for art, rows in ((jobs, job_rows), (steps, step_rows)):
            with CuratedCsvWriter(art) as out:
                out.write_rows(rows)
            if self.obs is not None:
                self.obs.record_artifact(art.path, producer=f"curate:{tag}",
                                         inputs=(pipe_path,))
                self.obs.record_artifact(out.twin.path,
                                         producer=f"curate:{tag}",
                                         inputs=(art.path,))
        return jobs, steps, report

    @staticmethod
    def _job_row(typed: dict) -> dict:
        row = {c: typed.get(c, "") for c in JOB_CSV_COLUMNS}
        row.update({
            "ElapsedMin": round(typed["Elapsed"] / 60.0, 2),
            "TimelimitMin": round(typed["Timelimit"] / 60.0, 2),
            "WaitS": _wait_s(typed["StartTime"], typed["Eligible"],
                             typed["EndTime"]),
            # normalize memory sizes to KiB integers
            "MaxRSS": typed.get("MaxRSS", 0) // 1024,
            "AveRSS": typed.get("AveRSS", 0) // 1024,
            "VMSize": typed.get("VMSize", 0) // 1024,
        })
        # derive Backfill from Flags when the explicit column is absent
        if "Backfill" not in typed:
            row["Backfill"] = int("SchedBackfill" in str(typed.get("Flags", "")))
        return row

    @staticmethod
    def _step_row(typed: dict) -> dict:
        step_id = str(typed["JobID"])
        parent = step_id.split(".", 1)[0]
        row = {c: typed.get(c, "") for c in STEP_CSV_COLUMNS}
        row.update({
            "StepID": step_id,
            "ParentJobID": int(parent) if parent.isdigit() else parent,
            "MaxRSS": typed.get("MaxRSS", 0) // 1024,
        })
        return row


# The typed row builders give the values the sacct text round trip
# would: counts, durations, timestamps and exit codes come back as the
# integers that were formatted, and byte/KiB counts come back through
# ``float`` (the text parser's ``int(float(text))``), so a count at or
# above 2**53 rounds exactly as it does there.

def _record_job_row(job: JobRecord) -> dict:
    start, eligible, end = int(job.start), int(job.eligible), int(job.end)
    elapsed, limit = int(job.elapsed), int(job.timelimit_s)
    array = job.array_job_id
    return {
        "JobID": str(job.jobid) if array is None
        else f"{array}_{job.jobid}",
        "User": job.user,
        "Account": job.account,
        "Partition": job.partition,
        "QOS": job.qos,
        "JobName": job.job_name,
        "State": job.state,
        "ExitCode": int(job.exit_code),
        "Reason": job.reason,
        "SubmitTime": int(job.submit),
        "Eligible": eligible,
        "StartTime": start,
        "EndTime": end,
        "Elapsed": elapsed,
        "ElapsedMin": round(elapsed / 60.0, 2),
        "Timelimit": limit,
        "TimelimitMin": round(limit / 60.0, 2),
        "WaitS": _wait_s(start, eligible, end),
        "NNodes": int(job.nnodes),
        "NCPUs": int(job.ncpus),
        "NTasks": int(job.ntasks),
        "ReqMem": int(float(job.req_mem_kib)),
        "ReqGRES": job.req_gres,
        "NodeList": job.node_list,
        "Priority": int(job.priority),
        "Backfill": int(bool(job.backfilled)),
        "Dependency": job.dependency,
        "ArrayJobID": "" if array is None else str(array),
        "Restarts": int(job.restarts),
        "ConsumedEnergy": int(job.consumed_energy_j),
        "TotalCPU": int(job.total_cpu_s),
        "MaxRSS": int(float(job.max_rss_kib)),
        "AveRSS": int(float(job.ave_rss_kib)),
        "VMSize": int(float(job.max_vmsize_kib)),
        "AveDiskRead": int(float(job.ave_disk_read_b)),
        "AveDiskWrite": int(float(job.ave_disk_write_b)),
        "MaxDiskRead": int(float(job.max_disk_read_b)),
        "MaxDiskWrite": int(float(job.max_disk_write_b)),
        "WorkDir": job.work_dir,
        "Flags": job.flags,
        "Comment": job.comment,
    }


def _record_step_row(step: StepRecord) -> dict:
    return {
        "StepID": step.step_jobid,
        "ParentJobID": int(step.jobid),
        "JobName": step.name,
        "State": step.state,
        "ExitCode": int(step.exit_code),
        "StartTime": int(step.start),
        "EndTime": int(step.end),
        "Elapsed": int(step.elapsed),
        "NNodes": int(step.nnodes),
        "NTasks": int(step.ntasks),
        "Layout": step.layout,
        "AveCPU": int(step.ave_cpu_s),
        "MaxRSS": int(float(step.max_rss_kib)),
        "AveDiskRead": int(float(step.ave_disk_read_b)),
        "AveDiskWrite": int(float(step.ave_disk_write_b)),
    }


def curate_records(records: Iterable[JobRecord]
                   ) -> tuple[list[dict], list[dict]]:
    """Curate :class:`~repro.slurm.records.JobRecord` objects in memory.

    The sharded pipeline has no sacct pipe text: this maps each record's
    fields straight to the curated columns, giving field for field what
    :meth:`CurateStage.run` produces from the equivalent pipe file —
    minus only the malformed-row injection, which is an emit-stage
    fault model, not a property of the jobs.  The text round trip it
    replaces is the reference in ``tests/curate_oracle.py``, held to
    byte identity by ``tests/test_curate_typed.py``.

    Returns ``(job_rows, step_rows)`` dicts keyed by the curated CSV
    schemas.
    """
    job_rows: list[dict] = []
    step_rows: list[dict] = []
    for job in records:
        job_rows.append(_record_job_row(job))
        step_rows.extend(_record_step_row(step) for step in job.steps)
    return job_rows, step_rows
