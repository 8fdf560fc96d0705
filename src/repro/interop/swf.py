"""The Standard Workload Format (SWF), read and write.

SWF is the Parallel Workloads Archive's 18-field, whitespace-separated
trace format (Feitelson et al.).  Fields, 1-indexed as in the spec:

 1 job number            7 used memory (KB/proc)   13 preceding job
 2 submit time (s)       8 requested processors    14 think time
 3 wait time (s)         9 requested time (s)      15 (queue number: 15)
 4 run time (s)         10 requested memory        16 (partition: 16)
 5 allocated processors 11 status                  17/18 (see spec)
 6 avg CPU time (s)     12 user id

Status: 1 = completed, 0 = failed, 5 = cancelled (others map to failed).
Header comments (``;`` lines) carry metadata; ``UnixStartTime`` anchors
the relative timestamps.

Two directions:

- :func:`write_swf` exports simulated :class:`JobRecord`\\ s, so our
  synthetic traces can drive external SWF tooling;
- :func:`read_swf` / :func:`swf_to_frame` import a public trace into
  the curated-frame schema, so the whole analytics stack (Figures 3-9,
  the advisor, the LLM insights) runs on real production data.
"""

from __future__ import annotations

import os
import warnings
from typing import Iterable

import numpy as np

from repro._util.errors import DataError
from repro._util.timefmt import UNKNOWN_TIME
from repro.frame import Frame
from repro.slurm.records import JobRecord

__all__ = ["SWF_COLUMNS", "read_swf", "write_swf", "swf_to_frame",
           "records_to_swf_rows"]

SWF_COLUMNS = (
    "job_id", "submit", "wait", "runtime", "procs_alloc", "avg_cpu",
    "mem_used", "procs_req", "time_req", "mem_req", "status", "user_id",
    "group_id", "app_id", "queue_id", "partition_id", "preceding_job",
    "think_time",
)

_STATUS_FOR_STATE = {
    "COMPLETED": 1,
    "TIMEOUT": 1,          # SWF treats limit-kills as completed-ish runs
    "FAILED": 0,
    "OUT_OF_MEMORY": 0,
    "NODE_FAIL": 0,
    "CANCELLED": 5,
}

_STATE_FOR_STATUS = {1: "COMPLETED", 0: "FAILED", 5: "CANCELLED"}

_INT64 = np.iinfo(np.int64)


def records_to_swf_rows(records: Iterable[JobRecord], *,
                        cpus_per_node: int, origin: int | None = None
                        ) -> tuple[int, list[list[int]]]:
    """Map job records to SWF integer rows; returns (origin, rows)."""
    records = list(records)
    if not records:
        raise DataError("no records to export")
    if origin is None:
        origin = min(r.submit for r in records)
    rows = []
    users: dict[str, int] = {}
    groups: dict[str, int] = {}
    parts: dict[str, int] = {}
    for i, r in enumerate(records, start=1):
        users.setdefault(r.user, len(users) + 1)
        groups.setdefault(r.account, len(groups) + 1)
        parts.setdefault(r.partition, len(parts) + 1)
        wait = r.wait_s if r.start != UNKNOWN_TIME else -1
        runtime = r.elapsed if r.start != UNKNOWN_TIME else -1
        procs = r.ncpus or r.nnodes * cpus_per_node
        rows.append([
            i,
            r.submit - origin,
            wait,
            runtime,
            procs if runtime >= 0 else -1,
            r.ave_cpu_s if r.ave_cpu_s else -1,
            max(-1, r.max_rss_kib),
            procs,
            r.timelimit_s,
            max(-1, r.req_mem_kib),
            _STATUS_FOR_STATE.get(r.state, 0),
            users[r.user],
            groups[r.account],
            -1,
            1,
            parts[r.partition],
            -1,
            -1,
        ])
    return origin, rows


def write_swf(records: Iterable[JobRecord], path: str, *,
              cpus_per_node: int, computer: str = "repro-synthetic"
              ) -> int:
    """Write records as an SWF file; returns the row count."""
    origin, rows = records_to_swf_rows(records, cpus_per_node=cpus_per_node)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"; Computer: {computer}\n")
        fh.write(f"; UnixStartTime: {origin}\n")
        fh.write("; Generated by repro (WISDOM 2025 reproduction)\n")
        fh.write("; Format: standard workload format (SWF) v2.2\n")
        for row in rows:
            fh.write(" ".join(str(v) for v in row) + "\n")
    return len(rows)


def read_swf(path: str, *, max_rows: int | None = None) -> tuple[int, Frame]:
    """Read an SWF file; returns (unix_start_time, raw SWF frame).

    Malformed data lines raise :class:`DataError` naming ``path:line``
    (a wrong field count, a field that is not a finite number within
    int64, or a byte that is not UTF-8); unknown header fields are
    ignored, as tools conventionally do.  Traces missing the
    ``UnixStartTime`` header (some archive conversions drop it) anchor
    on their first submit time instead, with a one-shot warning.
    ``max_rows`` caps how many data rows are read — archive traces run
    to millions of jobs; calibration needs only a prefix.
    """
    if max_rows is not None and max_rows < 1:
        raise DataError(f"max_rows must be >= 1, got {max_rows}")
    origin: int | None = None
    rows: list[list[int]] = []
    # an undecodable byte becomes a lone surrogate, which no number
    # parses: it fails its own line below instead of the whole read
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(";"):
                body = line[1:].strip()
                if body.lower().startswith("unixstarttime:"):
                    try:
                        origin = int(body.split(":", 1)[1])
                    except ValueError as exc:
                        raise DataError(
                            f"{path}:{ln}: bad UnixStartTime") from exc
                    if not _INT64.min <= origin <= _INT64.max:
                        raise DataError(
                            f"{path}:{ln}: bad UnixStartTime")
                continue
            if max_rows is not None and len(rows) >= max_rows:
                break
            parts = line.split()
            if len(parts) != 18:
                raise DataError(
                    f"{path}:{ln}: SWF rows have 18 fields, "
                    f"got {len(parts)}")
            try:
                row = [int(float(p)) for p in parts]
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{ln}: non-numeric or non-finite "
                                f"field") from exc
            if min(row) < _INT64.min or max(row) > _INT64.max:
                raise DataError(f"{path}:{ln}: field outside int64")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if origin is None:
        origin = min(row[1] for row in rows)
        warnings.warn(
            f"{path}: no UnixStartTime header; anchoring on the first "
            f"submit time ({origin})", stacklevel=2)
    arr = np.array(rows, dtype=np.int64)
    return origin, Frame({name: arr[:, i]
                          for i, name in enumerate(SWF_COLUMNS)})


def swf_to_frame(path: str, cpus_per_node: int = 1, *,
                 max_rows: int | None = None) -> Frame:
    """Import an SWF trace as a curated-schema job frame.

    The result carries the JOB_CSV columns the analytics consume
    (missing accounting detail defaults to zero/empty).  ``Backfill`` is
    not recorded in SWF; it is left 0, so backfill-split analyses
    degrade gracefully to 'regular jobs only'.
    """
    origin, swf = read_swf(path, max_rows=max_rows)
    n = len(swf)
    submit = origin + swf["submit"]
    wait = np.maximum(swf["wait"], 0)
    runtime = np.maximum(swf["runtime"], 0)
    start = np.where(swf["runtime"] >= 0, submit + wait, -1)
    end = np.where(start >= 0, start + runtime, submit + wait)
    status = swf["status"]
    state = np.array([_STATE_FOR_STATUS.get(int(s), "FAILED")
                      for s in status], dtype=object)
    procs = np.maximum(np.where(swf["procs_alloc"] > 0,
                                swf["procs_alloc"], swf["procs_req"]), 1)
    nnodes = np.maximum(1, procs // max(1, cpus_per_node))
    time_req = np.where(swf["time_req"] > 0, swf["time_req"],
                        np.maximum(runtime, 60))
    users = np.array([f"user{int(u):04d}" for u in swf["user_id"]],
                     dtype=object)
    accounts = np.array([f"group{int(g):03d}" for g in swf["group_id"]],
                        dtype=object)
    zeros = np.zeros(n, dtype=np.int64)
    empty = np.array([""] * n, dtype=object)
    return Frame({
        "JobID": swf["job_id"],
        "User": users,
        "Account": accounts,
        "Partition": np.array(
            [f"part{int(p)}" if p > 0 else "batch"
             for p in swf["partition_id"]], dtype=object),
        "QOS": np.array(["normal"] * n, dtype=object),
        "JobName": empty,
        "State": state,
        "ExitCode": np.where(status == 0, 1, 0).astype(np.int64),
        "Reason": empty,
        "SubmitTime": submit,
        "Eligible": submit,
        "StartTime": start,
        "EndTime": end,
        "Elapsed": runtime,
        "ElapsedMin": np.round(runtime / 60.0, 2),
        "Timelimit": time_req,
        "TimelimitMin": np.round(time_req / 60.0, 2),
        "WaitS": wait,
        "NNodes": nnodes,
        "NCPUs": procs,
        "NTasks": zeros,
        "ReqMem": np.maximum(swf["mem_req"], 0),
        "ReqGRES": empty,
        "NodeList": empty,
        "Priority": zeros,
        "Backfill": zeros,
        "Dependency": np.array(
            [str(p) if p > 0 else "" for p in swf["preceding_job"]],
            dtype=object),
        "ArrayJobID": empty,
        "Restarts": zeros,
        "ConsumedEnergy": zeros,
        "TotalCPU": np.maximum(swf["avg_cpu"], 0) * procs,
        "MaxRSS": np.maximum(swf["mem_used"], 0),
        "AveRSS": np.maximum(swf["mem_used"], 0),
        "VMSize": zeros,
        "AveDiskRead": zeros,
        "AveDiskWrite": zeros,
        "MaxDiskRead": zeros,
        "MaxDiskWrite": zeros,
        "WorkDir": empty,
        "Flags": empty,
        "Comment": empty,
    })
