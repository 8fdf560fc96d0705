"""sacct-style text emission.

:class:`SacctEmitter` turns :class:`~repro.slurm.records.JobRecord` and
:class:`~repro.slurm.records.StepRecord` objects into the pipe-separated
rows ``sacct -P --format=...`` prints, reproducing the formatting quirks
the paper's curation stage has to undo:

- node/CPU counts carry a ``K`` suffix at >= 1000 (``9.408K``),
- durations print as ``[DD-]HH:MM:SS``,
- timestamps print as ``YYYY-MM-DDTHH:MM:SS`` with ``Unknown`` sentinels,
- memory prints as ``ReqMem`` text (``512Gn``),
- exit codes print as ``code:signal``,
- step rows (``JobID = <id>.<step>``) leave job-level columns blank.

The emitter can also inject *malformed* rows (truncated mid-record) at a
configurable rate, modelling the "malformed records, mostly associated
with hardware errors, accounting for less than 0.002% of the total" that
the curation stage discards.  :class:`RowFaults` is that fault model on
its own, so the typed curate path
(:func:`~repro.pipeline.curate.curate_records`) drops exactly the rows
the text path's Curate finds truncated.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro._util.errors import ConfigError
from repro._util.sizefmt import format_count_k, format_mem
from repro._util.timefmt import format_slurm_duration, format_timestamp
from repro.slurm.fields import OBTAIN_FIELDS, FIELDS_BY_NAME, FieldSpec
from repro.slurm.records import JobRecord, StepRecord

__all__ = ["SacctEmitter", "RowFaults", "DEFAULT_MALFORMED_RATE"]

#: The paper reports malformed records at "less than 0.002%".
DEFAULT_MALFORMED_RATE = 1.5e-5


def _stable_id(name: str, base: int = 10000, span: int = 50000) -> int:
    """Deterministic fake UID/GID from a name."""
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) % 1_000_003
    return base + h % span


def _tres_req(job: JobRecord) -> str:
    parts = [f"cpu={job.ncpus}", f"mem={format_mem(job.req_mem_kib, per='')}",
             f"node={job.nnodes}"]
    if job.req_gres:
        parts.append(f"gres/{job.req_gres}")
    return ",".join(parts)


def _tres_usage(job: JobRecord) -> str:
    return (f"cpu={format_slurm_duration(job.ave_cpu_s)},"
            f"mem={job.ave_rss_kib}K")


#: job-level extractors, one per obtain field name.
_JOB_GETTERS: dict[str, Callable[[JobRecord], object]] = {
    "JobID": lambda j: (f"{j.array_job_id}_{j.jobid}"
                        if j.array_job_id is not None else str(j.jobid)),
    "Partition": lambda j: j.partition,
    "Reservation": lambda j: j.reservation,
    "ReservationID": lambda j: j.reservation_id,
    "SubmitTime": lambda j: format_timestamp(j.submit),
    "StartTime": lambda j: format_timestamp(j.start),
    "EndTime": lambda j: format_timestamp(j.end),
    "Elapsed": lambda j: format_slurm_duration(j.elapsed),
    "Timelimit": lambda j: format_slurm_duration(j.timelimit_s),
    "NNodes": lambda j: format_count_k(j.nnodes),
    "NCPUs": lambda j: format_count_k(j.ncpus),
    "NTasks": lambda j: format_count_k(j.ntasks),
    "ReqMem": lambda j: format_mem(j.req_mem_kib, per=j.req_mem_per),
    "ReqGRES": lambda j: j.req_gres,
    "Layout": lambda j: "",
    "VMSize": lambda j: str(j.max_vmsize_kib * 1024),
    "AveCPU": lambda j: format_slurm_duration(j.ave_cpu_s),
    "MaxRSS": lambda j: f"{j.max_rss_kib}K",
    "TotalCPU": lambda j: format_slurm_duration(j.total_cpu_s),
    "NodeList": lambda j: j.node_list,
    "ConsumedEnergy": lambda j: str(j.consumed_energy_j),
    "WorkDir": lambda j: j.work_dir,
    "AveDiskRead": lambda j: str(j.ave_disk_read_b),
    "AveDiskWrite": lambda j: str(j.ave_disk_write_b),
    "MaxDiskRead": lambda j: str(j.max_disk_read_b),
    "MaxDiskWrite": lambda j: str(j.max_disk_write_b),
    "State": lambda j: j.state,
    "ExitCode": lambda j: f"{j.exit_code}:{j.exit_signal}",
    "Reason": lambda j: j.reason,
    "Suspended": lambda j: format_slurm_duration(j.suspended_s),
    "Restarts": lambda j: str(j.restarts),
    "Constraints": lambda j: j.constraints,
    "Priority": lambda j: str(j.priority),
    "Eligible": lambda j: format_timestamp(j.eligible),
    "QOS": lambda j: j.qos,
    "QOSReq": lambda j: j.qos,
    "Flags": lambda j: j.flags,
    "TRESUsageInAve": _tres_usage,
    "TRESReq": _tres_req,
    "Backfill": lambda j: "1" if j.backfilled else "0",
    "Dependency": lambda j: j.dependency,
    "ArrayJobID": lambda j: ("" if j.array_job_id is None
                             else str(j.array_job_id)),
    "Comment": lambda j: j.comment,
    "SystemComment": lambda j: j.system_comment,
    "AdminComment": lambda j: j.admin_comment,
    "User": lambda j: j.user,
    "UID": lambda j: str(_stable_id(j.user)),
    "Account": lambda j: j.account,
    "Cluster": lambda j: j.cluster,
    "JobName": lambda j: j.job_name,
    "Group": lambda j: j.account,
    "GID": lambda j: str(_stable_id(j.account, base=5000)),
    "AllocNodes": lambda j: format_count_k(j.nnodes),
    "AllocCPUS": lambda j: format_count_k(j.ncpus),
    "ReqNodes": lambda j: format_count_k(j.nnodes),
    "ReqCPUS": lambda j: format_count_k(j.ncpus),
    "SystemCPU": lambda j: format_slurm_duration(j.system_cpu_s),
    "UserCPU": lambda j: format_slurm_duration(j.user_cpu_s),
    "AveRSS": lambda j: f"{j.ave_rss_kib}K",
    "ExitSignal": lambda j: str(j.exit_signal),
}

#: step-level extractors; fields absent here emit blank on step rows,
#: matching sacct's behaviour for job-only columns.
_STEP_GETTERS: dict[str, Callable[[StepRecord], object]] = {
    "JobID": lambda s: s.step_jobid,
    "StartTime": lambda s: format_timestamp(s.start),
    "EndTime": lambda s: format_timestamp(s.end),
    "Elapsed": lambda s: format_slurm_duration(s.elapsed),
    "NNodes": lambda s: format_count_k(s.nnodes),
    "NTasks": lambda s: format_count_k(s.ntasks),
    "Layout": lambda s: s.layout,
    "AveCPU": lambda s: format_slurm_duration(s.ave_cpu_s),
    "MaxRSS": lambda s: f"{s.max_rss_kib}K",
    "State": lambda s: s.state,
    "ExitCode": lambda s: f"{s.exit_code}:0",
    "JobName": lambda s: s.name,
    "AveDiskRead": lambda s: str(s.ave_disk_read_b),
    "AveDiskWrite": lambda s: str(s.ave_disk_write_b),
    "MaxDiskRead": lambda s: str(s.max_disk_read_b),
    "MaxDiskWrite": lambda s: str(s.max_disk_write_b),
}


class RowFaults:
    """Which emitted rows arrive truncated, and where they are cut.

    One ``rng.random()`` draw per row, in emission order, decides a hit
    at probability ``rate`` (no draw at all when ``rate`` is 0).  A hit
    then draws its cut from the row's text, so only a hit needs the
    text.  ``dropped`` counts the hits: a truncated row has fewer cells
    than the header, so Curate drops every one of them.
    """

    def __init__(self, rate: float,
                 rng: np.random.Generator | None = None) -> None:
        if rate and rng is None:
            raise ConfigError("malformed_rate requires an rng")
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"bad malformed_rate {rate}")
        self.rate = rate
        self.rng = rng
        self.dropped = 0

    def hit(self) -> bool:
        """Draw one row's fault; True when the row arrives truncated."""
        if self.rate and self.rng.random() < self.rate:
            self.dropped += 1
            return True
        return False

    def truncate(self, row: str) -> str:
        """A hit row cut at a random interior separator."""
        cut = int(self.rng.integers(1, max(2, row.count("|"))))
        return "|".join(row.split("|")[:cut])


class SacctEmitter:
    """Format job/step records as ``sacct -P`` pipe-separated text.

    Parameters
    ----------
    fields:
        Field names to emit, default the full 60-field Obtain set.
    include_steps:
        Emit a row per job step after each job row (sacct default).
    malformed_rate:
        Probability that a row is truncated mid-field, modelling the
        hardware-error records the paper's curation discards.  Requires
        ``rng`` when nonzero.
    """

    def __init__(self, fields: Sequence[str] | None = None,
                 include_steps: bool = True,
                 malformed_rate: float = 0.0,
                 rng: np.random.Generator | None = None) -> None:
        names = list(fields) if fields is not None else [
            f.name for f in OBTAIN_FIELDS]
        unknown = [n for n in names if n not in FIELDS_BY_NAME]
        if unknown:
            raise ConfigError(f"unknown sacct fields: {unknown}")
        self.fields: list[FieldSpec] = [FIELDS_BY_NAME[n] for n in names]
        self.names = [f.name for f in self.fields]
        self.include_steps = include_steps
        self.faults = RowFaults(malformed_rate, rng)

    # -- row production ---------------------------------------------------------

    def header(self) -> str:
        return "|".join(self.names)

    def job_row(self, job: JobRecord) -> str:
        return "|".join(str(_JOB_GETTERS[n](job)) if n in _JOB_GETTERS else ""
                        for n in self.names)

    def step_row(self, step: StepRecord) -> str:
        return "|".join(str(_STEP_GETTERS[n](step)) if n in _STEP_GETTERS else ""
                        for n in self.names)

    def _maybe_corrupt(self, row: str) -> str:
        return self.faults.truncate(row) if self.faults.hit() else row

    def rows(self, jobs: Iterable[JobRecord]) -> Iterator[str]:
        """Yield formatted rows for jobs (and their steps)."""
        for job in jobs:
            yield self._maybe_corrupt(self.job_row(job))
            if self.include_steps:
                for step in job.steps:
                    yield self._maybe_corrupt(self.step_row(step))

    def write(self, jobs: Iterable[JobRecord], path: str) -> int:
        """Write header + rows to ``path``; returns the row count."""
        import os
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.header() + "\n")
            for row in self.rows(jobs):
                fh.write(row + "\n")
                count += 1
        return count
