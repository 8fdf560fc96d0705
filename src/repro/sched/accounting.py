"""Finalizing accounting records from simulated executions.

Once the simulator knows a job's start/end/state/nodes, this module draws
the usage-side numbers (CPU time, memory high-water marks, disk I/O,
energy) and realizes the planned srun steps into
:class:`~repro.slurm.records.StepRecord` rows.  Draws come from a
dedicated RNG stream so scheduling decisions and usage noise are
independent.

Exact-stream draws.  Scalar draws skip numpy's ``Generator.choice`` and
``Generator.uniform``, whose argument handling costs more than the
draw, but consume the stream exactly as those calls do:
``options[rng.integers(0, n)]`` for ``choice(options)`` and
``lo + (hi - lo) * rng.random()`` for ``uniform(lo, hi)``.
``tests/test_draws_exact.py`` holds every record, and the stream left
behind, to numpy's own calls (``tests/draw_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro._util.timefmt import UNKNOWN_TIME
from repro.cluster import SystemProfile, compact_nodelist
from repro.slurm.records import JobRecord, StepRecord
from repro.workload.jobs import JobRequest

__all__ = ["finalize_job"]

_STEP_STATE_FOR_JOB = {
    "COMPLETED": "COMPLETED",
    "FAILED": "FAILED",
    "TIMEOUT": "CANCELLED",
    "CANCELLED": "CANCELLED",
    "OUT_OF_MEMORY": "OUT_OF_MEMORY",
    "NODE_FAIL": "FAILED",
}

_EXIT_FOR_STATE = {
    "COMPLETED": (0, 0),
    "FAILED": (1, 0),
    "TIMEOUT": (0, 1),          # Slurm: TIMEOUT reports 0:1 (SIGHUP-ish)
    "CANCELLED": (0, 15),       # SIGTERM
    "OUT_OF_MEMORY": (0, 9),    # oom-killed, SIGKILL
    "NODE_FAIL": (1, 0),
}

#: exit codes of a FAILED job, one drawn uniformly (1 twice as likely)
_FAIL_CODES = (1, 1, 2, 127, 134, 139)


def finalize_job(req: JobRequest, jobid: int, system: SystemProfile,
                 rng: np.random.Generator, *,
                 start: int, end: int, state: str, backfilled: bool,
                 eligible: int, reason: str, node_ids: list[int],
                 priority: int, array_job_id: int | None,
                 dependency_text: str = "", restarts: int = 0,
                 node_list: str | None = None) -> JobRecord:
    """Build the full accounting record for one finished job.

    ``node_list`` overrides the compaction of ``node_ids`` — the shard
    pipeline compacts at job end and ships only the string, so the raw
    id list does not have to survive until deferred finalization.
    """
    elapsed = 0 if start == UNKNOWN_TIME else max(0, end - start)
    exit_code, exit_signal = _EXIT_FOR_STATE[state]
    if state == "FAILED":
        exit_code = _FAIL_CODES[rng.integers(0, 6)]

    ran = start != UNKNOWN_TIME and elapsed > 0
    if ran:
        cpu_eff = 0.25 + (0.95 - 0.25) * rng.random()
        total_cpu = int(elapsed * req.ncpus * cpu_eff)
        user_frac = 0.85 + (0.98 - 0.85) * rng.random()
        ntasks = max(1, len(req.steps))
        ave_cpu = total_cpu // max(1, ntasks * req.nnodes)
        mem_frac = 0.25 + (1.0 - 0.25) * rng.random()
        if state == "OUT_OF_MEMORY":
            mem_frac = 0.98 + (1.0 - 0.98) * rng.random()
        max_rss = int(req.req_mem_kib * mem_frac)
        ave_rss = int(max_rss * (0.4 + (0.9 - 0.4) * rng.random()))
        vmsize = int(max_rss * (1.1 + (1.6 - 1.1) * rng.random()))
        # disk I/O scales with node-hours, lognormal noise
        node_h = req.nnodes * elapsed / 3600.0
        read_b = int(2e8 * node_h * rng.lognormal(0.0, 1.0))
        write_b = int(1e8 * node_h * rng.lognormal(0.0, 1.2))
        util = 0.55 + (1.0 - 0.55) * rng.random()
        energy = int(req.nnodes * system.node_power_w * elapsed * util)
    else:
        total_cpu = ave_cpu = max_rss = ave_rss = vmsize = 0
        read_b = write_b = energy = 0
        user_frac = 0.0
        ntasks = 0

    job = JobRecord(
        jobid=jobid,
        user=req.user,
        account=req.account,
        partition=req.partition,
        qos=req.qos,
        cluster=system.name,
        job_name=req.job_name,
        submit=req.submit,
        eligible=eligible,
        start=start,
        end=end,
        timelimit_s=req.timelimit_s,
        nnodes=req.nnodes,
        ncpus=req.ncpus,
        ntasks=ntasks,
        req_mem_kib=req.req_mem_kib,
        req_mem_per="n",
        req_gres=req.req_gres,
        node_list=(node_list if node_list is not None else
                   compact_nodelist(system.node_prefix, node_ids)),
        consumed_energy_j=energy,
        state=state,
        exit_code=exit_code,
        exit_signal=exit_signal,
        reason=reason,
        restarts=restarts,
        priority=priority,
        backfilled=backfilled,
        dependency=dependency_text,
        array_job_id=array_job_id,
        total_cpu_s=total_cpu,
        user_cpu_s=int(total_cpu * user_frac),
        system_cpu_s=total_cpu - int(total_cpu * user_frac),
        max_rss_kib=max_rss,
        ave_rss_kib=ave_rss,
        max_vmsize_kib=vmsize,
        ave_cpu_s=ave_cpu,
        work_dir=req.work_dir,
        ave_disk_read_b=read_b // max(1, ntasks) if ran else 0,
        ave_disk_write_b=write_b // max(1, ntasks) if ran else 0,
        max_disk_read_b=read_b,
        max_disk_write_b=write_b,
    )
    if ran:
        job.steps = _realize_steps(req, job, rng)
    return job


def _realize_steps(req: JobRequest, job: JobRecord,
                   rng: np.random.Generator) -> list[StepRecord]:
    """Turn the request's step plans into sequential step records."""
    if not req.steps or job.elapsed <= 0:
        return []
    fracs = np.array([s.frac_time for s in req.steps], dtype=float)
    total = fracs.sum()     # numpy's pairwise sum, not Python's sum()
    if total <= 0:
        fracs = np.full(len(req.steps), 1.0 / len(req.steps))
    else:
        fracs = fracs / total
    # steps run sequentially with a small launch overhead between them
    bounds = [0.0, *np.cumsum(fracs).tolist()]
    fracs = fracs.tolist()
    elapsed = job.elapsed
    out: list[StepRecord] = []
    final_state = _STEP_STATE_FOR_JOB[job.state]
    for i, plan in enumerate(req.steps):
        s0 = job.start + int(bounds[i] * elapsed)
        s1 = job.start + int(bounds[i + 1] * elapsed)
        if s1 <= s0:
            s1 = s0 + 1
        s1 = min(s1, job.end) if job.end != UNKNOWN_TIME else s1
        if s1 <= s0:
            continue
        nnodes = max(1, min(job.nnodes, int(round(plan.frac_nodes * job.nnodes))))
        ntasks = nnodes * plan.ntasks_per_node
        is_last = i == len(req.steps) - 1
        state = final_state if is_last else "COMPLETED"
        exit_code = 1 if state == "FAILED" else 0
        el = s1 - s0
        out.append(StepRecord(
            jobid=job.jobid,
            stepid=i,
            name=plan.name,
            start=s0,
            end=s1,
            state=state,
            exit_code=exit_code,
            ntasks=ntasks,
            nnodes=nnodes,
            layout="Block" if plan.ntasks_per_node == 1 else "Cyclic",
            ave_cpu_s=int(el * (0.3 + (0.95 - 0.3) * rng.random())),
            max_rss_kib=int(job.max_rss_kib *
                            (0.3 + (1.0 - 0.3) * rng.random())),
            ave_disk_read_b=int(job.ave_disk_read_b * fracs[i]),
            ave_disk_write_b=int(job.ave_disk_write_b * fracs[i]),
            max_disk_read_b=int(job.max_disk_read_b * fracs[i]),
            max_disk_write_b=int(job.max_disk_write_b * fracs[i]),
        ))
    return out
