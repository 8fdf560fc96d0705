"""Scalar numpy draws: reference for the exact-stream draw code.

:class:`repro.workload.generate.WorkloadGenerator` and
:func:`repro.sched.accounting.finalize_job` replace each scalar
``rng.choice(options)`` with ``options[rng.integers(0, n)]``, each
``rng.uniform(lo, hi)`` with ``lo + (hi - lo) * rng.random()`` and each
``rng.choice(n, p=w)`` with a search in a cached cdf.  This module keeps
the numpy calls they replace, so tests can hold the shipped draws to the
same values and the same bit-generator stream:

- :class:`OracleWorkloadGenerator` overrides ``_pick_class``,
  ``_draw_job`` and ``_draw_steps`` with the scalar numpy calls;
- :func:`oracle_finalize_job` and :func:`oracle_realize_steps` build the
  accounting record and its steps the same way.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util.timefmt import UNKNOWN_TIME
from repro.cluster import compact_nodelist
from repro.sched.accounting import _EXIT_FOR_STATE, _STEP_STATE_FOR_JOB
from repro.slurm.records import JobRecord, StepRecord
from repro.workload.generate import WorkloadGenerator
from repro.workload.jobs import JobRequest, StepPlan


class OracleWorkloadGenerator(WorkloadGenerator):
    """The generator with every scalar draw made by numpy's own call."""

    def _pick_class(self, rng, user):
        names = self.profile.class_names()
        weights = np.array(self.profile.class_weights())
        if "mtask" in names:
            # users with high mtask affinity submit more many-task jobs
            i = names.index("mtask")
            weights = weights.copy()
            weights[i] *= (0.5 + 2.0 * user.mtask_affinity)
            weights /= weights.sum()
        return names[int(rng.choice(len(names), p=weights))]

    def _draw_job(self, rng, user, cls_name, params, submit):
        sysp = self.profile.system
        part = sysp.partition(params.partition)
        qos = sysp.qos(params.qos)

        # node count: log-uniform over the class range
        lo, hi = params.node_lo, min(params.node_hi, part.max_nodes)
        nnodes = int(round(math.exp(rng.uniform(math.log(lo),
                                                math.log(hi + 0.999)))))
        nnodes = max(lo, min(nnodes, hi))
        ncpus = nnodes * sysp.cpus_per_node

        # hidden true runtime
        true_rt = int(params.runtime_median_s *
                      rng.lognormal(0.0, params.runtime_sigma))
        true_rt = max(30, true_rt)

        max_time = part.max_time_s
        if qos.max_time_s is not None:
            max_time = min(max_time, qos.max_time_s)
        roll = rng.random()
        if roll < params.prob_request_max:
            limit = max_time
        elif roll < params.prob_request_max + params.prob_underrequest:
            limit = int(true_rt * rng.uniform(0.55, 0.98))
            limit = max(60, 60 * int(math.ceil(limit / 60.0)))
            limit = min(limit, max_time)
        else:
            factor = user.overrequest * rng.lognormal(
                0.0, user.overrequest_sigma)
            limit = int(true_rt * max(1.05, factor))
            limit = 60 * int(math.ceil(limit / 60.0))
            limit = min(limit, max_time)
        limit = max(60, limit)

        outcome, cancel_pending, patience = self._draw_outcome(
            rng, user, params, true_rt)

        mem_frac = rng.uniform(0.2, 0.95)
        req_mem = int(sysp.mem_per_node_kib * mem_frac)
        gres = f"gpu:{sysp.gpus_per_node}" if params.uses_gpu and \
            sysp.gpus_per_node else ""

        return JobRequest(
            user=user.name, account=user.account,
            partition=params.partition, qos=params.qos,
            job_class=cls_name, submit=submit,
            nnodes=nnodes, ncpus=ncpus, timelimit_s=limit,
            req_mem_kib=req_mem, req_gres=gres,
            job_name=f"{cls_name}_{user.name[-3:]}",
            true_runtime_s=true_rt, outcome=outcome,
            cancel_while_pending=cancel_pending,
            pending_patience_s=patience,
            steps=self._draw_steps(rng, params),
            work_dir=f"/lustre/orion/{user.account}/scratch/{user.name}",
        )

    def _draw_steps(self, rng, params):
        n = 1 + int(rng.poisson(max(0.0, params.steps_mean - 1.0)))
        fracs = rng.dirichlet(np.full(n, 1.5))
        steps = []
        for i, f in enumerate(fracs):
            steps.append(StepPlan(
                name=f"step{i}",
                frac_nodes=float(rng.uniform(0.5, 1.0)) if n <= 4
                else float(rng.uniform(0.05, 0.5)),
                frac_time=float(f),
                ntasks_per_node=int(rng.choice([1, 2, 4, 8])),
            ))
        return steps


def oracle_finalize_job(req, jobid, system, rng, *, start, end, state,
                        backfilled, eligible, reason, node_ids, priority,
                        array_job_id, dependency_text="", restarts=0,
                        node_list=None):
    """:func:`repro.sched.accounting.finalize_job` with numpy's scalar
    ``choice`` and ``uniform``."""
    elapsed = 0 if start == UNKNOWN_TIME else max(0, end - start)
    exit_code, exit_signal = _EXIT_FOR_STATE[state]
    if state == "FAILED":
        exit_code = int(rng.choice([1, 1, 2, 127, 134, 139]))

    ran = start != UNKNOWN_TIME and elapsed > 0
    if ran:
        cpu_eff = float(rng.uniform(0.25, 0.95))
        total_cpu = int(elapsed * req.ncpus * cpu_eff)
        user_frac = float(rng.uniform(0.85, 0.98))
        ntasks = max(1, len(req.steps))
        ave_cpu = total_cpu // max(1, ntasks * req.nnodes)
        mem_frac = float(rng.uniform(0.25, 1.0))
        if state == "OUT_OF_MEMORY":
            mem_frac = float(rng.uniform(0.98, 1.0))
        max_rss = int(req.req_mem_kib * mem_frac)
        ave_rss = int(max_rss * rng.uniform(0.4, 0.9))
        vmsize = int(max_rss * rng.uniform(1.1, 1.6))
        node_h = req.nnodes * elapsed / 3600.0
        read_b = int(2e8 * node_h * rng.lognormal(0.0, 1.0))
        write_b = int(1e8 * node_h * rng.lognormal(0.0, 1.2))
        util = float(rng.uniform(0.55, 1.0))
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
        job.steps = oracle_realize_steps(req, job, rng)
    return job


def oracle_realize_steps(req, job, rng):
    """``_realize_steps`` indexing numpy arrays and calling
    ``rng.uniform`` per step."""
    if not req.steps or job.elapsed <= 0:
        return []
    fracs = np.array([s.frac_time for s in req.steps], dtype=float)
    total = fracs.sum()
    if total <= 0:
        fracs = np.full(len(req.steps), 1.0 / len(req.steps))
    else:
        fracs = fracs / total
    bounds = np.concatenate([[0.0], np.cumsum(fracs)])
    out = []
    final_state = _STEP_STATE_FOR_JOB[job.state]
    for i, plan in enumerate(req.steps):
        s0 = job.start + int(bounds[i] * job.elapsed)
        s1 = job.start + int(bounds[i + 1] * job.elapsed)
        if s1 <= s0:
            s1 = s0 + 1
        s1 = min(s1, job.end) if job.end != UNKNOWN_TIME else s1
        if s1 <= s0:
            continue
        nnodes = max(1, min(job.nnodes,
                            int(round(plan.frac_nodes * job.nnodes))))
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
            ave_cpu_s=int(el * rng.uniform(0.3, 0.95)),
            max_rss_kib=int(job.max_rss_kib * rng.uniform(0.3, 1.0)),
            ave_disk_read_b=int(job.ave_disk_read_b * float(fracs[i])),
            ave_disk_write_b=int(job.ave_disk_write_b * float(fracs[i])),
            max_disk_read_b=int(job.max_disk_read_b * float(fracs[i])),
            max_disk_write_b=int(job.max_disk_write_b * float(fracs[i])),
        ))
    return out
