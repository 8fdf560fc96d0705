"""The classic simulator driver: reference for the one-driver ``Simulator``.

:meth:`repro.sched.simulator.Simulator.run` is one
:class:`~repro.sched.shard.ChainSimulator` window drained dry, finalized
by :func:`~repro.sched.shard.finalize_outcomes`.  Before that it drove
:class:`~repro.sched.simulator._SimCore` itself: one feed, one full
drain, then its own finalize loop over every finished job in index
order.  Both execution and accounting drew from the simulator's one
``usage`` stream.  :class:`ClassicSimulator` keeps that driver, so tests
can hold the chain-backed ``Simulator`` to the same records, the same
counters and the same stream position afterwards.
"""

from __future__ import annotations

from repro._util.errors import WorkflowError
from repro._util.rng import RngStreams
from repro._util.timefmt import UNKNOWN_TIME
from repro.cluster import SystemProfile
from repro.sched.accounting import finalize_job
from repro.sched.simulator import SimConfig, SimResult, _SimCore, _SimJob
from repro.slurm.records import JobRecord
from repro.workload.jobs import JobRequest


class ClassicSimulator:
    """One feed + full drain of a ``_SimCore``, finalized in index order,
    every draw on the ``usage`` stream."""

    def __init__(self, system: SystemProfile,
                 config: SimConfig | None = None) -> None:
        self.system = system
        self.config = config or SimConfig()
        self._rng = RngStreams(self.config.seed).child(
            f"sim:{system.name}").fresh("usage")

    def run(self, requests: list[JobRequest]) -> SimResult:
        for i, req in enumerate(requests):
            if req.dependency_idx is not None and req.dependency_idx >= i:
                raise WorkflowError(
                    f"request {i} depends on a later request "
                    f"{req.dependency_idx}")

        core = _SimCore(self.system, self.config, self._rng)
        core.feed(requests)
        core.drain()
        core.assert_drained()

        # the core keeps every job: nothing called take_finished
        jobs = [core.jobs[i] for i in range(len(requests))]
        records = self._finalize(jobs, core.finished)
        return SimResult(jobs=records, n_backfilled=core.n_backfilled,
                         n_sched_passes=core.n_passes,
                         max_queue_depth=core.max_depth,
                         n_preempted=core.n_preempted,
                         n_injections=core.n_injections,
                         n_fault_victims=core.n_fault_victims,
                         n_shrunk_nodes=core.n_shrunk_nodes)

    def _finalize(self, jobs: list[_SimJob],
                  finished: list[_SimJob]) -> list[JobRecord]:
        if len(finished) != len(jobs):
            raise WorkflowError(
                f"{len(jobs) - len(finished)} jobs never finished")
        prio = self.config.priority
        records: list[JobRecord] = []
        for job in sorted(finished, key=lambda j: j.idx):
            req = job.req
            array_parent = (job.jobid if req.array_size else None)
            if req.array_member_of is not None:
                array_parent = jobs[req.array_member_of].jobid
            dep_text = ""
            if req.dependency_idx is not None:
                dep_text = f"afterok:{jobs[req.dependency_idx].jobid}"
            final_prio = prio.priority(
                self.system, req,
                now=job.start if job.start != UNKNOWN_TIME else job.end,
                eligible=job.eligible)
            records.append(finalize_job(
                req, job.jobid, self.system, self._rng,
                start=job.start, end=job.end, state=job.state,
                backfilled=job.backfilled, eligible=job.eligible,
                reason=job.reason, node_ids=job.node_ids,
                priority=final_prio, array_job_id=array_parent,
                dependency_text=dep_text, restarts=job.restarts))
        return records
