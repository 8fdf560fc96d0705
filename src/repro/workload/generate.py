"""The workload generator: profile + date range → submission stream.

:class:`WorkloadGenerator` draws a deterministic stream of
:class:`~repro.workload.jobs.JobRequest` for a time window.  All
randomness flows through named :class:`~repro._util.rng.RngStreams`
substreams, so regenerating any window is reproducible and independent
of other windows.

Exact-stream draws.  Scalar draws skip numpy's ``Generator.choice`` and
``Generator.uniform``, whose argument handling costs more than the draw
itself, but consume the bit generator exactly as those calls do, so
every request is the one numpy's calls would give:

- ``choice(options)`` becomes ``options[rng.integers(0, n)]``, the one
  ``integers`` call numpy makes;
- ``uniform(lo, hi)`` becomes ``lo + (hi - lo) * rng.random()``, the
  ``low + (high - low) * next_double`` numpy computes;
- ``choice(n, p=w)`` becomes a search of ``rng.random()`` in the cdf
  numpy would build from ``w``, built once per mtask affinity instead
  of once per job (:meth:`WorkloadGenerator._pick_class`).

``tests/test_draws_exact.py`` holds these to numpy's own calls, kept in
``tests/draw_oracle.py``: equal requests and an equal
``bit_generator.state``.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util.errors import ConfigError
from repro._util.rng import RngStreams
from repro._util.timefmt import month_bounds
from repro.workload.arrivals import ArrivalModel
from repro.workload.jobs import JobRequest, StepPlan
from repro.workload.profiles import ClassParams, WorkloadProfile
from repro.workload.users import User, UserPopulation

__all__ = ["WorkloadGenerator"]

#: probability split of non-completed outcomes
_P_OOM_GIVEN_FAIL = 0.12
_P_NODE_FAIL = 0.0015          # per job, hardware loss
_P_CANCEL_PENDING = 0.45       # cancels that happen while still queued
#: srun ``--ntasks-per-node`` choices, one drawn uniformly per step
_NTPN = (1, 2, 4, 8)


class WorkloadGenerator:
    """Deterministic submission-stream generator for one system."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0,
                 rate_scale: float = 1.0) -> None:
        if rate_scale <= 0:
            raise ConfigError("rate_scale must be positive")
        self.profile = profile
        self.rate_scale = rate_scale
        self.streams = RngStreams(seed).child(f"workload:{profile.system.name}")
        self.population = UserPopulation.generate(
            self.streams.fresh("users"),
            n_users=profile.n_users,
            failure_alpha=profile.failure_alpha,
            failure_beta=profile.failure_beta,
            cancel_scale=profile.cancel_scale,
            overrequest_median=profile.overrequest_median,
            overrequest_spread=profile.overrequest_spread,
        )
        self.arrivals = ArrivalModel(
            base_rate=profile.arrival_rate * rate_scale,
            diurnal_amp=profile.diurnal_amp,
            weekend_factor=profile.weekend_factor,
            burst_rate_per_week=profile.burst_rate_per_week,
        )
        self._class_names = profile.class_names()
        #: class cdf by user mtask affinity, built on first use
        self._class_cdfs: dict[float, np.ndarray] = {}

    # -- public API -----------------------------------------------------------

    def generate(self, start: int, end: int) -> list[JobRequest]:
        """Generate the submission stream for ``[start, end)``."""
        rng = self.streams.fresh(f"window:{start}:{end}")
        times = self.arrivals.sample(start, end, rng)
        users = self.population.sample(rng, len(times))
        requests: list[JobRequest] = []
        last_req_by_user: dict[str, int] = {}
        for t, user in zip(times, users):
            cls_name = self._pick_class(rng, user)
            params = self.profile.classes[cls_name]
            base = self._draw_job(rng, user, cls_name, params, int(t))
            # dependency chaining on the submitter's previous job
            prev = last_req_by_user.get(user.name)
            if prev is not None and rng.random() < self.profile.dep_frac:
                base.dependency_idx = prev
            idx = len(requests)
            requests.append(base)
            last_req_by_user[user.name] = idx
            # job arrays: parent spawns members sharing its shape
            if cls_name == "mtask" and rng.random() < self.profile.array_frac:
                size = 1 + int(rng.poisson(self.profile.array_size_mean))
                base.array_size = size
                for k in range(size):
                    member = self._draw_job(rng, user, cls_name, params,
                                            int(t) + k + 1)
                    member.array_member_of = idx
                    requests.append(member)
        # sort by submit time, remapping cross-request indices
        old_pos = {id(r): i for i, r in enumerate(requests)}
        requests.sort(key=lambda r: (r.submit, old_pos[id(r)]))
        new_pos = [0] * len(requests)
        for new_i, r in enumerate(requests):
            new_pos[old_pos[id(r)]] = new_i
        for r in requests:
            if r.dependency_idx is not None:
                r.dependency_idx = new_pos[r.dependency_idx]
            if r.array_member_of is not None:
                r.array_member_of = new_pos[r.array_member_of]
        return requests

    def generate_month(self, month: str) -> list[JobRequest]:
        start, end = month_bounds(month)
        return self.generate(start, end)

    # -- internals ------------------------------------------------------------

    def _pick_class(self, rng: np.random.Generator, user: User) -> str:
        cdf = self._class_cdfs.get(user.mtask_affinity)
        if cdf is None:
            cdf = self._class_cdfs[user.mtask_affinity] = \
                self._class_cdf(user.mtask_affinity)
        # what Generator.choice(n, p=weights) does with the same cdf
        return self._class_names[cdf.searchsorted(rng.random(),
                                                  side="right")]

    def _class_cdf(self, mtask_affinity: float) -> np.ndarray:
        """The cdf ``Generator.choice(n, p=weights)`` builds for a user."""
        names = self._class_names
        weights = np.array(self.profile.class_weights())
        if "mtask" in names:
            # users with high mtask affinity submit more many-task jobs
            i = names.index("mtask")
            weights[i] *= (0.5 + 2.0 * mtask_affinity)
            weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return cdf

    def _draw_job(self, rng: np.random.Generator, user: User, cls_name: str,
                  params: ClassParams, submit: int) -> JobRequest:
        sysp = self.profile.system
        part = sysp.partition(params.partition)
        qos = sysp.qos(params.qos)

        # node count: log-uniform over the class range
        lo, hi = params.node_lo, min(params.node_hi, part.max_nodes)
        log_lo, log_hi = math.log(lo), math.log(hi + 0.999)
        nnodes = int(round(math.exp(
            log_lo + (log_hi - log_lo) * rng.random())))
        nnodes = max(lo, min(nnodes, hi))
        ncpus = nnodes * sysp.cpus_per_node

        # hidden true runtime
        true_rt = int(params.runtime_median_s *
                      rng.lognormal(0.0, params.runtime_sigma))
        true_rt = max(30, true_rt)

        # requested limit: either the partition/QOS max outright, or an
        # overestimate multiple of the (unknown to user, roughly felt)
        # true runtime
        max_time = part.max_time_s
        if qos.max_time_s is not None:
            max_time = min(max_time, qos.max_time_s)
        roll = rng.random()
        if roll < params.prob_request_max:
            limit = max_time
        elif roll < params.prob_request_max + params.prob_underrequest:
            # underestimated limit: the job will hit TIMEOUT
            limit = int(true_rt * (0.55 + (0.98 - 0.55) * rng.random()))
            limit = max(60, 60 * int(math.ceil(limit / 60.0)))
            limit = min(limit, max_time)
        else:
            factor = user.overrequest * rng.lognormal(
                0.0, user.overrequest_sigma)
            limit = int(true_rt * max(1.05, factor))
            limit = 60 * int(math.ceil(limit / 60.0))     # whole minutes
            limit = min(limit, max_time)
        limit = max(60, limit)

        outcome, cancel_pending, patience = self._draw_outcome(
            rng, user, params, true_rt)

        mem_frac = 0.2 + (0.95 - 0.2) * rng.random()
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

    def _draw_outcome(self, rng: np.random.Generator, user: User,
                      params: ClassParams, true_rt: int
                      ) -> tuple[str, bool, int]:
        """Draw the intended terminal state (TIMEOUT emerges in the sim)."""
        if rng.random() < _P_NODE_FAIL:
            return "NODE_FAIL", False, 0
        if rng.random() < user.cancel_rate:
            pending = rng.random() < _P_CANCEL_PENDING
            patience = int(rng.exponential(2 * 3600)) + 60
            return "CANCELLED", pending, patience
        p_fail = min(0.9, user.failure_rate * params.fail_mult)
        if rng.random() < p_fail:
            if rng.random() < _P_OOM_GIVEN_FAIL:
                return "OUT_OF_MEMORY", False, 0
            return "FAILED", False, 0
        return "COMPLETED", False, 0

    def _draw_steps(self, rng: np.random.Generator,
                    params: ClassParams) -> list[StepPlan]:
        n = 1 + int(rng.poisson(max(0.0, params.steps_mean - 1.0)))
        # step durations: symmetric Dirichlet split of the elapsed time
        fracs = rng.dirichlet(np.full(n, 1.5))
        # few-step jobs run each step on most of their nodes, many-step
        # jobs on a slice
        lo, hi = (0.5, 1.0) if n <= 4 else (0.05, 0.5)
        steps = []
        for i, f in enumerate(fracs.tolist()):
            frac_nodes = lo + (hi - lo) * rng.random()
            steps.append(StepPlan(
                name=f"step{i}",
                frac_nodes=frac_nodes,
                frac_time=f,
                ntasks_per_node=_NTPN[rng.integers(0, 4)],
            ))
        return steps
