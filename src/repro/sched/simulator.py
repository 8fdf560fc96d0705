"""The discrete-event scheduler core.

Event kinds: job submission, job end, pending-cancel expiry.  After every
event batch at one timestamp the scheduler pass runs: it starts jobs at
the head of the priority queue while they fit, then (EASY backfill)
computes the blocked head's reservation and lets lower-priority jobs slip
in only if they cannot delay it.

Queue order: multifactor priority with the age term growing identically
for all pending jobs, so relative order is fixed at enqueue time
(see :func:`repro.sched.priority.queue_key`); the queue is therefore an
indexed sorted container (:class:`repro._util.sortedlist.SortedKeyList`)
ordered by ``(-static_priority, eligible, jobid)``.  Enqueue, head-pop,
backfill mid-queue pop and cancel-removal are all O(log n), keeping a
scheduler pass near O(backfill_depth) even at 50k-deep queues — a flat
``insort`` list makes each of those O(n) and the whole pass O(n^2).

Backfill correctness invariant (tested property): **a backfilled job
never delays the reservation of the blocked head job** — either it ends
by the shadow time, or it fits inside the nodes left over at the
reservation.

The mutable machinery lives in :class:`_SimCore`, which separates the
*event loop* from the *episode*: requests are ``feed()`` in batches and
the clock advances with ``drain(until=...)``.  One driver runs it:
:class:`~repro.sched.shard.ChainSimulator` feeds per-month windows,
stops at shard cuts, and serializes the live core state into a
:class:`~repro.sched.shard.ShardHandoff` so the next process resumes
bit-identically.  :class:`Simulator` is that chain with one window
drained dry, on its own ``usage`` stream.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro._util.errors import ConfigError, WorkflowError
from repro._util.rng import RngStreams
from repro._util.sortedlist import SortedKeyList
from repro._util.timefmt import UNKNOWN_TIME
from repro.cluster import SystemProfile
from repro.sched.injections import ScenarioInjections
from repro.sched.nodes import NodePool
from repro.sched.priority import PriorityModel, UsageTracker, queue_key
from repro.slurm.records import JobRecord
from repro.workload.jobs import JobRequest

__all__ = ["Simulator", "SimConfig", "SimResult"]

_SUBMIT, _END, _CANCEL, _TICK, _SCEN = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class SimConfig:
    """Scheduler configuration (the ablation knobs)."""

    backfill: bool = True
    backfill_depth: int = 200
    priority: PriorityModel = field(default_factory=PriorityModel)
    first_jobid: int = 400_000
    seed: int = 0
    #: enable the fairshare priority factor (per-account decayed usage)
    fairshare: bool = False
    fairshare_half_life_s: int = 7 * 86400
    #: requeue jobs killed by hardware failure once (Slurm's
    #: JobRequeue/node-fail behaviour); the record shows Restarts=1
    requeue_node_fail: bool = False
    #: allow blocked can_preempt-QOS queue heads to requeue preemptable
    #: running jobs (NERSC realtime / TACC flex style)
    preemption: bool = False
    #: checkpoint/resubmit jobs that hit their walltime limit: the job
    #: requeues and continues from where it stopped (Section 6's
    #: "dynamic rescheduling"), up to this many resubmissions (0 = off)
    resubmit_timeouts: int = 0
    #: full-system maintenance windows as (start, end) epochs: no job
    #: may run into a window, producing the pre-maintenance drain and
    #: post-maintenance wait spike of Figure 4
    maintenance: tuple[tuple[int, int], ...] = ()
    #: scenario injection stream (node faults, power caps, elastic
    #: windows) with absolute-epoch times; None = no injections, and
    #: the event loop is bit-identical to the pre-scenario simulator
    scenario: ScenarioInjections | None = None

    def maintenance_blocks(self, t: int, limit_s: int) -> bool:
        """Would a job starting at ``t`` with ``limit_s`` hit a window?

        O(log m) over the pre-merged windows: a window ``(a, b)`` blocks
        iff ``t < b and t + limit_s > a``; among the sorted disjoint
        windows with ``a < t + limit_s`` only the last can still have
        ``b > t`` (ends are increasing), so one bisect decides.
        """
        starts = self._maint_starts
        i = bisect_left(starts, t + limit_s)
        return i > 0 and self._maint_ends[i - 1] > t

    def __post_init__(self) -> None:
        if self.backfill_depth < 1:
            raise ConfigError("backfill_depth must be >= 1")
        # pre-sort and merge strictly-overlapping maintenance windows so
        # maintenance_blocks is a binary search (the predicate is an
        # interval-intersection test, invariant under merging overlaps)
        merged: list[tuple[int, int]] = []
        for a, b in sorted(self.maintenance):
            if merged and a < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "_maint_starts", [a for a, _ in merged])
        object.__setattr__(self, "_maint_ends", [b for _, b in merged])


@dataclass
class SimResult:
    """Everything the simulation produced."""

    jobs: list[JobRecord]
    #: jobs started by the backfill pass
    n_backfilled: int
    #: scheduler passes executed (concurrency/efficiency metric)
    n_sched_passes: int
    #: peak length of the pending queue
    max_queue_depth: int
    #: preemption events (victim requeues)
    n_preempted: int = 0
    #: scenario injection operations applied (faults, caps, shrinks)
    n_injections: int = 0
    #: running jobs evicted by injected node faults
    n_fault_victims: int = 0
    #: node allocations released by elastic-window shrinks
    n_shrunk_nodes: int = 0

    @property
    def n_steps(self) -> int:
        return sum(len(j.steps) for j in self.jobs)


class _SimJob:
    """Mutable per-job simulation state."""

    __slots__ = ("req", "idx", "jobid", "eligible", "start", "end", "state",
                 "backfilled", "node_ids", "reason", "static_prio",
                 "was_head", "done", "restarts",
                 "node_failed_once", "completed_work", "dep_idx",
                 "elastic_shrunk")

    def __init__(self, req: JobRequest, idx: int, jobid: int,
                 static_prio: int) -> None:
        self.req = req
        self.idx = idx
        self.jobid = jobid
        self.eligible = req.submit
        self.start = UNKNOWN_TIME
        self.end = UNKNOWN_TIME
        self.state = ""
        self.backfilled = False
        self.node_ids: list[int] = []
        self.reason = "None"
        self.static_prio = static_prio
        self.was_head = False
        self.done = False          # reached a terminal state
        self.restarts = 0          # requeues so far (node fail, preempt)
        self.node_failed_once = False
        self.completed_work = 0    # checkpointed seconds (resubmits)
        self.dep_idx: int | None = None   # absolute parent idx, if any
        self.elastic_shrunk = 0    # nodes released to an elastic window

    def sort_key(self) -> tuple:
        return queue_key(self.static_prio, self.eligible, self.jobid)

    def est_end(self, now: int) -> int:
        """Walltime-limit based completion estimate (what Slurm knows)."""
        return now + self.req.timelimit_s


def _execution(rng, req: JobRequest, restarted: bool = False,
               completed_work: int = 0) -> tuple[str, int]:
    """Decide terminal state and elapsed once a job starts.

    A restarted job (post NODE_FAIL requeue) runs its full workload:
    the hardware fault does not recur.  ``completed_work`` is the
    checkpointed progress of a resubmitted TIMEOUT job.
    """
    limit = req.timelimit_s
    true_rt = req.true_runtime_s
    outcome = "COMPLETED" if restarted else req.outcome
    if outcome == "COMPLETED":
        remaining = max(1, true_rt - completed_work)
        if remaining > limit:
            return "TIMEOUT", limit
        return "COMPLETED", remaining
    if outcome == "FAILED":
        return "FAILED", max(1, min(limit, int(true_rt * rng.uniform(0.05, 0.95))))
    if outcome == "OUT_OF_MEMORY":
        return "OUT_OF_MEMORY", max(1, min(limit, int(true_rt * rng.uniform(0.02, 0.5))))
    if outcome == "NODE_FAIL":
        return "NODE_FAIL", max(1, min(limit, int(true_rt * rng.uniform(0.01, 0.9))))
    if outcome == "CANCELLED":
        return "CANCELLED", max(1, min(limit, int(true_rt * rng.uniform(0.05, 0.9))))
    raise WorkflowError(f"unknown outcome {outcome!r}")


class _SimCore:
    """The scheduler's live state as one feed/drain/export-able object.

    Execution-time draws come from ``exec_rng``.  Event order is a pure
    function of the fed requests, so two cores fed the same windows in
    the same order make the same draws in the same sequence — which is
    the property shard handoffs rely on when they serialize the
    generator cursor mid-stream.
    """

    def __init__(self, system: SystemProfile, config: SimConfig,
                 exec_rng) -> None:
        self.system = system
        self.cfg = config
        self.exec_rng = exec_rng
        self.prio = config.priority
        # node pools: fenced partitions own exclusive id ranges, the
        # remainder forms the shared pool (key None)
        pools: dict[str | None, NodePool] = {}
        next_id = 1
        fenced_total = 0
        for part in system.partitions:
            if part.dedicated_nodes:
                pools[part.name] = NodePool(part.dedicated_nodes,
                                            first_id=next_id)
                next_id += part.dedicated_nodes
                fenced_total += part.dedicated_nodes
        pools[None] = NodePool(system.total_nodes - fenced_total,
                               first_id=next_id)
        self.pools = pools
        self.usage = UsageTracker(config.fairshare_half_life_s) \
            if config.fairshare else None
        self.events: list[tuple[int, int, int, int]] = []  # (t, kind, seq, idx)
        self.seq = 0
        self.jobs: dict[int, _SimJob] = {}
        self.next_idx = 0
        self.pending = SortedKeyList(key=_SimJob.sort_key)
        self.pending_set: set[int] = set()     # idx of queued jobs
        self.running: dict[int, _SimJob] = {}  # idx -> job
        #: per-pool sorted (walltime-based end estimate, idx, nnodes) of
        #: running jobs, maintained incrementally — the backfill pass
        #: reads it directly instead of re-sorting every event
        self.run_ests: dict[str | None, list[tuple[int, int, int]]] = {
            key: [] for key in pools}
        self.held: dict[int, list[_SimJob]] = {}   # parent idx -> children
        self.finished: list[_SimJob] = []
        #: finished jobs leave ``jobs`` to bound memory; terminal states
        #: of dropped dependency parents park here until the window's
        #: submits have all been processed
        self.done_state: dict[int, str] = {}
        self.dep_parents: set[int] = set()
        self.n_backfilled = 0
        self.n_passes = 0
        self.max_depth = 0
        self.n_preempted = 0
        self.n_injections = 0
        self.n_fault_victims = 0
        self.n_shrunk_nodes = 0

        for _, window_end in config.maintenance:
            # wake the scheduler the moment a window closes (kind breaks
            # same-timestamp ties before seq, so pushing ticks up front
            # leaves the pop order of the historical implementation
            # unchanged)
            heapq.heappush(self.events, (window_end, _TICK, self.seq, -1))
            self.seq += 1

        #: scenario op timeline: (t, op, injection index), heap-indexed
        #: by position.  Built deterministically from the config, so a
        #: handoff-resumed core rebuilds the identical table and the
        #: serialized event heap's _SCEN indices stay valid.
        self.scn_ops: list[tuple[int, str, int]] = []
        self.scn_down: dict[int, list[int]] = {}   # fault idx -> node ids
        self.scn_caps: set[int] = set()            # active power-cap idx
        if config.scenario is not None:
            ops: list[tuple[int, str, int]] = []
            for i, f in enumerate(config.scenario.faults):
                ops.append((f.t, "fault_down", i))
                ops.append((f.t + f.duration_s, "fault_up", i))
            for i, c in enumerate(config.scenario.power_caps):
                ops.append((c.start, "cap_on", i))
                ops.append((c.end, "cap_off", i))
            for i, w in enumerate(config.scenario.elastic):
                ops.append((w.start, "shrink", i))
                ops.append((w.end, "grow", i))
            ops.sort()
            self.scn_ops = ops
            for j, (t, _, _) in enumerate(ops):
                heapq.heappush(self.events, (t, _SCEN, self.seq, j))
                self.seq += 1

    # -- feeding -----------------------------------------------------------------

    def pkey(self, req: JobRequest) -> str | None:
        return req.partition if req.partition in self.pools else None

    def pool_for(self, req: JobRequest) -> NodePool:
        return self.pools[self.pkey(req)]

    def feed(self, requests: list[JobRequest]) -> int:
        """Add one batch of requests; returns the batch's base index.

        ``dependency_idx`` / ``array_member_of`` are interpreted
        relative to the batch (the workload generator emits them
        within-window), so feeding month windows one at a time yields
        the same absolute indices as feeding the concatenated year.
        """
        base = self.next_idx
        cfg = self.cfg
        for i, req in enumerate(requests):
            idx = base + i
            job = _SimJob(req, idx, cfg.first_jobid + idx, 0)
            if req.dependency_idx is not None:
                dep = base + req.dependency_idx
                if dep >= idx:
                    raise WorkflowError(
                        f"request {i} depends on a later request "
                        f"{req.dependency_idx}")
                job.dep_idx = dep
                self.dep_parents.add(dep)
            self.jobs[idx] = job
            heapq.heappush(self.events, (req.submit, _SUBMIT, self.seq, idx))
            self.seq += 1
        self.next_idx = base + len(requests)
        return base

    # -- scheduler mechanics ------------------------------------------------------

    def enqueue(self, job: _SimJob, t: int) -> None:
        job.eligible = max(job.eligible, t)
        # priority factors snapshot at enqueue (see priority module)
        job.static_prio = self.prio.static_priority(
            self.system, job.req, self.usage, t)
        self.pending.add(job)
        self.pending_set.add(job.idx)
        if job.req.outcome == "CANCELLED" and job.req.cancel_while_pending:
            heapq.heappush(self.events, (
                job.eligible + job.req.pending_patience_s,
                _CANCEL, self.seq, job.idx))
            self.seq += 1

    def drop_run_est(self, job: _SimJob) -> None:
        ests = self.run_ests[self.pkey(job.req)]
        key = (job.est_end(job.start), job.idx, job.req.nnodes)
        i = bisect_left(ests, key)
        if i >= len(ests) or ests[i] != key:
            raise WorkflowError(
                f"run estimate for job {job.jobid} lost")
        ests.pop(i)

    def terminal(self, job: _SimJob, t: int, state: str) -> None:
        """Record a job that ends without running."""
        job.state = state
        job.end = t
        job.done = True
        self.finished.append(job)
        self.release_dependents(job, t)

    def release_dependents(self, parent: _SimJob, t: int) -> None:
        for child in self.held.pop(parent.idx, []):
            if parent.state == "COMPLETED":
                child.reason = "Dependency"
                self.enqueue(child, t)
            else:
                # afterok unsatisfiable: Slurm cancels the dependent
                child.reason = "DependencyNeverSatisfied"
                self.terminal(child, t, "CANCELLED")

    def start_job(self, job: _SimJob, t: int, backfilled: bool) -> None:
        req = job.req
        job.node_ids = self.pool_for(req).allocate(req.nnodes)
        job.start = t
        job.backfilled = backfilled
        job.elastic_shrunk = 0     # a (re)start claims the full request
        job.state, elapsed = _execution(
            self.exec_rng, req, job.node_failed_once, job.completed_work)
        job.end = t + elapsed
        if self.usage is not None:
            # charge fairshare usage as the allocation begins (the
            # realized node-seconds are known to the simulator here;
            # Slurm accrues the same total continuously)
            self.usage.charge(req.account, req.nnodes * elapsed, t)
        if job.reason not in ("Dependency", "Preempted", "NodeFail",
                              "Resubmit") and t > job.eligible:
            job.reason = "Resources" if job.was_head else "Priority"
        self.running[job.idx] = job
        insort(self.run_ests[self.pkey(req)],
               (job.est_end(t), job.idx, req.nnodes))
        heapq.heappush(self.events, (job.end, _END, self.seq, job.idx))
        self.seq += 1

    def try_preempt(self, t: int) -> bool:
        """Requeue preemptable running jobs to admit a blocked
        can_preempt head.  Victims come from the head's own pool.
        Returns True when anything changed."""
        head = self.pending[0]
        if not self.system.qos(head.req.qos).can_preempt:
            return False
        head_key = self.pkey(head.req)
        need = head.req.nnodes - self.pools[head_key].avail
        victims: list[_SimJob] = []
        # youngest victims first: least completed work is discarded
        for job in sorted(self.running.values(), key=lambda j: -j.start):
            if self.pkey(job.req) == head_key and \
                    self.system.qos(job.req.qos).preemptable:
                victims.append(job)
                need -= job.req.nnodes
                if need <= 0:
                    break
        if need > 0:
            return False
        for victim in victims:
            del self.running[victim.idx]
            self.drop_run_est(victim)
            self.pool_for(victim.req).release(victim.node_ids)
            victim.node_ids = []
            victim.restarts += 1
            victim.state = ""
            victim.backfilled = False
            victim.reason = "Preempted"
            self.enqueue(victim, t)
            self.n_preempted += 1
        return True

    # -- scenario injections ------------------------------------------------------

    def _scen_pool_key(self, partition: str | None) -> str | None:
        return partition if partition in self.pools else None

    def _scen_op(self, j: int, t: int) -> None:
        """Apply scenario op ``j`` of the timeline (a popped _SCEN event)."""
        _, op, i = self.scn_ops[j]
        if op == "fault_down":
            self._scen_fault_down(i, t)
            self.n_injections += 1
        elif op == "fault_up":
            down = self.scn_down.pop(i, [])
            if down:
                key = self._scen_pool_key(
                    self.cfg.scenario.faults[i].partition)
                self.pools[key].release(down)
        elif op == "cap_on":
            self.scn_caps.add(i)
            self.recompute_caps()
            self.n_injections += 1
        elif op == "cap_off":
            self.scn_caps.discard(i)
            self.recompute_caps()
        elif op == "shrink":
            self._scen_shrink(i)
            self.n_injections += 1
        else:                                  # "grow"
            self._scen_grow()

    def recompute_caps(self) -> None:
        """Set each pool's allocation ceiling to the tightest active cap
        (also called on handoff import to restore serialized cap state)."""
        scen = self.cfg.scenario
        for key, pool in self.pools.items():
            limit = None
            for i in sorted(self.scn_caps):
                cap = scen.power_caps[i]
                if cap.partition is not None and \
                        key != self._scen_pool_key(cap.partition):
                    continue
                lim = int(round(cap.frac * pool.total))
                limit = lim if limit is None else min(limit, lim)
            pool.limit = limit

    def _scen_fault_down(self, i: int, t: int) -> None:
        """Take a fault's nodes out of service: free nodes first, then
        evict youngest-start running jobs until enough are captured."""
        fault = self.cfg.scenario.faults[i]
        key = self._scen_pool_key(fault.partition)
        pool = self.pools[key]
        want = min(fault.nodes, pool.total)
        down: list[int] = []
        take = min(want, pool.free_count)
        if take:
            down.extend(pool.allocate(take))
        if len(down) < want:
            victims = sorted(
                (job for job in self.running.values()
                 if self.pkey(job.req) == key),
                key=lambda j: (-j.start, -j.idx))
            for victim in victims:
                if len(down) >= want:
                    break
                self._scen_evict(victim, t, fault.policy)
                take = min(want - len(down), pool.free_count)
                if take:
                    down.extend(pool.allocate(take))
        self.scn_down[i] = down

    def _scen_evict(self, victim: _SimJob, t: int, policy: str) -> None:
        del self.running[victim.idx]
        self.drop_run_est(victim)
        self.pool_for(victim.req).release(victim.node_ids)
        victim.node_ids = []
        self.n_fault_victims += 1
        if policy == "requeue" and not victim.node_failed_once:
            # same requeue-once semantics as an organic NODE_FAIL end
            victim.restarts += 1
            victim.node_failed_once = True
            victim.state = ""
            victim.backfilled = False
            victim.reason = "NodeFail"
            self.enqueue(victim, t)
        else:
            victim.reason = "NodeFail"
            self.terminal(victim, t, "NODE_FAIL")

    def _scen_shrink(self, i: int) -> None:
        """Running malleable jobs release part of their allocation
        (keeping at least one node); iteration order is by global idx,
        so the released id set is deterministic."""
        window = self.cfg.scenario.elastic[i]
        for idx in sorted(self.running):
            job = self.running[idx]
            if job.req.job_class not in window.classes:
                continue
            give = min(int(job.req.nnodes * window.frac),
                       len(job.node_ids) - 1)
            if give <= 0:
                continue
            released = job.node_ids[-give:]
            del job.node_ids[-give:]
            job.elastic_shrunk += give
            self.pool_for(job.req).release(released)
            self.n_shrunk_nodes += give

    def _scen_grow(self) -> None:
        """Shrunk jobs reclaim nodes as the window closes, bounded by
        what the pool (and any active cap) can give back right now."""
        for idx in sorted(self.running):
            job = self.running[idx]
            if job.elastic_shrunk <= 0:
                continue
            pool = self.pool_for(job.req)
            back = min(job.elastic_shrunk, pool.avail)
            if back <= 0:
                continue
            job.node_ids = sorted(job.node_ids + pool.allocate(back))
            job.elastic_shrunk -= back

    def sched_pass(self, t: int) -> None:
        cfg = self.cfg
        pending = self.pending
        pending_set = self.pending_set
        pools = self.pools
        self.n_passes += 1
        self.max_depth = max(self.max_depth, len(pending))
        # 1) start head jobs while they fit (and clear maintenance)
        def head_clear() -> bool:
            head = pending[0]
            return head.req.nnodes <= \
                self.pool_for(head.req).avail and \
                not cfg.maintenance_blocks(t, head.req.timelimit_s)

        while pending and head_clear():
            job = pending.pop(0)
            pending_set.discard(job.idx)
            self.start_job(job, t, backfilled=False)
        # 1b) preemption: a blocked urgent head may evict standby work
        if cfg.preemption and pending \
                and not cfg.maintenance_blocks(
                    t, pending[0].req.timelimit_s) \
                and self.try_preempt(t):
            while pending and head_clear():
                job = pending.pop(0)
                pending_set.discard(job.idx)
                self.start_job(job, t, backfilled=False)
        if not pending or not cfg.backfill:
            return
        # 2) EASY backfill around the blocked head (the head's pool
        # gets a reservation; other pools run their own FIFO heads)
        head = pending[0]
        head.was_head = True
        head_key = self.pkey(head.req)
        need = head.req.nnodes
        # shadow time: when enough running jobs of the head's pool
        # will have ended (by their walltime limits) to fit the head
        # (slack, not free_count: under a power cap each ending job
        # returns headroom even while its nodes were already "free")
        free = pools[head_key].slack
        shadow = None
        extra = 0
        for est_end, _, nn in self.run_ests[head_key]:
            free += nn
            if free >= need:
                shadow = est_end
                extra = free - need
                break
        if shadow is None:
            # head can never fit (larger than its pool) — guarded
            # at generation time, but stay safe
            return
        blocked_pools: set[str | None] = {head_key}
        # per-pass snapshot of pool headroom: one dict read per
        # candidate instead of repeated attribute chains; start_job
        # keeps the true counts, the snapshot mirrors them locally
        free_snap = {key: pool.avail
                     for key, pool in pools.items()}
        # snapshot the scan window once: the candidates examined are
        # exactly the first backfill_depth jobs behind the head, in
        # queue order, and removing a started candidate never
        # reorders the ones after it
        for job in pending.islice(1, cfg.backfill_depth + 1):
            nn = job.req.nnodes
            key = self.pkey(job.req)
            blocked_by_maint = cfg.maintenance_blocks(
                t, job.req.timelimit_s)
            if key != head_key:
                # another pool: strict FIFO within this pass — its
                # first blocked job fences the rest of that pool
                if key not in blocked_pools and not blocked_by_maint \
                        and nn <= free_snap[key]:
                    pending.remove(job)
                    pending_set.discard(job.idx)
                    self.start_job(job, t, backfilled=False)
                    free_snap[key] -= nn
                    continue
                if blocked_by_maint or nn > free_snap[key]:
                    blocked_pools.add(key)
                continue
            if nn <= free_snap[key] and not blocked_by_maint:
                fits_before_shadow = t + job.req.timelimit_s <= shadow
                if fits_before_shadow or nn <= extra:
                    if not fits_before_shadow:
                        extra -= nn
                    pending.remove(job)
                    pending_set.discard(job.idx)
                    self.start_job(job, t, backfilled=True)
                    free_snap[key] -= nn
                    self.n_backfilled += 1

    # -- the event loop -----------------------------------------------------------

    def drain(self, until: int | None = None) -> None:
        """Process events strictly before ``until`` (all of them when
        None).  Stopping is only legal at a timestamp boundary — the
        shard orchestrator always cuts at month edges."""
        events = self.events
        jobs = self.jobs
        cfg = self.cfg
        while events:
            t = events[0][0]
            if until is not None and t >= until:
                return
            dirty = False
            while events and events[0][0] == t:
                _, kind, _, idx = heapq.heappop(events)
                if kind == _TICK:
                    dirty = True
                    continue
                if kind == _SCEN:
                    self._scen_op(idx, t)
                    dirty = True
                    continue
                job = jobs.get(idx)
                if job is None:
                    # take_finished dropped this job; any event still
                    # pointing at it (a stale pending-cancel) is a no-op,
                    # exactly as the guards below would be
                    continue
                if kind == _SUBMIT:
                    dep = job.dep_idx
                    if dep is not None:
                        parent = jobs.get(dep)
                        if parent is None or parent.done:
                            state = parent.state if parent is not None \
                                else self.done_state[dep]
                            if state == "COMPLETED":
                                job.reason = "Dependency"
                                self.enqueue(job, t)
                            else:
                                job.reason = "DependencyNeverSatisfied"
                                self.terminal(job, t, "CANCELLED")
                        else:
                            job.reason = "Dependency"
                            self.held.setdefault(dep, []).append(job)
                    else:
                        self.enqueue(job, t)
                    dirty = True
                elif kind == _END:
                    if job.idx in self.running and job.end == t:
                        del self.running[job.idx]
                        self.drop_run_est(job)
                        self.pool_for(job.req).release(job.node_ids)
                        if job.state == "NODE_FAIL" \
                                and cfg.requeue_node_fail \
                                and not job.node_failed_once:
                            # hardware loss: requeue once; the record
                            # keeps the final run with Restarts bumped
                            job.restarts += 1
                            job.node_failed_once = True
                            job.state = ""
                            job.node_ids = []
                            job.backfilled = False
                            job.reason = "NodeFail"
                            self.enqueue(job, t)
                        elif job.state == "TIMEOUT" \
                                and job.req.outcome == "COMPLETED" \
                                and job.restarts < cfg.resubmit_timeouts:
                            # checkpoint/resubmit: continue from where
                            # the limit cut the job off
                            job.completed_work += t - job.start
                            job.restarts += 1
                            job.state = ""
                            job.node_ids = []
                            job.backfilled = False
                            job.reason = "Resubmit"
                            self.enqueue(job, t)
                        else:
                            job.done = True
                            self.finished.append(job)
                            self.release_dependents(job, t)
                        dirty = True
                elif kind == _CANCEL:
                    # each pending spell of a requeued job schedules its
                    # own cancel; only the current spell's may fire
                    if job.idx in self.pending_set and \
                            t == job.eligible + job.req.pending_patience_s:
                        self.pending_set.discard(job.idx)
                        self.pending.remove(job)
                        # cancelled while pending: an earlier run of a
                        # requeued job is not this record's start
                        job.start = UNKNOWN_TIME
                        self.terminal(job, t, "CANCELLED")
                        dirty = True
            if dirty:
                self.sched_pass(t)

    def take_finished(self) -> list[_SimJob]:
        """Hand over (and clear) the jobs finished since the last call.

        Finished jobs leave the ``jobs`` dict here — terminal states of
        dependency parents are parked in ``done_state`` until
        :meth:`end_window` declares the window's submits processed.
        """
        out = self.finished
        self.finished = []
        for job in out:
            if job.idx in self.dep_parents:
                self.done_state[job.idx] = job.state
            del self.jobs[job.idx]
        return out

    def end_window(self) -> None:
        """Forget dependency bookkeeping for a fully-drained window
        (dependencies never span generator windows)."""
        self.done_state.clear()
        self.dep_parents.clear()

    def assert_drained(self) -> None:
        if self.pending or self.running or self.held:
            raise WorkflowError(
                f"simulation ended with live jobs: "
                f"{len(self.pending)} pending, "
                f"{len(self.running)} running, {len(self.held)} held")


class Simulator:
    """Run a submission stream through the scheduler on one system.

    :meth:`run` is one :class:`~repro.sched.shard.ChainSimulator` window
    drained dry, finalized by :func:`~repro.sched.shard.finalize_outcomes`
    — the driver the workflow's timeline runs.  Execution and accounting
    both draw from this simulator's one ``usage`` stream, which carries
    on across :meth:`run` calls; ROADMAP item 4 moves it onto the
    chain's own streams.
    """

    def __init__(self, system: SystemProfile,
                 config: SimConfig | None = None) -> None:
        self.system = system
        self.config = config or SimConfig()
        self._rng = RngStreams(self.config.seed).child(
            f"sim:{system.name}").fresh("usage")

    def run(self, requests: list[JobRequest]) -> SimResult:
        """Simulate the full stream; every job reaches a terminal state."""
        from repro.sched.shard import ChainSimulator, finalize_outcomes

        chain = ChainSimulator(self.system, self.config, exec_rng=self._rng)
        outcomes = chain.run_window(requests, None, origin=0)
        records = finalize_outcomes(self.system, self.config, requests, 0,
                                    outcomes.get(0, []), rng=self._rng)
        c = chain.counters
        return SimResult(jobs=records, n_backfilled=c["n_backfilled"],
                         n_sched_passes=c["n_passes"],
                         max_queue_depth=c["max_depth"],
                         n_preempted=c["n_preempted"],
                         n_injections=c["n_injections"],
                         n_fault_victims=c["n_victims"],
                         n_shrunk_nodes=c["n_shrunk"])
