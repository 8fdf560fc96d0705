"""Shard boundary-state export/import for paper-scale simulation.

The paper's Frontier trace spans a year; simulating it in one process
holds every live job, every pending record, and the whole accounting
output in memory at once.  This module cuts the timeline at window
boundaries instead: a :class:`ChainSimulator` feeds the scheduler core
one generator window at a time, drains the event loop up to each cut,
and serializes everything that crosses the cut — carried-over running
jobs, the pending queue, held dependents, fairshare decay state, the
remaining event heap, and the execution RNG cursor — into a
:class:`ShardHandoff`.  A later process resumes from the handoff and
continues **bit-identically**: the event order is a pure function of
the fed windows, so the shared execution stream's draws line up no
matter where the timeline was cut.

The chain also keeps the window bookkeeping: each window fed is
recorded as ``[origin, base, n]`` and the handoff carries the list, so
every outcome row is keyed by the window its job was *submitted* in.

Accounting records deliberately do *not* draw from that shared stream.
Each job's realized metrics come from a counter-based per-job generator
(:func:`acct_rng`, seeded by ``SeedSequence(entropy=root,
spawn_key=(idx,))``), which makes finalization order-independent: a
job can be finalized eagerly the moment it ends (bounding memory) or
months later in a parallel emit worker, with identical results.
:class:`~repro.sched.simulator.Simulator` is one window of this chain
on its own ``usage`` stream.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import heapq
import json
import os
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro._util.errors import DataError, WorkflowError
from repro._util.rng import RngStreams
from repro._util.timefmt import UNKNOWN_TIME
from repro.cluster import SystemProfile, compact_nodelist
from repro.sched.accounting import finalize_job
from repro.sched.simulator import SimConfig, _SimCore, _SimJob
from repro.slurm.records import JobRecord
from repro.workload.jobs import JobRequest, StepPlan

__all__ = ["ShardHandoff", "ChainSimulator", "SPOOL_COLUMNS",
           "acct_rng", "finalize_outcomes"]

#: Handoff schema version — bumped on any layout change so a stale
#: artifact fails loudly instead of resuming garbage.
#: v2: scenario-injection state (downed nodes, active power caps),
#: per-job ``elastic_shrunk``, and scenario counters.
#: v3: the chain's windows (``[origin, base, n]``), so a resumed chain
#: attributes carried-over jobs to their origin window.
HANDOFF_VERSION = 3

#: Columns of the per-origin-month outcome spool the orchestrator
#: appends between shards (everything deferred finalization needs that
#: cannot be regenerated from the workload seed).
SPOOL_COLUMNS = ["idx", "state", "eligible", "start", "end", "reason",
                 "backfilled", "restarts", "node_list"]

_JOB_FIELDS = ("idx", "eligible", "start", "end", "state", "backfilled",
               "node_ids", "reason", "static_prio", "was_head",
               "restarts", "node_failed_once", "completed_work",
               "dep_idx", "elastic_shrunk")


def _fingerprint(system: SystemProfile, config: SimConfig) -> str:
    """Configuration identity a handoff is only valid against."""
    text = json.dumps({"system": system.name, "config": repr(config),
                       "handoff_version": HANDOFF_VERSION},
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=64)
def _acct_root(seed: int, system_name: str) -> int:
    streams = RngStreams(seed).child(f"sim:{system_name}")
    return int(streams.fresh("chain:acct").integers(0, 2 ** 62))


def acct_rng(seed: int, system_name: str, idx: int) -> np.random.Generator:
    """The per-job accounting stream for global job index ``idx``."""
    seq = np.random.SeedSequence(entropy=_acct_root(seed, system_name),
                                 spawn_key=(idx,))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class ShardHandoff:
    """Everything a successor process needs to continue the timeline.

    ``state`` is a plain JSON-serializable dict (schema below); the
    fingerprint pins the (system, scheduler-config) pair the state was
    exported under.  Layout::

        cut            epoch the predecessor drained up to
        seq            event sequence counter
        next_idx       next global request index
        exec_rng       numpy bit-generator state of the execution stream
        windows        [[origin, base, n], ...]  (every window fed so far)
        usage          {"usage": {acct: float}, "stamp": {acct: int}}
        jobs           [{idx, req, eligible, start, ...}]  (live jobs)
        pending        [idx] in queue order
        running        [idx]
        held           {parent_idx: [child_idx, ...]}
        events         [[t, kind, seq, idx], ...]  (remaining heap)
        counters       {n_backfilled, n_passes, max_depth, n_preempted,
                        n_finished, n_injections, n_victims, n_shrunk}
        scenario       None, or {"down": {fault_idx: [node_id, ...]},
                        "caps": [cap_idx, ...]}  (injections active at
                        the cut; downed ids re-reserve on import and
                        caps recompute pool limits)
    """

    fingerprint: str
    cut: int
    state: dict

    def to_json(self) -> dict:
        return {"version": HANDOFF_VERSION, "fingerprint": self.fingerprint,
                "cut": self.cut, "state": self.state}

    @classmethod
    def from_json(cls, payload: dict) -> "ShardHandoff":
        if payload.get("version") != HANDOFF_VERSION:
            raise DataError(
                f"shard handoff version {payload.get('version')} != "
                f"{HANDOFF_VERSION}")
        return cls(fingerprint=payload["fingerprint"], cut=payload["cut"],
                   state=payload["state"])

    def save(self, path: str | os.PathLike) -> None:
        p = os.fspath(path)
        os.makedirs(os.path.dirname(os.path.abspath(p)), exist_ok=True)
        tmp = p + ".tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))
        os.replace(tmp, p)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ShardHandoff":
        with gzip.open(os.fspath(path), "rt", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _serialize_req(req: JobRequest) -> dict:
    return dataclasses.asdict(req)


def _deserialize_req(data: dict) -> JobRequest:
    data = dict(data)
    data["steps"] = [StepPlan(**s) for s in data.get("steps", [])]
    return JobRequest(**data)


class ChainSimulator:
    """Window-at-a-time simulation with exportable boundary state.

    The one scheduler driver: a chain (optionally split across processes
    via handoffs) feeds windows in timeline order, and
    :meth:`~repro.sched.simulator.Simulator.run` is one window drained
    dry.  Finished jobs leave the core at each window's end as
    lightweight outcome rows (see :data:`SPOOL_COLUMNS`), returned from
    :meth:`run_window` by origin and finalized later with
    :func:`finalize_outcomes`.  ``exec_rng`` replaces the ``chain:exec``
    stream; only ``Simulator`` passes it (its ``usage`` stream, which
    ROADMAP item 4 deletes with this parameter).
    """

    def __init__(self, system: SystemProfile, config: SimConfig,
                 handoff: ShardHandoff | None = None, *,
                 exec_rng: np.random.Generator | None = None) -> None:
        self.system = system
        self.config = config
        self.fingerprint = _fingerprint(system, config)
        if exec_rng is None:
            exec_rng = RngStreams(config.seed).child(
                f"sim:{system.name}").fresh("chain:exec")
        self.core = _SimCore(system, config, exec_rng)
        self.n_finished = 0
        #: ``[origin, base, n]`` of every window fed so far, in timeline
        #: order (contiguous global index ranges)
        self.windows: list[list] = []
        if handoff is not None:
            self._import(handoff)

    # -- running ------------------------------------------------------------------

    def run_window(self, requests: list[JobRequest], until: int | None, *,
                   origin) -> dict:
        """Feed one generator window, labelled ``origin``, and drain up
        to ``until`` (fully when None — the final window must drain the
        queue dry).  Returns outcome rows for every job that finished,
        carried-over jobs from earlier windows/shards included, keyed by
        the origin of the window each job was submitted in."""
        core = self.core
        base = core.feed(requests)
        self.windows.append([origin, base, len(requests)])
        core.drain(until=until)
        finished = core.take_finished()
        core.end_window()
        if until is None:
            core.assert_drained()
        self.n_finished += len(finished)
        prefix = self.system.node_prefix
        by_origin: dict = {}
        for job in finished:
            by_origin.setdefault(self._origin(job.idx), []).append({
                "idx": job.idx, "state": job.state,
                "eligible": job.eligible, "start": job.start,
                "end": job.end, "reason": job.reason,
                "backfilled": int(job.backfilled), "restarts": job.restarts,
                "node_list": compact_nodelist(prefix, job.node_ids)})
        return by_origin

    def _origin(self, idx: int):
        """The origin of the window global index ``idx`` was fed in."""
        for origin, base, n in reversed(self.windows):
            if idx >= base:
                if idx < base + n:
                    return origin
                break
        raise DataError(f"job idx {idx} maps to no window")

    @property
    def counters(self) -> dict:
        core = self.core
        return {"n_backfilled": core.n_backfilled,
                "n_passes": core.n_passes,
                "max_depth": core.max_depth,
                "n_preempted": core.n_preempted,
                "n_finished": self.n_finished,
                "n_injections": core.n_injections,
                "n_victims": core.n_fault_victims,
                "n_shrunk": core.n_shrunk_nodes}

    # -- export / import ----------------------------------------------------------

    def export(self, cut: int) -> ShardHandoff:
        """Serialize the boundary state after draining up to ``cut``."""
        core = self.core
        if core.finished:
            raise WorkflowError(
                "export with uncollected finished jobs; call run_window "
                "(which takes them) before exporting")
        jobs = []
        for idx in sorted(core.jobs):
            job = core.jobs[idx]
            entry = {f: getattr(job, f) for f in _JOB_FIELDS}
            entry["req"] = _serialize_req(job.req)
            jobs.append(entry)
        state = {
            "seq": core.seq,
            "next_idx": core.next_idx,
            "exec_rng": core.exec_rng.bit_generator.state,
            "windows": [list(w) for w in self.windows],
            "usage": (None if core.usage is None else
                      {"usage": dict(core.usage._usage),
                       "stamp": dict(core.usage._stamp)}),
            "jobs": jobs,
            "pending": [job.idx for job in core.pending],
            "running": sorted(core.running),
            "held": {str(p): [c.idx for c in children]
                     for p, children in core.held.items()},
            "events": sorted(core.events),
            "counters": self.counters,
            "scenario": (None if core.cfg.scenario is None else
                         {"down": {str(i): ids
                                   for i, ids in core.scn_down.items()},
                          "caps": sorted(core.scn_caps)}),
        }
        return ShardHandoff(fingerprint=self.fingerprint, cut=cut,
                            state=state)

    def _import(self, handoff: ShardHandoff) -> None:
        if handoff.fingerprint != self.fingerprint:
            raise DataError(
                f"shard handoff fingerprint {handoff.fingerprint} does "
                f"not match this system/config ({self.fingerprint}); "
                f"refusing to resume")
        core = self.core
        state = handoff.state
        core.seq = state["seq"]
        core.next_idx = state["next_idx"]
        core.exec_rng.bit_generator.state = state["exec_rng"]
        self.windows = [list(w) for w in state["windows"]]
        if state["usage"] is not None:
            if core.usage is None:
                raise DataError("handoff has fairshare state but the "
                                "config disables fairshare")
            core.usage._usage = dict(state["usage"]["usage"])
            core.usage._stamp = {k: int(v) for k, v
                                 in state["usage"]["stamp"].items()}
        for entry in state["jobs"]:
            req = _deserialize_req(entry["req"])
            idx = entry["idx"]
            job = _SimJob(req, idx, self.config.first_jobid + idx, 0)
            for f in _JOB_FIELDS:
                if f not in ("idx",):
                    setattr(job, f, entry[f])
            core.jobs[idx] = job
        for idx in state["pending"]:
            core.pending.add(core.jobs[idx])
            core.pending_set.add(idx)
        for idx in state["running"]:
            job = core.jobs[idx]
            core.running[idx] = job
            core.pool_for(job.req).reserve(job.node_ids)
            insort(core.run_ests[core.pkey(job.req)],
                   (job.est_end(job.start), idx, job.req.nnodes))
        for parent, children in state["held"].items():
            core.held[int(parent)] = [core.jobs[c] for c in children]
        core.events = [tuple(e) for e in state["events"]]
        heapq.heapify(core.events)
        scenario = state.get("scenario")
        if scenario is not None:
            if core.cfg.scenario is None:
                raise DataError("handoff has scenario state but the "
                                "config carries no scenario")
            for key, ids in scenario["down"].items():
                i = int(key)
                part = core.cfg.scenario.faults[i].partition
                pool = core.pools[part if part in core.pools else None]
                pool.reserve(list(ids))
                core.scn_down[i] = list(ids)
            core.scn_caps = set(scenario["caps"])
            core.recompute_caps()
        counters = state["counters"]
        core.n_backfilled = counters["n_backfilled"]
        core.n_passes = counters["n_passes"]
        core.max_depth = counters["max_depth"]
        core.n_preempted = counters["n_preempted"]
        self.n_finished = counters["n_finished"]
        core.n_injections = counters["n_injections"]
        core.n_fault_victims = counters["n_victims"]
        core.n_shrunk_nodes = counters["n_shrunk"]


def finalize_outcomes(system: SystemProfile, config: SimConfig,
                      requests: list[JobRequest], base_idx: int,
                      outcomes: list[dict], *,
                      rng: np.random.Generator | None = None
                      ) -> list[JobRecord]:
    """Build full accounting records for one origin window's outcomes.

    ``requests`` is the window's regenerated submission stream and
    ``base_idx`` its global base; every outcome's ``idx`` must fall in
    the window.  Order-independent by construction (per-job accounting
    streams), so shards and emit workers can call this in any order.
    ``rng`` replaces the per-job streams with one stream every job draws
    from in index order; only :class:`~repro.sched.simulator.Simulator`
    passes it (its ``usage`` stream, which ROADMAP item 4 deletes with
    this parameter).
    """
    prio = config.priority
    first = config.first_jobid
    records = []
    for out in sorted(outcomes, key=lambda o: o["idx"]):
        idx = int(out["idx"])
        rel = idx - base_idx
        if not 0 <= rel < len(requests):
            raise DataError(
                f"outcome idx {idx} outside window "
                f"[{base_idx}, {base_idx + len(requests)})")
        req = requests[rel]
        jobid = first + idx
        array_parent = (jobid if req.array_size else None)
        if req.array_member_of is not None:
            array_parent = first + base_idx + req.array_member_of
        dep_text = ""
        if req.dependency_idx is not None:
            dep_text = f"afterok:{first + base_idx + req.dependency_idx}"
        start, end = int(out["start"]), int(out["end"])
        final_prio = prio.priority(
            system, req,
            now=start if start != UNKNOWN_TIME else end,
            eligible=int(out["eligible"]))
        records.append(finalize_job(
            req, jobid, system,
            acct_rng(config.seed, system.name, idx) if rng is None else rng,
            start=start, end=end, state=str(out["state"]),
            backfilled=bool(out["backfilled"]),
            eligible=int(out["eligible"]), reason=str(out["reason"]),
            node_ids=[], priority=final_prio, array_job_id=array_parent,
            dependency_text=dep_text, restarts=int(out["restarts"]),
            node_list=str(out["node_list"])))
    return records
