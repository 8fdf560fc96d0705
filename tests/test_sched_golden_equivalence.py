"""Golden-trace equivalence: the indexed pending queue is behavior-
preserving.

The tentpole rework swapped the simulator's flat sorted-list pending
queue for :class:`repro._util.sortedlist.SortedKeyList`.  The contract
is that only complexity changed: for a fixed seed, the finalized
:class:`JobRecord` stream (every field) and the scheduler counters must
be identical under either container.  Each run patches
``repro.sched.simulator.SortedKeyList`` to pick the container; the
flat-list reference lives in ``tests/sortedlist_oracle.py``.
"""

import random

import pytest

from repro._util.rng import RngStreams
from repro._util.sortedlist import SortedKeyList
from repro.cluster import get_system
from repro.sched import SimConfig, Simulator
from repro.sched import simulator as simmod
from repro.sched.priority import PriorityModel
from repro.workload.jobs import JobRequest
from tests.sortedlist_oracle import LegacySortedKeyList

SYS = get_system("testsys")  # 16 nodes

OUTCOMES = ["COMPLETED"] * 4 + ["FAILED", "CANCELLED", "OUT_OF_MEMORY",
                                "NODE_FAIL", "TIMEOUT"]


def random_stream(seed, n=120):
    """A mixed stream: bursts, deps, cancels, all qos/partitions."""
    rnd = random.Random(seed)
    reqs = []
    t = 0
    for i in range(n):
        if rnd.random() < 0.3:      # burst: many jobs share a timestamp
            t += rnd.randrange(0, 2)
        else:
            t += rnd.randrange(0, 1800)
        outcome = rnd.choice(OUTCOMES)
        if outcome == "TIMEOUT":    # expressed via runtime > limit
            outcome, true_rt, limit = "COMPLETED", 9000, 3600
        else:
            true_rt = rnd.randrange(30, 4 * 3600)
            limit = rnd.randrange(60, 8 * 3600)
        req = JobRequest(
            user=f"u{i % 5}", account=f"a{i % 3}",
            partition=rnd.choice(["batch", "debug", "batch"]),
            qos=rnd.choice(["normal", "normal", "debug", "urgent"]),
            job_class="simulation", submit=t,
            nnodes=rnd.randrange(1, 17), ncpus=8,
            timelimit_s=limit, true_runtime_s=true_rt, outcome=outcome,
            cancel_while_pending=(outcome == "CANCELLED"
                                  and rnd.random() < 0.5),
            pending_patience_s=rnd.randrange(60, 7200))
        if reqs and rnd.random() < 0.1:
            req.dependency_idx = rnd.randrange(len(reqs))
        reqs.append(req)
    return reqs


def run_with(monkeypatch, container, reqs, cfg):
    with monkeypatch.context() as patch:
        patch.setattr(simmod, "SortedKeyList", container)
        return Simulator(SYS, cfg).run([r for r in reqs])


CONFIGS = {
    "default": dict(),
    "no_backfill": dict(backfill=False),
    "shallow_backfill": dict(backfill_depth=3),
    "fairshare": dict(fairshare=True, priority=PriorityModel(
        fairshare_weight=100_000)),
    "preemption": dict(preemption=True),
    "requeue_resubmit": dict(requeue_node_fail=True, resubmit_timeouts=2),
    "maintenance": dict(maintenance=((40_000, 55_000),
                                     (120_000, 130_000))),
}


@pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 7])
def test_identical_job_records(cfg_name, seed, monkeypatch):
    cfg = SimConfig(seed=seed, **CONFIGS[cfg_name])
    reqs = random_stream(seed * 31 + 5)
    res_new = run_with(monkeypatch, SortedKeyList,
                       random_stream(seed * 31 + 5), cfg)
    res_leg = run_with(monkeypatch, LegacySortedKeyList, reqs, cfg)
    assert res_new.jobs == res_leg.jobs
    assert res_new.n_backfilled == res_leg.n_backfilled
    assert res_new.n_sched_passes == res_leg.n_sched_passes
    assert res_new.max_queue_depth == res_leg.max_queue_depth
    assert res_new.n_preempted == res_leg.n_preempted


def test_default_factory_is_indexed():
    core = simmod._SimCore(SYS, SimConfig(), RngStreams(0).get("exec"))
    assert isinstance(core.pending, SortedKeyList)


def test_maintenance_blocks_matches_bruteforce():
    """The bisect-based window test equals the seed's linear scan."""
    rnd = random.Random(11)
    windows = tuple(sorted(
        (a, a + rnd.randrange(1, 20_000))
        for a in (rnd.randrange(0, 200_000) for _ in range(12))))
    cfg = SimConfig(maintenance=windows)
    for _ in range(2000):
        t = rnd.randrange(0, 250_000)
        limit = rnd.randrange(60, 30_000)
        brute = any(t < b and t + limit > a for a, b in windows)
        assert cfg.maintenance_blocks(t, limit) == brute, (t, limit)
    assert not SimConfig().maintenance_blocks(0, 10**9)
