"""One scheduler driver: ``Simulator.run`` held to the classic driver.

:meth:`~repro.sched.simulator.Simulator.run` is one
:class:`~repro.sched.shard.ChainSimulator` window drained dry, finalized
by :func:`~repro.sched.shard.finalize_outcomes`, with the simulator's
``usage`` stream handed to both.  ``tests/classic_sim_oracle.py`` keeps
the driver it replaced (one feed + full drain of ``_SimCore`` and its own
finalize loop).  The two must give every record field for field, steps
included, the same counters, and leave the ``usage`` stream in the same
state — over random streams and every scheduler knob: backfill on and
off, fairshare, node-fail requeue, preemption, timeout resubmission,
maintenance windows and scenario injections.  Handing ``Simulator`` the
chain's own streams instead must fail the comparison.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.timefmt import month_bounds
from repro.cluster import get_system
from repro.sched import shard as sched_shard
from repro.sched.injections import (ElasticWindow, NodeFault, PowerCap,
                                    ScenarioInjections)
from repro.sched.priority import PriorityModel
from repro.sched.simulator import SimConfig, Simulator
from repro.workload.generate import WorkloadGenerator
from repro.workload.jobs import JobRequest, StepPlan
from repro.workload.profiles import workload_for

from tests.classic_sim_oracle import ClassicSimulator

SYS = get_system("testsys")     # 16 nodes, batch + debug, all four QOS
T0 = month_bounds("2024-01")[0]
#: every random stream, injection and maintenance window falls in here
SPAN = 2 * 86_400

_OUTCOMES = ["COMPLETED"] * 4 + ["FAILED", "CANCELLED", "OUT_OF_MEMORY",
                                 "NODE_FAIL", "TIMEOUT"]
_QOS = ["normal", "normal", "debug", "urgent", "standby"]
_CLASSES = ["simulation", "mtask", "ai_train"]


def _random_stream(seed: int, n: int) -> list[JobRequest]:
    """Bursts, dependencies, arrays, pending cancels, step plans and
    every QOS (urgent may preempt standby)."""
    rnd = random.Random(seed)
    reqs: list[JobRequest] = []
    t = T0
    array_parent = array_left = 0
    for i in range(n):
        t += rnd.randrange(0, 2) if rnd.random() < 0.3 \
            else rnd.randrange(0, 1800)
        outcome = rnd.choice(_OUTCOMES)
        if outcome == "TIMEOUT":        # expressed via runtime > limit
            outcome, true_rt, limit = "COMPLETED", 9000, 3600
        else:
            true_rt = rnd.randrange(30, 4 * 3600)
            limit = rnd.randrange(60, 8 * 3600)
        steps = [StepPlan(name=f"step{k}", frac_nodes=rnd.random(),
                          frac_time=rnd.random(),
                          ntasks_per_node=rnd.choice([1, 2, 4]))
                 for k in range(rnd.randrange(0, 4))]
        req = JobRequest(
            user=f"u{i % 5}", account=f"a{i % 3}",
            partition=rnd.choice(["batch", "debug", "batch"]),
            qos=rnd.choice(_QOS), job_class=rnd.choice(_CLASSES),
            submit=t, nnodes=rnd.randrange(1, 17), ncpus=8,
            req_mem_kib=rnd.randrange(0, 2**20), timelimit_s=limit,
            true_runtime_s=true_rt, outcome=outcome,
            cancel_while_pending=(outcome == "CANCELLED"
                                  and rnd.random() < 0.5),
            pending_patience_s=rnd.randrange(60, 7200), steps=steps)
        if array_left:
            req.array_member_of = array_parent
            array_left -= 1
        elif reqs and rnd.random() < 0.1:
            req.dependency_idx = rnd.randrange(len(reqs))
        elif rnd.random() < 0.05:
            req.array_size = array_left = 2
            array_parent = len(reqs)
        reqs.append(req)
    return reqs


def _window(lo: int, hi: int):
    return st.tuples(st.integers(T0, T0 + SPAN),
                     st.integers(lo, hi)).map(lambda w: (w[0], w[0] + w[1]))


_FAULTS = st.builds(
    lambda w, nodes, policy: NodeFault(t=w[0], nodes=nodes,
                                       duration_s=w[1] - w[0],
                                       policy=policy),
    _window(1, 20_000), st.integers(1, 16),
    st.sampled_from(["requeue", "kill"]))
_CAPS = st.builds(lambda w, frac: PowerCap(w[0], w[1], frac),
                  _window(1, 20_000), st.floats(0.0, 1.0))
_ELASTIC = st.builds(lambda w, frac: ElasticWindow(w[0], w[1], frac),
                     _window(1, 20_000), st.floats(0.05, 1.0))
_SCENARIOS = st.none() | st.builds(
    ScenarioInjections, faults=st.lists(_FAULTS, max_size=2),
    power_caps=st.lists(_CAPS, max_size=2),
    elastic=st.lists(_ELASTIC, max_size=2))

_CONFIGS = st.builds(
    SimConfig, backfill=st.booleans(), backfill_depth=st.integers(1, 40),
    seed=st.integers(0, 2**16), fairshare=st.booleans(),
    priority=st.sampled_from([PriorityModel(),
                              PriorityModel(fairshare_weight=100_000)]),
    requeue_node_fail=st.booleans(), preemption=st.booleans(),
    resubmit_timeouts=st.integers(0, 2),
    maintenance=st.lists(_window(600, 20_000), max_size=2).map(tuple),
    scenario=_SCENARIOS)


def _stream_state(rng) -> dict:
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in rng.bit_generator.state.items()}


def _mismatches(sim, oracle, reqs) -> list[str]:
    """What differs between one ``run`` of each simulator on ``reqs``."""
    got, want = sim.run(reqs), oracle.run(reqs)
    out = []
    if got.jobs != want.jobs:
        first = next((i for i, (a, b) in enumerate(zip(got.jobs, want.jobs))
                      if a != b), min(len(got.jobs), len(want.jobs)))
        out.append(f"records differ from index {first}")
    for name in ("n_backfilled", "n_sched_passes", "max_queue_depth",
                 "n_preempted", "n_injections", "n_fault_victims",
                 "n_shrunk_nodes"):
        if getattr(got, name) != getattr(want, name):
            out.append(f"{name} {getattr(got, name)} != "
                       f"{getattr(want, name)}")
    if _stream_state(sim._rng) != _stream_state(oracle._rng):
        out.append("usage stream left in a different state")
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 80),
       cfg=_CONFIGS)
def test_random_streams_match_classic_driver(seed, n, cfg):
    reqs = _random_stream(seed, n)
    assert _mismatches(Simulator(SYS, cfg), ClassicSimulator(SYS, cfg),
                       reqs) == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), day=st.integers(0, 1),
       cfg=_CONFIGS)
def test_generated_windows_match_classic_driver(seed, day, cfg):
    """The workload generator's own streams: array members and
    in-window dependencies as the builds make them."""
    start = T0 + day * 86_400
    reqs = WorkloadGenerator(workload_for("testsys"), seed=seed,
                             rate_scale=0.3).generate(start, start + 86_400)
    assert _mismatches(Simulator(SYS, cfg), ClassicSimulator(SYS, cfg),
                       reqs) == []


def test_stream_carries_across_runs():
    """A second ``run`` on one simulator continues the ``usage`` stream
    where the first left it, as the classic driver did."""
    cfg = SimConfig(seed=5, requeue_node_fail=True)
    sim, oracle = Simulator(SYS, cfg), ClassicSimulator(SYS, cfg)
    for seed in (1, 2):
        assert _mismatches(sim, oracle, _random_stream(seed, 60)) == []


def test_the_properties_exercise_every_knob():
    """Vacuity guard: on a fixed stream, each knob the properties draw
    changes what the oracle produces."""
    reqs = _random_stream(6, 80)
    base = ClassicSimulator(SYS, SimConfig(seed=3)).run(reqs)
    knobs = {
        "backfill": dict(backfill=False),
        "fairshare": dict(fairshare=True, priority=PriorityModel(
            fairshare_weight=100_000)),
        "requeue_node_fail": dict(requeue_node_fail=True),
        "preemption": dict(preemption=True),
        "resubmit_timeouts": dict(resubmit_timeouts=2),
        "maintenance": dict(maintenance=((T0 + 20_000, T0 + 30_000),)),
        "scenario": dict(scenario=ScenarioInjections(
            faults=(NodeFault(t=T0 + 10_000, nodes=12, duration_s=9_000),),
            power_caps=(PowerCap(T0 + 30_000, T0 + 40_000, 0.25),),
            elastic=(ElasticWindow(T0 + 5_000, T0 + 15_000, 0.5),))),
    }
    for name, kwargs in knobs.items():
        res = ClassicSimulator(SYS, SimConfig(seed=3, **kwargs)).run(reqs)
        assert res.jobs != base.jobs, name


@pytest.mark.parametrize("swap", ["exec", "acct", "both"])
def test_chain_default_streams_fail_the_comparison(swap, monkeypatch):
    """The comparison bites: ``Simulator`` on the chain's ``chain:exec``
    execution stream, on per-job accounting streams, or on both, no
    longer matches the classic driver."""
    chain_cls = sched_shard.ChainSimulator
    finalize = sched_shard.finalize_outcomes
    if swap in ("exec", "both"):
        monkeypatch.setattr(
            sched_shard, "ChainSimulator",
            lambda system, config, exec_rng: chain_cls(system, config))
    if swap in ("acct", "both"):
        monkeypatch.setattr(sched_shard, "finalize_outcomes",
                            lambda *args, rng: finalize(*args))
    cfg = SimConfig(seed=3)
    assert _mismatches(Simulator(SYS, cfg), ClassicSimulator(SYS, cfg),
                       _random_stream(11, 80))
