"""Exact-stream draws against the numpy calls they replace.

:class:`~repro.workload.generate.WorkloadGenerator` and
:func:`~repro.sched.accounting.finalize_job` make their scalar draws
with ``rng.integers`` and ``rng.random`` instead of numpy's scalar
``Generator.choice`` and ``Generator.uniform``.  The reference
(``tests/draw_oracle.py``) keeps numpy's calls.  Both must give equal
values *and* leave the bit generator in the same state, so every later
draw, and every byte of a build, stays the same: on generated windows
and job outcomes (hypothesis), on a catalogue of the edge cases, and
for whole builds through both simulators.  A numpy release that changed
how ``choice``, ``uniform`` or ``integers`` consume the stream fails
here rather than silently moving bytes.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import ConfigError
from repro._util.timefmt import UNKNOWN_TIME, month_bounds
from repro.cluster import get_system
from repro.sched import run as sched_run
from repro.sched import shard as sched_shard
from repro.sched.accounting import _EXIT_FOR_STATE, finalize_job
from repro.sched.run import simulate_month
from repro.sched.simulator import SimConfig
from repro.workflows import shard as workflows_shard
from repro.workflows.shard import run_sharded
from repro.workload import workload_for
from repro.workload.generate import WorkloadGenerator
from repro.workload.jobs import JobRequest, StepPlan
from repro.workload.spec import profile_from_spec, profile_to_spec

from tests.draw_oracle import OracleWorkloadGenerator, oracle_finalize_job

_SYSTEMS = ("frontier", "andes", "testsys")
#: a few hundred requests per window at most
_RATE = {"frontier": 0.05, "andes": 0.05, "testsys": 0.5}
_YEAR_START = month_bounds("2024-01")[0]


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _stream(rng):
    """The bit generator's state, comparable with ``==`` (MT19937 keeps
    its key in an array)."""
    return _plain(rng.bit_generator.state)


# -- generation -----------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), system=st.sampled_from(_SYSTEMS),
       day=st.integers(0, 360), days=st.integers(1, 3))
def test_generate_matches_oracle(seed, system, day, days):
    profile = workload_for(system)
    start = _YEAR_START + day * 86_400
    end = start + days * 86_400
    shipped = WorkloadGenerator(profile, seed=seed,
                                rate_scale=_RATE[system])
    oracle = OracleWorkloadGenerator(profile, seed=seed,
                                     rate_scale=_RATE[system])
    # dataclass == compares every field, the StepPlan floats included
    assert shipped.generate(start, end) == oracle.generate(start, end)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), system=st.sampled_from(_SYSTEMS),
       n=st.integers(1, 30))
def test_draw_job_leaves_the_same_stream(seed, system, n):
    """Class picks and jobs on one shared ``rng`` per side, every class
    of the profile included; the streams end in the same state."""
    profile = workload_for(system)
    names = profile.class_names()
    shipped = WorkloadGenerator(profile, seed=seed)
    oracle = OracleWorkloadGenerator(profile, seed=seed)
    users = shipped.population.users
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(n):
        user = users[k * 7919 % len(users)]
        assert shipped._pick_class(rng_a, user) == \
            oracle._pick_class(rng_b, user)
        cls_name = names[k % len(names)]
        params = profile.classes[cls_name]
        submit = _YEAR_START + 60 * k
        assert shipped._draw_job(rng_a, user, cls_name, params, submit) == \
            oracle._draw_job(rng_b, user, cls_name, params, submit)
        assert _stream(rng_a) == _stream(rng_b)


# -- finalize -------------------------------------------------------------------

_STATES = tuple(_EXIT_FOR_STATE)
#: plan sizes around the few/many-step split (n <= 4), numpy's pairwise
#: summation (8 or more values) and mtask-sized plans (37 on average)
_STEP_COUNTS = st.one_of(st.sampled_from([1, 4, 5, 8, 9, 37]),
                         st.integers(0, 80))
_FRAC_TIME = st.one_of(st.floats(0.0, 1.0), st.just(0.0),
                       st.floats(1e-300, 1e-12))


def _request(nnodes, req_mem_kib, fracs, frac_nodes, ntpn):
    steps = [StepPlan(name=f"step{i}", frac_nodes=fn, frac_time=ft,
                      ntasks_per_node=t)
             for i, (ft, fn, t) in enumerate(zip(fracs, frac_nodes, ntpn))]
    return JobRequest(user="user0001", account="cli101", partition="batch",
                      qos="normal", job_class="mtask",
                      submit=_YEAR_START, nnodes=nnodes,
                      ncpus=nnodes * 56, timelimit_s=86_400,
                      req_mem_kib=req_mem_kib, steps=steps,
                      work_dir="/lustre/orion/cli101/scratch/user0001")


@st.composite
def _finalize_cases(draw):
    """A request and its outcome: every job state; a start Unknown in
    about one case in six, zero elapsed time in about one in three."""
    n = draw(_STEP_COUNTS)
    fracs = draw(st.lists(_FRAC_TIME, min_size=n, max_size=n))
    # empty trailing steps land at the job's end: zero-length, skipped
    tail = min(draw(st.integers(0, 3)), max(0, n - 1))
    fracs[n - tail:] = [0.0] * tail
    req = _request(
        nnodes=draw(st.integers(1, 9408)),
        req_mem_kib=draw(st.integers(0, 2**31)),
        fracs=fracs,
        frac_nodes=draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                 max_size=n)),
        ntpn=draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=n,
                           max_size=n)))
    start = _YEAR_START + draw(st.integers(0, 86_400))
    if draw(st.sampled_from([False] * 5 + [True])):
        start = UNKNOWN_TIME
    elapsed = draw(st.one_of(st.integers(1, 120), st.integers(1, 7 * 86_400),
                             st.just(0)))
    end = (_YEAR_START if start == UNKNOWN_TIME else start) + elapsed
    if draw(st.sampled_from([False] * 9 + [True])):
        end = UNKNOWN_TIME
    state = draw(st.sampled_from(_STATES))
    return req, dict(start=start, end=end, state=state)


def _finalize_both(req, seed, *, start, end, state, system="frontier",
                   make_rng=np.random.default_rng):
    """``(shipped, oracle, rng_a, rng_b)`` from equal streams."""
    sysp = get_system(system)
    kwargs = dict(start=start, end=end, state=state, backfilled=False,
                  eligible=req.submit, reason="None", node_ids=[],
                  priority=1000, array_job_id=None, node_list="frontier1")
    rng_a, rng_b = make_rng(seed), make_rng(seed)
    shipped = finalize_job(req, 4242, sysp, rng_a, **kwargs)
    oracle = oracle_finalize_job(req, 4242, sysp, rng_b, **kwargs)
    return shipped, oracle, rng_a, rng_b


def _assert_same_record(shipped, oracle):
    """Equal records with the same type in every field, steps included."""
    assert shipped == oracle
    for a, b in [(shipped, oracle), *zip(shipped.steps, oracle.steps)]:
        for f in dataclasses.fields(a):
            if f.name != "steps":
                assert type(getattr(a, f.name)) is \
                    type(getattr(b, f.name)), f.name


@settings(max_examples=150, deadline=None)
@given(case=_finalize_cases(), seed=st.integers(0, 2**32 - 1))
def test_finalize_matches_oracle(case, seed):
    req, outcome = case
    shipped, oracle, rng_a, rng_b = _finalize_both(req, seed, **outcome)
    _assert_same_record(shipped, oracle)
    assert _stream(rng_a) == _stream(rng_b)


def _evenly_split(n):
    return _request(64, 2**28, [1.0] * n, [0.7] * n,
                    [(1, 2, 4, 8)[i % 4] for i in range(n)])


@pytest.mark.parametrize("state", _STATES)
@pytest.mark.parametrize("n", [1, 4, 5, 8, 9, 37])
def test_finalize_catalogue(state, n):
    """Every job state at every step count that crosses a code path."""
    start = _YEAR_START + 600
    shipped, oracle, rng_a, rng_b = _finalize_both(
        _evenly_split(n), 11, start=start, end=start + 7_200, state=state)
    _assert_same_record(shipped, oracle)
    assert len(shipped.steps) == n
    assert _stream(rng_a) == _stream(rng_b)


@pytest.mark.parametrize("start,end", [
    (UNKNOWN_TIME, _YEAR_START + 60),          # cancelled while pending
    (_YEAR_START + 60, _YEAR_START + 60),      # zero elapsed
    (_YEAR_START + 60, UNKNOWN_TIME),          # no end recorded
])
@pytest.mark.parametrize("state", ["COMPLETED", "CANCELLED", "NODE_FAIL"])
def test_finalize_without_a_run_draws_nothing(start, end, state):
    req = _evenly_split(9)
    shipped, oracle, rng_a, _ = _finalize_both(req, 5, start=start, end=end,
                                               state=state)
    _assert_same_record(shipped, oracle)
    assert shipped.steps == []
    assert _stream(rng_a) == _stream(np.random.default_rng(5))


def test_zero_length_steps_are_skipped_alike():
    """Trailing zero and vanishing fractions put the last steps at the
    job's end: they come out zero-length and are skipped."""
    req = _request(16, 2**26, [0.6, 0.4, 0.0, 1e-300, 0.0],
                   [1.0, 0.5, 0.5, 0.5, 0.5], [1, 2, 4, 8, 1])
    start = _YEAR_START + 60
    shipped, oracle, rng_a, rng_b = _finalize_both(
        req, 3, start=start, end=start + 100, state="COMPLETED")
    _assert_same_record(shipped, oracle)
    assert [s.stepid for s in shipped.steps] == [0, 1]
    assert _stream(rng_a) == _stream(rng_b)


def _untemper(y):
    """The MT19937 state word whose tempered output is ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def _mt_next(*outputs):
    """A seeded MT19937 generator whose next 32-bit outputs are
    ``outputs``; edge draws a seeded stream almost never reaches."""
    def make(seed):
        bitgen = np.random.MT19937(seed)
        state = bitgen.state
        for k, y in enumerate(outputs):
            state["state"]["key"][10 + k] = _untemper(y)
        state["state"]["pos"] = 10
        bitgen.state = state
        return np.random.Generator(bitgen)
    return make


@pytest.mark.parametrize("start", [UNKNOWN_TIME, _YEAR_START + 60])
def test_failed_exit_code_redraw(start):
    shipped, oracle, rng_a, rng_b = _finalize_both(
        _evenly_split(5), 8, start=start, end=_YEAR_START + 3_660,
        state="FAILED", make_rng=_mt_next(0))
    _assert_same_record(shipped, oracle)
    assert _stream(rng_a) == _stream(rng_b)
    if start == UNKNOWN_TIME:
        # the exit code alone.  The bounded draw behind integers(0, 6)
        # rejects an output of 0 (0 * 6 mod 2**32 < 2**32 mod 6) and
        # draws again: two 32-bit outputs where one is the rule
        assert _stream(rng_a)["state"]["pos"] == 12


@pytest.mark.parametrize("system", _SYSTEMS)
def test_top_of_unit_interval_picks_the_last_class(system):
    """``random()`` can return ``1 - 2**-53``.  numpy divides its cdf by
    the last entry, which a weight sum a hair below 1 would otherwise
    leave under that draw, so it still picks the last class."""
    profile = workload_for(system)
    shipped = WorkloadGenerator(profile, seed=1)
    oracle = OracleWorkloadGenerator(profile, seed=1)
    top = _mt_next(0xFFFFFFFF, 0xFFFFFFFF)
    assert top(0).random() == 1 - 2**-53
    for user in shipped.population.users[:100]:
        rng_a, rng_b = top(0), top(0)
        assert shipped._pick_class(rng_a, user) == \
            oracle._pick_class(rng_b, user) == profile.class_names()[-1]
        assert _stream(rng_a) == _stream(rng_b)


# -- whole builds ---------------------------------------------------------------

def _data_files(out_dir):
    data = os.path.join(out_dir, "data")
    files = {}
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), "rb") as f:
            files[name] = f.read()
    return files


def test_sharded_build_matches_oracle_draws(tmp_path, monkeypatch):
    """``run_sharded`` with the oracle generator and finalize writes the
    same ``data/`` bytes."""
    config = SimConfig(seed=3, fairshare=True, requeue_node_fail=True)

    def build(name):
        out = str(tmp_path / name)
        report = run_sharded("testsys", ["2024-01", "2024-02"], out,
                             shards=2, seed=3, rate_scale=0.1,
                             config=config, manifests=False)
        assert report.n_jobs > 0 and report.n_steps > 0
        return _data_files(out)

    shipped = build("shipped")
    monkeypatch.setattr(workflows_shard, "WorkloadGenerator",
                        OracleWorkloadGenerator)
    monkeypatch.setattr(sched_shard, "finalize_job", oracle_finalize_job)
    assert build("oracle") == shipped


def test_simulate_month_matches_oracle_draws(monkeypatch):
    """The classic simulator finalizes every job on one shared stream,
    so a single misaligned draw would move every later record."""
    def records():
        return simulate_month("testsys", "2024-02", seed=7,
                              rate_scale=0.2).jobs

    shipped = records()
    monkeypatch.setattr(sched_run, "WorkloadGenerator",
                        OracleWorkloadGenerator)
    monkeypatch.setattr(sched_shard, "finalize_job", oracle_finalize_job)
    oracle = records()
    assert len(shipped) == len(oracle) > 0
    for a, b in zip(shipped, oracle):
        _assert_same_record(a, b)


# -- profile checks ---------------------------------------------------------------

@pytest.mark.parametrize("weight", [float("nan"), float("inf"),
                                    float("-inf")])
def test_non_finite_class_weight_rejected(weight):
    """The class cdf never sees a weight ``Generator.choice`` would have
    refused."""
    spec = profile_to_spec(workload_for("testsys"))
    spec["classes"]["mtask"]["weight"] = weight
    with pytest.raises(ConfigError, match="finite"):
        profile_from_spec(spec)


def test_overflowing_class_weights_rejected():
    spec = profile_to_spec(workload_for("testsys"))
    for params in spec["classes"].values():
        params["weight"] = 1e308
    with pytest.raises(ConfigError, match="overflow"):
        profile_from_spec(spec)
