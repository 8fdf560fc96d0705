"""Scheduler hot-path benchmark: pending-queue cost at depth.

Sweeps the pending-queue depth (1k / 10k / 50k jobs) on a stream built
to be dominated by queue-structure work: 16 long "runner" jobs pin every
node of testsys, then a burst of short jobs arrives and is cancelled
while pending in batched waves.  Every churn job is enqueued once and
removed once while the queue is at depth — exactly the ``insort`` /
``pop(0)`` / ``remove`` pattern that is O(n) per operation on the seed's
flat sorted list and O(log n) on the indexed
:class:`repro._util.sortedlist.SortedKeyList`.

Both queue implementations run the same stream; the benchmark reports
jobs-simulated-per-second and ``n_sched_passes`` for each, checks that
the finalized :class:`JobRecord` streams are identical, and prints the
speedup.  This file establishes the first entries of the BENCH
trajectory for the scheduler core.

The flat-list queue is the test oracle ``tests/sortedlist_oracle.py``;
each leg swaps the container by patching
``repro.sched.simulator.SortedKeyList``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sched_hotpath.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_sched_hotpath.py --quick  # CI smoke

or under pytest (quick sweep only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sched_hotpath.py
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from repro._util.sortedlist import SortedKeyList
from repro._util.tables import TextTable
from repro.cluster import get_system
from repro.sched import SimConfig, Simulator
from repro.sched import simulator as simmod
from repro.workload.jobs import JobRequest

# the reference queue is a test oracle, importable from the repo root
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
    __file__)), os.pardir))
from tests.sortedlist_oracle import LegacySortedKeyList  # noqa: E402

FULL_DEPTHS = (1_000, 10_000, 50_000)
QUICK_DEPTHS = (1_000, 5_000)

_QOS = ("normal", "debug", "urgent")
_HORIZON = 200_000          # runner occupancy window (s)
_CANCEL_WAVES = 64          # distinct cancel timestamps (batched passes)


def churn_stream(depth: int) -> list[JobRequest]:
    """16 node-pinning runners + ``depth`` pending-cancelled jobs."""
    sys16 = get_system("testsys")
    reqs = [JobRequest(
        user="hold", account="hold", partition="batch", qos="normal",
        job_class="simulation", submit=0, nnodes=1,
        ncpus=sys16.cpus_per_node, timelimit_s=_HORIZON + 3600,
        true_runtime_s=_HORIZON, outcome="COMPLETED")
        for _ in range(sys16.total_nodes)]
    for i in range(depth):
        reqs.append(JobRequest(
            user=f"u{i % 31}", account=f"a{i % 11}", partition="batch",
            qos=_QOS[i % 3], job_class="simulation", submit=1,
            nnodes=1 + i % 3, ncpus=sys16.cpus_per_node,
            timelimit_s=3600, true_runtime_s=600, outcome="CANCELLED",
            cancel_while_pending=True,
            pending_patience_s=2000 + (i % _CANCEL_WAVES) * 1024))
    return reqs


@dataclass
class Leg:
    """One (queue implementation, depth) measurement."""

    impl: str
    depth: int
    wall_s: float
    jobs_per_s: float
    n_sched_passes: int
    records: list


def run_leg(impl: str, container, depth: int, seed: int = 3) -> Leg:
    reqs = churn_stream(depth)
    old = simmod.SortedKeyList
    simmod.SortedKeyList = container
    try:
        t0 = time.perf_counter()
        res = Simulator(get_system("testsys"),
                        SimConfig(seed=seed)).run(reqs)
        wall = time.perf_counter() - t0
    finally:
        simmod.SortedKeyList = old
    return Leg(impl=impl, depth=depth, wall_s=wall,
               jobs_per_s=len(reqs) / wall,
               n_sched_passes=res.n_sched_passes, records=res.jobs)


def sweep(depths: tuple[int, ...]) -> list[tuple[Leg, Leg]]:
    """(indexed, legacy) leg pairs per depth, equivalence-checked."""
    pairs = []
    for depth in depths:
        new = run_leg("indexed", SortedKeyList, depth)
        leg = run_leg("legacy", LegacySortedKeyList, depth)
        if new.records != leg.records:
            raise AssertionError(
                f"queue implementations diverged at depth {depth}")
        if new.n_sched_passes != leg.n_sched_passes:
            raise AssertionError(
                f"pass counts diverged at depth {depth}")
        pairs.append((new, leg))
    return pairs


def render(pairs: list[tuple[Leg, Leg]]) -> str:
    table = TextTable(
        ["queue depth", "indexed j/s", "legacy j/s", "speedup",
         "sched passes"],
        title="Scheduler hot path — pending-queue churn")
    for new, leg in pairs:
        table.add_row([f"{new.depth:,}", f"{new.jobs_per_s:,.0f}",
                       f"{leg.jobs_per_s:,.0f}",
                       f"{new.jobs_per_s / leg.jobs_per_s:.2f}x",
                       new.n_sched_passes])
    return table.render()


def test_hotpath_quick():
    """Pytest smoke: both queues agree and the sweep runs."""
    pairs = sweep(QUICK_DEPTHS)
    print()
    print(render(pairs))
    assert all(new.records == leg.records for new, leg in pairs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small depths only (CI smoke)")
    ap.add_argument("--depths", type=int, nargs="+",
                    help="explicit depth sweep")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail unless the deepest sweep point reaches "
                         "this jobs/sec speedup over the legacy queue")
    args = ap.parse_args(argv)
    depths = tuple(args.depths) if args.depths else \
        (QUICK_DEPTHS if args.quick else FULL_DEPTHS)
    pairs = sweep(depths)
    print(render(pairs))
    new, leg = pairs[-1]
    speedup = new.jobs_per_s / leg.jobs_per_s
    print(f"deepest point ({new.depth:,} pending): {speedup:.2f}x "
          f"jobs/sec vs the seed flat-list queue "
          f"(JobRecord streams identical)")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
