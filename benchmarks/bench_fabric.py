"""repro.fabric throughput: the SQLite job store every job goes through.

Two legs, all over ``noop`` jobs so scheduling is the entire cost:

``fabric end-to-end``
    ``FabricStore`` submits plus an in-process :class:`Launcher`
    executing every job to ``done`` — each transition is a WAL commit,
    so this is the price of crash-safety.
``orphan sweep``
    ``n`` jobs leased by a worker that never heartbeats; after expiry
    one :meth:`FabricStore.requeue_expired` call recovers all of them.
    Reported as sweep latency, plus the end-to-end time for a launcher
    to then finish the requeued work (includes the deterministic
    retry backoff).

The acceptance gate (``--min-jps``, default 10) is deliberately mild:
durable throughput is fsync-bound and that is the point, but it must
stay usable for the paper's campaign scale (hundreds of simulations,
each far more expensive than its bookkeeping).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fabric.py          # full
    PYTHONPATH=src python benchmarks/bench_fabric.py --quick  # CI smoke

or under pytest (quick shape only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_fabric.py
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass

from repro._util.tables import TextTable
from repro.fabric import FabricStore, Launcher

QUICK_N = 40
FULL_N = 300


@dataclass
class Measurement:
    """One leg: how long ``n`` jobs took, and the resulting rate."""

    label: str
    n: int
    seconds: float

    @property
    def jobs_per_s(self) -> float:
        return self.n / self.seconds if self.seconds else float("inf")


def bench_fabric(db: str, n: int) -> list[Measurement]:
    store = FabricStore(db)
    t0 = time.perf_counter()
    for i in range(n):
        store.submit("noop", {}, job_id=f"bench-{i:05d}")
    submit_s = time.perf_counter() - t0
    Launcher(store, workers=4, lease_s=30.0, poll_s=0.005,
             max_jobs=n).run(threading.Event())
    total_s = time.perf_counter() - t0
    done = store.counts()["done"]
    assert done == n, f"fabric bench: {done}/{n} jobs done"
    return [Measurement("fabric submit only", n, submit_s),
            Measurement("fabric end-to-end", n, total_s)]


def bench_recovery(db: str, n: int) -> list[Measurement]:
    store = FabricStore(db)
    for i in range(n):
        store.submit("noop", {}, job_id=f"orphan-{i:05d}")
    for _ in range(n):
        assert store.lease("crashed-launcher", lease_s=0.01)
    time.sleep(0.05)                    # all leases now expired
    t0 = time.perf_counter()
    swept = store.requeue_expired()
    sweep_s = time.perf_counter() - t0
    assert len(swept) == n, f"swept {len(swept)}/{n} orphans"
    Launcher(store, workers=4, lease_s=30.0, poll_s=0.005,
             max_jobs=n).run(threading.Event())
    total_s = time.perf_counter() - t0
    assert store.counts()["done"] == n
    return [Measurement("orphan sweep", n, sweep_s),
            Measurement("recovery end-to-end", n, total_s)]


def render(results: list[Measurement]) -> str:
    table = TextTable(
        ["leg", "jobs", "seconds", "jobs/s"],
        title="repro.fabric — durable job throughput")
    for m in results:
        table.add_row([m.label, m.n, f"{m.seconds:.3f}",
                       f"{m.jobs_per_s:,.0f}"])
    return table.render()


def test_fabric_bench_quick(tmp_path):
    """Pytest smoke: every leg completes and reports a positive rate."""
    results = bench_fabric(str(tmp_path / "bench.sqlite3"), 15)
    results += bench_recovery(str(tmp_path / "recovery.sqlite3"), 15)
    print()
    print(render(results))
    assert all(m.jobs_per_s > 0 for m in results)
    by_label = {m.label: m for m in results}
    # durability costs, but not four orders of magnitude
    assert by_label["fabric end-to-end"].jobs_per_s > 1.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer jobs (CI smoke)")
    ap.add_argument("--out", default=None,
                    help="write bench_fabric.json results here")
    ap.add_argument("--min-jps", type=float, default=10.0,
                    help="fail unless durable end-to-end throughput "
                         "reaches this many jobs/s")
    args = ap.parse_args(argv)
    n = QUICK_N if args.quick else FULL_N

    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as root:
        results = bench_fabric(os.path.join(root, "bench.sqlite3"), n)
        results += bench_recovery(
            os.path.join(root, "recovery.sqlite3"), n)

    print(render(results))
    by_label = {m.label: m for m in results}
    fabric_jps = by_label["fabric end-to-end"].jobs_per_s
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bench_fabric.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"results": [{**vars(m),
                                    "jobs_per_s": round(m.jobs_per_s, 2)}
                                   for m in results]},
                      fh, indent=2)
        print(f"results kept in {args.out}/")
    if args.min_jps and fabric_jps < args.min_jps:
        print(f"FAIL: fabric throughput {fabric_jps:,.1f} jobs/s < "
              f"required {args.min_jps:,.1f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
