"""The ``repro-workflow`` command.

Mirrors the paper's invocation shape::

    swift-t -n N workflow.swift --date_spec=<granularity> --dates=<spec>
            --cache=<dir> --data=<dir>

becomes::

    repro-workflow -n N --system frontier --dates 2024-01:2024-06
                   --workdir out/ [--no-ai] [--seed S] [--rate-scale F]
"""

from __future__ import annotations

import argparse
import sys

from repro._util.errors import ReproError
from repro._util.tables import TextTable
from repro._util.timefmt import iter_months
from repro.flow import concurrency_profile
from repro.workflows.main import SchedulingAnalysisWorkflow, WorkflowConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-workflow",
        description="LLM-enabled HPC scheduling analysis workflow")
    p.add_argument("-n", "--workers", type=int, default=4,
                   help="physical concurrency (Swift/T -n)")
    p.add_argument("--system", default="frontier",
                   choices=["frontier", "andes", "testsys"],
                   help="system profile for the synthetic trace")
    p.add_argument("--dates", default="2024-03:2024-06",
                   help="month range START:END (inclusive), e.g. "
                        "2024-01:2024-06, or a single YYYY-MM")
    p.add_argument("--workdir", default="workflow-out",
                   help="output directory (cache/, data/, charts/, "
                        "png/, llm/, dashboard/)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate-scale", type=float, default=0.05,
                   help="submission-rate multiplier for the synthetic "
                        "workload")
    p.add_argument("--shards", type=int, default=0,
                   help="paper-scale mode: split the simulated "
                        "timeline into this many month groups and "
                        "curate records directly (0 = the Obtain -> "
                        "Curate text stages; data/ is the same)")
    p.add_argument("--procs", type=int, default=1,
                   help="worker processes for the sharded build")
    p.add_argument("--fabric", action="store_true",
                   help="run shard tasks as durable fabric jobs "
                        "(requires --shards)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore previously fetched data")
    p.add_argument("--no-ai", action="store_true",
                   help="skip the user-defined AI subworkflow")
    p.add_argument("--llm-backend", default="chart-analyst")
    return p


def _parse_dates(spec: str) -> tuple[str, ...]:
    if ":" in spec:
        start, end = spec.split(":", 1)
    else:
        start = end = spec
    return tuple(iter_months(start, end))


def _validate(args) -> tuple[str, ...]:
    """Reject malformed invocations before any work starts.

    A bad ``--dates``/``--workers`` spec is a usage error, not a
    workflow failure: one line on stderr and exit code 2 (argparse's
    own convention), never a traceback and never a partially-written
    workdir.
    """
    problems = []
    months: tuple[str, ...] = ()
    try:
        months = _parse_dates(args.dates)
    except ReproError as exc:
        problems.append(f"--dates {args.dates!r}: {exc}")
    if args.workers < 1:
        problems.append(f"--workers must be >= 1, got {args.workers}")
    if args.rate_scale <= 0:
        problems.append(
            f"--rate-scale must be > 0, got {args.rate_scale}")
    if args.shards < 0:
        problems.append(f"--shards must be >= 0, got {args.shards}")
    elif args.shards and months:
        if args.shards > len(months):
            problems.append(
                f"--shards {args.shards} exceeds the {len(months)} "
                f"requested months (a shard needs at least one month)")
        elif len(months) % args.shards:
            problems.append(
                f"--shards {args.shards} does not divide the "
                f"{len(months)} requested months evenly")
    if args.procs < 1:
        problems.append(f"--procs must be >= 1, got {args.procs}")
    if args.fabric and not args.shards:
        problems.append("--fabric requires --shards")
    if problems:
        print(f"error: {'; '.join(problems)}", file=sys.stderr)
        raise SystemExit(2)
    return months


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    months = _validate(args)
    try:
        cfg = WorkflowConfig(
            system=args.system, months=months, workdir=args.workdir,
            workers=args.workers, seed=args.seed,
            rate_scale=args.rate_scale, use_cache=not args.no_cache,
            enable_ai=not args.no_ai, llm_backend=args.llm_backend,
            shards=args.shards, procs=args.procs, fabric=args.fabric)
        result = SchedulingAnalysisWorkflow(cfg).run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = result.flow_report
    assert report is not None
    peak, avg = concurrency_profile(report.trace)
    table = TextTable(["task", "status", "seconds"],
                      title=f"workflow tasks ({args.system}, "
                            f"{months[0]}..{months[-1]})")
    for name, res in sorted(report.results.items()):
        table.add_row([name, res.status, round(res.duration_s, 3)])
    print(table.render())
    print()
    print(f"jobs: {result.n_jobs:,}   job-steps: {result.n_steps:,}   "
          f"malformed dropped: {result.curate_malformed}")
    shard = result.shard_report
    if shard is not None:
        print(f"shards: {shard.shards} x {len(shard.months) // shard.shards}"
              f" month(s)   carried across cuts: {shard.carried_total:,}   "
              f"peak live jobs: {shard.live_jobs_hwm:,}")
    print(f"tasks: {len(report.results)}   wall: {report.wall_s:.1f}s   "
          f"peak concurrency: {peak}   avg: {avg:.2f}")
    print(f"dashboard: {result.dashboard_path}")
    if result.manifest:
        print(f"run manifest: {result.manifest['events']}  "
              f"{result.manifest['provenance']}")
        print(f"trace page: {result.trace_page}")
    if result.insights:
        print(f"LLM insights: {len(result.insights)}   "
              f"compares: {len(result.compares)}")
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
