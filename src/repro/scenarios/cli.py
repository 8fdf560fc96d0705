"""The ``repro-scenario`` command.

::

    repro-scenario list
    repro-scenario show node-storm
    repro-scenario run node-storm --workdir out/ [--shards N] [--ai]
    repro-scenario run my-scenario.json --profile profile.json
    repro-scenario sweep power-brownout --days 7
    repro-scenario calibrate trace.swf --system frontier --out prof.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro._util.errors import ReproError
from repro._util.tables import TextTable

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-scenario",
        description="scenario zoo: fault injection, power caps, "
                    "elastic jobs, trace replay, federated what-ifs")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in scenario registry")

    show = sub.add_parser("show", help="print one scenario's JSON spec")
    show.add_argument("scenario", help="registry name or spec file")

    run = sub.add_parser("run", help="run a scenario end to end")
    run.add_argument("scenario", help="registry name or spec file")
    run.add_argument("--workdir", default="scenario-out")
    run.add_argument("--shards", type=int, default=0,
                     help="paper-scale sharded execution (0 = the "
                          "text stages; data/ is the same)")
    run.add_argument("--procs", type=int, default=1,
                     help="worker processes for the sharded build")
    run.add_argument("--fabric", action="store_true",
                     help="run shard tasks as durable fabric jobs")
    run.add_argument("--workers", type=int, default=4,
                     help="workflow engine concurrency")
    run.add_argument("--ai", action="store_true",
                     help="enable the LLM insight stages")
    run.add_argument("--profile", default=None, metavar="SPEC_JSON",
                     help="trace-calibrated workload profile spec "
                          "(from 'calibrate')")

    sweep = sub.add_parser("sweep",
                           help="policylab sweep under the scenario")
    sweep.add_argument("scenario", help="registry name or spec file")
    sweep.add_argument("--days", type=int, default=7,
                       help="days of workload to sweep")
    sweep.add_argument("--variants", default=None,
                       help="comma-separated policy-variant subset")
    sweep.add_argument("--json", dest="json_out", default=None,
                       metavar="PATH", help="also dump outcomes as JSON")

    cal = sub.add_parser("calibrate",
                         help="fit an SWF trace to a profile spec")
    cal.add_argument("trace", help="SWF trace file")
    cal.add_argument("--system", default="frontier",
                     help="system profile to calibrate against")
    cal.add_argument("--max-rows", type=int, default=None,
                     help="read at most this many trace rows")
    cal.add_argument("--out", default=None, metavar="PATH",
                     help="write the profile spec JSON here")
    return p


def _cmd_list() -> int:
    from repro.scenarios import builtin_scenarios

    table = TextTable(["name", "kind", "injections", "description"])
    for name, scn in sorted(builtin_scenarios().items()):
        inj = scn.injections
        counts = "+".join(
            f"{n}{tag}" for n, tag in
            ((len(inj.faults), "f"), (len(inj.power_caps), "c"),
             (len(inj.elastic), "e")) if n) or "-"
        table.add_row([name, scn.kind, counts, scn.description])
    print(table.render())
    return 0


def _cmd_show(args) -> int:
    from repro.scenarios import resolve_scenario, scenario_to_spec

    print(json.dumps(scenario_to_spec(resolve_scenario(args.scenario)),
                     indent=2))
    return 0


def _cmd_run(args) -> int:
    from repro.scenarios import run_scenario

    profile_spec = None
    if args.profile:
        with open(args.profile, encoding="utf-8") as fh:
            profile_spec = json.load(fh)
    result = run_scenario(
        args.scenario, args.workdir, shards=args.shards,
        procs=args.procs, fabric=args.fabric, workers=args.workers,
        enable_ai=args.ai, profile_spec=profile_spec)
    print(f"scenario {result.scenario} ({result.kind}): "
          f"{result.n_jobs} jobs -> {result.report}")
    c = result.counters
    print(f"  injections={c.get('injections', 0)} "
          f"victims={c.get('victims', 0)} shrunk={c.get('shrunk', 0)}")
    return 0


def _cmd_sweep(args) -> int:
    import dataclasses

    from repro.policylab import PolicySweep
    from repro.scenarios import resolve_scenario, sweep_scenario

    scn = resolve_scenario(args.scenario)
    names = args.variants.split(",") if args.variants else None
    outcomes = sweep_scenario(scn, days=args.days, variant_names=names)
    print(f"scenario {scn.name} on {scn.system}, {args.days} day(s):")
    print(PolicySweep.table(outcomes).render())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(o) for o in outcomes], fh,
                      indent=2)
    return 0


def _cmd_calibrate(args) -> int:
    from repro.scenarios import calibrate_trace

    spec, report = calibrate_trace(args.trace, args.system,
                                   max_rows=args.max_rows)
    table = TextTable(["parameter", "value"])
    for name, value in report.rows():
        table.add_row([name, round(value, 4)])
    print(table.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
        print(f"profile spec -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_calibrate(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
