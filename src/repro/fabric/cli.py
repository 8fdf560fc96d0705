"""The ``repro-launcher`` command: execute durable jobs from a store.

::

    repro-serve --workdir out/ &                 # stores jobs, runs some
    repro-launcher --workdir out/ --workers 4    # executes, forever

or point several launchers (any mix of machines sharing the
filesystem) at one explicit database::

    repro-launcher --db out/.store/fabric.sqlite3 --workers 8

``SIGTERM``/``SIGINT`` request a graceful exit: workers finish the job
they hold, nothing new is leased.  A launcher killed outright loses
nothing — its leases expire and any surviving launcher (or the next
one started) requeues the orphaned jobs.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro._util.errors import ReproError
from repro.fabric.launcher import Launcher
from repro.fabric.runners import load_runners
from repro.fabric.store import FabricStore, fabric_db_path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-launcher",
        description="execute durable fabric jobs (extra workers "
                    "for repro-serve's job database or a fabric "
                    "build)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--workdir",
                        help="workdir whose .store/fabric.sqlite3 to "
                             "drain")
    target.add_argument("--db", help="explicit fabric database path")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent jobs this launcher executes")
    p.add_argument("--lease", type=float, default=30.0,
                   help="lease length in seconds (heartbeats extend "
                        "it at a third of this)")
    p.add_argument("--poll", type=float, default=0.2,
                   help="idle poll interval in seconds")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="exit after finishing this many jobs")
    p.add_argument("--idle-exit", type=float, default=None,
                   metavar="S",
                   help="exit after the store has held no incomplete "
                        "work for S seconds (drain mode)")
    p.add_argument("--runners", action="append", default=[],
                   metavar="MODULE[:ATTR]",
                   help="import extra job-kind runners (repeatable)")
    p.add_argument("--launcher-id", default=None,
                   help="stable identity recorded on leases "
                        "(default: launcher-<native thread id>)")
    p.add_argument("--verbose", action="store_true",
                   help="log each lease/outcome to stderr")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    db = args.db or fabric_db_path(args.workdir)
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose \
        else None
    try:
        extra: dict = {}
        for spec in args.runners:
            extra.update(load_runners(spec))
        store = FabricStore(db)
        launcher = Launcher(store, extra, workers=args.workers,
                            lease_s=args.lease, poll_s=args.poll,
                            launcher_id=args.launcher_id,
                            max_jobs=args.max_jobs,
                            idle_exit_s=args.idle_exit, log=log)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stop = threading.Event()

    def request_shutdown(signum, frame) -> None:   # pragma: no cover
        stop.set()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)

    counts = store.counts()
    print(f"repro-launcher: {launcher.id} on {db} "
          f"({args.workers} workers, lease {args.lease:g}s; "
          f"{counts['pending']} pending)")
    stats = launcher.run(stop)
    print(f"repro-launcher: exit — {stats.completed} completed, "
          f"{stats.failed} failed, {stats.requeued} requeued")
    return 0


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
