"""Paper-scale sharded execution: plan → simulate → handoff → emit.

The classic workflow simulates each month independently and holds whole
tables in memory — fine at demo ``rate_scale``, impossible at the
paper's full Frontier year (~1.5 M jobs, ~18 M steps).  This module runs
the year as ONE continuous scheduler timeline, partitioned into shards
of whole months:

1. **Simulate, chained.**  Shard *k* resumes from shard *k-1*'s
   :class:`~repro.sched.shard.ShardHandoff` (carried-over running jobs,
   queue, fairshare decay, RNG cursor, event heap), feeds its months'
   generator windows, and drains up to its cut — bit-identical to an
   unsharded chain by construction (``tests/test_sched_shard.py``
   proves it).  Finished jobs leave the core immediately as lightweight
   outcome rows, appended to a per-origin-month ``.npf`` spool.
2. **Emit, fanned out.**  Per month — in any order, on a process pool
   or as durable fabric jobs — the submission stream is regenerated
   from the seed, outcomes are finalized into accounting records with
   order-independent per-job RNG streams
   (:func:`~repro.sched.shard.finalize_outcomes`), and the records map
   straight to curated rows (:func:`~repro.pipeline.curate.curate_records`,
   no sacct text in between), which
   :class:`~repro.pipeline.curate.CuratedCsvWriter` streams into the same
   ``data/<month>-jobs.csv`` / ``-steps.csv`` artifacts the classic
   workflow produces, each ``.npf`` twin built from the cells just
   written.

No stage ever materializes more than roughly one month plus the live
boundary state: the simulate phase streams outcome rows out as they
finish, and the emit phase batches finalization.  Memory is therefore
bounded by the *busiest month*, not the year.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from repro._util.errors import ConfigError, DataError, WorkflowError
from repro._util.timefmt import month_bounds
from repro.cluster import get_system
from repro.frame import Frame
from repro.frame.io import NpfAppender, iter_npf
# read_csv, write_npf: looked up by name by perfbench/tracing.py
from repro.frame.io import read_csv, write_npf
from repro.pipeline.curate import (JOB_CSV_COLUMNS, STEP_CSV_COLUMNS,
                                   CuratedCsvWriter, curate_records)
from repro.sched.injections import ScenarioInjections
from repro.sched.priority import PriorityModel
from repro.sched.shard import (SPOOL_COLUMNS, ChainSimulator, ShardHandoff,
                               finalize_outcomes)
from repro.sched.simulator import SimConfig
from repro.store import Artifact
from repro.workload.generate import WorkloadGenerator
from repro.workload.profiles import workload_for
from repro.workload.spec import profile_from_spec

__all__ = ["plan_shards", "run_sharded", "run_sim_shard", "run_emit_month",
           "simconfig_to_spec", "simconfig_from_spec", "ShardRunReport"]

#: outcomes finalized per batch in the emit phase (bounds peak record
#: objects, not correctness — finalization is order-independent)
DEFAULT_BATCH_ROWS = 50_000


# -- config serialization (worker processes receive JSON payloads) -----------------

def simconfig_to_spec(config: SimConfig) -> dict:
    """Flatten a :class:`SimConfig` to a JSON-safe dict."""
    return asdict(config)


def simconfig_from_spec(spec: dict) -> SimConfig:
    """Rebuild the :class:`SimConfig` a spec describes."""
    spec = dict(spec)
    spec["priority"] = PriorityModel(**spec["priority"])
    spec["maintenance"] = tuple(tuple(w) for w in spec["maintenance"])
    spec["scenario"] = ScenarioInjections.from_spec(spec["scenario"]) \
        if spec.get("scenario") else None
    return SimConfig(**spec)


# -- planning ----------------------------------------------------------------------

def plan_shards(months: list[str], shards: int) -> list[list[str]]:
    """Partition months into ``shards`` equal contiguous groups.

    Whole months per shard keep the cut points on generator-window
    boundaries (the only place :meth:`_SimCore.drain` may stop), and
    equal groups keep shard wall times comparable.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    if shards > len(months):
        raise ConfigError(
            f"{shards} shards over {len(months)} months: a shard needs "
            f"at least one whole month")
    if len(months) % shards:
        raise ConfigError(
            f"{len(months)} months do not divide into {shards} equal "
            f"shards; pick a shard count that divides the month count")
    per = len(months) // shards
    return [list(months[i * per:(i + 1) * per]) for i in range(shards)]


def _spool_frame(rows: list[dict]) -> Frame:
    """Outcome rows as a fixed-dtype Frame (stable spool bytes)."""
    return Frame({
        "idx": np.asarray([r["idx"] for r in rows], dtype=np.int64),
        "state": np.asarray([r["state"] for r in rows], dtype=object),
        "eligible": np.asarray([r["eligible"] for r in rows],
                               dtype=np.int64),
        "start": np.asarray([r["start"] for r in rows], dtype=np.int64),
        "end": np.asarray([r["end"] for r in rows], dtype=np.int64),
        "reason": np.asarray([r["reason"] for r in rows], dtype=object),
        "backfilled": np.asarray([r["backfilled"] for r in rows],
                                 dtype=np.int64),
        "restarts": np.asarray([r["restarts"] for r in rows],
                               dtype=np.int64),
        "node_list": np.asarray([r["node_list"] for r in rows],
                                dtype=object),
    })


def _spool_path(spool_dir: str, month: str) -> str:
    return os.path.join(spool_dir, f"spool-{month}.npf")


# -- worker tasks (JSON in / JSON out: pool- and fabric-runnable) -------------------

def run_sim_shard(payload: dict, obs=None) -> dict:
    """Simulate one shard's months, spooling outcomes by origin month.

    Payload: ``system, months, seed, rate_scale, config`` (spec),
    ``profile`` (spec or None), ``prior_bases`` ([month, base, n] of
    every earlier window), ``handoff_in``/``handoff_out`` (paths or
    None), ``spool_dir``, ``final`` (bool: drain the queue dry after
    the last month), ``manifest_dir`` (optional per-shard obs manifest).
    """
    system = get_system(payload["system"])
    config = simconfig_from_spec(payload["config"])
    profile = profile_from_spec(payload["profile"]) \
        if payload.get("profile") else workload_for(payload["system"])
    gen = WorkloadGenerator(profile, seed=payload["seed"],
                            rate_scale=payload["rate_scale"])
    handoff = ShardHandoff.load(payload["handoff_in"]) \
        if payload.get("handoff_in") else None
    chain = ChainSimulator(system, config, handoff=handoff)

    ctx = None
    if payload.get("manifest_dir"):
        from repro.obs import RunContext
        ctx = RunContext(run_id=f"shard-{payload['months'][0]}")

    all_bases = [tuple(b) for b in payload.get("prior_bases", [])]
    my_bases: list[list] = []
    spool_rows: dict[str, int] = {}
    appenders: dict[str, NpfAppender] = {}
    spool_dir = payload["spool_dir"]
    os.makedirs(spool_dir, exist_ok=True)
    live_hwm = 0
    months = payload["months"]

    def origin_of(idx: int) -> str:
        for month, base, n in reversed(all_bases):
            if idx >= base:
                if idx < base + n:
                    return month
                break
        raise DataError(f"outcome idx {idx} maps to no window")

    try:
        for month in months:
            start, end = month_bounds(month)
            reqs = gen.generate(start, end)
            carried_in = len(chain.core.jobs)
            live_hwm = max(live_hwm, carried_in + len(reqs))
            base = chain.core.next_idx
            my_bases.append([month, base, len(reqs)])
            all_bases.append((month, base, len(reqs)))
            final = payload.get("final") and month == months[-1]
            if ctx is not None:
                with ctx.span(f"shard-window:{month}", jobs=len(reqs),
                              carried=carried_in):
                    outcomes = chain.run_window(
                        reqs, None if final else end)
            else:
                outcomes = chain.run_window(reqs, None if final else end)
            by_month: dict[str, list[dict]] = {}
            for out in outcomes:
                by_month.setdefault(origin_of(out["idx"]), []).append(out)
            for m, rows in sorted(by_month.items()):
                rows.sort(key=lambda r: r["idx"])
                app = appenders.get(m)
                if app is None:
                    app = appenders[m] = NpfAppender(_spool_path(
                        spool_dir, m))
                app.append(_spool_frame(rows))
                spool_rows[m] = spool_rows.get(m, 0) + len(rows)
    finally:
        for app in appenders.values():
            app.close()

    carried_out = len(chain.core.jobs)
    if payload.get("handoff_out"):
        chain.export(cut=month_bounds(months[-1])[1]).save(
            payload["handoff_out"])
    if ctx is not None:
        # recorded on the worker's own context so the merged manifest
        # carries sched.shard.* even when no orchestrator obs is wired
        ctx.metrics.counter("sched.shard.windows").inc(len(months))
        ctx.metrics.counter("sched.shard.carried_jobs").inc(carried_out)
        ctx.metrics.counter("sched.shard.spool_rows").inc(
            sum(spool_rows.values()))
        ctx.metrics.gauge("sched.shard.live_jobs_hwm").set_max(live_hwm)
        if payload.get("handoff_out"):
            ctx.metrics.counter("sched.shard.handoffs").inc()
        ctx.write_manifest(payload["manifest_dir"])
    return {"bases": my_bases, "spool_rows": spool_rows,
            "carried": carried_out, "live_hwm": live_hwm,
            "windows": len(months), "counters": chain.counters}


def run_emit_month(payload: dict, obs=None) -> dict:
    """Finalize and curate one origin month into its CSV artifacts.

    Payload: ``system, month, base, n, seed, rate_scale, config``
    (spec), ``profile`` (spec or None), ``spool`` (path), ``data_dir``,
    optional ``batch_rows`` and ``manifest_dir``.  Regenerates the
    month's submission stream from the seed (window generation is
    sharding-invariant), so only the lightweight outcome rows travel
    between phases.
    """
    system = get_system(payload["system"])
    config = simconfig_from_spec(payload["config"])
    profile = profile_from_spec(payload["profile"]) \
        if payload.get("profile") else workload_for(payload["system"])
    gen = WorkloadGenerator(profile, seed=payload["seed"],
                            rate_scale=payload["rate_scale"])
    month = payload["month"]
    base, n = int(payload["base"]), int(payload["n"])
    start, end = month_bounds(month)

    ctx = None
    if payload.get("manifest_dir"):
        from repro.obs import RunContext
        ctx = RunContext(run_id=f"emit-{month}")

    reqs = gen.generate(start, end)
    if len(reqs) != n:
        raise DataError(
            f"emit {month}: regenerated {len(reqs)} requests but the "
            f"simulate phase fed {n} — seed/profile/rate mismatch")

    outcomes: list[dict] = []
    spool = payload["spool"]
    if os.path.exists(spool):
        for chunk in iter_npf(spool):
            cols = {c: chunk[c] for c in SPOOL_COLUMNS}
            for i in range(len(chunk)):
                outcomes.append({
                    "idx": int(cols["idx"][i]),
                    "state": str(cols["state"][i]),
                    "eligible": int(cols["eligible"][i]),
                    "start": int(cols["start"][i]),
                    "end": int(cols["end"][i]),
                    "reason": str(cols["reason"][i]),
                    "backfilled": int(cols["backfilled"][i]),
                    "restarts": int(cols["restarts"][i]),
                    "node_list": str(cols["node_list"][i]),
                })
    if len(outcomes) != n:
        raise WorkflowError(
            f"emit {month}: {len(outcomes)} outcomes for {n} submitted "
            f"jobs — the simulate phase did not finish this month")
    outcomes.sort(key=lambda o: o["idx"])

    data_dir = payload["data_dir"]
    jobs_art = Artifact.in_dir(data_dir, f"{month}-jobs", "csv",
                               schema=tuple(JOB_CSV_COLUMNS))
    steps_art = Artifact.in_dir(data_dir, f"{month}-steps", "csv",
                                schema=tuple(STEP_CSV_COLUMNS))
    batch_rows = int(payload.get("batch_rows") or DEFAULT_BATCH_ROWS)
    n_jobs = n_steps = 0
    with CuratedCsvWriter(jobs_art) as jobs_out, \
            CuratedCsvWriter(steps_art) as steps_out:
        for lo in range(0, len(outcomes), batch_rows):
            records = finalize_outcomes(system, config, reqs, base,
                                        outcomes[lo:lo + batch_rows])
            job_rows, step_rows = curate_records(records)
            jobs_out.write_rows(job_rows)
            steps_out.write_rows(step_rows)
            n_jobs += len(job_rows)
            n_steps += len(step_rows)
    if ctx is not None:
        for out in (jobs_out, steps_out):
            ctx.record_artifact(out.art.path,
                                producer=f"shard-emit:{month}",
                                inputs=(spool,))
            ctx.record_artifact(out.twin.path,
                                producer=f"shard-emit:{month}",
                                inputs=(out.art.path,))
        ctx.write_manifest(payload["manifest_dir"])
    return {"month": month, "jobs_csv": jobs_art.path,
            "steps_csv": steps_art.path, "n_jobs": n_jobs,
            "n_steps": n_steps}


# -- dispatch (inline / process pool / fabric) --------------------------------------

_TASK_FNS = {"shard_sim": run_sim_shard, "shard_emit": run_emit_month}


class _Dispatcher:
    """Run worker tasks inline, on a process pool, or as fabric jobs."""

    def __init__(self, procs: int, fabric_db: str | None) -> None:
        if procs < 1:
            raise ConfigError(f"procs must be >= 1, got {procs}")
        self.procs = procs
        self.fabric_db = fabric_db

    def run_stage(self, kind: str, payloads: list[dict], *,
                  sequential: bool) -> list[dict]:
        if not payloads:
            return []
        if self.fabric_db:
            return self._run_fabric(kind, payloads, sequential)
        if self.procs > 1:
            with ProcessPoolExecutor(max_workers=self.procs) as pool:
                if sequential:
                    # shard chains must run in timeline order; a worker
                    # process still bounds the orchestrator's footprint
                    return [pool.submit(_TASK_FNS[kind], p).result()
                            for p in payloads]
                futures = [pool.submit(_TASK_FNS[kind], p)
                           for p in payloads]
                return [f.result() for f in futures]
        return [_TASK_FNS[kind](p) for p in payloads]

    def _run_fabric(self, kind: str, payloads: list[dict],
                    sequential: bool) -> list[dict]:
        from repro.fabric import FabricStore, Launcher

        store = FabricStore(self.fabric_db)
        try:
            groups = [[p] for p in payloads] if sequential else [payloads]
            results: list[dict] = []
            for group in groups:
                ids = [store.submit(kind, p).id for p in group]
                Launcher(store, workers=self.procs, idle_exit_s=0.2,
                         poll_s=0.02).run()
                for job_id in ids:
                    job = store.get(job_id)
                    if job is None or job.state != "done":
                        raise WorkflowError(
                            f"fabric {kind} job {job_id} ended "
                            f"{job.state if job else 'missing'}: "
                            f"{job.error if job else ''}")
                    results.append(job.result)
            return results
        finally:
            store.close()


# -- the orchestrator ---------------------------------------------------------------

@dataclass
class ShardRunReport:
    """Everything one sharded build produced."""

    months: list[str]
    shards: int
    procs: int
    #: [month, base, n] per window in timeline order
    bases: list[list] = field(default_factory=list)
    #: cumulative scheduler counters from the final shard
    counters: dict = field(default_factory=dict)
    #: month -> {"jobs": path, "steps": path}
    artifacts: dict = field(default_factory=dict)
    n_jobs: int = 0
    n_steps: int = 0
    carried_total: int = 0
    live_jobs_hwm: int = 0
    spool_rows: int = 0
    #: merged per-shard/per-emit manifest directory (or "")
    manifest_dir: str = ""


def run_sharded(system: str, months: list[str], out_dir: str, *,
                shards: int, procs: int = 1, seed: int = 0,
                rate_scale: float = 1.0, config: SimConfig | None = None,
                profile_spec: dict | None = None,
                fabric_db: str | None = None,
                data_dir: str | None = None,
                batch_rows: int = DEFAULT_BATCH_ROWS,
                manifests: bool = True, obs=None) -> ShardRunReport:
    """Build a sharded accounting dataset under ``out_dir``.

    Curated month tables land in ``data_dir`` (default
    ``out_dir/data`` — the classic workflow layout); handoffs, spools
    and per-shard manifests under ``out_dir/shards``.  ``obs`` is an
    optional :class:`repro.obs.RunContext` for the orchestrator-side
    spans and ``sched.shard.*`` metrics.
    """
    months = list(months)
    groups = plan_shards(months, shards)
    config = config or SimConfig(seed=seed)
    cfg_spec = simconfig_to_spec(config)
    shard_dir = os.path.join(out_dir, "shards")
    spool_dir = os.path.join(shard_dir, "spool")
    data_dir = data_dir or os.path.join(out_dir, "data")
    # spools are appendable: a previous build's would be extended with a
    # second copy of every outcome, so phase 1 starts from an empty dir
    shutil.rmtree(spool_dir, ignore_errors=True)
    os.makedirs(spool_dir)
    dispatch = _Dispatcher(procs, fabric_db)
    report = ShardRunReport(months=months, shards=shards, procs=procs)

    def manifest_dir(name: str) -> str | None:
        return os.path.join(shard_dir, "manifests", name) \
            if manifests else None

    # phase 1: the simulate chain, one shard at a time
    handoff_prev: str | None = None
    manifest_dirs: list[str] = []
    for k, group in enumerate(groups):
        last = k == len(groups) - 1
        handoff_out = None if last else \
            os.path.join(shard_dir, f"handoff-{k:03d}.json.gz")
        payload = {"system": system, "months": group, "seed": seed,
                   "rate_scale": rate_scale, "config": cfg_spec,
                   "profile": profile_spec,
                   "prior_bases": report.bases,
                   "handoff_in": handoff_prev,
                   "handoff_out": handoff_out,
                   "spool_dir": spool_dir, "final": last,
                   "manifest_dir": manifest_dir(f"sim-{k:03d}")}
        if obs is not None:
            with obs.span(f"shard-sim:{k}", months=len(group)):
                res = dispatch.run_stage("shard_sim", [payload],
                                         sequential=True)[0]
        else:
            res = dispatch.run_stage("shard_sim", [payload],
                                     sequential=True)[0]
        report.bases.extend(res["bases"])
        report.counters = res["counters"]
        report.carried_total += res["carried"]
        report.live_jobs_hwm = max(report.live_jobs_hwm, res["live_hwm"])
        report.spool_rows += sum(res["spool_rows"].values())
        if payload["manifest_dir"]:
            manifest_dirs.append(payload["manifest_dir"])
        if obs is not None:
            obs.metrics.counter("sched.shard.windows").inc(res["windows"])
            obs.metrics.counter("sched.shard.carried_jobs").inc(
                res["carried"])
            obs.metrics.counter("sched.shard.spool_rows").inc(
                sum(res["spool_rows"].values()))
            obs.metrics.gauge("sched.shard.live_jobs_hwm").set_max(
                res["live_hwm"])
            if handoff_out:
                obs.metrics.counter("sched.shard.handoffs").inc()
        handoff_prev = handoff_out
    if obs is not None and report.counters.get("n_injections"):
        obs.metrics.counter("sched.scenario.injections").inc(
            report.counters["n_injections"])
        obs.metrics.counter("sched.scenario.victims").inc(
            report.counters["n_victims"])
        obs.metrics.counter("sched.scenario.shrunk").inc(
            report.counters["n_shrunk"])

    # phase 2: per-month emit fan-out
    base_by_month = {m: (b, n) for m, b, n in report.bases}
    payloads = []
    for month in months:
        base, n = base_by_month[month]
        payloads.append({"system": system, "month": month, "base": base,
                         "n": n, "seed": seed, "rate_scale": rate_scale,
                         "config": cfg_spec, "profile": profile_spec,
                         "spool": _spool_path(spool_dir, month),
                         "data_dir": data_dir, "batch_rows": batch_rows,
                         "manifest_dir": manifest_dir(f"emit-{month}")})
    if obs is not None:
        with obs.span("shard-emit", months=len(months)):
            emitted = dispatch.run_stage("shard_emit", payloads,
                                         sequential=False)
    else:
        emitted = dispatch.run_stage("shard_emit", payloads,
                                     sequential=False)
    for res in emitted:
        report.artifacts[res["month"]] = {"jobs": res["jobs_csv"],
                                          "steps": res["steps_csv"]}
        report.n_jobs += res["n_jobs"]
        report.n_steps += res["n_steps"]
    manifest_dirs.extend(p["manifest_dir"] for p in payloads
                         if p["manifest_dir"])

    if manifest_dirs:
        from repro.obs.merge import merge_manifests
        merged = os.path.join(shard_dir, "manifest")
        merge_manifests(manifest_dirs, merged,
                        run_id=f"sharded:{system}:{months[0]}"
                               f"..{months[-1]}")
        report.manifest_dir = merged
    return report
