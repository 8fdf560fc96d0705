"""Scenario execution: sweeps, full workflow runs, federation, replay.

Four entry points, all driven by the same :class:`Scenario` spec:

- :func:`sweep_scenario` — policylab: the scenario's injection stream
  attached to every policy variant, evaluated over one fixed workload
  (the what-if table the LLM-advisor layer consumes);
- :func:`run_scenario` — the full Figure-2 workflow with the scenario
  riding on :class:`~repro.sched.simulator.SimConfig`, producing the
  complete Figures 3-9 analytics stack (single) or the two-system
  federated comparison;
- :func:`calibrate_trace` — a public SWF trace fitted to a runnable
  workload-profile spec (real-trace replay);
- :func:`run_scenario_payload` — the fabric runner body (kind
  ``"scenario"``), so durable campaigns can sweep hundreds of
  scenarios.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro._util.errors import ConfigError
from repro._util.timefmt import month_bounds
from repro.scenarios.spec import (Scenario, builtin_scenarios,
                                  load_scenario, scenario_from_spec)
from repro.sched.simulator import SimConfig

__all__ = ["resolve_scenario", "scenario_sim_config", "sweep_scenario",
           "run_scenario", "run_federated", "calibrate_trace",
           "run_scenario_payload", "ScenarioRunResult"]


def resolve_scenario(ref) -> Scenario:
    """A scenario from a registry name, a spec file path, a spec dict,
    or a :class:`Scenario` instance, whichever ``ref`` is."""
    if isinstance(ref, Scenario):
        return ref
    if isinstance(ref, dict):
        return scenario_from_spec(ref)
    if not isinstance(ref, str):
        raise ConfigError(
            f"scenario ref must be a name, path, dict or Scenario, "
            f"got {type(ref).__name__}")
    zoo = builtin_scenarios()
    if ref in zoo:
        return zoo[ref]
    if os.path.exists(ref):
        return load_scenario(ref)
    raise ConfigError(
        f"unknown scenario {ref!r}: not a registry name "
        f"({sorted(zoo)}) and no such file")


def scenario_sim_config(scn: Scenario, *, seed: int | None = None
                        ) -> SimConfig:
    """The scheduler config a scenario's simulations run under, with
    injection times shifted from month-relative to absolute epochs."""
    origin = month_bounds(scn.months[0])[0]
    injections = scn.injections.shifted(origin) if scn.injections \
        else None
    return SimConfig(seed=scn.seed if seed is None else seed,
                     scenario=injections)


# -- policylab sweeps ---------------------------------------------------------------

def sweep_scenario(scn: Scenario, *, days: int = 7,
                   variant_names: list[str] | None = None):
    """Evaluate the standard policy menu under the scenario's
    injections; returns the list of
    :class:`~repro.policylab.sweep.PolicyOutcome`."""
    from repro.cluster import get_system
    from repro.policylab import PolicySweep, standard_variants
    from repro.workload import WorkloadGenerator, workload_for

    if days < 1:
        raise ConfigError(f"days must be >= 1, got {days}")
    start, month_end = month_bounds(scn.months[0])
    end = min(month_end, start + days * 86400)
    gen = WorkloadGenerator(workload_for(scn.system), seed=scn.seed,
                            rate_scale=scn.rate_scale)
    stream = gen.generate(start, end)
    variants = standard_variants(seed=scn.seed)
    if variant_names is not None:
        known = {v.name: v for v in variants}
        missing = [n for n in variant_names if n not in known]
        if missing:
            raise ConfigError(f"unknown variants {missing}; "
                              f"have {sorted(known)}")
        variants = [known[n] for n in variant_names]
    injections = scenario_sim_config(scn).scenario
    variants = [dataclasses.replace(
        v, config=dataclasses.replace(v.config, scenario=injections))
        for v in variants]
    sweep = PolicySweep(get_system(scn.system), stream)
    return [sweep.evaluate(v) for v in variants]


# -- full runs ----------------------------------------------------------------------

@dataclasses.dataclass
class ScenarioRunResult:
    """What one scenario execution produced."""

    scenario: str
    kind: str
    workdir: str
    #: single: the dashboard HTML path; federated: the deltas report
    report: str = ""
    n_jobs: int = 0
    #: scenario counters from the simulator (injections applied,
    #: fault victims, elastically shrunk nodes)
    counters: dict = dataclasses.field(default_factory=dict)
    #: federated only: (metric, system, value) rows
    delta_rows: list = dataclasses.field(default_factory=list)


def run_scenario(ref, workdir: str, *, shards: int = 0, procs: int = 1,
                 fabric: bool = False, enable_ai: bool = False,
                 workers: int = 4,
                 profile_spec: dict | None = None) -> ScenarioRunResult:
    """Execute a scenario end to end under ``workdir``.

    Single-system scenarios run the full
    :class:`~repro.workflows.main.SchedulingAnalysisWorkflow` (text
    stages, or sharded per ``shards``/``procs``/``fabric``; a shard
    count that does not divide the months is a :class:`ConfigError`)
    with the injection stream attached to the simulated timeline; ``profile_spec``
    substitutes a trace-calibrated workload (see
    :func:`calibrate_trace`).  Federated scenarios route one stream
    across two systems and land the comparison in
    ``workdir/federated.json``.
    """
    scn = resolve_scenario(ref)
    if scn.kind == "federated":
        return run_federated(scn, workdir)

    from repro.workflows.main import (SchedulingAnalysisWorkflow,
                                      WorkflowConfig)

    cfg = WorkflowConfig(
        system=scn.system, months=scn.months, workdir=workdir,
        workers=workers, seed=scn.seed, rate_scale=scn.rate_scale,
        enable_ai=enable_ai, shards=shards, procs=procs, fabric=fabric,
        sim_config=scenario_sim_config(scn), profile_spec=profile_spec)
    wf = SchedulingAnalysisWorkflow(cfg)
    result = wf.run()
    wf.obs.metrics.counter("scenario.runs").inc()
    wf.obs.bus.emit("scenario_run", scn.name, scenario_kind=scn.kind,
                    system=scn.system, months=len(scn.months))
    counters = {
        "injections": int(wf.obs.metrics.counter(
            "sched.scenario.injections").value),
        "victims": int(wf.obs.metrics.counter(
            "sched.scenario.victims").value),
        "shrunk": int(wf.obs.metrics.counter(
            "sched.scenario.shrunk").value),
    }
    return ScenarioRunResult(
        scenario=scn.name, kind=scn.kind, workdir=workdir,
        report=result.dashboard_path, n_jobs=result.n_jobs,
        counters=counters)


def run_federated(ref, workdir: str) -> ScenarioRunResult:
    """Two-system co-scheduling: route, simulate, compare.

    One submission stream is generated against the primary system's
    workload and routed per the federation spec; each system schedules
    its share (injections hit the configured target), and the curated
    outputs feed :func:`repro.analytics.federate.compare_systems`.
    """
    from repro.analytics.federate import compare_systems
    from repro.cluster import get_system
    from repro.frame import Frame
    from repro.pipeline.curate import JOB_CSV_COLUMNS, curate_records
    from repro.sched.simulator import Simulator
    from repro.workload import WorkloadGenerator, workload_for

    scn = resolve_scenario(ref)
    if scn.kind != "federated":
        raise ConfigError(f"scenario {scn.name!r} is not federated")
    fed = scn.federation
    primary = fed.systems[0]
    start = month_bounds(scn.months[0])[0]
    end = month_bounds(scn.months[-1])[1]
    gen = WorkloadGenerator(workload_for(primary), seed=scn.seed,
                            rate_scale=scn.rate_scale)
    stream = gen.generate(start, end)
    routed = _route(stream, fed)

    inject_to = fed.inject or primary
    frames = {}
    counters = {"injections": 0, "victims": 0, "shrunk": 0}
    for name in fed.systems:
        injections = scenario_sim_config(scn).scenario \
            if (name == inject_to and scn.injections) else None
        config = SimConfig(seed=scn.seed, scenario=injections)
        result = Simulator(get_system(name), config).run(routed[name])
        counters["injections"] += result.n_injections
        counters["victims"] += result.n_fault_victims
        counters["shrunk"] += result.n_shrunk_nodes
        job_rows, _ = curate_records(result.jobs)
        frames[name] = Frame.from_records(job_rows,
                                          columns=JOB_CSV_COLUMNS)
    comp = compare_systems(frames)
    rows = comp.delta_rows()
    report = {
        "scenario": scn.name,
        "systems": list(fed.systems),
        "routing": fed.routing,
        "routed_jobs": {name: len(routed[name]) for name in fed.systems},
        "delta_rows": [list(r) for r in rows],
        "relative_rows": [list(r)
                          for r in comp.delta_rows(relative=True)],
    }
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "federated.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return ScenarioRunResult(
        scenario=scn.name, kind=scn.kind, workdir=workdir, report=out,
        n_jobs=len(stream), counters=counters, delta_rows=rows)


def _route(stream, fed) -> dict:
    """Split one stream across the federation's systems.

    Dependency and array families stay together (a child inherits its
    parent's route), and jobs larger than the secondary system route to
    the primary regardless of policy — per-system request indices are
    remapped so dependencies stay internally consistent.
    """
    from repro.cluster import get_system

    primary, secondary = fed.systems
    profiles = {name: get_system(name) for name in fed.systems}
    cap = profiles[secondary].total_nodes
    assign: list[str] = []
    for i, req in enumerate(stream):
        if req.array_member_of is not None:
            target = assign[req.array_member_of]
        elif req.dependency_idx is not None:
            target = assign[req.dependency_idx]
        elif fed.routing == "round-robin":
            target = fed.systems[i % 2]
        else:
            target = secondary if req.nnodes <= fed.split_nodes \
                else primary
        if target == secondary and req.nnodes > cap:
            target = primary
        assign.append(target)
    routed: dict[str, list] = {name: [] for name in fed.systems}
    new_idx: dict[int, int] = {}
    for i, req in enumerate(stream):
        target = assign[i]
        bucket = routed[target]
        new_idx[i] = len(bucket)
        dep = req.dependency_idx
        member = req.array_member_of
        # a parent that outgrew the secondary may have been rerouted
        # away from its family; sever the link rather than cross systems
        if dep is not None and assign[dep] != target:
            dep = None
        elif dep is not None:
            dep = new_idx[dep]
        if member is not None and assign[member] != target:
            member = None
        elif member is not None:
            member = new_idx[member]
        # the stream was generated against the primary's partition
        # layout; remap names the target system does not have to its
        # widest partition (jobs keep size/limits/ground truth)
        sysp = profiles[target]
        partition = req.partition
        if not any(p.name == partition for p in sysp.partitions):
            partition = max(sysp.partitions,
                            key=lambda p: p.max_nodes).name
        bucket.append(dataclasses.replace(
            req, partition=partition, dependency_idx=dep,
            array_member_of=member, steps=list(req.steps)))
    return routed


# -- real-trace replay --------------------------------------------------------------

def calibrate_trace(swf_path: str, system: str = "frontier", *,
                    max_rows: int | None = None,
                    cpus_per_node: int | None = None):
    """Fit a public SWF trace to a runnable workload-profile spec.

    Returns ``(profile_spec, CalibrationReport)``; the spec plugs into
    :func:`run_scenario`'s ``profile_spec`` so the full analytics stack
    replays the real trace's statistics.
    """
    from repro.cluster import get_system
    from repro.interop.swf import swf_to_frame
    from repro.workload.calibrate import calibrate_profile
    from repro.workload.spec import profile_to_spec

    sysp = get_system(system)
    jobs = swf_to_frame(swf_path,
                        cpus_per_node=cpus_per_node or sysp.cpus_per_node,
                        max_rows=max_rows)
    profile, report = calibrate_profile(jobs, sysp)
    return profile_to_spec(profile), report


# -- fabric runner ------------------------------------------------------------------

def run_scenario_payload(payload: dict, obs=None) -> dict:
    """Durable scenario execution: ``{"scenario": name|spec, "mode":
    "sweep"|"federated", "days": N, "variants": [...]}`` in, JSON out.

    Sweep mode (the default) evaluates the policy menu under the
    scenario; federated mode runs the two-system comparison into the
    payload's ``workdir``.  Fabric campaigns fan hundreds of these out
    with per-job durability.
    """
    ref = payload.get("scenario")
    if ref is None:
        raise ConfigError('scenario payload needs {"scenario": ...}')
    scn = resolve_scenario(ref)
    mode = payload.get("mode", "sweep")
    if mode == "federated" or scn.kind == "federated":
        result = run_federated(scn, payload.get("workdir",
                                                "scenario-out"))
        return {"scenario": scn.name, "kind": "federated",
                "report": result.report, "counters": result.counters,
                "delta_rows": [list(r) for r in result.delta_rows]}
    if mode != "sweep":
        raise ConfigError(f"unknown scenario mode {mode!r}")
    outcomes = sweep_scenario(
        scn, days=int(payload.get("days", 7)),
        variant_names=payload.get("variants"))
    if obs is not None:
        obs.metrics.counter("scenario.runs").inc()
        obs.bus.emit("scenario_run", scn.name, scenario_kind=scn.kind,
                     system=scn.system, mode=mode)
    return {"scenario": scn.name, "kind": scn.kind, "mode": mode,
            "outcomes": [dataclasses.asdict(o) for o in outcomes]}
