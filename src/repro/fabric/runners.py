"""Executable job kinds: payload-in, JSON-result-out functions.

A durable job cannot carry a closure across processes — what survives
a restart is ``(kind, payload)``.  This module is the other half of
that contract: a registry mapping each kind to a runner
``fn(payload, obs) -> result`` where payload and result are both
JSON-serializable.  Every launcher runs jobs through it, whether it is
a ``repro-launcher`` process or the worker threads inside
``repro-serve``, so where a job runs never changes what it does.

Runners raise :class:`~repro._util.errors.ReproError` for payloads
that can never succeed (the launcher fails those terminally instead of
burning retries) and let transient errors propagate as-is.
"""

from __future__ import annotations

import importlib
import os
import time

from repro._util.errors import ConfigError, DataError, ReproError
from repro._util.timefmt import month_bounds

__all__ = ["BUILTIN_RUNNERS", "run_simulate", "run_insight",
           "run_sleep", "run_noop", "run_shard_sim", "run_shard_emit",
           "run_scenario_job", "load_runners", "simulate_payload"]


def simulate_payload(body: dict) -> dict:
    """Normalize and validate a simulate request body into a payload.

    Shared by ``POST /api/simulate``, campaign expansion, and the
    runner itself, so a payload that validated at submission cannot
    fail validation at execution.  Raises :class:`ConfigError` /
    :class:`DataError` on bad input.
    """
    from repro.cluster import get_system
    from repro.policylab import standard_variants

    payload = {
        "system": str(body.get("system", "testsys")),
        "month": str(body.get("month", "2024-01")),
        "seed": int(body.get("seed", 0)),
        "rate_scale": float(body.get("rate_scale", 0.05)),
        "days": min(31, max(1, int(body.get("days", 7)))),
        "variants": body.get("variants"),
    }
    get_system(payload["system"])       # raises ConfigError if unknown
    month_bounds(payload["month"])      # raises DataError if malformed
    if not 0 < payload["rate_scale"] <= 1.0:
        raise ConfigError("rate_scale must be in (0, 1]")
    names = payload["variants"]
    if names is not None:
        known = {v.name for v in standard_variants(seed=0)}
        missing = [n for n in names if n not in known]
        if missing:
            raise ConfigError(f"unknown variants {missing}; "
                              f"have {sorted(known)}")
        payload["variants"] = [str(n) for n in names]
    return payload


def run_simulate(payload: dict, obs=None) -> dict:
    """One policy-lab sweep over a generated submission stream."""
    import dataclasses

    from repro.cluster import get_system
    from repro.policylab import PolicySweep, standard_variants
    from repro.workload import WorkloadGenerator, workload_for

    payload = simulate_payload(payload)
    system = payload["system"]
    start, end = month_bounds(payload["month"])
    variants = standard_variants(seed=payload["seed"])
    if payload["variants"] is not None:
        known = {v.name: v for v in variants}
        variants = [known[n] for n in payload["variants"]]
    gen = WorkloadGenerator(workload_for(system), seed=payload["seed"],
                            rate_scale=payload["rate_scale"])
    stream = gen.generate(start,
                          min(end, start + payload["days"] * 86400))
    sweep = PolicySweep(get_system(system), stream)
    outcomes = [sweep.evaluate(v) for v in variants]
    return {"system": system, "month": payload["month"],
            "seed": payload["seed"], "n_requests": len(stream),
            "outcomes": [dataclasses.asdict(o) for o in outcomes]}


def run_insight(payload: dict, obs=None) -> dict:
    """One LLM chart-insight analysis over a run's rendered chart."""
    from repro.llm import LLMClient
    from repro.raster import html_to_png
    from repro.store.store import LAYOUT

    root = payload.get("run_root")
    key = payload.get("chart")
    if not root or not isinstance(key, str) or not key:
        raise ConfigError(
            'insight payload needs {"run_root": ..., "chart": ...}')
    html = os.path.join(root, LAYOUT["html"], key + ".html")
    if not os.path.exists(html):
        raise DataError(f"no renderable chart {key!r} under {root!r}")
    png = os.path.join(root, LAYOUT["png"], key + ".png")
    if not os.path.exists(png):
        html_to_png(html, png)
    client = LLMClient(backend=payload.get("backend", "chart-analyst"),
                       context=obs)
    resp = client.insight(png)
    return {"chart": key, "run": payload.get("run", ""),
            "model": resp.model, "insight": resp.text}


def run_shard_sim(payload: dict, obs=None) -> dict:
    """One shard of a chained sharded simulation (paper-scale builds)."""
    from repro.workflows.shard import run_sim_shard

    return run_sim_shard(payload, obs=obs)


def run_shard_emit(payload: dict, obs=None) -> dict:
    """Finalize + curate one origin month of a sharded simulation."""
    from repro.workflows.shard import run_emit_month

    return run_emit_month(payload, obs=obs)


def run_scenario_job(payload: dict, obs=None) -> dict:
    """One scenario-zoo execution (durable campaign fan-out)."""
    from repro.scenarios import run_scenario_payload

    return run_scenario_payload(payload, obs=obs)


def run_sleep(payload: dict, obs=None) -> dict:
    """Sleep in small slices (crash-recovery tests kill mid-sleep)."""
    seconds = float(payload.get("seconds", 0.0))
    if seconds < 0:
        raise ConfigError("seconds must be >= 0")
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(min(0.02, max(0.0, deadline - time.monotonic())))
    return {"slept_s": seconds}


def run_noop(payload: dict, obs=None) -> dict:
    """Do nothing, durably (throughput benchmarks)."""
    return {"ok": True}


BUILTIN_RUNNERS = {
    "simulate": run_simulate,
    "insight": run_insight,
    "shard_sim": run_shard_sim,
    "shard_emit": run_shard_emit,
    "scenario": run_scenario_job,
    "sleep": run_sleep,
    "noop": run_noop,
}


def load_runners(spec: str) -> dict:
    """Extra runners from ``module[:attr]`` (attr defaults to
    ``RUNNERS``): a dict of kind -> callable, or a zero-arg callable
    returning one.  Lets deployments register site-local job kinds on
    ``repro-launcher --runners`` without forking the registry."""
    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigError(f"cannot import runner module "
                          f"{module_name!r}: {exc}") from None
    obj = getattr(module, attr or "RUNNERS", None)
    if callable(obj):
        try:
            obj = obj()
        except TypeError:
            pass                # not a zero-arg factory: rejected below
    if not isinstance(obj, dict):
        raise ReproError(
            f"{spec!r} must name a dict of runners (or a callable "
            f"returning one), got {type(obj).__name__}")
    return dict(obj)
