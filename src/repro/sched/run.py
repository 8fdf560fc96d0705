"""Convenience drivers: workload → simulator → accounting records.

These are what examples, tests and benchmarks call to synthesize a
system's trace for a date range.  Results are deterministic in
``(system, seed, rate_scale, window)``.
"""

from __future__ import annotations

from repro._util.timefmt import month_bounds
from repro.sched.simulator import SimConfig, Simulator, SimResult
from repro.workload.generate import WorkloadGenerator
from repro.workload.profiles import workload_for

__all__ = ["simulate_range", "simulate_month"]


def simulate_range(system_name: str, start: int, end: int, *,
                   seed: int = 0, rate_scale: float = 1.0,
                   config: SimConfig | None = None,
                   profile=None) -> SimResult:
    """Generate and schedule the submission stream for ``[start, end)``.

    ``profile`` overrides the built-in workload for ``system_name`` —
    scenario replay passes a trace-calibrated
    :class:`~repro.workload.spec.WorkloadProfile` here.
    """
    profile = profile or workload_for(system_name)
    gen = WorkloadGenerator(profile, seed=seed, rate_scale=rate_scale)
    requests = gen.generate(start, end)
    return Simulator(profile.system,
                     config or SimConfig(seed=seed)).run(requests)


def simulate_month(system_name: str, month: str, *,
                   seed: int = 0, rate_scale: float = 1.0,
                   config: SimConfig | None = None,
                   profile=None) -> SimResult:
    """Generate and schedule one ``YYYY-MM`` month."""
    start, end = month_bounds(month)
    return simulate_range(system_name, start, end, seed=seed,
                          rate_scale=rate_scale, config=config,
                          profile=profile)
