"""Per-system workload mix parameters.

A :class:`WorkloadProfile` parameterizes everything stochastic about a
system's submissions.  The two built-ins are calibrated to the paper's
qualitative descriptions:

- ``frontier``: "a larger fraction of high-node, long-duration jobs,
  consistent with its exascale mission", heavy srun multi-step usage
  (job-steps ~12-14x jobs, Figure 1), failure counts dominated by a few
  users (Figure 5), median walltime requests ~3x actual (Figure 6);
- ``andes``: "a denser concentration of short-duration jobs with fewer
  nodes", lower and more uniform failure rates (Figure 8), tighter
  walltime overestimation (Figure 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro._util.errors import ConfigError
from repro.cluster import SystemProfile, get_system

__all__ = ["ClassParams", "WorkloadProfile", "workload_for"]


@dataclass(frozen=True)
class ClassParams:
    """Distribution parameters for one job class on one system."""

    weight: float                 # mix fraction (normalized across classes)
    node_lo: int                  # log-uniform node-count range
    node_hi: int
    runtime_median_s: float       # lognormal true-runtime median
    runtime_sigma: float
    steps_mean: float             # mean srun steps per job (>= 1)
    partition: str = "batch"
    qos: str = "normal"
    uses_gpu: bool = False
    #: multiplier on the user's base failure rate for this class
    fail_mult: float = 1.0
    #: probability of requesting the partition's max walltime outright
    prob_request_max: float = 0.10
    #: probability of underestimating the limit (the job then TIMEOUTs)
    prob_underrequest: float = 0.06

    def __post_init__(self) -> None:
        # the generator picks classes from a cdf of these weights, which
        # (unlike Generator.choice(p=...)) would not reject NaN or inf
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ConfigError(
                f"class weight must be finite and >= 0, got {self.weight}")
        if not 1 <= self.node_lo <= self.node_hi:
            raise ConfigError(
                f"bad node range [{self.node_lo}, {self.node_hi}]")
        if self.runtime_median_s < 30:
            raise ConfigError("runtime median below 30s is unrealistic")
        if self.steps_mean < 1:
            raise ConfigError("steps_mean must be >= 1")


@dataclass(frozen=True)
class WorkloadProfile:
    """All stochastic parameters for one system's workload."""

    system: SystemProfile
    classes: dict[str, ClassParams]
    #: mean submissions per hour
    arrival_rate: float
    diurnal_amp: float
    weekend_factor: float
    burst_rate_per_week: float
    n_users: int
    failure_alpha: float
    failure_beta: float
    cancel_scale: float
    overrequest_median: float
    overrequest_spread: float
    #: fraction of submissions that are job arrays (parent spawns members)
    array_frac: float = 0.04
    array_size_mean: float = 8.0
    #: fraction of jobs submitted with an afterok dependency on the
    #: submitter's previous job
    dep_frac: float = 0.05

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigError("profile needs at least one job class")
        total = sum(c.weight for c in self.classes.values())
        if total <= 0:
            raise ConfigError("class weights sum to zero")
        if not math.isfinite(total):
            raise ConfigError("class weights overflow when summed")
        for name, params in self.classes.items():
            part = self.system.partition(params.partition)   # validates
            self.system.qos(params.qos)
            if params.node_hi > part.max_nodes:
                raise ConfigError(
                    f"class {name}: node_hi {params.node_hi} exceeds "
                    f"partition {part.name} limit {part.max_nodes}")

    def class_names(self) -> list[str]:
        return list(self.classes)

    def class_weights(self) -> list[float]:
        total = sum(c.weight for c in self.classes.values())
        return [c.weight / total for c in self.classes.values()]


def _frontier_profile() -> WorkloadProfile:
    sysp = get_system("frontier")
    classes = {
        "simulation": ClassParams(
            weight=0.37, node_lo=1, node_hi=2048,
            runtime_median_s=2 * 3600, runtime_sigma=1.2,
            steps_mean=2.5, uses_gpu=True, prob_request_max=0.18),
        "hero": ClassParams(
            weight=0.01, node_lo=4096, node_hi=9408,
            runtime_median_s=6 * 3600, runtime_sigma=0.5,
            steps_mean=3.0, uses_gpu=True, fail_mult=1.4,
            prob_request_max=0.5),
        "mtask": ClassParams(
            weight=0.18, node_lo=1, node_hi=64,
            runtime_median_s=3 * 3600, runtime_sigma=0.9,
            steps_mean=60.0, prob_request_max=0.12),
        "ai_train": ClassParams(
            weight=0.12, node_lo=8, node_hi=1024,
            runtime_median_s=4 * 3600, runtime_sigma=1.0,
            steps_mean=20.0, uses_gpu=True, fail_mult=1.3,
            prob_request_max=0.25),
        "ai_infer": ClassParams(
            weight=0.12, node_lo=1, node_hi=8,
            runtime_median_s=15 * 60, runtime_sigma=1.0,
            steps_mean=4.0, uses_gpu=True),
        "realtime": ClassParams(
            weight=0.05, node_lo=1, node_hi=16,
            runtime_median_s=10 * 60, runtime_sigma=0.7,
            steps_mean=2.0, qos="urgent", prob_request_max=0.02),
        "debug": ClassParams(
            weight=0.15, node_lo=1, node_hi=32,
            runtime_median_s=8 * 60, runtime_sigma=0.8,
            steps_mean=1.5, partition="debug", qos="debug",
            fail_mult=1.8, prob_request_max=0.3),
    }
    return WorkloadProfile(
        system=sysp, classes=classes,
        arrival_rate=33.0, diurnal_amp=0.45, weekend_factor=0.6,
        burst_rate_per_week=1.5,
        n_users=1000,                      # "more than 1,000 users"
        failure_alpha=0.5, failure_beta=3.0,   # long-tailed: dominated by few
        cancel_scale=0.08,
        overrequest_median=3.0, overrequest_spread=0.5,
        array_frac=0.05, array_size_mean=10.0, dep_frac=0.06,
    )


def _andes_profile() -> WorkloadProfile:
    sysp = get_system("andes")
    classes = {
        "simulation": ClassParams(
            weight=0.35, node_lo=1, node_hi=32,
            runtime_median_s=40 * 60, runtime_sigma=1.0,
            steps_mean=2.0, prob_request_max=0.10),
        "mtask": ClassParams(
            weight=0.15, node_lo=1, node_hi=8,
            runtime_median_s=3600, runtime_sigma=0.8,
            steps_mean=25.0),
        "ai_infer": ClassParams(          # post-processing / analysis
            weight=0.30, node_lo=1, node_hi=2,
            runtime_median_s=10 * 60, runtime_sigma=0.9,
            steps_mean=2.0),
        "realtime": ClassParams(
            weight=0.05, node_lo=1, node_hi=4,
            runtime_median_s=10 * 60, runtime_sigma=0.6,
            steps_mean=2.0, qos="urgent", prob_request_max=0.02),
        "debug": ClassParams(
            weight=0.15, node_lo=1, node_hi=4,
            runtime_median_s=5 * 60, runtime_sigma=0.7,
            steps_mean=1.3, qos="debug", fail_mult=1.2),
    }
    return WorkloadProfile(
        system=sysp, classes=classes,
        arrival_rate=45.0, diurnal_amp=0.5, weekend_factor=0.5,
        burst_rate_per_week=1.0,
        n_users=450,
        failure_alpha=1.5, failure_beta=20.0,  # low, concentrated
        cancel_scale=0.04,
        overrequest_median=2.0, overrequest_spread=0.3,
        array_frac=0.06, array_size_mean=6.0, dep_frac=0.04,
    )


def _testsys_profile() -> WorkloadProfile:
    sysp = get_system("testsys")
    classes = {
        "simulation": ClassParams(
            weight=0.5, node_lo=1, node_hi=8,
            runtime_median_s=1800, runtime_sigma=0.8, steps_mean=2.0),
        "mtask": ClassParams(
            weight=0.2, node_lo=1, node_hi=4,
            runtime_median_s=1200, runtime_sigma=0.6, steps_mean=8.0),
        "debug": ClassParams(
            weight=0.3, node_lo=1, node_hi=4,
            runtime_median_s=300, runtime_sigma=0.5, steps_mean=1.2,
            partition="debug", qos="debug"),
    }
    return WorkloadProfile(
        system=sysp, classes=classes,
        arrival_rate=12.0, diurnal_amp=0.3, weekend_factor=0.7,
        burst_rate_per_week=1.0,
        n_users=25,
        failure_alpha=1.0, failure_beta=8.0,
        cancel_scale=0.05,
        overrequest_median=2.5, overrequest_spread=0.4,
    )


_BUILDERS = {
    "frontier": _frontier_profile,
    "andes": _andes_profile,
    "testsys": _testsys_profile,
}


def workload_for(system_name: str) -> WorkloadProfile:
    """The built-in workload profile for a named system."""
    try:
        return _BUILDERS[system_name]()
    except KeyError:
        raise ConfigError(
            f"no workload profile for {system_name!r}; "
            f"have {sorted(_BUILDERS)}") from None
