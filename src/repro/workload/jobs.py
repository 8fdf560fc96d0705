"""The submission-time job specification.

A :class:`JobRequest` is everything the scheduler sees at submit time
(resources, limit, priority inputs) plus the *hidden truth* the simulator
uses to play the job out (true runtime, intended outcome, step plan).
The analytics layer never sees the hidden fields — it works from the
accounting records the simulator emits, the same information boundary a
real trace has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.errors import ConfigError

__all__ = ["JobRequest", "JOB_CLASSES", "StepPlan"]

#: Job classes the generator mixes.  ``mtask`` is the srun-heavy
#: many-task class that drives the job-step counts in Figure 1;
#: ``realtime`` is the near-real-time experimental class from the intro.
JOB_CLASSES = (
    "simulation",   # classic batch simulation
    "hero",         # very large, long capability run
    "mtask",        # ensemble / many-task, many srun steps
    "ai_train",     # AI training, GPU-heavy, moderate steps, checkpoints
    "ai_infer",     # short inference/analysis tasks
    "realtime",     # near-real-time experiment coupling (urgent QOS)
    "debug",        # short debug runs
)


@dataclass(frozen=True)
class StepPlan:
    """Plan for one srun step (fractions are of the job's resources/time)."""

    name: str
    frac_nodes: float     # fraction of job nodes used by this step
    frac_time: float      # fraction of elapsed spent in this step
    ntasks_per_node: int = 1


@dataclass
class JobRequest:
    """A job as submitted, plus hidden ground truth for simulation."""

    # visible at submit time
    user: str
    account: str
    partition: str
    qos: str
    job_class: str
    submit: int                 # epoch seconds
    nnodes: int
    ncpus: int
    timelimit_s: int
    req_mem_kib: int = 0
    req_gres: str = ""
    job_name: str = "job"
    dependency_idx: int | None = None   # index of parent request, afterok
    array_size: int = 0                 # >0 on the array parent
    array_member_of: int | None = None  # index of the array parent request

    # hidden ground truth
    true_runtime_s: int = 0
    outcome: str = "COMPLETED"          # intended terminal state
    cancel_while_pending: bool = False
    pending_patience_s: int = 0         # wait before a pending cancel fires
    steps: list[StepPlan] = field(default_factory=list)
    work_dir: str = "/lustre/orion/proj"

    def __post_init__(self) -> None:
        if self.nnodes < 1 or self.ncpus < 1:
            raise ConfigError("job must request at least one node and CPU")
        if self.timelimit_s < 60:
            raise ConfigError("timelimit below Slurm's one-minute floor")
        if self.job_class not in JOB_CLASSES:
            raise ConfigError(f"unknown job class {self.job_class!r}")
        if self.true_runtime_s < 0:
            raise ConfigError("negative true runtime")
