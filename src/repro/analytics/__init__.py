"""Field-specific analytics over curated job/step frames.

Each module owns one family of the paper's figures:

- :mod:`repro.analytics.volume` — Figure 1 (jobs & job-steps per year),
- :mod:`repro.analytics.scale` — Figures 3/7 (nodes vs duration),
- :mod:`repro.analytics.waits` — Figure 4 (wait times by final state),
- :mod:`repro.analytics.states` — Figures 5/8 (end states per user),
- :mod:`repro.analytics.backfill` — Figures 6/9 (requested vs actual
  walltime, backfill markers),
- :mod:`repro.analytics.utilization` — node-hours/energy summaries,
- :mod:`repro.analytics.federate` — multi-cluster comparison (the
  future-work extension).

All functions take the curated job frame (schema
:data:`repro.pipeline.JOB_CSV_COLUMNS`) and return plain result objects;
chart construction lives in :mod:`repro.charts`.
"""

from repro.analytics.common import (epoch_to_month, filter_states,
                                    load_jobs, load_steps)
from repro.analytics.volume import VolumeSummary, volume_by_year, volume_by_month
from repro.analytics.scale import ScaleSummary, nodes_vs_elapsed
from repro.analytics.waits import WaitSummary, wait_times
from repro.analytics.states import StateSummary, states_per_user
from repro.analytics.backfill import BackfillSummary, walltime_accuracy
from repro.analytics.utilization import UtilizationSummary, utilization
from repro.analytics.steps import StepSummary, step_statistics
from repro.analytics.timeline import OccupancySummary, occupancy_timeline
from repro.analytics.reasons import ReasonSummary, reason_breakdown
from repro.analytics.federate import FederatedComparison, compare_systems

__all__ = [
    "epoch_to_month",
    "filter_states",
    "load_jobs",
    "load_steps",
    "VolumeSummary",
    "volume_by_year",
    "volume_by_month",
    "ScaleSummary",
    "nodes_vs_elapsed",
    "WaitSummary",
    "wait_times",
    "StateSummary",
    "states_per_user",
    "BackfillSummary",
    "walltime_accuracy",
    "UtilizationSummary",
    "utilization",
    "StepSummary",
    "step_statistics",
    "OccupancySummary",
    "occupancy_timeline",
    "ReasonSummary",
    "reason_breakdown",
    "FederatedComparison",
    "compare_systems",
]
