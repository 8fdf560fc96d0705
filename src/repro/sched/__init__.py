"""Discrete-event Slurm scheduler simulator.

This is the substrate that turns synthetic submission streams
(:mod:`repro.workload`) into the sacct-shaped accounting records the
paper's pipeline analyzes.  It models the scheduling mechanics the
figures depend on:

- **multifactor priority** (age + QOS boost + size + partition tier),
- **EASY backfill**: a reservation is computed for the highest-priority
  blocked job, and lower-priority jobs may start out of order only if
  they cannot delay that reservation — such starts are flagged, feeding
  the ``Backfill`` indicator in Figure 6/9,
- **job lifecycle**: pending (priority/dependency holds), running,
  and the terminal states of Figures 4/5/8 — COMPLETED, FAILED,
  CANCELLED (pending or running), TIMEOUT (request < true runtime),
  OUT_OF_MEMORY, NODE_FAIL,
- **node-id allocation**, so records carry real ``NodeList`` strings,
- **accounting**: per-job usage, per-step records, and an energy model.

One driver runs the scheduler core: :class:`ChainSimulator` feeds it
one generator window at a time, carries live state across windows (and
across processes, through a :class:`ShardHandoff`), and attributes each
finished job to the window it was submitted in; accounting records come
from :func:`finalize_outcomes`.  :class:`Simulator` — and through it
:func:`simulate_month` / :func:`simulate_range` in
:mod:`repro.sched.run` — is one such window drained dry.
"""

from repro.sched.injections import (ElasticWindow, NodeFault, PowerCap,
                                    ScenarioInjections)
from repro.sched.nodes import NodePool
from repro.sched.priority import PriorityModel
from repro.sched.simulator import Simulator, SimConfig, SimResult
from repro.sched.run import simulate_month, simulate_range
from repro.sched.shard import (ChainSimulator, ShardHandoff,
                               finalize_outcomes)

__all__ = [
    "NodePool",
    "PriorityModel",
    "Simulator",
    "SimConfig",
    "SimResult",
    "NodeFault",
    "PowerCap",
    "ElasticWindow",
    "ScenarioInjections",
    "simulate_month",
    "simulate_range",
    "ChainSimulator",
    "ShardHandoff",
    "finalize_outcomes",
]
