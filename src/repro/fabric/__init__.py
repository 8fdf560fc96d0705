"""``repro.fabric`` — the durable job fabric: store, launcher, campaigns.

Every background job — ``repro-serve``'s insights, simulations and
campaigns, and the shards of a paper-scale build — lives here, modeled
on Balsam's service/launcher split:

- :class:`FabricStore` — a stdlib-only SQLite job store (WAL mode,
  under the workdir's ``.store/`` layout) with explicit states
  (``pending → leased → running → done|failed|orphaned``) and an
  append-only transition history;
- :class:`Launcher` — a worker pool (its own ``repro-launcher``
  process, or threads inside ``repro-serve``) that leases work with
  heartbeats and recovers orphaned jobs whose lease expired (bounded
  retries, deterministic backoff);
- :func:`submit_campaign` — a parameter sweep of policy-lab
  simulations whose identity is content-addressed, so it survives
  crashes and resumes exactly where it left off.

``repro-serve`` submits its ``POST`` jobs here (by default into its
first workdir's database) and runs them on its own launcher threads;
any number of ``repro-launcher`` processes may drain the same store.
"""

from repro.fabric.store import (
    FABRIC_STATES,
    TERMINAL_STATES,
    FabricJob,
    FabricStore,
    QueueFull,
    fabric_db_path,
)
from repro.fabric.runners import BUILTIN_RUNNERS, load_runners
from repro.fabric.campaign import expand_campaign, submit_campaign
from repro.fabric.launcher import Launcher, LauncherStats

__all__ = [
    "FABRIC_STATES",
    "TERMINAL_STATES",
    "FabricJob",
    "FabricStore",
    "QueueFull",
    "fabric_db_path",
    "BUILTIN_RUNNERS",
    "load_runners",
    "expand_campaign",
    "submit_campaign",
    "Launcher",
    "LauncherStats",
]
