"""The rule catalog: one module per rule family.

=======  =========================================================
RL011    unseeded or global-state RNG construction
RL012    builtin ``hash()`` feeding seeds / persisted keys
RL013    wall clock inside deterministic packages (sched/flow/frame)
RL014    unordered set iteration on serialization-adjacent paths
RL021    unguarded ``self._*`` write in a lock-owning class
RL031    ``bus.emit`` kind missing from the taxonomy
RL032    ``counter``/``gauge`` name missing from the taxonomy
RL033    metric used as the wrong kind
RL034    registry entry nothing emits (complete scans only)
RL041    raw ``.csv``/``.npf`` path literal instead of a handle
RL051    bare ``except:``
RL052    broad exception silently swallowed
RL053    405 built without an ``Allow`` header (serve only)
=======  =========================================================

See docs/architecture.md ("Static analysis") for the catalog with
rationale and docs/extending.md for how to write a new rule.
"""

from __future__ import annotations

from repro.lint.rules.artifacts import ArtifactPathRule
from repro.lint.rules.determinism import (
    SaltedHashRule,
    SetIterationRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.lint.rules.errors import (
    BareExceptRule,
    SwallowedExceptionRule,
    Unallowed405Rule,
)
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.taxonomy import TaxonomyRule

__all__ = ["all_rules", "RULE_FAMILIES"]

#: family id prefix → human name (the catalog's table of contents)
RULE_FAMILIES = {
    "RL01": "determinism",
    "RL02": "lock discipline",
    "RL03": "event/metric taxonomy",
    "RL04": "artifact-path hygiene",
    "RL05": "error hygiene",
}


def all_rules() -> list:
    """Fresh instances of every registered rule (taxonomy rules carry
    per-run seen-name state, so instances are never shared)."""
    return [
        UnseededRngRule(),
        SaltedHashRule(),
        WallClockRule(),
        SetIterationRule(),
        LockDisciplineRule(),
        TaxonomyRule(),
        ArtifactPathRule(),
        BareExceptRule(),
        SwallowedExceptionRule(),
        Unallowed405Rule(),
    ]
