"""Chart colors.

One fixed mapping from job state to color keeps every figure in the
dashboard consistent (the paper's state color-coding), plus a
categorical cycle for everything else.
"""

from __future__ import annotations

__all__ = ["STATE_COLORS", "CATEGORICAL", "categorical_color", "DEFAULT"]

#: final-state palette used by Figures 4, 5, 8
STATE_COLORS: dict[str, str] = {
    "COMPLETED": "#2ca02c",
    "FAILED": "#d62728",
    "CANCELLED": "#ff7f0e",
    "TIMEOUT": "#9467bd",
    "OUT_OF_MEMORY": "#8c564b",
    "NODE_FAIL": "#7f7f7f",
}

#: categorical cycle (matplotlib tab10 order, a de-facto standard)
CATEGORICAL: tuple[str, ...] = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

DEFAULT = "#1f77b4"


def categorical_color(index: int) -> str:
    """The i-th categorical color (cycles)."""
    return CATEGORICAL[index % len(CATEGORICAL)]
