"""Slurm-style count and memory formatting.

The paper's curation stage calls out two unit quirks it must normalize:

- node/CPU counts printed with a ``K`` suffix for thousands
  (e.g. ``9.408K`` nodes on a full-system Frontier job);
- memory sizes with binary suffixes and a location letter
  (e.g. ``512000Mn`` = 512 GB per node, ``4Gc`` = 4 GB per CPU).

These helpers emit and parse both, round-tripping exactly for the values
the emitter produces.
"""

from __future__ import annotations

import math

from repro._util.errors import DataError

__all__ = ["format_count_k", "parse_count_k", "format_mem", "parse_mem"]

_MEM_MULT = {"K": 1, "M": 1024, "G": 1024**2, "T": 1024**3}


def format_count_k(value: int) -> str:
    """Format a count, using a ``K`` suffix at or above 1000.

    >>> format_count_k(9408)
    '9.408K'
    >>> format_count_k(64)
    '64'
    """
    value = int(value)
    if value < 0:
        raise DataError(f"negative count: {value}")
    if value < 1000:
        return str(value)
    whole, frac = divmod(value, 1000)
    if frac == 0:
        return f"{whole}K"
    return f"{whole}.{frac:03d}K"


def parse_count_k(text: str) -> int:
    """Parse a count that may carry a ``K`` (thousands) or ``M`` suffix.

    >>> parse_count_k("9.408K")
    9408
    >>> parse_count_k("64")
    64
    """
    text = text.strip()
    if not text:
        raise DataError("empty count")
    mult = 1
    if text[-1] in ("K", "k"):
        mult, text = 1000, text[:-1]
    elif text[-1] in ("M",):
        mult, text = 1_000_000, text[:-1]
    try:
        val = float(text)
    except ValueError as exc:
        raise DataError(f"bad count: {text!r}") from exc
    if val < 0:
        raise DataError(f"negative count: {text!r}")
    out = val * mult
    if not math.isfinite(out):
        raise DataError(f"non-finite count: {text!r}")
    rounded = int(round(out))
    if abs(out - rounded) > 1e-6:
        raise DataError(f"non-integral count: {text!r}")
    return rounded


def format_mem(kib: int, per: str = "n") -> str:
    """Format memory (KiB) the way ``ReqMem`` prints it.

    ``per`` is ``"n"`` (per node) or ``"c"`` (per CPU).  The largest suffix
    that divides the value exactly is used, matching Slurm's behaviour of
    printing what the user requested.

    >>> format_mem(4 * 1024**2, per="c")
    '4Gc'
    """
    if per not in ("n", "c", ""):
        raise DataError(f"bad per-unit {per!r}")
    kib = int(kib)
    if kib < 0:
        raise DataError(f"negative memory: {kib}")
    for suffix in ("T", "G", "M"):
        mult = _MEM_MULT[suffix]
        if kib and kib % mult == 0:
            return f"{kib // mult}{suffix}{per}"
    return f"{kib}K{per}"


def parse_mem(text: str) -> tuple[int, str]:
    """Parse a ``ReqMem``-style value to ``(kib, per)``.

    ``per`` is ``"n"``, ``"c"`` or ``""`` when no location letter present.

    >>> parse_mem("512000Mn")
    (524288000, 'n')
    """
    text = text.strip()
    if not text:
        raise DataError("empty memory value")
    per = ""
    if text[-1] in ("n", "c"):
        per, text = text[-1], text[:-1]
    if not text:
        raise DataError("memory value missing magnitude")
    suffix = "M"  # Slurm defaults bare numbers to MB
    if text[-1].upper() in _MEM_MULT:
        suffix, text = text[-1].upper(), text[:-1]
    try:
        val = float(text)
    except ValueError as exc:
        raise DataError(f"bad memory value: {text!r}") from exc
    if val < 0:
        raise DataError(f"negative memory value: {text!r}")
    kib = val * _MEM_MULT[suffix]
    if not math.isfinite(kib):
        raise DataError(f"non-finite memory value: {text!r}")
    return int(round(kib)), per
