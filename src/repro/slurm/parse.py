"""Parsing sacct text back into typed values.

The curation stage (:mod:`repro.pipeline.curate`) uses these converters
to normalize raw sacct output: K-suffixed counts become integers,
durations become seconds, timestamps become epoch seconds, and so on —
exactly the "light preprocessing step ... to normalize and clean the
extracted data" from Section 2.

Each field's converter depends only on the field, so a reader resolves
the converters once per header with :func:`column_converters` and hands
them to :func:`record_from_row` for every row under it.  Every converter
raises :class:`DataError`, and nothing else, on text it cannot convert,
so one garbage cell marks its row malformed instead of ending the
curation.  ``tests/sacct_parse_oracle.py`` keeps the per-cell lookup,
with every timestamp through the slow parse, as the reference.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro._util.errors import DataError
from repro._util.sizefmt import parse_count_k, parse_mem
from repro._util.timefmt import parse_slurm_duration, parse_timestamp
from repro.slurm.fields import FIELDS_BY_NAME

__all__ = ["parse_sacct_value", "record_from_row", "column_converters",
           "is_step_jobid"]

Converter = Callable[[str], Any]


def _parse_int(text: str) -> int:
    if not text.strip():
        return 0
    try:
        return int(text)
    except ValueError as exc:
        raise DataError(f"bad integer: {text!r}") from exc


def _parse_float(text: str) -> float:
    if not text.strip():
        return 0.0
    try:
        return float(text)
    except ValueError as exc:
        raise DataError(f"bad float: {text!r}") from exc


def _parse_exitcode(text: str) -> int:
    """Return the exit status portion of ``code:signal``."""
    if not text:
        return 0
    head = text.split(":", 1)[0]
    try:
        return int(head)
    except ValueError as exc:
        raise DataError(f"bad exit code: {text!r}") from exc


def _parse_bytes(text: str) -> int:
    """Byte counts: plain ints, or suffixed KiB values like ``12345K``."""
    text = text.strip()
    if not text:
        return 0
    if text[-1] in ("K", "M", "G", "T"):
        kib, _ = parse_mem(text)
        return kib * 1024
    try:
        return int(float(text))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"bad byte count: {text!r}") from exc


_PARSERS: dict[str, Converter] = {
    "str": lambda t: t,
    "int": _parse_int,
    "float": _parse_float,
    "count": lambda t: parse_count_k(t) if t.strip() else 0,
    "duration": lambda t: parse_slurm_duration(t) if t.strip() else 0,
    "timestamp": parse_timestamp,
    "mem": lambda t: parse_mem(t)[0] if t.strip() else 0,
    "bytes": _parse_bytes,
    "exitcode": _parse_exitcode,
    "tres": lambda t: t,
}


def _unknown_field(name: str) -> Converter:
    def convert(text: str) -> Any:
        raise DataError(f"unknown sacct field {name!r}")
    return convert


def _converter(field_name: str) -> Converter:
    spec = FIELDS_BY_NAME.get(field_name)
    if spec is None:
        return _unknown_field(field_name)
    return _PARSERS[spec.kind]


def column_converters(names: Sequence[str]) -> list[Converter]:
    """One converter per header field, in header order.

    A name outside the field catalog gets a converter that raises
    :class:`DataError`, so every row under such a header is malformed.
    """
    return [_converter(name) for name in names]


def parse_sacct_value(field_name: str, text: str) -> Any:
    """Parse one sacct cell according to its field's kind.

    >>> parse_sacct_value("NNodes", "9.408K")
    9408
    >>> parse_sacct_value("Elapsed", "1-00:00:00")
    86400
    """
    return _converter(field_name)(text)


def is_step_jobid(jobid_text: str) -> bool:
    """True when a JobID cell denotes a job step (``123.0``, ``123.batch``)."""
    return "." in jobid_text


def record_from_row(names: Sequence[str], cells: Sequence[str],
                    converters: Sequence[Converter] | None = None
                    ) -> dict[str, Any]:
    """Parse one sacct row into a dict of typed values.

    ``converters`` is ``column_converters(names)``, resolved once by a
    caller that parses many rows under one header; ``None`` resolves
    them here.  Raises :class:`DataError` on arity mismatch or
    unparseable cells — the curation stage catches this to count/drop
    malformed records.
    """
    if len(names) != len(cells):
        raise DataError(
            f"row has {len(cells)} cells for {len(names)} fields")
    if converters is None:
        converters = column_converters(names)
    return {name: convert(cell)
            for name, convert, cell in zip(names, converters, cells)}
