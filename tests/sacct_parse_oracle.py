"""The per-cell sacct parse: reference for the shipped row parser.

:func:`repro.slurm.parse.record_from_row` zips a row's cells with
converters resolved once per header (:func:`column_converters`), and
:func:`repro._util.timefmt.parse_timestamp` builds canonical timestamps
without ``strptime``.  This module keeps the loop they replace, so tests
can hold the shipped parse to its values:

- :func:`oracle_parse_timestamp` parses every timestamp with
  ``datetime.strptime``;
- :func:`oracle_record_from_row` looks each cell's field up in
  ``FIELDS_BY_NAME`` and converts it by kind, timestamps through
  :func:`oracle_parse_timestamp`.

The other kinds use the shipped per-kind converters: those are the
conversions themselves, not the lookup or the timestamp shortcut.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Sequence

from repro._util.errors import DataError
from repro._util.timefmt import UNKNOWN_TIME
from repro.slurm.fields import FIELDS_BY_NAME
from repro.slurm.parse import _PARSERS


def oracle_parse_timestamp(text: str) -> int:
    """Slurm timestamp text to epoch seconds (UTC), all via strptime."""
    text = text.strip()
    if text in ("", "Unknown", "None", "N/A"):
        return UNKNOWN_TIME
    try:
        dt = _dt.datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    except ValueError as exc:
        raise DataError(f"bad timestamp: {text!r}") from exc
    return int(dt.replace(tzinfo=_dt.timezone.utc).timestamp())


def oracle_parse_sacct_value(field_name: str, text: str) -> Any:
    """One cell, its converter looked up from the field name."""
    spec = FIELDS_BY_NAME.get(field_name)
    if spec is None:
        raise DataError(f"unknown sacct field {field_name!r}")
    if spec.kind == "timestamp":
        return oracle_parse_timestamp(text)
    return _PARSERS[spec.kind](text)


def oracle_record_from_row(names: Sequence[str], cells: Sequence[str],
                           converters=None) -> dict[str, Any]:
    """One row, cell by cell; ``converters`` is accepted and ignored,
    so this can stand in for the shipped function in any caller."""
    if len(names) != len(cells):
        raise DataError(
            f"row has {len(cells)} cells for {len(names)} fields")
    out: dict[str, Any] = {}
    for name, cell in zip(names, cells):
        out[name] = oracle_parse_sacct_value(name, cell)
    return out
