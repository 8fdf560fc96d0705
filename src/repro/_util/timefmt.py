"""Slurm-style time parsing and formatting.

Slurm's accounting output uses two textual time shapes that this package
must both emit (from the simulator's sacct emitter) and parse (in the
curation stage):

- durations: ``[DD-]HH:MM:SS`` (e.g. ``02:13:07``, ``1-00:00:00``), with
  ``UNLIMITED``/``Partition_Limit`` sentinels appearing in ``Timelimit``;
- timestamps: ISO-like ``YYYY-MM-DDTHH:MM:SS`` with the sentinels
  ``Unknown`` and ``None``.

Timestamps in the shape the emitter prints take a lock-free fast path
(:func:`parse_timestamp`); ``tests/sacct_parse_oracle.py`` keeps the
slow parse it bypasses as the reference.

Internally everything is integer seconds (durations) or integer epoch
seconds UTC (timestamps): the analytics layer is vectorized numpy over
those integers.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import re
from typing import Iterator

from repro._util.errors import DataError

__all__ = [
    "format_slurm_duration",
    "parse_slurm_duration",
    "format_timestamp",
    "parse_timestamp",
    "month_bounds",
    "iter_months",
    "UNKNOWN_TIME",
]

#: Sentinel used for unknown timestamps (Slurm prints ``Unknown``).
UNKNOWN_TIME = -1

_UTC = _dt.timezone.utc


def format_slurm_duration(seconds: int) -> str:
    """Format integer seconds as Slurm ``[DD-]HH:MM:SS``.

    >>> format_slurm_duration(3661)
    '01:01:01'
    >>> format_slurm_duration(90000)
    '1-01:00:00'
    """
    if seconds < 0:
        raise DataError(f"negative duration: {seconds}")
    seconds = int(seconds)
    days, rem = divmod(seconds, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    if days:
        return f"{days}-{hours:02d}:{minutes:02d}:{secs:02d}"
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


def parse_slurm_duration(text: str) -> int:
    """Parse Slurm duration text to integer seconds.

    Accepts ``SS``, ``MM:SS``, ``HH:MM:SS``, ``DD-HH:MM:SS`` and fractional
    seconds (truncated).  Sentinels ``UNLIMITED`` and ``Partition_Limit``
    map to -1.

    >>> parse_slurm_duration("1-01:00:00")
    90000
    """
    text = text.strip()
    if not text:
        raise DataError("empty duration")
    if text in ("UNLIMITED", "Partition_Limit", "INVALID"):
        return -1
    days = 0
    if "-" in text:
        day_part, text = text.split("-", 1)
        try:
            days = int(day_part)
        except ValueError as exc:
            raise DataError(f"bad day count in duration: {day_part!r}") from exc
        if days < 0:
            raise DataError(f"negative day count in duration: {days}")
    # Strip fractional seconds (sacct prints e.g. 00:00:01.123 for steps).
    if "." in text:
        text = text.split(".", 1)[0]
    parts = text.split(":")
    if len(parts) > 3:
        raise DataError(f"too many ':' in duration: {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise DataError(f"non-numeric duration component in {text!r}") from exc
    if any(n < 0 for n in nums):
        raise DataError(f"negative component in duration {text!r}")
    while len(nums) < 3:
        nums.insert(0, 0)
    hours, minutes, secs = nums
    return days * 86400 + hours * 3600 + minutes * 60 + secs


def format_timestamp(epoch: int) -> str:
    """Format epoch seconds (UTC) as Slurm ``YYYY-MM-DDTHH:MM:SS``.

    ``UNKNOWN_TIME`` formats as ``Unknown`` (e.g. StartTime of a job that
    never started).
    """
    if epoch == UNKNOWN_TIME:
        return "Unknown"
    if epoch < 0:
        raise DataError(f"negative epoch: {epoch}")
    dt = _dt.datetime.fromtimestamp(int(epoch), tz=_UTC)
    return dt.strftime("%Y-%m-%dT%H:%M:%S")


#: the shape :func:`format_timestamp` prints, ASCII digits only
_CANONICAL = re.compile(
    r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)", re.ASCII).fullmatch


def parse_timestamp(text: str) -> int:
    """Parse Slurm timestamp text to epoch seconds (UTC).

    Sentinels ``Unknown``/``None``/``N/A``/empty map to ``UNKNOWN_TIME``.

    The canonical ASCII shape ``YYYY-MM-DDTHH:MM:SS`` (all the emitter
    prints) is built straight into a ``datetime``, whose range checks
    are ``strptime``'s for that shape.  Any other text (a lowercase
    ``t``, single-digit or non-ASCII digits) goes to
    ``datetime.strptime``, so the accepted set and the values are
    unchanged.  The split matters under threads: CPython's
    ``_strptime`` takes a module-wide lock and reads the locale on
    every call, so parallel Curate tasks parsing through it queue
    behind each other.

    >>> parse_timestamp("2024-03-01T00:00:00")
    1709251200
    """
    text = text.strip()
    if text in ("", "Unknown", "None", "N/A"):
        return UNKNOWN_TIME
    try:
        match = _CANONICAL(text)
        if match is not None:
            dt = _dt.datetime(*map(int, match.groups()), tzinfo=_UTC)
        else:
            dt = _dt.datetime.strptime(
                text, "%Y-%m-%dT%H:%M:%S").replace(tzinfo=_UTC)
    except ValueError as exc:
        raise DataError(f"bad timestamp: {text!r}") from exc
    return int(dt.timestamp())


def month_bounds(month: str) -> tuple[int, int]:
    """Return ``(start_epoch, end_epoch)`` UTC for a ``YYYY-MM`` month.

    The end bound is exclusive (first second of the next month).
    """
    try:
        year_s, month_s = month.split("-")
        if len(year_s) != 4 or len(month_s) != 2:
            raise ValueError
        year, mon = int(year_s), int(month_s)
        if not 1 <= mon <= 12:
            raise ValueError
    except ValueError as exc:
        raise DataError(f"bad month spec {month!r}, want YYYY-MM") from exc
    start = _dt.datetime(year, mon, 1, tzinfo=_UTC)
    ndays = calendar.monthrange(year, mon)[1]
    end = start + _dt.timedelta(days=ndays)
    return int(start.timestamp()), int(end.timestamp())


def iter_months(start: str, end: str) -> Iterator[str]:
    """Yield ``YYYY-MM`` strings from ``start`` through ``end`` inclusive.

    >>> list(iter_months("2023-11", "2024-02"))
    ['2023-11', '2023-12', '2024-01', '2024-02']
    """
    s0, _ = month_bounds(start)  # validates
    e0, _ = month_bounds(end)
    if e0 < s0:
        raise DataError(f"month range end {end!r} precedes start {start!r}")
    year, mon = (int(p) for p in start.split("-"))
    while True:
        cur = f"{year:04d}-{mon:02d}"
        yield cur
        if cur == end:
            return
        mon += 1
        if mon == 13:
            mon = 1
            year += 1
