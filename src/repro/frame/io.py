"""Frame I/O: CSV text and binary columnar ``.npf``.

The paper's *Curate Data* stage "reformats the dataset from pipe-separated
text to CSV for compatibility with Python-based analysis libraries"; the
CSV reader infers column dtypes by attempting an integer parse, then a
float parse, then falling back to strings — matching what the analytics
layer expects from sacct fields.  Inference always sees the whole file,
so one table has one dtype per column however it is read.

The second format, ``.npf`` ("numpy frame"), is the hot-path companion:
a binary columnar layout whose numeric columns are raw little-endian
numpy buffers, 64-byte aligned so readers can map them straight off disk
(``read_npf(..., mmap=True)``) with no parsing or dtype inference.

``.npf`` on-disk layout (version 1)::

    bytes 0..3    magic  b"NPF1"
    bytes 4..7    uint32 LE header length H
    bytes 8..8+H  UTF-8 JSON header
    ...padding to the next 64-byte boundary...
    payload       concatenated 64-byte-aligned buffers

The header carries ``nrows``, a free-form ``meta`` dict (the artifact
store records the source CSV's SHA-256 there), and one entry per column.
Numeric columns store ``{"dtype", "data": [offset, nbytes]}`` with
offsets relative to the payload base.  Object columns store three
buffers: ``tags`` (uint8 per value: 0=None 1=str 2=int 3=float 4=bool),
``offsets`` (int64, n+1 cumulative byte offsets), and ``data`` (the
concatenated UTF-8 text of each value).

Version 2 is the *appendable* variant used by the paper-scale sharded
pipeline (:class:`NpfAppender`).  The front header is a fixed-width
stub ``{"version": 2, "footer": [offset, length]}``; column buffers are
written as independent 64-byte-aligned **row groups** at the end of the
file, and the full header (per-group column descriptors with absolute
file offsets) lives in a JSON *footer* whose location is patched into
the stub on close.  Appending a row group is therefore O(group), never
a rewrite of existing payload, and reopening an appendable file just
truncates the footer and continues.

Readers see one shape: a version-1 file is a single row group at its
payload base.  Every header field, span and value offset is checked
against the file before it is used, so a corrupt file raises
:class:`~repro._util.errors.DataError` and nothing else.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from typing import Sequence

import numpy as np

from repro._util.errors import DataError
from repro.frame.frame import Frame, concat

__all__ = ["read_csv", "parse_csv_cells", "write_csv", "read_npf",
           "write_npf", "sniff_npf", "read_table", "iter_npf", "iter_table",
           "NpfAppender"]


def _infer_column(values: list[str]) -> np.ndarray:
    """Infer the tightest dtype for a list of raw strings.

    Python's int()/float() accept underscore digit separators
    ("400596_400604" parses!), which would silently mangle Slurm array
    JobIDs — underscores force a string column.
    """
    if any("_" in v for v in values):
        return np.array(values, dtype=object)
    try:
        return np.array([int(v) for v in values], dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    try:
        return np.array([float(v) if v != "" else np.nan for v in values])
    except ValueError:
        pass
    return np.array(values, dtype=object)


def _build_frame(header: Sequence[str], rows: list[list[str]],
                 infer: bool) -> Frame:
    if not header:
        raise DataError("no header row")
    ncols = len(header)
    rows = [row for row in rows if row]  # blank lines are skipped, as pandas does
    for ln, row in enumerate(rows, start=2):
        if len(row) != ncols:
            raise DataError(
                f"row at line {ln} has {len(row)} fields, header has {ncols}")
    cols: dict[str, np.ndarray] = {}
    for i, name in enumerate(header):
        raw = [row[i] for row in rows]
        cols[name] = _infer_column(raw) if infer else np.array(raw, dtype=object)
    frame = Frame(cols)
    return frame


def read_csv(path: str | os.PathLike, infer: bool = True) -> Frame:
    """Read a CSV file into a Frame.

    ``infer=False`` keeps every column as strings (useful when downstream
    code parses Slurm-formatted values itself).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}") from None
        rows = list(reader)
    return _build_frame(header, rows, infer)


def parse_csv_cells(header: Sequence[str], rows: list[list[str]]) -> Frame:
    """The Frame :func:`read_csv` returns for a CSV holding exactly
    these cells: the same blank-row rule, arity check and dtype
    inference, without the text.  A writer that keeps the cells it
    wrote builds the parse result of its file from them."""
    return _build_frame(header, rows, infer=True)


def write_csv(frame: Frame, path: str | os.PathLike) -> None:
    """Write a Frame to CSV (UTF-8, header row first)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(frame.columns)
        cols = [frame[c] for c in frame.columns]
        for i in range(len(frame)):
            writer.writerow([_cell(c[i]) for c in cols])


def _cell(value) -> str:
    if isinstance(value, float):
        if value != value:          # NaN: blank cell, read back as nan
            return ""
        if abs(value) < 2**53 and value == int(value):
            return str(int(value))
    return "" if value is None else str(value)


_NPF_MAGIC = b"NPF1"
_NPF_ALIGN = 64
_TAG_NONE, _TAG_STR, _TAG_INT, _TAG_FLOAT, _TAG_BOOL = 0, 1, 2, 3, 4


def _align_up(n: int) -> int:
    return (n + _NPF_ALIGN - 1) // _NPF_ALIGN * _NPF_ALIGN


def _encode_object_column(col: np.ndarray
                          ) -> tuple[bytes, bytes, bytes]:
    """(tags, offsets, data) buffers for an object column."""
    n = len(col)
    tags = np.zeros(n, dtype=np.uint8)
    offsets = np.zeros(n + 1, dtype="<i8")
    chunks: list[bytes] = []
    total = 0
    for i, value in enumerate(col):
        if value is None:
            tag, raw = _TAG_NONE, b""
        elif isinstance(value, str):
            tag, raw = _TAG_STR, value.encode("utf-8")
        elif isinstance(value, (bool, np.bool_)):
            tag, raw = _TAG_BOOL, (b"1" if value else b"0")
        elif isinstance(value, (int, np.integer)):
            tag, raw = _TAG_INT, str(int(value)).encode("ascii")
        elif isinstance(value, (float, np.floating)):
            tag, raw = _TAG_FLOAT, repr(float(value)).encode("ascii")
        else:
            raise DataError(
                f"npf object columns hold None/str/int/float/bool; "
                f"got {type(value).__name__} at row {i}")
        tags[i] = tag
        chunks.append(raw)
        total += len(raw)
        offsets[i + 1] = total
    return tags.tobytes(), offsets.tobytes(), b"".join(chunks)


def _decode_object_column(tags: np.ndarray, offsets: np.ndarray,
                          data: bytes) -> np.ndarray:
    n = len(tags)
    if n and (tags == _TAG_STR).all():
        # all-string columns (User, State, ...) are the overwhelmingly
        # common case: decode the buffer once and slice the text — for
        # ASCII, byte offsets and character offsets coincide
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            pass
        else:
            offs = offsets.tolist()
            out = np.empty(n, dtype=object)
            out[:] = [text[a:b] for a, b in zip(offs, offs[1:])]
            return out
    out = np.empty(len(tags), dtype=object)
    for i, tag in enumerate(tags):
        raw = data[offsets[i]:offsets[i + 1]]
        try:
            if tag == _TAG_NONE:
                out[i] = None
            elif tag == _TAG_STR:
                out[i] = raw.decode("utf-8")
            elif tag == _TAG_INT:
                out[i] = int(raw)
            elif tag == _TAG_FLOAT:
                out[i] = float(raw)
            elif tag == _TAG_BOOL:
                out[i] = raw == b"1"
            else:
                raise DataError(f"npf: unknown value tag {tag} at row {i}")
        except ValueError as exc:   # bad UTF-8 or number text
            raise DataError(f"npf: corrupt value at row {i}: {exc}") \
                from None
    return out


def write_npf(frame: Frame, path: str | os.PathLike,
              meta: dict | None = None) -> None:
    """Write a Frame as binary columnar ``.npf``.

    ``meta`` is stored verbatim in the header (must be JSON-encodable);
    the artifact store uses it to tie a ``.npf`` twin to its source CSV
    by content hash.
    """
    buffers, columns, _ = _encode_columns(frame, 0)
    header = json.dumps({"version": 1, "nrows": len(frame),
                         "meta": meta or {}, "columns": columns},
                        separators=(",", ":")).encode("utf-8")
    base = _align_up(8 + len(header))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_NPF_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(b"\0" * (base - 8 - len(header)))
        for buf in buffers:
            fh.write(buf)


#: fixed front-header width for appendable (version 2) files — wide
#: enough for ``{"version": 2, "footer": [off, len]}`` at any offset,
#: so finalizing can patch the stub in place without moving payload
_NPF_V2_FRONT = 56

#: dtype kinds a numeric column may hold (bool, int, uint, float, complex)
_NPF_NUMERIC_KINDS = "biufc"


def _npf_json(fh, offset: int, length: int, size: int, what: str) -> dict:
    """The JSON object stored at ``[offset, offset + length)``."""
    if offset + length > size:
        raise DataError(f"npf: truncated {what}")
    fh.seek(offset)
    try:
        value = json.loads(fh.read(length).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise DataError(f"npf: corrupt {what}: {exc}") from None
    if not isinstance(value, dict):
        raise DataError(f"npf: {what} is not a JSON object")
    return value


def _npf_front(fh) -> tuple[dict, int, int]:
    """(front header dict, its JSON length, file size) from an open
    binary file."""
    size = os.fstat(fh.fileno()).st_size
    fh.seek(0)
    head = fh.read(8)
    if len(head) < 8 or head[:4] != _NPF_MAGIC:
        raise DataError(f"not an npf file: {getattr(fh, 'name', fh)!r}")
    hlen = struct.unpack("<I", head[4:8])[0]
    return _npf_json(fh, 8, hlen, size, "header"), hlen, size


def _field(obj, key: str, kind: type):
    """``obj[key]``, required to be a ``kind`` (never a bool; ints are
    non-negative)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if (not isinstance(value, kind) or isinstance(value, bool)
            or (kind is int and value < 0)):
        raise DataError(f"npf: field {key!r} missing or not a "
                        f"{kind.__name__}")
    return value


def _is_span(value) -> bool:
    """Whether ``value`` is an ``[offset, nbytes]`` pair."""
    return (isinstance(value, list) and len(value) == 2
            and all(type(v) is int and v >= 0 for v in value))


def _span(desc: dict, key: str, limit: int) -> int:
    """Byte length of the span ``desc[key]``, which must lie within
    ``limit`` bytes."""
    span = desc.get(key)
    if not _is_span(span):
        raise DataError(f"npf: column {desc['name']!r} has a bad "
                        f"{key} span {span!r}")
    if span[0] + span[1] > limit:
        raise DataError(f"npf: column {desc['name']!r} {key} runs past "
                        f"the end of the file")
    return span[1]


def _check_group(group: dict, limit: int, names: list[str]) -> None:
    """Validate one row group's descriptors against the ``limit`` bytes
    its spans may address."""
    nrows = _field(group, "nrows", int)
    descs = _field(group, "columns", list)
    if [_field(d, "name", str) for d in descs] != names:
        raise DataError("npf: a row group's columns differ from the "
                        "header's")
    if nrows and not descs:
        raise DataError("npf: rows without columns")
    for desc in descs:
        kind = desc.get("kind")
        if kind == "numeric":
            try:
                dt = np.dtype(_field(desc, "dtype", str))
            except (TypeError, ValueError):
                dt = None
            if dt is None or dt.kind not in _NPF_NUMERIC_KINDS:
                raise DataError(f"npf: column {desc['name']!r} has bad "
                                f"dtype {desc['dtype']!r}")
            count = _span(desc, "data", limit) // dt.itemsize
        elif kind == "object":
            _span(desc, "data", limit)
            count = _span(desc, "tags", limit)
            if _span(desc, "offsets", limit) != 8 * (count + 1):
                raise DataError(f"npf: column {desc['name']!r} has "
                                f"{count} tags but a different number "
                                f"of offsets")
        else:
            raise DataError(f"npf: unknown column kind {kind!r}")
        if count != nrows:
            raise DataError(
                f"npf: column {desc['name']!r} has {count} rows, "
                f"group says {nrows}")


def _npf_header(fh) -> tuple[dict, list[tuple[int, dict]]]:
    """(full header dict, row groups) from an open binary file, every
    field and span checked against the file's size.

    Each row group is ``(base, group)``: the group's ``nrows`` and
    column descriptors, whose spans are relative to ``base``.  A
    version-1 file is one group at its payload base; a version-2 footer
    lists its groups with absolute spans (base 0).
    """
    front, hlen, size = _npf_front(fh)
    version = front.get("version")
    if version == 1:
        header = front
        groups = [(_align_up(8 + hlen), front)]
    elif version == 2:
        span = front.get("footer")
        if not span:
            raise DataError(
                "npf v2: no footer — the appender was never closed")
        if not _is_span(span):
            raise DataError(f"npf v2: bad footer span {span!r}")
        header = _npf_json(fh, span[0], span[1], size, "footer")
        groups = [(0, g) for g in _field(header, "row_groups", list)]
    else:
        raise DataError(f"npf: unsupported version {version}")
    _field(header, "meta", dict)
    names = [_field(c, "name", str)
             for c in _field(header, "columns", list)]
    nrows = _field(header, "nrows", int)
    for base, group in groups:
        _check_group(group, size - base, names)
    held = sum(group["nrows"] for _, group in groups)
    if held != nrows:
        raise DataError(
            f"npf: row groups hold {held} rows, header says {nrows}")
    return header, groups


def sniff_npf(path: str | os.PathLike) -> dict:
    """Return the ``.npf`` header (nrows, meta, column descriptors)
    without touching the payload."""
    with open(path, "rb") as fh:
        header, _ = _npf_header(fh)
    return header


def _decode_rows(payload, base: int, group: dict, a: int, b: int,
                 copy: bool) -> Frame:
    """Rows ``[a, b)`` of one checked row group.  ``copy`` gives numeric
    columns their own memory instead of views over ``payload``."""
    cols: dict[str, np.ndarray] = {}
    for desc in group["columns"]:
        if desc["kind"] == "numeric":
            dt = np.dtype(desc["dtype"])
            col = np.frombuffer(payload, dtype=dt, count=b - a,
                                offset=base + desc["data"][0]
                                + a * dt.itemsize)
            cols[desc["name"]] = np.array(col) if copy else col
            continue
        tags = np.frombuffer(payload, dtype=np.uint8, count=b - a,
                             offset=base + desc["tags"][0] + a)
        offs = np.frombuffer(payload, dtype="<i8", count=b - a + 1,
                             offset=base + desc["offsets"][0] + 8 * a)
        lo, hi = int(offs[0]), int(offs[-1])
        if lo < 0 or hi > desc["data"][1] or (np.diff(offs) < 0).any():
            raise DataError(f"npf: column {desc['name']!r} has corrupt "
                            f"value offsets")
        start = base + desc["data"][0]
        data = bytes(memoryview(payload)[start + lo:start + hi])
        cols[desc["name"]] = _decode_object_column(tags, offs - lo, data)
    return Frame(cols)


def read_npf(path: str | os.PathLike, mmap: bool = False) -> Frame:
    """Read an ``.npf`` file into a Frame.

    With ``mmap=True`` numeric columns are zero-copy read-only views
    over a memory map (cheapest possible reload; fine for analytics,
    which never mutates columns in place).  The default materializes
    writable arrays.
    """
    with open(path, "rb") as fh:
        header, groups = _npf_header(fh)
        if mmap:
            payload: np.ndarray | bytearray = np.memmap(
                path, dtype=np.uint8, mode="r")
        else:
            fh.seek(0)
            payload = bytearray(fh.read())
    frames = [_decode_rows(payload, base, group, 0, group["nrows"], False)
              for base, group in groups]
    if not frames:                      # a version-2 file with no groups
        return Frame({c["name"]: np.array([], dtype=object)
                      for c in header["columns"]})
    return frames[0] if len(frames) == 1 else concat(frames)


def _table_ext(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext not in (".csv", ".npf"):
        raise DataError(f"not a table (want .csv or .npf): {path}")
    return ext


def read_table(path: str | os.PathLike) -> Frame:
    """Read a tabular artifact, dispatching on its extension: ``.npf``
    binary or ``.csv`` text."""
    p = os.fspath(path)
    return read_npf(p) if _table_ext(p) == ".npf" else read_csv(p)


# -- streaming iteration and appendable output ----------------------------------

#: default streaming granularity: large enough to amortize per-chunk
#: overhead, small enough that a chunk of a 60-column table stays well
#: under 100 MB
DEFAULT_CHUNK_ROWS = 65_536


def _encode_columns(frame: Frame, start: int
                    ) -> tuple[list[bytes], list[dict], int]:
    """(buffers, descriptors, end offset) for one frame's columns,
    with buffer spans absolute from ``start`` and 64-byte aligned."""
    buffers: list[bytes] = []
    offset = start

    def add(buf: bytes) -> list[int]:
        nonlocal offset
        begin = offset
        buffers.append(buf)
        pad = _align_up(len(buf)) - len(buf)
        if pad:
            buffers.append(b"\0" * pad)
        offset = begin + _align_up(len(buf))
        return [begin, len(buf)]

    columns = []
    for name in frame.columns:
        col = frame[name]
        if col.dtype == object:
            tags, offs, data = _encode_object_column(col)
            columns.append({"name": name, "kind": "object",
                            "tags": add(tags), "offsets": add(offs),
                            "data": add(data)})
        else:
            le = col.astype(col.dtype.newbyteorder("<"), copy=False)
            columns.append({"name": name, "kind": "numeric",
                            "dtype": le.dtype.str,
                            "data": add(le.tobytes())})
    return buffers, columns, offset


class NpfAppender:
    """Append row groups to a version-2 ``.npf`` file.

    Shard outputs concatenate through this without a full rewrite:
    each :meth:`append` writes one aligned row group at the end of the
    file, and :meth:`close` writes the JSON footer and patches its
    location into the fixed-width front stub.  Opening a path that
    already holds a finalized v2 file resumes appending (the footer is
    truncated and rewritten on the next close) — that is what lets a
    later shard extend a spool an earlier shard started.

    Usable as a context manager; the file is finalized on exit.
    """

    def __init__(self, path: str | os.PathLike,
                 meta: dict | None = None) -> None:
        self.path = os.fspath(path)
        self.meta = dict(meta or {})
        self._names: list[str] | None = None
        self._groups: list[dict] = []
        self._nrows = 0
        self._closed = False
        if os.path.exists(self.path) and os.path.getsize(self.path):
            self._resume(meta)
        else:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            self._fh = open(self.path, "wb")
            self._fh.write(self._stub(None))
            self._end = _align_up(8 + _NPF_V2_FRONT)

    @staticmethod
    def _stub(footer_span: list[int] | None) -> bytes:
        text = json.dumps({"version": 2, "footer": footer_span},
                          separators=(",", ":"))
        if len(text) > _NPF_V2_FRONT:
            raise DataError("npf v2: footer span overflows the front stub")
        return (_NPF_MAGIC + struct.pack("<I", _NPF_V2_FRONT)
                + text.ljust(_NPF_V2_FRONT).encode("ascii"))

    def _resume(self, meta: dict | None) -> None:
        self._fh = open(self.path, "r+b")
        front, _, _ = _npf_front(self._fh)
        if front.get("version") != 2:
            raise DataError(
                f"cannot append to non-appendable npf {self.path!r} "
                f"(version {front.get('version')})")
        if not front.get("footer"):
            raise DataError(
                f"npf v2 {self.path!r} was never finalized; refusing "
                f"to resume an interrupted append")
        footer, _ = _npf_header(self._fh)
        self._groups = list(footer["row_groups"])
        self._nrows = footer["nrows"]
        if self._groups:
            self._names = [c["name"]
                           for c in self._groups[0]["columns"]]
        merged = dict(footer["meta"])
        merged.update(meta or {})
        self.meta = merged
        self._end = front["footer"][0]
        self._fh.truncate(self._end)

    @property
    def nrows(self) -> int:
        return self._nrows

    def append(self, frame: Frame) -> None:
        """Write one row group (no-op for an empty frame)."""
        if self._closed:
            raise DataError("npf appender is closed")
        if not len(frame):
            return
        names = list(frame.columns)
        if self._names is None:
            self._names = names
        elif names != self._names:
            raise DataError(
                f"npf append: columns {names} do not match the file's "
                f"{self._names}")
        buffers, columns, end = _encode_columns(frame, self._end)
        self._fh.seek(self._end)
        for buf in buffers:
            self._fh.write(buf)
        self._groups.append({"nrows": len(frame), "columns": columns})
        self._nrows += len(frame)
        self._end = end

    def _summary_columns(self) -> list[dict]:
        """Unified per-column summary for ``sniff_npf``:
        numeric when every group stored the column numerically (with the
        promoted dtype), object otherwise."""
        out = []
        for i, name in enumerate(self._names or []):
            descs = [g["columns"][i] for g in self._groups]
            if all(d["kind"] == "numeric" for d in descs):
                dtype = np.result_type(*[np.dtype(d["dtype"])
                                         for d in descs]).str
                out.append({"name": name, "kind": "numeric",
                            "dtype": dtype})
            else:
                out.append({"name": name, "kind": "object"})
        return out

    def close(self) -> None:
        """Write the footer and patch the front stub (idempotent)."""
        if self._closed:
            return
        footer = json.dumps(
            {"version": 2, "nrows": self._nrows, "meta": self.meta,
             "columns": self._summary_columns(),
             "row_groups": self._groups},
            separators=(",", ":")).encode("utf-8")
        self._fh.seek(self._end)
        self._fh.write(footer)
        self._fh.seek(8)
        self._fh.write(self._stub([self._end, len(footer)])[8:])
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "NpfAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_npf(path: str | os.PathLike, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Yield a ``.npf`` file as Frames of at most ``chunk_rows`` rows.

    Every row group is sliced chunk by chunk straight out of a memory
    map — a chunk touches only its own byte ranges, so peak memory is
    O(chunk), not O(file).  Yielded chunks own their data (safe to keep
    after the iterator advances).
    """
    if chunk_rows <= 0:
        raise DataError(f"chunk_rows must be positive, got {chunk_rows}")
    with open(path, "rb") as fh:
        _, groups = _npf_header(fh)
    mm = np.memmap(path, dtype=np.uint8, mode="r")
    for base, group in groups:
        n = group["nrows"]
        for a in range(0, n, chunk_rows):
            yield _decode_rows(mm, base, group, a, min(a + chunk_rows, n),
                               True)


def iter_table(path: str | os.PathLike,
               chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Chunked :func:`read_table`: yield Frames of at most
    ``chunk_rows`` rows whose concatenation is ``read_table(path)``.

    A ``.npf`` streams through :func:`iter_npf`; a ``.csv`` is parsed
    whole first (dtype inference sees the whole file) and sliced.
    """
    if chunk_rows <= 0:
        raise DataError(f"chunk_rows must be positive, got {chunk_rows}")
    p = os.fspath(path)
    if _table_ext(p) == ".npf":
        yield from iter_npf(p, chunk_rows)
        return
    frame = read_csv(p)
    for a in range(0, len(frame), chunk_rows):
        yield Frame({c: frame[c][a:a + chunk_rows] for c in frame.columns})
