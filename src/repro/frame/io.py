"""Frame I/O: CSV, Slurm pipe-separated text, and binary columnar ``.npf``.

The paper's *Curate Data* stage "reformats the dataset from pipe-separated
text to CSV for compatibility with Python-based analysis libraries"; both
text shapes are supported here.  Readers infer column dtypes by attempting
an integer parse, then a float parse, then falling back to strings —
matching what the analytics layer expects from sacct fields.

The third format, ``.npf`` ("numpy frame"), is the hot-path companion:
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
truncates the footer and continues.  ``read_npf`` / ``iter_npf`` /
``sniff_npf`` accept both versions transparently.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from typing import Sequence

import numpy as np

from repro._util.errors import DataError
from repro.frame.frame import Frame, concat

__all__ = ["read_csv", "parse_csv_cells", "write_csv", "read_pipe",
           "write_pipe", "read_npf", "write_npf", "sniff_npf", "read_table",
           "sniff_columns", "iter_npf", "iter_csv", "iter_table",
           "NpfAppender", "concat_npf"]


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


def read_pipe(path: str | os.PathLike, infer: bool = False,
              strict: bool = True) -> Frame:
    """Read sacct-style pipe-separated text.

    sacct ``-P`` output is ``|``-separated with a header line.  With
    ``strict=False`` malformed rows (wrong field count) are silently
    dropped — the curation stage counts them itself before calling this.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"empty pipe file: {path}")
    header = lines[0].split("|")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        fields = line.split("|")
        if len(fields) != len(header):
            if strict:
                raise DataError(
                    f"{path}: line {ln} has {len(fields)} fields, "
                    f"expected {len(header)}")
            continue
        rows.append(fields)
    return _build_frame(header, rows, infer)


def write_pipe(frame: Frame, path: str | os.PathLike) -> None:
    """Write a Frame as sacct-style pipe-separated text."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    buf = io.StringIO()
    buf.write("|".join(frame.columns) + "\n")
    cols = [frame[c] for c in frame.columns]
    for i in range(len(frame)):
        cells = [_cell(c[i]) for c in cols]
        for cell in cells:
            if "|" in cell or "\n" in cell:
                raise DataError(
                    f"value {cell!r} cannot be represented in pipe format")
        buf.write("|".join(cells) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


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


def _npf_front(fh) -> tuple[dict, int]:
    """(front header dict, its JSON length) from an open binary file."""
    head = fh.read(8)
    if len(head) < 8 or head[:4] != _NPF_MAGIC:
        raise DataError(f"not an npf file: {getattr(fh, 'name', fh)!r}")
    hlen = struct.unpack("<I", head[4:8])[0]
    raw = fh.read(hlen)
    if len(raw) != hlen:
        raise DataError("npf: truncated header")
    return json.loads(raw.decode("utf-8")), hlen


def _npf_header(fh) -> tuple[dict, int]:
    """(full header dict, payload base offset) from an open binary file.

    Version 1 returns the front header itself; version 2 follows the
    front stub to the footer (its column offsets are absolute, so the
    payload base is 0).
    """
    front, hlen = _npf_front(fh)
    version = front.get("version")
    if version == 1:
        return front, _align_up(8 + hlen)
    if version == 2:
        span = front.get("footer")
        if not span:
            raise DataError(
                "npf v2: no footer — the appender was never closed")
        fh.seek(span[0])
        raw = fh.read(span[1])
        if len(raw) != span[1]:
            raise DataError("npf: truncated footer")
        return json.loads(raw.decode("utf-8")), 0
    raise DataError(f"npf: unsupported version {version}")


def sniff_npf(path: str | os.PathLike) -> dict:
    """Return the ``.npf`` header (nrows, meta, column descriptors)
    without touching the payload."""
    with open(path, "rb") as fh:
        header, _ = _npf_header(fh)
    return header


def read_npf(path: str | os.PathLike, mmap: bool = False) -> Frame:
    """Read an ``.npf`` file into a Frame.

    With ``mmap=True`` numeric columns are zero-copy read-only views
    over a memory map (cheapest possible reload; fine for analytics,
    which never mutates columns in place).  The default materializes
    writable arrays.
    """
    with open(path, "rb") as fh:
        header, base = _npf_header(fh)
        if mmap:
            payload: np.ndarray | bytearray = np.memmap(
                path, dtype=np.uint8, mode="r", offset=base)
        else:
            fh.seek(base)
            payload = bytearray(fh.read())

    if "row_groups" in header:      # version 2: decode and stack groups
        frames = [Frame(_decode_columns(payload, g["columns"], g["nrows"]))
                  for g in header["row_groups"]]
        frame = concat(frames) if frames else Frame(
            {c["name"]: np.array([], dtype=object)
             for c in header.get("columns", [])})
        if len(frame) != header["nrows"]:
            raise DataError(
                f"npf: row groups hold {len(frame)} rows, "
                f"footer says {header['nrows']}")
        return frame

    n = header["nrows"]
    cols = _decode_columns(payload, header["columns"], n)
    frame = Frame(cols)
    if not cols and n:
        raise DataError("npf: rows without columns")
    return frame


def _decode_columns(payload, descriptors: list[dict],
                    nrows: int) -> dict[str, np.ndarray]:
    """Decode column descriptors against a payload buffer."""

    def arr(span: list[int], dtype) -> np.ndarray:
        off, nbytes = span
        dt = np.dtype(dtype)
        return np.frombuffer(payload, dtype=dt,
                             count=nbytes // dt.itemsize, offset=off)

    def raw(span: list[int]) -> bytes:
        off, nbytes = span
        return bytes(memoryview(payload)[off:off + nbytes])

    cols: dict[str, np.ndarray] = {}
    for desc in descriptors:
        if desc["kind"] == "numeric":
            col = arr(desc["data"], desc["dtype"])
        elif desc["kind"] == "object":
            col = _decode_object_column(arr(desc["tags"], np.uint8),
                                        arr(desc["offsets"], "<i8"),
                                        raw(desc["data"]))
        else:
            raise DataError(f"npf: unknown column kind {desc['kind']!r}")
        if len(col) != nrows:
            raise DataError(
                f"npf: column {desc['name']!r} has {len(col)} rows, "
                f"group says {nrows}")
        cols[desc["name"]] = col
    return cols


def read_table(path: str | os.PathLike, infer: bool = True) -> Frame:
    """Read a tabular artifact, dispatching on its extension:
    ``.npf`` binary, ``.csv`` text, anything else sacct pipe text."""
    p = os.fspath(path)
    ext = os.path.splitext(p)[1].lower()
    if ext == ".npf":
        return read_npf(p)
    if ext == ".csv":
        return read_csv(p, infer=infer)
    return read_pipe(p, infer=infer, strict=False)


def sniff_columns(path: str | os.PathLike) -> list[str]:
    """Return the header columns of a CSV, pipe, or npf file without
    loading it."""
    with open(path, "rb") as bfh:
        if bfh.read(4) == _NPF_MAGIC:
            return [c["name"] for c in sniff_npf(path)["columns"]]
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if not first:
        raise DataError(f"empty file: {path}")
    if "|" in first:
        return first.split("|")
    return next(csv.reader([first]))


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
        front, _ = _npf_front(self._fh)
        if front.get("version") != 2:
            raise DataError(
                f"cannot append to non-appendable npf {self.path!r} "
                f"(version {front.get('version')})")
        span = front.get("footer")
        if not span:
            raise DataError(
                f"npf v2 {self.path!r} was never finalized; refusing "
                f"to resume an interrupted append")
        self._fh.seek(span[0])
        footer = json.loads(self._fh.read(span[1]).decode("utf-8"))
        self._groups = list(footer["row_groups"])
        self._nrows = footer["nrows"]
        if self._groups:
            self._names = [c["name"]
                           for c in self._groups[0]["columns"]]
        merged = dict(footer.get("meta", {}))
        merged.update(meta or {})
        self.meta = merged
        self._fh.truncate(span[0])
        self._end = span[0]

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
        """Unified per-column summary for ``sniff_npf``/``sniff_columns``:
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

    Version-1 files are sliced straight out of a memory map — a chunk
    touches only its own byte ranges, so peak memory is O(chunk), not
    O(file).  Version-2 files decode one row group at a time.  Yielded
    chunks own their data (safe to keep after the iterator advances).
    """
    if chunk_rows <= 0:
        raise DataError(f"chunk_rows must be positive, got {chunk_rows}")
    with open(path, "rb") as fh:
        header, base = _npf_header(fh)
    if not header["nrows"]:
        return
    mm = np.memmap(path, dtype=np.uint8, mode="r")

    if "row_groups" in header:          # version 2: group at a time
        for group in header["row_groups"]:
            cols = _decode_columns(mm, group["columns"], group["nrows"])
            for a in range(0, group["nrows"], chunk_rows):
                b = min(a + chunk_rows, group["nrows"])
                yield Frame({k: v[a:b] for k, v in cols.items()})
        return

    n = header["nrows"]
    for a in range(0, n, chunk_rows):
        b = min(a + chunk_rows, n)
        cols: dict[str, np.ndarray] = {}
        for desc in header["columns"]:
            if desc["kind"] == "numeric":
                dt = np.dtype(desc["dtype"])
                off = base + desc["data"][0] + a * dt.itemsize
                cols[desc["name"]] = np.array(np.frombuffer(
                    mm, dtype=dt, count=b - a, offset=off))
            else:
                tags = np.frombuffer(mm, dtype=np.uint8, count=b - a,
                                     offset=base + desc["tags"][0] + a)
                offs = np.frombuffer(
                    mm, dtype="<i8", count=b - a + 1,
                    offset=base + desc["offsets"][0] + a * 8)
                dbase = base + desc["data"][0]
                data = bytes(memoryview(mm)[dbase + int(offs[0]):
                                            dbase + int(offs[-1])])
                cols[desc["name"]] = _decode_object_column(
                    tags, offs - offs[0], data)
        yield Frame(cols)


def _iter_rows(header: list[str], row_iter, chunk_rows: int, infer: bool):
    chunk: list[list[str]] = []
    for row in row_iter:
        chunk.append(row)
        if len(chunk) >= chunk_rows:
            yield _build_frame(header, chunk, infer)
            chunk = []
    if chunk:
        yield _build_frame(header, chunk, infer)


def iter_csv(path: str | os.PathLike, chunk_rows: int = DEFAULT_CHUNK_ROWS,
             infer: bool = True):
    """Yield a CSV as Frames of at most ``chunk_rows`` rows.

    Dtype inference runs **per chunk** — a column that is all-integer in
    one chunk and mixed in another comes back with differing dtypes
    across chunks.  Decomposable aggregation (``stream_group_agg``) is
    insensitive to this; callers that need whole-file inference should
    materialize via :func:`read_csv` instead.
    """
    if chunk_rows <= 0:
        raise DataError(f"chunk_rows must be positive, got {chunk_rows}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}") from None
        yield from _iter_rows(header, reader, chunk_rows, infer)


def iter_table(path: str | os.PathLike, chunk_rows: int = DEFAULT_CHUNK_ROWS,
               infer: bool = True):
    """Chunked counterpart of :func:`read_table`: yield Frames of at
    most ``chunk_rows`` rows, dispatching on extension (``.npf`` binary,
    ``.csv`` text, anything else sacct pipe text)."""
    p = os.fspath(path)
    ext = os.path.splitext(p)[1].lower()
    if ext == ".npf":
        yield from iter_npf(p, chunk_rows)
        return
    if ext == ".csv":
        yield from iter_csv(p, chunk_rows, infer=infer)
        return
    with open(p, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"empty pipe file: {p}")
        header = first.rstrip("\n").split("|")
        rows = (fields for line in fh
                if line.strip()
                and len(fields := line.rstrip("\n").split("|"))
                == len(header))
        yield from _iter_rows(header, rows, chunk_rows, infer)


def concat_npf(paths: Sequence[str | os.PathLike],
               out_path: str | os.PathLike,
               meta: dict | None = None,
               chunk_rows: int = DEFAULT_CHUNK_ROWS) -> int:
    """Concatenate tabular files into one appendable ``.npf``.

    Streams ``chunk_rows`` at a time through :func:`iter_table` into an
    :class:`NpfAppender`, so merging a year of shard outputs never
    materializes more than one chunk.  Returns the total row count.
    """
    with NpfAppender(out_path, meta=meta) as app:
        for path in paths:
            for chunk in iter_table(path, chunk_rows):
                app.append(chunk)
        return app.nrows
