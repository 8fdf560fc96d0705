"""Corrupt ``.npf`` files raise ``DataError`` and nothing else.

``.npf`` files reach the server through run ingest, and a curated CSV's
twin is read before the CSV, so the binary readers sit on a trust
boundary.  Bounded hypothesis fuzzing flips bytes in (or truncates) a
version-1 file and a two-group version-2 file, then reads each copy
with ``read_npf``, ``iter_npf`` and ``sniff_npf``: each returns or
raises :class:`DataError`.  A corrupt twin therefore falls back to its
CSV.  A payload flip that still decodes reads as different data; the
twin records its CSV's hash, not its own, so that case is out of reach.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro._util.errors import DataError
from repro.frame import (
    Frame,
    NpfAppender,
    iter_npf,
    read_csv,
    read_npf,
    sniff_npf,
    write_npf,
)
from repro.pipeline.curate import CuratedCsvWriter
from repro.store import ArtifactStore, read_table_fast, resolve_table_path


def table(n: int, seed: int) -> Frame:
    rng = np.random.default_rng(seed)
    mixed = np.empty(n, dtype=object)
    mixed[:] = [None if i % 5 == 0 else (i if i % 2 else f"s{i}")
                for i in range(n)]
    return Frame({
        "JobID": np.arange(1000, 1000 + n, dtype=np.int64),
        "User": np.array([f"u{i % 7}" for i in range(n)], dtype=object),
        "Wait": np.round(rng.random(n) * 100, 3),
        "Comment": np.array(["" if i % 3 else f"c{i}" for i in range(n)],
                            dtype=object),
        "Mixed": mixed,
    })


@pytest.fixture(scope="module")
def npf_files(tmp_path_factory):
    """{version: file bytes} for a 200-row v1 file and a v2 file of two
    row groups."""
    root = tmp_path_factory.mktemp("npf")
    v1, v2 = str(root / "v1.npf"), str(root / "v2.npf")
    write_npf(table(200, 1), v1, meta={"source_sha256": "0" * 64})
    with NpfAppender(v2, meta={"origin": "fuzz"}) as app:
        app.append(table(120, 2))
        app.append(table(80, 3))
    return {1: open(v1, "rb").read(), 2: open(v2, "rb").read()}


def _flips(limit):
    return st.lists(st.tuples(st.integers(0, limit - 1),
                              st.integers(0, 7)), min_size=1, max_size=8)


@st.composite
def corruptions(draw, size):
    """Byte flips in the first 300 bytes or anywhere, or a truncation."""
    kind = draw(st.sampled_from(["head", "anywhere", "truncate"]))
    if kind == "truncate":
        return ("truncate", draw(st.integers(0, size - 1)))
    return ("flip", draw(_flips(min(300, size) if kind == "head" else size)))


def corrupt(blob: bytes, how) -> bytes:
    kind, arg = how
    if kind == "truncate":
        return blob[:arg]
    out = bytearray(blob)
    for at, bit in arg:
        out[at] ^= 1 << bit
    return bytes(out)


@pytest.mark.parametrize("version", [1, 2])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_npf_raises_only_data_error(tmp_path, npf_files, version,
                                            data):
    blob = npf_files[version]
    path = str(tmp_path / "c.npf")
    with open(path, "wb") as fh:
        fh.write(corrupt(blob, data.draw(corruptions(len(blob)))))
    readers = {"read_npf": lambda: read_npf(path),
               "read_npf(mmap)": lambda: read_npf(path, mmap=True),
               "iter_npf": lambda: list(iter_npf(path, chunk_rows=64)),
               "sniff_npf": lambda: sniff_npf(path)}
    for name, read in readers.items():
        try:
            got = read()
        except DataError:
            continue
        if name == "sniff_npf":
            assert isinstance(got, dict), name
        else:
            assert all(isinstance(f, Frame) for f in
                       (got if isinstance(got, list) else [got])), name


def test_header_length_past_the_file_reads_nothing(tmp_path):
    """A flipped length byte must not become a 4 GiB read."""
    path = tmp_path / "big.npf"
    path.write_bytes(b"NPF1" + struct.pack("<I", 0xFFFF_FFF0) + b"{}")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated header"):
            sniff_npf(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def _curated(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = store.declare("2024-01-jobs", "csv",
                        schema=["JobID", "User", "Comment"])
    with CuratedCsvWriter(art) as writer:
        writer.write_rows({"JobID": 100 + i, "User": f"u{i % 3}",
                           "Comment": "" if i % 2 else f"c{i}"}
                          for i in range(6))
    return art.path, art.with_fmt("npf").path


def test_flipped_twin_header_byte_falls_back_to_csv(tmp_path):
    """Any one byte of the twin's JSON header with its top bit flipped
    (invalid UTF-8) sends the read to the CSV."""
    csv_path, twin = _curated(tmp_path)
    assert resolve_table_path(csv_path) == twin
    want = read_csv(csv_path)
    blob = open(twin, "rb").read()
    hlen = struct.unpack("<I", blob[4:8])[0]
    for at in range(8, 8 + hlen):
        with open(twin, "wb") as fh:
            fh.write(blob[:at] + bytes([blob[at] ^ 0x80]) + blob[at + 1:])
        assert read_table_fast(csv_path) == want, at


def test_corrupt_twin_payload_falls_back_to_csv(tmp_path):
    """A twin whose header still checks out but whose payload is
    corrupt is chosen by negotiation; both loaders then read the CSV,
    and the store memo keys the frame by the CSV."""
    csv_path, twin = _curated(tmp_path)
    blob = bytearray(open(twin, "rb").read())
    hlen = struct.unpack("<I", blob[4:8])[0]
    base = (8 + hlen + 63) // 64 * 64
    user = next(c for c in sniff_npf(twin)["columns"]
                if c["name"] == "User")
    blob[base + user["offsets"][0] + 8 + 7] ^= 0x80   # offset 1 < 0
    with open(twin, "wb") as fh:
        fh.write(blob)
    assert resolve_table_path(csv_path) == twin
    with pytest.raises(DataError, match="corrupt value offsets"):
        read_npf(twin)
    want = read_csv(csv_path)
    assert read_table_fast(csv_path) == want
    store = ArtifactStore(str(tmp_path))
    assert store.load_frame(csv_path) == want
    assert store.load_frame(csv_path) is store.load_frame(csv_path)
    assert [key[0] for key in store._frames] == [csv_path]
