"""One table reader: every way of loading a curated table returns the
Frame ``read_csv`` (or ``read_npf``) returns.

A table is stored four ways — a CSV with the ``.npf`` twin
``CuratedCsvWriter`` builds, the same CSV without a twin, a version-1
``.npf`` and a version-2 ``.npf`` split into row groups — and read
through every loader: ``read_table_fast``, ``ArtifactStore.load_frame``,
``load_jobs`` and the chunked ``iter_table`` / ``iter_npf``.  Dtype
inference always sees the whole CSV, so a column whose first rows are
empty reads the same however the table is chunked.
"""

import csv
import os
import shutil

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analytics import load_jobs
from repro.frame import (
    Frame,
    NpfAppender,
    concat,
    iter_npf,
    iter_table,
    read_csv,
    read_npf,
    write_npf,
)
from repro.pipeline.curate import CuratedCsvWriter
from repro.store import ArtifactStore, read_table_fast


def same_frame(a: Frame, b: Frame) -> bool:
    """Frame equality plus equal dtypes (``==`` alone lets an int
    column equal a float one holding the same values)."""
    return a == b and all(a[c].dtype == b[c].dtype for c in a.columns)


def test_load_jobs_infers_over_the_whole_file(tmp_path):
    """A twin-less jobs CSV whose ``Dependency`` is empty in the first
    65,536 rows: the empty cells stay ``''`` in every loader."""
    path = str(tmp_path / "2024-01-jobs.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["JobID", "Dependency"])
        for i in range(70_000):
            dep = f"afterok:{i - 1}" if i >= 65_536 else ""
            writer.writerow([400_000 + i, dep])
    whole = read_table_fast(path)
    assert whole["Dependency"][0] == ""
    assert same_frame(load_jobs(path), whole)


_INT = st.integers(-10**6, 10**6).map(str)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False,
                   width=32).map(repr)
_TEXT = st.text(alphabet="ab_ ,\"x1", min_size=1, max_size=5)
_CELL = {"I": st.one_of(_INT, st.just("")),
         "F": st.one_of(_FLOAT, _INT, st.just("")),
         "T": st.one_of(_TEXT, _INT, st.just(""))}


@st.composite
def tables(draw):
    """Cell rows over columns I (ints), F (floats), T (text), each with
    empty cells, and L: empty before row ``k``, then ints or text."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n))
    late = draw(st.sampled_from([_INT, _TEXT]))
    rows = []
    for i in range(n):
        row = {c: draw(cell) for c, cell in _CELL.items()}
        row["L"] = draw(late) if i >= k else ""
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=tables(), data=st.data())
def test_every_loader_returns_the_parse(tmp_path_factory, rows, data):
    root = str(tmp_path_factory.mktemp("tables"))
    store = ArtifactStore(root)
    art = store.declare("t-jobs", "csv", schema=["I", "F", "T", "L"])
    with CuratedCsvWriter(art) as writer:
        writer.write_rows(rows)
    plain = os.path.join(root, "plain.csv")
    shutil.copyfile(art.path, plain)
    ref = read_csv(plain)

    v1 = os.path.join(root, "v1.npf")
    write_npf(ref, v1)
    v2 = os.path.join(root, "v2.npf")
    cuts = sorted(data.draw(st.lists(st.integers(1, len(ref)),
                                     max_size=3), label="cuts"))
    with NpfAppender(v2) as app:
        for a, b in zip([0] + cuts, cuts + [len(ref)]):
            app.append(Frame({c: ref[c][a:b] for c in ref.columns}))
    assert same_frame(read_npf(v1), ref)
    assert same_frame(read_npf(v2), ref)

    chunk = data.draw(st.integers(1, len(ref) + 2), label="chunk_rows")
    for path in (art.path, plain, v1, v2):
        assert same_frame(read_table_fast(path), ref), path
        assert same_frame(store.load_frame(path), ref), path
        assert same_frame(load_jobs(path), ref), path
        assert same_frame(concat(list(iter_table(path, chunk_rows=chunk))),
                          ref), path
    for path in (art.with_fmt("npf").path, v1, v2):
        chunks = list(iter_npf(path, chunk_rows=chunk))
        assert max(len(c) for c in chunks) <= chunk
        assert same_frame(concat(chunks), ref), path


def test_iter_table_chunks_carry_whole_file_dtypes(tmp_path):
    """Chunk dtypes come from the whole file, not from the chunk."""
    path = str(tmp_path / "t.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b\n" + "1,\n" * 5 + "2,x\n")
    chunks = list(iter_table(path, chunk_rows=2))
    assert [len(c) for c in chunks] == [2, 2, 2]
    assert all(c["b"].dtype == object for c in chunks)
    assert np.concatenate([c["b"] for c in chunks]).tolist() == \
        [""] * 5 + ["x"]
