"""Chunked frame primitives behind the paper-scale pipeline.

Covers the chunked readers (``iter_npf`` / ``iter_table``), the
appendable version-2 ``.npf`` writer the shard spools rely on (fresh
files, resume-after-finalize, schema pinning), and the analytics
loaders.
"""

import numpy as np
import pytest

from repro._util.errors import DataError
from repro.analytics import load_jobs
from repro.frame import (
    Frame,
    NpfAppender,
    concat,
    iter_npf,
    iter_table,
    read_npf,
    write_csv,
    write_npf,
)


def sample(n: int, offset: int = 0) -> Frame:
    rng = np.random.default_rng(17 + offset)
    return Frame({
        "user": np.asarray([f"u{(offset + i) % 7}" for i in range(n)],
                           dtype=object),
        "nodes": rng.integers(1, 100, size=n).astype(np.int64),
        "wait": np.round(rng.random(n), 6),
    })


def columns_equal(a: Frame, b: Frame) -> bool:
    return a.columns == b.columns and all(
        a[c].tolist() == b[c].tolist() for c in a.columns)


class TestIterNpf:
    def test_chunks_cover_file_in_order(self, tmp_path):
        frame = sample(250)
        path = str(tmp_path / "t.npf")
        write_npf(frame, path)
        chunks = list(iter_npf(path, chunk_rows=100))
        assert [len(c) for c in chunks] == [100, 100, 50]
        assert columns_equal(concat(chunks), frame)

    def test_empty_file_yields_nothing(self, tmp_path):
        path = str(tmp_path / "e.npf")
        write_npf(sample(0), path)
        assert list(iter_npf(path)) == []

    def test_bad_chunk_rows(self, tmp_path):
        path = str(tmp_path / "t.npf")
        write_npf(sample(3), path)
        with pytest.raises(DataError):
            list(iter_npf(path, chunk_rows=0))

    def test_chunks_own_their_data(self, tmp_path):
        """A kept chunk must stay valid after the iterator advances
        (and after the mmap would be reclaimed)."""
        frame = sample(40)
        path = str(tmp_path / "t.npf")
        write_npf(frame, path)
        chunks = list(iter_npf(path, chunk_rows=16))
        del frame
        total = sum(int(c["nodes"].sum()) for c in chunks)
        assert total == int(concat(chunks)["nodes"].sum())


class TestIterCsv:
    def test_chunks_cover_file(self, tmp_path):
        frame = sample(120)
        path = str(tmp_path / "t.csv")
        write_csv(frame, path)
        chunks = list(iter_table(path, chunk_rows=50))
        assert [len(c) for c in chunks] == [50, 50, 20]
        assert columns_equal(concat(chunks), frame)

    def test_headerless_file_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            list(iter_table(str(path)))

    def test_iter_table_dispatches_on_extension(self, tmp_path):
        frame = sample(30)
        csv_p, npf_p = str(tmp_path / "t.csv"), str(tmp_path / "t.npf")
        write_csv(frame, csv_p)
        write_npf(frame, npf_p)
        a = concat(list(iter_table(csv_p, chunk_rows=8)))
        b = concat(list(iter_table(npf_p, chunk_rows=8)))
        assert columns_equal(a, b)


class TestNpfAppender:
    def test_fresh_file_round_trip(self, tmp_path):
        path = str(tmp_path / "a.npf")
        with NpfAppender(path, meta={"origin": "test"}) as app:
            app.append(sample(60))
            app.append(sample(40, offset=60))
            assert app.nrows == 100
        whole = read_npf(path)
        assert columns_equal(whole, concat([sample(60),
                                            sample(40, offset=60)]))

    def test_resume_extends_finalized_file(self, tmp_path):
        """The shard-chain contract: a later process reopens the spool
        an earlier one finalized and keeps appending."""
        path = str(tmp_path / "a.npf")
        with NpfAppender(path, meta={"origin": "s0"}) as app:
            app.append(sample(30))
        with NpfAppender(path, meta={"shard": "s1"}) as app:
            assert app.nrows == 30          # prior rows visible
            app.append(sample(20, offset=30))
            assert app.meta == {"origin": "s0", "shard": "s1"}
        whole = read_npf(path)
        assert len(whole) == 50
        assert columns_equal(whole, concat([sample(30),
                                            sample(20, offset=30)]))

    def test_chunked_read_sees_appended_groups(self, tmp_path):
        path = str(tmp_path / "a.npf")
        with NpfAppender(path) as app:
            for k in range(4):
                app.append(sample(25, offset=25 * k))
        chunks = list(iter_npf(path, chunk_rows=10))
        assert sum(len(c) for c in chunks) == 100
        assert max(len(c) for c in chunks) <= 10

    def test_column_mismatch_rejected(self, tmp_path):
        with NpfAppender(str(tmp_path / "a.npf")) as app:
            app.append(sample(5))
            with pytest.raises(DataError):
                app.append(Frame({"other": np.arange(3)}))

    def test_empty_append_is_noop(self, tmp_path):
        path = str(tmp_path / "a.npf")
        with NpfAppender(path) as app:
            app.append(sample(0))
            app.append(sample(5))
            app.append(sample(0))
        assert len(read_npf(path)) == 5

    def test_append_after_close_is_error(self, tmp_path):
        app = NpfAppender(str(tmp_path / "a.npf"))
        app.append(sample(2))
        app.close()
        app.close()                          # idempotent
        with pytest.raises(DataError):
            app.append(sample(2))

    def test_v1_files_are_not_appendable(self, tmp_path):
        path = str(tmp_path / "v1.npf")
        write_npf(sample(5), path)
        with pytest.raises(DataError):
            NpfAppender(path)


class TestAnalyticsLoaders:
    def test_materialize_default_returns_frame(self, tmp_path):
        frame = sample(40)
        path = str(tmp_path / "jobs.csv")
        write_csv(frame, path)
        got = load_jobs(path)
        assert isinstance(got, Frame)
        assert columns_equal(got, frame)

    def test_multiple_paths_concatenate_in_order(self, tmp_path):
        a, b = sample(10), sample(10, offset=10)
        pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_csv(a, pa)
        write_csv(b, pb)
        got = load_jobs([pa, pb])
        assert columns_equal(got, concat([a, b]))

    def test_no_paths_is_error(self):
        with pytest.raises(DataError):
            load_jobs([])
