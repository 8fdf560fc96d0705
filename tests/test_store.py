"""Tests for the typed artifact layer: handles, store, format
negotiation, the in-run frame memo, and hash freshness stamps."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro._util.errors import ConfigError
from repro.frame import Frame, read_csv, write_csv, write_npf
from repro.store import (
    Artifact,
    ArtifactStore,
    file_sha256,
    read_table_fast,
    resolve_table_path,
)


@pytest.fixture
def frame():
    return Frame({"JobID": [1, 2, 3], "User": ["ada", "bob", "cyd"],
                  "WaitS": [10.5, 0.0, 3.25]})


def _write_twin(csv_path) -> str:
    """A hash-valid .npf twin, the way the Curate stage builds one."""
    twin = os.path.splitext(str(csv_path))[0] + ".npf"
    write_npf(read_csv(csv_path), twin,
              meta={"source_sha256": file_sha256(csv_path), "infer": True})
    return twin


class TestArtifact:
    def test_pathlike(self, tmp_path):
        a = Artifact(name="jobs", path=str(tmp_path / "jobs.csv"),
                     fmt="csv")
        assert os.fspath(a) == a.path
        assert not a.exists()
        open(a, "w").close()          # any path consumer takes a handle
        assert a.exists()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact format"):
            Artifact(name="x", path="x.parquet", fmt="parquet")

    def test_with_fmt_swaps_extension(self):
        a = Artifact(name="jobs", path="data/2024-03-jobs.csv", fmt="csv",
                     schema=("JobID",))
        twin = a.with_fmt("npf")
        assert twin.path == "data/2024-03-jobs.npf"
        assert twin.fmt == "npf"
        assert twin.schema == a.schema

    def test_at_infers_format(self):
        assert Artifact.at("data/x.csv").fmt == "csv"
        assert Artifact.at("charts/x.html").fmt == "html"
        assert Artifact.at("cache/x.weird").fmt == "pipe"
        assert Artifact.at("data/x.csv").name == "x"


class TestStoreLayout:
    def test_declare_puts_formats_in_their_directories(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cases = {"pipe": "cache", "csv": "data", "npf": "data",
                 "html": "charts", "png": "png", "md": "llm"}
        for fmt, sub in cases.items():
            a = store.declare("x", fmt)
            assert os.path.dirname(a.path) == os.path.join(store.root, sub)

    def test_declare_subdir_override(self, tmp_path):
        a = ArtifactStore(tmp_path).declare("index", "html",
                                            subdir="dashboard")
        assert a.path.endswith(os.path.join("dashboard", "index.html"))

    def test_declare_is_pure(self, tmp_path):
        ArtifactStore(tmp_path / "never").declare("x", "csv")
        assert not (tmp_path / "never").exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ArtifactStore(tmp_path).dir_for("parquet")


class TestFormatNegotiation:
    def test_valid_twin_served(self, tmp_path, frame):
        csv_path = str(tmp_path / "t.csv")
        write_csv(frame, csv_path)
        twin = _write_twin(csv_path)
        assert resolve_table_path(csv_path) == twin
        assert read_table_fast(csv_path) == read_csv(csv_path)

    def test_stale_twin_falls_back(self, tmp_path, frame):
        csv_path = str(tmp_path / "t.csv")
        write_csv(frame, csv_path)
        _write_twin(csv_path)
        write_csv(Frame({"JobID": [9], "User": ["eve"],
                         "WaitS": [1.0]}), csv_path)   # rewrite: new hash
        assert resolve_table_path(csv_path) == csv_path
        assert read_table_fast(csv_path)["User"].tolist() == ["eve"]

    def test_corrupt_twin_falls_back(self, tmp_path, frame):
        csv_path = str(tmp_path / "t.csv")
        write_csv(frame, csv_path)
        with open(os.path.splitext(csv_path)[0] + ".npf", "wb") as fh:
            fh.write(b"garbage")
        assert resolve_table_path(csv_path) == csv_path

    def test_non_csv_passes_through(self, tmp_path):
        assert resolve_table_path(str(tmp_path / "x.npf")) == \
            str(tmp_path / "x.npf")


class TestFrameMemo:
    def _counting_store(self, tmp_path, monkeypatch, delay=0.0):
        calls = []
        import repro.store.store as store_mod
        real = store_mod.read_table

        def counting(path):
            calls.append(path)
            if delay:
                threading.Event().wait(delay)
            return real(path)

        monkeypatch.setattr(store_mod, "read_table", counting)
        return ArtifactStore(tmp_path), calls

    def test_second_load_is_memoized(self, tmp_path, frame, monkeypatch):
        store, calls = self._counting_store(tmp_path, monkeypatch)
        art = store.declare("t", "csv")
        write_csv(frame, art.path)
        a, b = store.load_frame(art), store.load_frame(art)
        assert a is b
        assert len(calls) == 1

    def test_rewrite_invalidates_memo(self, tmp_path, frame, monkeypatch):
        store, calls = self._counting_store(tmp_path, monkeypatch)
        art = store.declare("t", "csv")
        write_csv(frame, art.path)
        store.load_frame(art)
        write_csv(Frame({"JobID": [7], "User": ["eve"], "WaitS": [0.5]}),
                  art.path)
        assert store.load_frame(art)["User"].tolist() == ["eve"]
        assert len(calls) == 2

    def test_concurrent_loads_share_one_parse(self, tmp_path, frame,
                                              monkeypatch):
        store, calls = self._counting_store(tmp_path, monkeypatch,
                                            delay=0.05)
        art = store.declare("t", "csv")
        write_csv(frame, art.path)
        with ThreadPoolExecutor(max_workers=8) as pool:
            frames = list(pool.map(
                lambda _: store.load_frame(art), range(8)))
        assert len(calls) == 1
        assert all(f is frames[0] for f in frames)

    def test_failed_load_is_retryable(self, tmp_path, frame):
        store = ArtifactStore(tmp_path)
        art = store.declare("t", "csv")
        with pytest.raises(OSError):
            store.load_frame(art)              # file does not exist yet
        write_csv(frame, art.path)
        assert store.load_frame(art) == read_csv(art.path)


class TestFreshnessStamps:
    def _task_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        inp = os.path.join(store.root, "cache", "in.txt")
        out = os.path.join(store.root, "data", "out.csv")
        os.makedirs(os.path.dirname(inp), exist_ok=True)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(inp, "w") as fh:
            fh.write("source v1\n")
        with open(out, "w") as fh:
            fh.write("derived v1\n")
        return store, inp, out

    def test_no_stamp_is_no_verdict(self, tmp_path):
        store, inp, out = self._task_files(tmp_path)
        assert store.task_is_fresh("curate", [inp], [out]) is None

    def test_stamped_task_is_fresh(self, tmp_path):
        store, inp, out = self._task_files(tmp_path)
        store.record_stamp("curate", [inp], [out])
        assert store.task_is_fresh("curate", [inp], [out]) is True

    def test_content_change_beats_mtime_ordering(self, tmp_path):
        """The case mtime comparison cannot catch: the input is
        rewritten, then the output's mtime is bumped past it."""
        store, inp, out = self._task_files(tmp_path)
        store.record_stamp("curate", [inp], [out])
        with open(inp, "w") as fh:
            fh.write("source v2 — different bytes\n")
        later = os.stat(inp).st_mtime + 3600
        os.utime(out, (later, later))          # output "newer" than input
        assert store.task_is_fresh("curate", [inp], [out]) is False

    def test_missing_output_is_stale(self, tmp_path):
        store, inp, out = self._task_files(tmp_path)
        store.record_stamp("curate", [inp], [out])
        os.remove(out)
        assert store.task_is_fresh("curate", [inp], [out]) is False

    def test_changed_declaration_is_no_verdict(self, tmp_path):
        store, inp, out = self._task_files(tmp_path)
        store.record_stamp("curate", [inp], [out])
        assert store.task_is_fresh("curate", [inp, out], [out]) is None

    def test_stamps_persist_across_stores(self, tmp_path):
        store, inp, out = self._task_files(tmp_path)
        store.record_stamp("curate", [inp], [out])
        fresh = ArtifactStore(tmp_path)        # a later run, new process
        assert fresh.task_is_fresh("curate", [inp], [out]) is True

    def test_artifact_handles_accepted(self, tmp_path, frame):
        store = ArtifactStore(tmp_path)
        art = store.declare("t", "csv")
        write_csv(frame, art.path)
        store.record_stamp("curate", [], [art])
        assert store.task_is_fresh("curate", [], [art]) is True


class TestObsCounters:
    def test_load_and_memo_counters(self, tmp_path, frame):
        from repro.obs import RunContext
        ctx = RunContext(root=str(tmp_path))
        store = ArtifactStore(tmp_path, obs=ctx)
        art = store.declare("t", "csv")
        write_csv(frame, art.path)
        store.load_frame(art)
        store.load_frame(art)
        assert ctx.counter("store.loads").value == 1
        assert ctx.counter("store.memo_hits").value == 1
