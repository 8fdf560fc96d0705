"""Tests for SWF import/export."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import DataError
from repro.analytics import nodes_vs_elapsed, states_per_user, wait_times, walltime_accuracy
from repro.interop import read_swf, swf_to_frame, write_swf
from repro.interop.swf import SWF_COLUMNS
from repro.pipeline import JOB_CSV_COLUMNS
from repro.sched import simulate_month


@pytest.fixture(scope="module")
def sim_jobs():
    return simulate_month("testsys", "2024-01", seed=5,
                          rate_scale=0.05).jobs


class TestWrite:
    def test_write_and_structure(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        n = write_swf(sim_jobs, path, cpus_per_node=8)
        assert n == len(sim_jobs)
        lines = open(path).read().splitlines()
        header = [l for l in lines if l.startswith(";")]
        data = [l for l in lines if not l.startswith(";")]
        assert any("UnixStartTime" in h for h in header)
        assert len(data) == n
        assert all(len(l.split()) == 18 for l in data)

    def test_relative_submit_times(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        origin, frame = read_swf(path)
        assert origin == min(j.submit for j in sim_jobs)
        assert frame["submit"].min() == 0

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_swf([], str(tmp_path / "x.swf"), cpus_per_node=8)


class TestRead:
    def test_round_trip_core_fields(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        _, frame = read_swf(path)
        started = [j for j in sim_jobs if j.elapsed > 0]
        runtimes = frame["runtime"][frame["runtime"] >= 0]
        assert len(runtimes) == len(started)
        np.testing.assert_array_equal(
            np.sort(runtimes), np.sort([j.elapsed for j in started]))

    def test_malformed_arity(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text("1 2 3\n")
        with pytest.raises(DataError, match="18 fields"):
            read_swf(str(path))

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text(" ".join(["x"] * 18) + "\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_swf(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.swf"
        path.write_text("; only comments\n")
        with pytest.raises(DataError, match="no data rows"):
            read_swf(str(path))

    def test_bad_unixstarttime(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text("; UnixStartTime: soon\n")
        with pytest.raises(DataError, match="UnixStartTime"):
            read_swf(str(path))

    def test_missing_unixstarttime_anchors_on_first_submit(
            self, tmp_path):
        """Some archive conversions drop the header; the reader must
        anchor on the earliest submit and warn instead of crashing."""
        row = "1 {s} 10 60 4 -1 -1 4 600 -1 1 1 1 -1 1 1 -1 -1"
        path = tmp_path / "headerless.swf"
        path.write_text("; Computer: archive\n" +
                        row.format(s=500) + "\n" + row.format(s=300) + "\n")
        with pytest.warns(UserWarning, match="no UnixStartTime"):
            origin, frame = read_swf(str(path))
        assert origin == 300
        assert len(frame) == 2

    def test_max_rows_caps_the_read(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        _, frame = read_swf(path, max_rows=3)
        assert len(frame) == 3

    def test_max_rows_beyond_data_is_harmless(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        _, frame = read_swf(path, max_rows=10 ** 9)
        assert len(frame) == len(sim_jobs)

    def test_max_rows_below_one_rejected(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        with pytest.raises(DataError, match="max_rows"):
            read_swf(path, max_rows=0)

    def test_max_rows_skips_parsing_excess_rows(self, tmp_path):
        """Rows past the cap are never parsed — a malformed tail cannot
        fail a prefix-limited read of a huge archive trace."""
        good = "1 0 10 60 4 -1 -1 4 600 -1 1 1 1 -1 1 1 -1 -1\n"
        path = tmp_path / "tail.swf"
        path.write_text("; UnixStartTime: 1000\n" + good + "this is junk\n")
        _, frame = read_swf(str(path), max_rows=1)
        assert len(frame) == 1


class TestSwfToFrame:
    def test_schema_matches_curated(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        frame = swf_to_frame(path, cpus_per_node=8)
        assert frame.columns == JOB_CSV_COLUMNS
        assert len(frame) == len(sim_jobs)

    def test_full_round_trip_preserves_analytics(self, tmp_path, sim_jobs):
        """Export then import: the headline figure statistics survive."""
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        frame = swf_to_frame(path, cpus_per_node=8)

        ran = [j for j in sim_jobs if j.elapsed > 0]
        scale = nodes_vs_elapsed(frame)
        assert scale.median_elapsed_s == pytest.approx(
            float(np.median([j.elapsed for j in ran])))
        bf = walltime_accuracy(frame)
        truth = np.median([j.elapsed / j.timelimit_s for j in ran])
        assert bf.median_ratio_all == pytest.approx(truth, rel=0.05)

    def test_analytics_run_on_external_style_trace(self, tmp_path):
        """A hand-written archive-style SWF runs the whole stack."""
        lines = ["; UnixStartTime: 1700000000"]
        rng = np.random.default_rng(0)
        for i in range(1, 201):
            submit = i * 300
            wait = int(rng.integers(0, 4000))
            run = int(rng.integers(60, 20_000))
            procs = int(rng.choice([16, 32, 64, 128]))
            status = int(rng.choice([1, 1, 1, 0, 5]))
            req = run * int(rng.integers(1, 5))
            lines.append(
                f"{i} {submit} {wait} {run} {procs} -1 -1 {procs} "
                f"{req} -1 {status} {1 + i % 17} {1 + i % 5} -1 1 1 -1 -1")
        path = tmp_path / "archive.swf"
        path.write_text("\n".join(lines) + "\n")
        frame = swf_to_frame(str(path), cpus_per_node=16)
        assert len(frame) == 200
        waits = wait_times(frame)
        states = states_per_user(frame)
        bf = walltime_accuracy(frame)
        assert set(waits.by_state) <= {"COMPLETED", "FAILED", "CANCELLED"}
        assert states.overall_failure_rate > 0
        assert 0 < bf.median_ratio_all < 1

    def test_max_rows_passthrough(self, tmp_path, sim_jobs):
        path = str(tmp_path / "trace.swf")
        write_swf(sim_jobs, path, cpus_per_node=8)
        frame = swf_to_frame(path, cpus_per_node=8, max_rows=5)
        assert len(frame) == 5

    def test_never_started_jobs_have_unknown_start(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("; UnixStartTime: 1000\n"
                        "1 0 500 -1 -1 -1 -1 4 600 -1 5 1 1 -1 1 1 -1 -1\n")
        frame = swf_to_frame(str(path), cpus_per_node=4)
        assert frame["StartTime"][0] == -1
        assert frame["State"][0] == "CANCELLED"
        assert frame["WaitS"][0] == 500


# -- malformed input: DataError and nothing else --------------------------------

_ROW = "1 0 10 60 4 -1 -1 4 600 -1 1 1 1 -1 1 1 -1 -1"
#: a valid three-row trace the fuzz mutates
_TRACE = ("; Computer: fuzz\n; UnixStartTime: 1704067200\n" +
          "".join(_ROW.replace("1 0 10", f"{i} {60 * i} 10", 1) + "\n"
                  for i in range(1, 4))).encode()
_TOKENS = st.sampled_from([
    b"0", b"-1", b"60", b"1.5", b"1e3", b"inf", b"-inf", b"nan", b"1e400",
    str(2**70).encode(), str(-2**70).encode(), b"9223372036854775807",
    b"x", b";", b"UnixStartTime:", b"\xff", b"\xc3", b"\x00", b"\t"])
_LINES = st.lists(_TOKENS, max_size=20).map(b" ".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("swf-fuzz"))


def _read_only_data_errors(fuzz_dir, blob: bytes) -> None:
    """Both readers on ``blob``: a frame of int64 columns, or DataError."""
    path = os.path.join(fuzz_dir, "fuzz.swf")
    with open(path, "wb") as fh:
        fh.write(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # a dropped UnixStartTime
        try:
            origin, frame = read_swf(path)
        except DataError:
            return
        swf_to_frame(path, cpus_per_node=4)
    assert isinstance(origin, int) and len(frame) > 0
    assert all(frame[c].dtype == np.int64 for c in SWF_COLUMNS)


class TestMalformedInput:
    @pytest.mark.parametrize("field", [
        "inf", "-inf", "nan", "1e400", str(2**70), str(-2**70), "6\xff0"])
    def test_bad_field_names_its_line(self, tmp_path, field):
        path = tmp_path / "bad.swf"
        bad = _ROW.replace("600", field)
        path.write_bytes(("; UnixStartTime: 0\n" + _ROW + "\n" + bad +
                          "\n").encode("latin-1"))
        with pytest.raises(DataError, match=f"{path}:3: "):
            read_swf(str(path))

    def test_out_of_range_start_time_rejected(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text(f"; UnixStartTime: {2**70}\n{_ROW}\n")
        with pytest.raises(DataError, match=f"{path}:1: bad UnixStartTime"):
            read_swf(str(path))

    def test_undecodable_comment_is_ignored(self, tmp_path):
        """Unknown header lines are skipped, whatever their bytes."""
        path = tmp_path / "latin1.swf"
        path.write_bytes(b"; Computer: Universit\xe4t\n"
                         b"; UnixStartTime: 5\n" + _ROW.encode() + b"\n")
        origin, frame = read_swf(str(path))
        assert (origin, len(frame)) == (5, 1)

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.tuples(st.integers(0, 6), _LINES),
                          max_size=4))
    def test_random_lines(self, fuzz_dir, lines):
        out = _TRACE.split(b"\n")
        for at, line in lines:
            out.insert(min(at, len(out)), line)
        _read_only_data_errors(fuzz_dir, b"\n".join(out))

    @settings(max_examples=150, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(0, len(_TRACE) - 1),
                                    st.integers(1, 255)),
                          min_size=1, max_size=8))
    def test_byte_flips(self, fuzz_dir, flips):
        blob = bytearray(_TRACE)
        for at, mask in flips:
            blob[at] ^= mask
        _read_only_data_errors(fuzz_dir, bytes(blob))

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(0, len(_TRACE)))
    def test_truncations(self, fuzz_dir, cut):
        _read_only_data_errors(fuzz_dir, _TRACE[:cut])
