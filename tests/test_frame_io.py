"""Tests for Frame CSV and binary ``.npf`` I/O."""

import numpy as np
import pytest

from repro._util.errors import DataError
from repro.frame import (
    Frame,
    iter_table,
    read_csv,
    read_npf,
    read_table,
    sniff_npf,
    write_csv,
    write_npf,
)


@pytest.fixture
def frame():
    return Frame({
        "JobID": [101, 102],
        "User": ["ada", "bob"],
        "Elapsed": ["01:00:00", "2-00:00:00"],
        "NNodes": [8.0, 9408.0],
    })


class TestCsv:
    def test_round_trip(self, tmp_path, frame):
        path = tmp_path / "out.csv"
        write_csv(frame, path)
        back = read_csv(path)
        assert back.columns == frame.columns
        assert back["User"].tolist() == ["ada", "bob"]
        assert back["JobID"].tolist() == [101, 102]

    def test_float_integral_written_as_int(self, tmp_path, frame):
        path = tmp_path / "out.csv"
        write_csv(frame, path)
        text = path.read_text()
        assert "9408" in text and "9408.0" not in text

    def test_infer_false_keeps_strings(self, tmp_path, frame):
        path = tmp_path / "out.csv"
        write_csv(frame, path)
        back = read_csv(path, infer=False)
        assert back["JobID"].dtype == object

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            read_csv(path)

    def test_float_column_with_blank_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y\n1.5,a\n,b\n")
        f = read_csv(path)
        assert np.isnan(f["x"][1])

    def test_underscored_ids_stay_strings(self, tmp_path):
        # int("400596_400604") parses via PEP 515 separators; Slurm array
        # JobIDs must not be mangled into integers
        path = tmp_path / "a.csv"
        path.write_text("JobID\n400596_400604\n400700\n")
        f = read_csv(path)
        assert f["JobID"].dtype == object
        assert f["JobID"][0] == "400596_400604"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x\n1\n\n2\n")
        f = read_csv(path)
        assert f["x"].tolist() == [1, 2]

    def test_makedirs(self, tmp_path, frame):
        path = tmp_path / "deep" / "dir" / "out.csv"
        write_csv(frame, path)
        assert path.exists()


class TestNpf:
    def test_round_trip_numeric_dtypes(self, tmp_path):
        f = Frame({
            "i64": np.array([-5, 0, 2**40], dtype=np.int64),
            "i32": np.array([1, 2, 3], dtype=np.int32),
            "u8": np.array([0, 128, 255], dtype=np.uint8),
            "f64": np.array([1.5, -0.25, 1e300]),
            "f32": np.array([1.5, 2.5, 3.5], dtype=np.float32),
            "b": np.array([True, False, True]),
        })
        path = tmp_path / "t.npf"
        write_npf(f, path)
        g = read_npf(path)
        assert g == f
        for c in f.columns:
            assert g[c].dtype == f[c].dtype, c

    def test_round_trip_object_values(self, tmp_path):
        f = Frame({"v": np.array(
            [None, "text", 42, 2.75, True, False, "", "with,comma"],
            dtype=object)})
        path = tmp_path / "o.npf"
        write_npf(f, path)
        back = read_npf(path)["v"].tolist()
        assert back == [None, "text", 42, 2.75, True, False, "",
                        "with,comma"]
        # exact types survive, not just equal-ish values
        assert [type(v) for v in back[1:6]] == [str, int, float, bool, bool]

    def test_round_trip_unicode(self, tmp_path):
        f = Frame({"s": ["naïve", "日本語", "🙂"]})
        path = tmp_path / "u.npf"
        write_npf(f, path)
        assert read_npf(path)["s"].tolist() == ["naïve", "日本語", "🙂"]

    def test_nan_preserved(self, tmp_path):
        f = Frame({"x": np.array([1.0, np.nan, 3.0])})
        path = tmp_path / "n.npf"
        write_npf(f, path)
        g = read_npf(path)
        assert np.isnan(g["x"][1]) and g == f

    def test_empty_frame(self, tmp_path):
        f = Frame({"a": np.array([], dtype=np.int64),
                   "b": np.array([], dtype=object)})
        path = tmp_path / "e.npf"
        write_npf(f, path)
        g = read_npf(path)
        assert len(g) == 0
        assert g.columns == ["a", "b"]

    def test_mmap_matches_copy(self, tmp_path, frame):
        path = tmp_path / "m.npf"
        write_npf(frame, path)
        assert read_npf(path, mmap=True) == read_npf(path)

    def test_copy_mode_is_writable(self, tmp_path):
        path = tmp_path / "w.npf"
        write_npf(Frame({"x": np.array([1, 2, 3])}), path)
        g = read_npf(path)
        g["x"][0] = 99          # must not raise (materialized buffer)
        assert g["x"][0] == 99

    def test_sniff_meta_and_columns(self, tmp_path, frame):
        path = tmp_path / "s.npf"
        write_npf(frame, path, meta={"source": "x.csv"})
        head = sniff_npf(path)
        assert head["nrows"] == 2
        assert head["meta"] == {"source": "x.csv"}
        assert [c["name"] for c in head["columns"]] == frame.columns

    def test_unsupported_object_type_rejected(self, tmp_path):
        col = np.empty(1, dtype=object)
        col[0] = ["a", "list"]
        f = Frame({"v": col})
        with pytest.raises(DataError, match="object columns"):
            write_npf(f, tmp_path / "bad.npf")

    def test_not_npf_rejected(self, tmp_path):
        path = tmp_path / "x.npf"
        path.write_bytes(b"definitely not npf")
        with pytest.raises(DataError, match="not an npf file"):
            read_npf(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.npf"
        path.write_bytes(b"NPF1" + (1000).to_bytes(4, "little") + b"{}")
        with pytest.raises(DataError, match="truncated"):
            read_npf(path)

    def test_payload_buffers_aligned(self, tmp_path, frame):
        path = tmp_path / "a.npf"
        write_npf(frame, path)
        head = sniff_npf(path)
        for desc in head["columns"]:
            for key in ("data", "tags", "offsets"):
                if key in desc:
                    assert desc[key][0] % 64 == 0


class TestCrossFormat:
    """The format-negotiation contract: the npf twin of a CSV is
    indistinguishable from parsing the CSV."""

    def _twin_equal(self, tmp_path, frame):
        csv_path = tmp_path / "t.csv"
        npf_path = tmp_path / "t.npf"
        write_csv(frame, csv_path)
        parsed = read_csv(csv_path)
        write_npf(parsed, npf_path)
        assert read_npf(npf_path) == parsed
        return parsed

    def test_csv_equivalence_mixed(self, tmp_path, frame):
        self._twin_equal(tmp_path, frame)

    def test_csv_equivalence_nan(self, tmp_path):
        self._twin_equal(tmp_path, Frame({"x": np.array([1.0, np.nan]),
                                          "s": ["a", "b"]}))

    def test_csv_equivalence_array_jobids(self, tmp_path):
        # underscored Slurm array IDs stay strings through both formats
        parsed = self._twin_equal(
            tmp_path, Frame({"JobID": ["400596_400604", "400700"]}))
        assert parsed["JobID"].dtype == object

    def test_read_table_dispatches(self, tmp_path, frame):
        csv_path, npf_path = tmp_path / "t.csv", tmp_path / "t.npf"
        write_csv(frame, csv_path)
        write_npf(read_csv(csv_path), npf_path)
        assert read_table(csv_path) == read_table(npf_path)

    def test_read_table_rejects_other_extensions(self, tmp_path):
        """Only ``.csv`` and ``.npf`` are tables; sacct pipe text goes
        through the Curate stage, not a Frame reader."""
        path = tmp_path / "t.txt"
        path.write_text("JobID|User\n1|ada\n")
        with pytest.raises(DataError, match="want .csv or .npf"):
            read_table(path)
        with pytest.raises(DataError, match="want .csv or .npf"):
            list(iter_table(path))
