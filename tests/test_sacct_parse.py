"""The sacct row parser against the per-cell loop it replaced.

:func:`record_from_row` zips each row with converters resolved once per
header, and :func:`parse_timestamp` builds canonical timestamps without
``strptime``.  The reference (``tests/sacct_parse_oracle.py``) looks each
cell's converter up by field name and parses every timestamp with
``strptime``.  Both must agree, value or :class:`DataError`: on
arbitrary timestamp text, and through :class:`CurateStage` on pipe text
with truncated lines, garbage cells and unknown header fields, where
the CSV bytes, the ``.npf`` bytes and the report must be equal.  One
garbage cell or a hostile JobID must cost its row, not the file.
"""

import _strptime
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.errors import DataError
from repro._util.timefmt import parse_timestamp
from repro.pipeline import curate
from repro.pipeline.curate import CurateStage
from repro.sched import simulate_month
from repro.slurm.emit import SacctEmitter
from repro.slurm.fields import FIELDS_BY_NAME
from repro.slurm.parse import column_converters, record_from_row

from tests.sacct_parse_oracle import (oracle_parse_timestamp,
                                      oracle_record_from_row)
from tests.test_curate_typed import _edge_records, _jobs, _read

#: one row per cell that escaped Curate as ValueError or OverflowError
BAD_CELLS = [
    ("Restarts", "x"), ("Priority", "1.5"),
    ("NNodes", "nan"), ("NNodes", "inf"),
    ("NCPUs", "1e400"), ("NCPUs", "inf"),
    ("MaxRSS", "1e400"), ("MaxRSS", "inf"),
    ("AveDiskRead", "1e400"), ("AveDiskRead", "inf"),
    ("ReqMem", "nanM"), ("ReqMem", "infG"),
]

#: timestamp texts on both sides of the canonical fast path
TIMESTAMP_TEXTS = [
    "2024-02-29T00:00:00", "2023-02-29T00:00:00", "2024-02-30T12:00:00",
    "2000-02-29T23:59:59", "1900-02-29T00:00:00", "0000-01-01T00:00:00",
    "0001-01-01T00:00:00", "9999-12-31T23:59:59", "2024-13-01T00:00:00",
    "2024-00-10T00:00:00", "2024-03-00T00:00:00", "2024-03-01T24:00:00",
    "2024-03-01T23:60:00", "2024-03-01T23:59:60", "2024-03-01T23:59:61",
    "2024-03-01t00:00:00", "2024-3-1T0:0:0", " 2024-03-01T00:00:00\t",
    "2024-03-01T00:00:00.5", "٢٠٢٤-03-01T00:00:00", "2024-0٣-01T00:00:00",
    "2024-0²-01T00:00:00", "+024-03-01T00:00:00", "2024-03-01T00:00: 0",
    "2024-03-01 00:00:00", "2024-03-01T00:00", "Unknown", "None", "N/A", "",
]


def _outcome(parse, text):
    """A parse's value, or ``DataError``; anything else propagates."""
    try:
        return ("value", parse(text))
    except DataError:
        return ("DataError",)


def _two_digits():
    return st.one_of(st.sampled_from(["00", "01", "12", "13", "23", "24",
                                      "28", "29", "30", "31", "59", "60",
                                      "61", "99"]),
                     st.integers(0, 99).map("{:02d}".format))


@st.composite
def _canonical_shape(draw):
    """``YYYY-MM-DDTHH:MM:SS`` with any digits, leap years near."""
    year = draw(st.one_of(st.sampled_from([0, 1, 1900, 1970, 2000, 2023,
                                           2024, 9999]),
                          st.integers(0, 9999)))
    m, d, hh, mm, ss = (draw(_two_digits()) for _ in range(5))
    return f"{year:04d}-{m}-{d}T{hh}:{mm}:{ss}"


@st.composite
def _near_canonical(draw):
    """A canonical-shape text with one edit the fast path must refuse."""
    text = draw(_canonical_shape())
    i = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["٣", "²", "t", " ", "", "0", "+"]))
    if draw(st.booleans()):
        text = text[:i] + edit + text[i + 1:]
    else:
        text = text[:i] + edit + text[i:]
    pad = draw(st.sampled_from(["", " ", "\t", "\n"]))
    frac = draw(st.sampled_from(["", "", ".5", ".123456"]))
    return pad + text + frac + pad


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=24),
                 st.text(alphabet="0123456789-T:t ٣²", max_size=24),
                 _canonical_shape(), _near_canonical(),
                 st.sampled_from(TIMESTAMP_TEXTS)))
def test_parse_timestamp_matches_strptime_oracle(text):
    assert _outcome(parse_timestamp, text) == \
        _outcome(oracle_parse_timestamp, text)


def test_timestamp_catalogue_matches_oracle():
    for text in TIMESTAMP_TEXTS:
        assert _outcome(parse_timestamp, text) == \
            _outcome(oracle_parse_timestamp, text), text


@pytest.fixture
def strptime_calls(monkeypatch):
    """The texts ``datetime.strptime`` is asked to parse from now on."""
    calls = []
    real = _strptime._strptime_datetime

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(_strptime, "_strptime_datetime", counting)
    return calls


def test_canonical_timestamps_skip_strptime(strptime_calls):
    """Nothing the emitter prints reaches ``_strptime``; other shapes
    still do."""
    assert parse_timestamp("2024-02-29T01:02:03") == 1709168523
    assert strptime_calls == []
    assert parse_timestamp("2024-02-29t01:02:03") == 1709168523
    assert strptime_calls == ["2024-02-29t01:02:03"]


def test_curating_an_emitted_month_calls_strptime_zero_times(
        tmp_path, strptime_calls):
    jobs = simulate_month("testsys", "2024-02", seed=5, rate_scale=0.1).jobs
    pipe = str(tmp_path / "2024-02.txt")
    rows = SacctEmitter().write(jobs, pipe)
    strptime_calls.clear()
    _, _, report = CurateStage(str(tmp_path / "data")).run(pipe)
    assert report.input_rows == rows > 0
    assert report.malformed == 0
    assert strptime_calls == []


def test_unknown_field_converter_raises_data_error():
    convert, = column_converters(["NotAField"])
    with pytest.raises(DataError, match="NotAField"):
        convert("1")
    with pytest.raises(DataError):
        record_from_row(["JobID", "NotAField"], ["1", "2"])


def test_record_from_row_resolves_converters_when_not_given():
    converters = column_converters(_NAMES)
    for row in _emitted_rows(_edge_records()):
        cells = row.split("|")
        ref = oracle_record_from_row(_NAMES, cells)
        assert record_from_row(_NAMES, cells) == ref
        assert record_from_row(_NAMES, cells, converters) == ref


# -- through CurateStage --------------------------------------------------------

def _curate(text: str, workdir: str, name: str):
    """Curate ``text`` as ``<name>/m.txt``; returns (bytes by artifact,
    report)."""
    os.makedirs(os.path.join(workdir, name))
    pipe = os.path.join(workdir, name, "m.txt")
    with open(pipe, "w", encoding="utf-8") as fh:
        fh.write(text)
    jobs, steps, report = CurateStage(
        os.path.join(workdir, name, "data")).run(pipe, tag="m")
    paths = [p for art in (jobs, steps)
             for p in (art.path, art.with_fmt("npf").path)]
    return {os.path.basename(p): _read(p) for p in paths}, report


def _emitted_rows(records) -> list[str]:
    return list(SacctEmitter().rows(records))


_NAMES = SacctEmitter().names


def _with_cell(row: str, field: str, text: str) -> str:
    cells = row.split("|")
    cells[_NAMES.index(field)] = text
    return "|".join(cells)


_TIMESTAMP_COLUMNS = [n for n in _NAMES
                      if FIELDS_BY_NAME[n].kind == "timestamp"]
_RENAMEABLE = [n for n in _NAMES if n not in curate._JOB_ROW_FIELDS]


@st.composite
def _pipe_text(draw):
    """Emitted rows of generated records, each kept, truncated, given a
    garbage or an edge timestamp cell, or preceded by a blank line;
    sometimes under a header with one field renamed out of the
    catalog."""
    names = list(_NAMES)
    if draw(st.integers(0, 5)) == 0:
        names[names.index(draw(st.sampled_from(_RENAMEABLE)))] = \
            "NotAField"
    lines = ["|".join(names)]
    for row in _emitted_rows(draw(st.lists(_jobs(), max_size=4))):
        action = draw(st.sampled_from(
            ["keep", "keep", "truncate", "bad", "timestamp", "blank"]))
        if action == "truncate":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif action == "bad":
            row = _with_cell(row, *draw(st.sampled_from(BAD_CELLS)))
        elif action == "timestamp":
            row = _with_cell(row, draw(st.sampled_from(_TIMESTAMP_COLUMNS)),
                             draw(st.sampled_from(TIMESTAMP_TEXTS)))
        elif action == "blank":
            lines.append("")
        lines.append(row)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_pipe_text())
def test_curate_matches_per_cell_oracle(text):
    """Same CSV and ``.npf`` bytes and the same report as Curate with
    the per-cell loop patched in, and nothing raised."""
    with tempfile.TemporaryDirectory() as workdir:
        shipped = _curate(text, workdir, "shipped")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curate, "record_from_row", oracle_record_from_row)
            ref = _curate(text, workdir, "oracle")
    assert shipped == ref


def test_garbage_cells_cost_their_rows_only(tmp_path):
    """Each garbage cell makes its row malformed; every other row
    curates to the bytes of the file without the bad rows."""
    rows = _emitted_rows(_edge_records())
    header = "|".join(_NAMES)
    bad = [_with_cell(rows[0], field, text)
           for field, text in BAD_CELLS]
    mixed = [header] + rows[:2] + bad[:6] + rows[2:5] + bad[6:] + rows[5:]
    clean, clean_report = _curate("\n".join([header] + rows) + "\n",
                                  str(tmp_path), "clean")
    got, report = _curate("\n".join(mixed) + "\n", str(tmp_path), "mixed")
    assert report.malformed == len(BAD_CELLS)
    assert report.input_rows == clean_report.input_rows + len(BAD_CELLS)
    assert (report.job_rows, report.step_rows) == \
        (clean_report.job_rows, clean_report.step_rows)
    assert got == clean


def test_step_jobid_with_non_decimal_digit_is_kept_as_text(tmp_path):
    """``'²'.isdigit()`` holds but ``int('²')`` raises: such a parent id
    stays text, like any other non-numeric one."""
    rows = _emitted_rows(_edge_records())
    step = next(r for r in rows if ".0|" in r)
    hostile = _with_cell(step, "JobID", "².0")
    got, report = _curate("\n".join(["|".join(_NAMES), hostile] + rows)
                          + "\n", str(tmp_path), "hostile")
    assert report.malformed == 0
    steps_csv = got["m-steps.csv"].decode("utf-8").splitlines()
    assert steps_csv[1].startswith("².0,²,")


def test_step_jobid_too_long_for_int_is_malformed(tmp_path):
    """A parent id with more decimal digits than ``int()`` converts
    (4,300 by default) passes ``isdecimal()``; it costs its row, not
    the file."""
    step = next(r for r in _emitted_rows(_edge_records()) if ".0|" in r)
    hostile = _with_cell(step, "JobID", "1" * 5000 + ".0")
    _, report = _curate("\n".join(["|".join(_NAMES), step, hostile])
                        + "\n", str(tmp_path), "long")
    assert (report.malformed, report.step_rows) == (1, 1)


@pytest.mark.parametrize("field", curate._JOB_ROW_FIELDS)
def test_header_without_a_job_row_field_is_rejected_up_front(
        tmp_path, monkeypatch, field):
    def no_rows(*args):
        raise AssertionError("a row was parsed")

    i = _NAMES.index(field)
    lines = ["|".join(_NAMES)] + _emitted_rows(_edge_records())
    text = "\n".join("|".join(c for k, c in enumerate(line.split("|"))
                              if k != i) for line in lines) + "\n"
    monkeypatch.setattr(curate, "record_from_row", no_rows)
    with pytest.raises(DataError, match=f"lacks .*{field}"):
        _curate(text, str(tmp_path), "short")
