"""The typed curate path against the sacct text round trip it replaced.

:func:`curate_records` maps accounting records straight to curated
columns and :class:`CuratedCsvWriter` builds each ``.npf`` twin from the
cells it writes.  The reference (``tests/curate_oracle.py``) formats
every record as sacct text, parses it back, builds the row with
:class:`CurateStage`'s text-path builders, and derives the twin with
``write_npf(read_csv(csv))``.  Both must give the same bytes: on
generated records (hypothesis), on a catalogue of the edge fields, and
for a whole sharded build.
"""

import operator
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.timefmt import UNKNOWN_TIME
from repro.frame.io import read_npf
from repro.pipeline.curate import (JOB_CSV_COLUMNS, STEP_CSV_COLUMNS,
                                   CuratedCsvWriter, curate_records)
from repro.sched.simulator import SimConfig
from repro.slurm.records import JOB_STATES, STEP_STATES, JobRecord, StepRecord
from repro.store import Artifact
from repro.workflows import shard
from repro.workflows.shard import run_sharded

from tests.curate_oracle import oracle_curate_records, oracle_write_table

_EPOCH = st.integers(1_500_000_000, 1_900_000_000)
_MAYBE_UNKNOWN = st.sampled_from([False, False, True])
#: free text without the sacct separator; digits, underscores, commas,
#: quotes and non-ASCII reach the CSV quoting and the twin's inference
_TEXT = st.text(alphabet="abXY09 _-.,:/=\"'é", max_size=6)
#: node/CPU/task counts around the ``K`` suffix
_COUNT = st.one_of(st.sampled_from([999, 1000, 1001, 9408]),
                   st.integers(1, 200_000))
#: ReqMem KiB: exact K/M/G/T multiples, non-multiples, zero
_REQ_MEM = st.one_of(
    st.just(0),
    st.builds(operator.mul, st.integers(1, 4096),
              st.sampled_from([1, 1024, 1024**2, 1024**3])),
    st.integers(1, 2**42))
#: byte and KiB counts, weighted at float's 2**53 edge
_BYTES = st.one_of(
    st.integers(0, 2**40),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3]),
    st.integers(2**53, 2**62))


@st.composite
def _times(draw):
    """(submit, eligible, start, end): ordered epochs, each but submit
    Unknown about a third of the time (start Unknown with a known end
    is a job cancelled while pending)."""
    submit = draw(_EPOCH)
    eligible = submit + draw(st.integers(0, 86_400))
    start = eligible + draw(st.integers(0, 86_400))
    end = start + draw(st.integers(0, 7 * 86_400))
    return (submit,) + tuple(UNKNOWN_TIME if draw(_MAYBE_UNKNOWN) else t
                             for t in (eligible, start, end))


@st.composite
def _steps(draw, jobid: int):
    steps = []
    for stepid in range(draw(st.integers(0, 3))):
        start, end = (UNKNOWN_TIME if draw(_MAYBE_UNKNOWN) else draw(_EPOCH)
                      for _ in range(2))
        steps.append(StepRecord(
            jobid=jobid, stepid=stepid, name=draw(_TEXT), start=start,
            end=end, state=draw(st.sampled_from(STEP_STATES + ("TIMEOUT",))),
            exit_code=draw(st.integers(0, 255)), ntasks=draw(_COUNT),
            nnodes=draw(_COUNT),
            layout=draw(st.sampled_from(["Block", "Cyclic", "Plane"])),
            ave_cpu_s=draw(st.integers(0, 10**7)),
            max_rss_kib=draw(_BYTES), ave_disk_read_b=draw(_BYTES),
            ave_disk_write_b=draw(_BYTES), max_disk_read_b=draw(_BYTES),
            max_disk_write_b=draw(_BYTES)))
    return steps


@st.composite
def _jobs(draw):
    jobid = draw(st.integers(1, 10**8))
    submit, eligible, start, end = draw(_times())
    job = JobRecord(
        jobid=jobid, user=draw(_TEXT), account=draw(_TEXT),
        partition=draw(_TEXT), qos=draw(_TEXT), job_name=draw(_TEXT),
        submit=submit, eligible=eligible, start=start, end=end,
        timelimit_s=draw(st.integers(0, 30 * 86_400)),
        suspended_s=draw(st.integers(0, 3600)),
        nnodes=draw(_COUNT), ncpus=draw(_COUNT),
        ntasks=draw(st.one_of(st.just(0), _COUNT)),
        req_mem_kib=draw(_REQ_MEM),
        req_mem_per=draw(st.sampled_from(["n", "c"])),
        req_gres=draw(st.sampled_from(["", "gpu:1", "gpu:8"])),
        node_list=draw(_TEXT), consumed_energy_j=draw(st.integers(0, 10**12)),
        state=draw(st.sampled_from(JOB_STATES)),
        exit_code=draw(st.integers(0, 255)),
        exit_signal=draw(st.integers(0, 64)), reason=draw(_TEXT),
        restarts=draw(st.integers(0, 3)), constraints=draw(_TEXT),
        priority=draw(st.integers(0, 2**32)),
        backfilled=draw(st.booleans()),
        dependency=draw(st.sampled_from(["", "afterok:400001"])),
        array_job_id=draw(st.one_of(st.none(), st.integers(1, 10**8))),
        total_cpu_s=draw(st.integers(0, 10**9)),
        user_cpu_s=draw(st.integers(0, 10**9)),
        system_cpu_s=draw(st.integers(0, 10**9)),
        max_rss_kib=draw(_BYTES), ave_rss_kib=draw(_BYTES),
        max_vmsize_kib=draw(_BYTES), ave_cpu_s=draw(st.integers(0, 10**7)),
        work_dir=draw(_TEXT), ave_disk_read_b=draw(_BYTES),
        ave_disk_write_b=draw(_BYTES), max_disk_read_b=draw(_BYTES),
        max_disk_write_b=draw(_BYTES), comment=draw(_TEXT))
    job.steps = draw(_steps(jobid))
    return job


def _typed(rows: list[dict]) -> list[dict]:
    """Rows with each value's type made part of the comparison."""
    return [{c: (type(v).__name__, v) for c, v in row.items()}
            for row in rows]


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _assert_matches_oracle(records, batch: int, workdir: str) -> dict:
    """Curate ``records`` both ways and write both; returns the typed
    path's artifacts by kind."""
    mine = curate_records(records)
    ref = oracle_curate_records(records)
    assert _typed(mine[0]) == _typed(ref[0])
    assert _typed(mine[1]) == _typed(ref[1])
    arts = {}
    for kind, columns, rows, ref_rows in (
            ("jobs", JOB_CSV_COLUMNS, mine[0], ref[0]),
            ("steps", STEP_CSV_COLUMNS, mine[1], ref[1])):
        art = Artifact.in_dir(os.path.join(workdir, "typed"), f"m-{kind}",
                              "csv", schema=columns)
        with CuratedCsvWriter(art) as out:
            for lo in range(0, len(rows), batch):
                out.write_rows(rows[lo:lo + batch])
        ref_art = Artifact.in_dir(os.path.join(workdir, "oracle"),
                                  f"m-{kind}", "csv", schema=columns)
        os.makedirs(os.path.dirname(ref_art.path), exist_ok=True)
        oracle_write_table(ref_rows, columns, ref_art.path,
                           ref_art.with_fmt("npf").path)
        assert _read(art.path) == _read(ref_art.path), kind
        assert _read(out.twin.path) == \
            _read(ref_art.with_fmt("npf").path), kind
        arts[kind] = art
    return arts


@settings(max_examples=150, deadline=None)
@given(st.lists(_jobs(), max_size=5), st.integers(1, 4))
def test_typed_path_matches_text_oracle(records, batch):
    """Same row values and types, same CSV bytes, and the same twin
    bytes as ``write_npf(read_csv(csv))``, for any batching."""
    with tempfile.TemporaryDirectory() as workdir:
        _assert_matches_oracle(records, batch, workdir)


def _edge_records() -> list[JobRecord]:
    """One batch that reaches every edge the property must cover."""
    t0 = 1_704_067_200                  # 2024-01-01T00:00:00Z
    big = [2**53 - 1, 2**53, 2**53 + 1, 2**60 + 1]

    def steps(jobid, state, n):
        return [StepRecord(jobid=jobid, stepid=i, start=t0 + 60 + i,
                           end=t0 + 600, state=state, exit_code=1,
                           ntasks=1000, nnodes=9408, max_rss_kib=big[i],
                           ave_disk_read_b=big[i + 1],
                           ave_disk_write_b=big[i])
                for i in range(n)]

    jobs = [
        # cancelled while pending: Unknown start, known end
        JobRecord(jobid=400001, user="u1", account="a1", partition="batch",
                  submit=t0, eligible=t0 + 10, end=t0 + 600,
                  state="CANCELLED", req_mem_kib=0),
        # Unknown eligible, start and end
        JobRecord(jobid=400002, user="u1", account="a1", partition="batch",
                  submit=t0, eligible=UNKNOWN_TIME, state="CANCELLED",
                  req_mem_kib=1023, req_mem_per="c"),
        # an array member: JobID "400100_400101"
        JobRecord(jobid=400101, user="u2", account="a1", partition="batch",
                  submit=t0, eligible=t0, start=t0 + 5, end=t0 + 605,
                  array_job_id=400100, nnodes=999, ncpus=1000, ntasks=1001,
                  req_mem_kib=1536, req_mem_per="n"),
    ]
    for k, (state, mem, per) in enumerate((
            ("FAILED", 2048, "c"),                      # M multiple
            ("OUT_OF_MEMORY", 3 * 1024**2, "n"),        # G multiple
            ("TIMEOUT", 4 * 1024**3, "c"))):            # T multiple
        jobid = 400200 + k
        jobs.append(JobRecord(
            jobid=jobid, user="u3", account="a2", partition="batch",
            submit=t0, eligible=t0, start=t0 + 60, end=t0 + 600,
            state=state, nnodes=9408, ncpus=9408 * 56, ntasks=3,
            req_mem_kib=mem, req_mem_per=per, max_rss_kib=big[k],
            ave_rss_kib=big[k + 1], max_vmsize_kib=big[k],
            max_disk_read_b=big[k], max_disk_write_b=big[k + 1],
            ave_disk_read_b=big[k], ave_disk_write_b=big[k],
            steps=steps(jobid, state, 3)))
    return jobs


def test_edge_catalogue_matches_oracle(tmp_path):
    records = _edge_records()
    arts = _assert_matches_oracle(records, 2, str(tmp_path))
    job_rows, step_rows = curate_records(records)
    by_id = {r["JobID"]: r for r in job_rows}
    pending = by_id["400001"]
    assert (pending["StartTime"], pending["WaitS"]) == (UNKNOWN_TIME, 590)
    assert by_id["400002"]["Eligible"] == UNKNOWN_TIME
    assert by_id["400002"]["EndTime"] == UNKNOWN_TIME
    assert {r["ReqMem"] for r in job_rows} == {
        0, 1023, 1536, 2048, 3 * 1024**2, 4 * 1024**3}
    counts = {r[c] for r in job_rows for c in ("NNodes", "NCPUs", "NTasks")}
    assert {999, 1000, 1001, 9408} <= counts
    assert {r["State"] for r in job_rows if r["NTasks"] == 3} == {
        "FAILED", "OUT_OF_MEMORY", "TIMEOUT"}
    # int(float(text)) rounds at 2**53, and so does the typed path
    assert {r["MaxRSS"] for r in step_rows} == {2**53 - 1, 2**53}
    # the array member keeps the twin's JobID column a string column
    jobs_twin = read_npf(arts["jobs"].with_fmt("npf").path)
    assert jobs_twin["JobID"].dtype == object
    assert "400100_400101" in set(jobs_twin["JobID"])
    assert read_npf(arts["steps"].with_fmt("npf").path)["NNodes"].dtype \
        == np.int64


def test_writer_leaves_no_twin_when_interrupted(tmp_path):
    art = Artifact.in_dir(tmp_path, "m-steps", "csv",
                          schema=STEP_CSV_COLUMNS)
    with pytest.raises(KeyError):
        with CuratedCsvWriter(art) as out:
            out.write_rows([{"StepID": "1.0"}])
    assert os.path.exists(art.path)
    assert not os.path.exists(out.twin.path)


def _data_files(out_dir: str) -> dict[str, bytes]:
    data = os.path.join(out_dir, "data")
    return {name: _read(os.path.join(data, name))
            for name in sorted(os.listdir(data))}


def test_sharded_build_matches_oracle_build(tmp_path, monkeypatch):
    """A whole sharded build with the emit phase's curate swapped for
    the text round trip writes the same ``data/`` bytes."""
    config = SimConfig(seed=3, fairshare=True, requeue_node_fail=True)

    def build(name):
        out = str(tmp_path / name)
        report = run_sharded("testsys", ["2024-01", "2024-02"], out,
                             shards=2, seed=3, rate_scale=0.1,
                             config=config, manifests=False)
        assert report.n_jobs > 0 and report.n_steps > 0
        return _data_files(out)

    shipped = build("shipped")
    monkeypatch.setattr(shard, "curate_records", oracle_curate_records)
    assert build("oracle") == shipped
