"""Tests for job/step records, invariants, the sacct emitter and parser."""

import numpy as np
import pytest

from repro._util.errors import ConfigError, DataError
from repro._util.timefmt import UNKNOWN_TIME
from repro.slurm.emit import SacctEmitter
from repro.slurm.parse import (
    is_step_jobid,
    parse_sacct_value,
    record_from_row,
)
from repro.slurm.records import JobRecord, StepRecord, check_job_invariants


def make_job(**kw) -> JobRecord:
    base = dict(
        jobid=1001, user="ada", account="phy01", partition="batch",
        cluster="frontier", submit=1_700_000_000, eligible=1_700_000_000,
        start=1_700_000_600, end=1_700_004_200, timelimit_s=7200,
        nnodes=9408, ncpus=9408 * 56, ntasks=4,
        req_mem_kib=512 * 1024**2, state="COMPLETED", priority=125_000,
        node_list="frontier[00001-09408]",
    )
    base.update(kw)
    return JobRecord(**base)


class TestDerived:
    def test_elapsed(self):
        assert make_job().elapsed == 3600

    def test_elapsed_never_started(self):
        j = make_job(start=UNKNOWN_TIME, end=UNKNOWN_TIME, state="CANCELLED")
        assert j.elapsed == 0

    def test_wait_from_eligible(self):
        assert make_job().wait_s == 600

    def test_wait_cancelled_before_start(self):
        j = make_job(start=UNKNOWN_TIME, end=1_700_000_900, state="CANCELLED")
        assert j.wait_s == 900

    def test_flags_backfill(self):
        assert "SchedBackfill" in make_job(backfilled=True).flags
        assert "SchedMain" in make_job(backfilled=False).flags

    def test_step_jobid_format(self):
        s = StepRecord(jobid=1001, stepid=3)
        assert s.step_jobid == "1001.3"


class TestInvariants:
    def test_valid_job_passes(self):
        check_job_invariants(make_job())

    def test_illegal_state(self):
        with pytest.raises(DataError, match="illegal state"):
            check_job_invariants(make_job(state="RUNNING"))

    def test_start_before_eligible(self):
        with pytest.raises(DataError, match="before eligible"):
            check_job_invariants(make_job(start=1_699_999_999))

    def test_end_before_start(self):
        with pytest.raises(DataError, match="ended before start"):
            check_job_invariants(make_job(end=1_700_000_000))

    def test_completed_requires_start(self):
        with pytest.raises(DataError, match="requires a start"):
            check_job_invariants(
                make_job(start=UNKNOWN_TIME, state="COMPLETED"))

    def test_cancelled_without_start_ok(self):
        check_job_invariants(
            make_job(start=UNKNOWN_TIME, end=1_700_000_100, state="CANCELLED"))

    def test_step_outside_job_window(self):
        j = make_job()
        j.steps.append(StepRecord(jobid=j.jobid, stepid=0,
                                  start=j.start - 10, end=j.end))
        with pytest.raises(DataError, match="starts before job"):
            check_job_invariants(j)

    def test_step_nodes_bounded(self):
        j = make_job(nnodes=2, ncpus=2)
        j.steps.append(StepRecord(jobid=j.jobid, stepid=0, nnodes=3,
                                  start=j.start, end=j.end))
        with pytest.raises(DataError, match="more nodes"):
            check_job_invariants(j)


class TestEmitter:
    def test_header_default_is_obtain_set(self):
        e = SacctEmitter()
        assert len(e.header().split("|")) == 60
        assert e.header().startswith("JobID|")

    def test_job_row_formats(self):
        e = SacctEmitter(fields=["JobID", "NNodes", "Elapsed", "SubmitTime",
                                 "State", "ExitCode", "Backfill"])
        row = e.job_row(make_job())
        cells = row.split("|")
        assert cells == ["1001", "9.408K", "01:00:00", "2023-11-14T22:13:20",
                         "COMPLETED", "0:0", "0"]

    def test_step_row_blank_job_columns(self):
        e = SacctEmitter(fields=["JobID", "User", "NNodes", "Layout"])
        s = StepRecord(jobid=7, stepid=0, nnodes=2, layout="Cyclic")
        cells = e.step_row(s).split("|")
        assert cells == ["7.0", "", "2", "Cyclic"]

    def test_array_job_id_format(self):
        e = SacctEmitter(fields=["JobID", "ArrayJobID"])
        j = make_job(array_job_id=900)
        assert e.job_row(j).split("|") == ["900_1001", "900"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SacctEmitter(fields=["JobID", "NotAField"])

    def test_rows_interleave_steps(self):
        j = make_job()
        j.steps = [StepRecord(jobid=j.jobid, stepid=i, start=j.start,
                              end=j.end) for i in range(3)]
        e = SacctEmitter(fields=["JobID"])
        ids = list(e.rows([j]))
        assert ids == ["1001", "1001.0", "1001.1", "1001.2"]

    def test_steps_can_be_suppressed(self):
        j = make_job()
        j.steps = [StepRecord(jobid=j.jobid, stepid=0)]
        e = SacctEmitter(fields=["JobID"], include_steps=False)
        assert list(e.rows([j])) == ["1001"]

    def test_malformed_requires_rng(self):
        with pytest.raises(ConfigError):
            SacctEmitter(malformed_rate=0.1)

    def test_malformed_rate_injects_short_rows(self):
        rng = np.random.default_rng(0)
        e = SacctEmitter(malformed_rate=0.5, rng=rng, include_steps=False)
        jobs = [make_job(jobid=i) for i in range(200)]
        bad = [r for r in e.rows(jobs) if len(r.split("|")) != 60]
        assert 40 < len(bad) < 160  # ~50%

    def test_write_and_count(self, tmp_path):
        j = make_job()
        j.steps = [StepRecord(jobid=j.jobid, stepid=0, start=j.start,
                              end=j.end)]
        e = SacctEmitter()
        n = e.write([j], str(tmp_path / "out.txt"))
        assert n == 2
        lines = (tmp_path / "out.txt").read_text().splitlines()
        assert len(lines) == 3  # header + job + step


class TestParse:
    def test_count_k(self):
        assert parse_sacct_value("NNodes", "9.408K") == 9408

    def test_duration(self):
        assert parse_sacct_value("Elapsed", "1-00:00:00") == 86400

    def test_timestamp_unknown(self):
        assert parse_sacct_value("StartTime", "Unknown") == UNKNOWN_TIME

    def test_exitcode(self):
        assert parse_sacct_value("ExitCode", "137:9") == 137

    def test_mem(self):
        assert parse_sacct_value("ReqMem", "4Gc") == 4 * 1024**2

    def test_bytes_suffixed(self):
        assert parse_sacct_value("MaxRSS", "100K") == 100 * 1024

    def test_unknown_field(self):
        with pytest.raises(DataError):
            parse_sacct_value("Bogus", "1")

    def test_empty_cells_default(self):
        assert parse_sacct_value("Restarts", "") == 0
        assert parse_sacct_value("Suspended", "") == 0

    def test_round_trip_job_row(self):
        e = SacctEmitter()
        j = make_job()
        row = record_from_row(e.names, e.job_row(j).split("|"))
        assert row["JobID"] == "1001"
        assert row["NNodes"] == 9408
        assert row["Elapsed"] == 3600
        assert row["SubmitTime"] == j.submit
        assert row["State"] == "COMPLETED"

    def test_record_from_row_arity(self):
        with pytest.raises(DataError):
            record_from_row(["JobID", "State"], ["1"])

    def test_is_step_jobid(self):
        assert is_step_jobid("1001.0")
        assert is_step_jobid("1001.batch")
        assert not is_step_jobid("1001")
