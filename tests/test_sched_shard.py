"""Sharded paper-scale execution: golden-trace determinism and friends.

The sharded pipeline's whole claim is *bit-identity*: one continuous
scheduler timeline, cut into shards with
:class:`~repro.sched.shard.ShardHandoff`, must reproduce the unsharded
run exactly — same outcomes at the scheduler layer, same curated CSV
bytes at the workflow layer, for any shard count, process count, or
dispatch mode.  These tests pin that claim, plus the supporting
contracts: the handoff's fingerprint/version guards, the in-memory
curate path (``curate_records``) against the classic
:class:`CurateStage`, the emit phase's consistency checks, and
per-shard manifest merging.
"""

import hashlib
import json
import os

import pytest

from repro._util.errors import ConfigError, DataError, WorkflowError
from repro._util.timefmt import month_bounds
from repro.cluster import get_system
from repro.fabric.runners import BUILTIN_RUNNERS
from repro.frame import Frame, write_csv
from repro.obs.merge import merge_manifests, merge_metrics
from repro.pipeline import (
    JOB_CSV_COLUMNS,
    STEP_CSV_COLUMNS,
    CurateStage,
    ObtainConfig,
    ObtainStage,
)
from repro.pipeline.curate import curate_records
from repro.sched import simulate_month
from repro.sched.priority import PriorityModel
from repro.sched.shard import (
    ChainSimulator,
    ShardHandoff,
    chain_months,
    finalize_outcomes,
)
from repro.sched.simulator import SimConfig
from repro.slurm.db import AccountingDB
from repro.workflows.shard import (
    plan_shards,
    run_emit_month,
    run_sharded,
    simconfig_from_spec,
    simconfig_to_spec,
)
from repro.workload.generate import WorkloadGenerator
from repro.workload.profiles import workload_for

MONTHS = ["2024-01", "2024-02"]

#: fairshare + requeue keep a deep queue at the month boundary, so the
#: cut always has carried-over (boundary-spanning) jobs to hand off
CONFIG = SimConfig(seed=7, fairshare=True, requeue_node_fail=True,
                   priority=PriorityModel(fairshare_weight=20_000))


class TestPlanShards:
    def test_equal_contiguous_groups(self):
        months = [f"2024-{m:02d}" for m in range(1, 7)]
        assert plan_shards(months, 3) == [
            ["2024-01", "2024-02"], ["2024-03", "2024-04"],
            ["2024-05", "2024-06"]]
        assert plan_shards(months, 1) == [months]

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError):
            plan_shards(MONTHS, 0)

    def test_more_shards_than_months_rejected(self):
        with pytest.raises(ConfigError):
            plan_shards(MONTHS, 3)

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigError):
            plan_shards(["2024-01", "2024-02", "2024-03"], 2)


class TestConfigSpec:
    def test_round_trip(self):
        assert simconfig_from_spec(simconfig_to_spec(CONFIG)) == CONFIG

    def test_maintenance_windows_survive(self):
        cfg = SimConfig(maintenance=((100, 200), (300, 400)))
        assert simconfig_from_spec(simconfig_to_spec(cfg)) == cfg


@pytest.fixture(scope="module")
def chained(tmp_path_factory):
    """One unsharded reference chain vs. the same months split at the
    first month boundary, handed off through a saved/reloaded file."""
    system = get_system("testsys")
    gen = WorkloadGenerator(workload_for("testsys"), seed=7)
    windows = [month_bounds(m) for m in MONTHS]

    ref_by_origin, ref_counters = chain_months(
        system, CONFIG, windows, lambda s, e: gen.generate(s, e))

    tmp = tmp_path_factory.mktemp("handoff")
    path = os.path.join(tmp, "handoff.json.gz")
    bases: list[tuple[int, int]] = []
    sharded: dict[int, list[dict]] = {}

    def origin(idx: int) -> int:
        for w, (base, n) in enumerate(bases):
            if base <= idx < base + n:
                return w
        raise AssertionError(idx)

    chain = ChainSimulator(system, CONFIG)
    reqs = gen.generate(*windows[0])
    bases.append((chain.core.next_idx, len(reqs)))
    for out in chain.run_window(reqs, windows[0][1]):
        sharded.setdefault(origin(out["idx"]), []).append(out)
    chain.export(cut=windows[0][1]).save(path)

    reloaded = ShardHandoff.load(path)
    chain2 = ChainSimulator(system, CONFIG, handoff=reloaded)
    reqs = gen.generate(*windows[1])
    bases.append((chain2.core.next_idx, len(reqs)))
    for out in chain2.run_window(reqs, None):
        sharded.setdefault(origin(out["idx"]), []).append(out)

    return {"system": system, "windows": windows, "bases": bases,
            "ref": ref_by_origin, "ref_counters": ref_counters,
            "sharded": sharded, "counters": chain2.counters,
            "handoff": chain.export(cut=windows[0][1]),
            "reloaded": reloaded}


class TestHandoffBitIdentity:
    def test_outcomes_identical_per_origin_window(self, chained):
        assert set(chained["ref"]) == set(chained["sharded"])
        for w in chained["ref"]:
            a = sorted(chained["ref"][w], key=lambda o: o["idx"])
            b = sorted(chained["sharded"][w], key=lambda o: o["idx"])
            assert a == b, f"window {w} outcomes differ"

    def test_counters_identical(self, chained):
        assert chained["counters"] == chained["ref_counters"]

    def test_a_job_actually_spans_the_cut(self, chained):
        """Vacuous identity (nothing live at the cut) would prove
        nothing; the workload must include boundary-spanning jobs."""
        cut = chained["windows"][0][1]
        spanning = [o for outs in chained["ref"].values() for o in outs
                    if o["start"] != -1 and o["start"] < cut <= o["end"]]
        assert spanning

    def test_save_load_round_trip_is_exact(self, chained):
        a = json.dumps(chained["handoff"].to_json(), sort_keys=True,
                       default=list)
        b = json.dumps(chained["reloaded"].to_json(), sort_keys=True)
        assert a == b

    def test_finalize_is_chain_independent(self, chained):
        """Finalized accounting records depend only on (config, request,
        outcome) — not on which chain object produced the outcome."""
        gen = WorkloadGenerator(workload_for("testsys"), seed=7)
        reqs = gen.generate(*chained["windows"][0])
        base = chained["bases"][0][0]
        recs_ref = finalize_outcomes(chained["system"], CONFIG, reqs,
                                     base, chained["ref"][0])
        recs_shard = finalize_outcomes(chained["system"], CONFIG, reqs,
                                       base, chained["sharded"][0])
        assert recs_ref == recs_shard
        assert len(recs_ref) == len(chained["ref"][0])

    def test_fingerprint_mismatch_rejected(self, chained):
        """Importing state exported under a different scheduler config
        would silently fork the timeline — it must refuse instead."""
        with pytest.raises(DataError):
            ChainSimulator(chained["system"], SimConfig(seed=7),
                           handoff=chained["reloaded"])

    def test_unknown_version_rejected(self, chained):
        payload = dict(chained["handoff"].to_json(), version=-1)
        with pytest.raises(DataError):
            ShardHandoff.from_json(payload)


def _digest_dir(dirpath: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(dirpath)):
        with open(os.path.join(dirpath, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """The same two months built unsharded, sharded on a process pool,
    and sharded through the durable fabric."""
    tmp = tmp_path_factory.mktemp("sharded")

    def build(name, shards, procs, fabric=False):
        out = os.path.join(tmp, name)
        fabric_db = os.path.join(tmp, f"{name}.sqlite3") if fabric else None
        report = run_sharded("testsys", MONTHS, out, shards=shards,
                             procs=procs, seed=7, rate_scale=1.0,
                             config=CONFIG, fabric_db=fabric_db)
        return report, _digest_dir(os.path.join(out, "data"))

    return {"s1": build("s1", 1, 1),
            "pool": build("pool", 2, 2),
            "fabric": build("fabric", 2, 2, fabric=True)}


class TestShardedBuildGolden:
    def test_artifacts_bit_identical_across_modes(self, builds):
        """Every data file — CSVs and their hash-keyed .npf twins —
        must be byte-for-byte equal whether the build ran as one shard
        inline, two shards on a process pool, or two shards as durable
        fabric jobs."""
        _, d1 = builds["s1"]
        assert d1                       # jobs/steps csv + npf per month
        for label in ("pool", "fabric"):
            _, d = builds[label]
            assert d == d1, label

    def test_expected_artifact_set(self, builds):
        _, d1 = builds["s1"]
        expected = {f"{m}-{kind}.{ext}" for m in MONTHS
                    for kind in ("jobs", "steps") for ext in ("csv", "npf")}
        assert set(d1) == expected

    def test_reports_agree(self, builds):
        r1, _ = builds["s1"]
        for label in ("pool", "fabric"):
            r, _ = builds[label]
            assert r.counters == r1.counters, label
            assert r.bases == r1.bases, label
            assert (r.n_jobs, r.n_steps) == (r1.n_jobs, r1.n_steps), label
        assert r1.n_jobs > 0 and r1.n_steps > 0

    def test_boundary_jobs_carried_across_the_cut(self, builds):
        r, _ = builds["pool"]
        assert r.carried_total > 0
        assert r.live_jobs_hwm > 0

    def test_merged_manifest_written(self, builds):
        r, _ = builds["pool"]
        assert r.manifest_dir
        with open(os.path.join(r.manifest_dir, "summary.json"),
                  encoding="utf-8") as fh:
            summary = json.load(fh)
        metrics = summary["metrics"]
        assert metrics.get("sched.shard.handoffs", 0) >= 1
        assert metrics.get("sched.shard.windows", 0) == len(MONTHS)
        assert metrics.get("sched.shard.carried_jobs", 0) \
            == r.carried_total
        assert metrics.get("sched.shard.live_jobs_hwm", 0) \
            == r.live_jobs_hwm

    def test_shard_tasks_registered_as_fabric_runners(self):
        assert "shard_sim" in BUILTIN_RUNNERS
        assert "shard_emit" in BUILTIN_RUNNERS


class TestRebuild:
    def test_rebuild_into_same_out_dir_is_identical(self, tmp_path):
        """Outcome spools are appendable, so a second build into the same
        ``out_dir`` must start from empty ones; before it did, the
        rebuild appended a second copy of every outcome and emit
        failed."""
        out = str(tmp_path / "w")
        kwargs = {"shards": 2, "seed": 7, "rate_scale": 0.2,
                  "config": CONFIG, "manifests": False}
        run_sharded("testsys", MONTHS, out, **kwargs)
        first = _digest_dir(os.path.join(out, "data"))
        run_sharded("testsys", MONTHS, out, **kwargs)
        assert _digest_dir(os.path.join(out, "data")) == first


class TestEmitPhaseValidation:
    def _payload(self, tmp_path, n: int) -> dict:
        return {"system": "testsys", "month": "2024-01", "base": 0,
                "n": n, "seed": 3, "rate_scale": 0.05,
                "config": simconfig_to_spec(SimConfig(seed=3)),
                "profile": None,
                "spool": str(tmp_path / "missing.npf"),
                "data_dir": str(tmp_path / "data")}

    @pytest.fixture(scope="class")
    def n_actual(self):
        gen = WorkloadGenerator(workload_for("testsys"), seed=3,
                                rate_scale=0.05)
        return len(gen.generate(*month_bounds("2024-01")))

    def test_regeneration_count_mismatch_is_data_error(self, tmp_path,
                                                       n_actual):
        with pytest.raises(DataError, match="mismatch"):
            run_emit_month(self._payload(tmp_path, n_actual + 1))

    def test_incomplete_spool_is_workflow_error(self, tmp_path, n_actual):
        assert n_actual > 0
        with pytest.raises(WorkflowError, match="did not finish"):
            run_emit_month(self._payload(tmp_path, n_actual))


class TestCurateRecordsPin:
    def test_matches_classic_curate_stage_bytes(self, tmp_path):
        """``curate_records`` (the sharded emit path) must be
        byte-for-byte the classic obtain→curate pipeline minus only the
        malformed-row injection."""
        records = simulate_month("testsys", "2024-01", seed=1,
                                 rate_scale=0.1).jobs
        db = AccountingDB("testsys")
        db.extend(records)
        obtain = ObtainStage(db, ObtainConfig(
            "2024-01", "2024-01", cache_dir=str(tmp_path / "cache"),
            malformed_rate=0.0)).run()
        jobs_art, steps_art, report = CurateStage(
            str(tmp_path / "classic")).run(obtain.files[0], tag="2024-01")
        assert report.malformed == 0

        job_rows, step_rows = curate_records(records)
        mine = tmp_path / "inmem"
        mine.mkdir()
        write_csv(Frame.from_records(job_rows, columns=JOB_CSV_COLUMNS),
                  str(mine / "jobs.csv"))
        write_csv(Frame.from_records(step_rows, columns=STEP_CSV_COLUMNS),
                  str(mine / "steps.csv"))
        assert (mine / "jobs.csv").read_bytes() == \
            open(os.fspath(jobs_art), "rb").read()
        assert (mine / "steps.csv").read_bytes() == \
            open(os.fspath(steps_art), "rb").read()
        assert report.job_rows == len(job_rows) > 0
        assert report.step_rows == len(step_rows) > 0


def _write_shard_manifest(dirpath, run_id, metrics, artifacts,
                          n_events=2):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "events.jsonl"), "w",
              encoding="utf-8") as fh:
        for i in range(n_events):
            fh.write(json.dumps({"kind": "task.start", "seq": i}) + "\n")
    with open(os.path.join(dirpath, "provenance.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"version": 1, "artifacts": artifacts}, fh)
    with open(os.path.join(dirpath, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "n_events": n_events,
                   "event_counts": {"task.start": n_events},
                   "metrics": metrics, "spans": []}, fh)


class TestManifestMerge:
    def test_counters_sum_and_gauges_max(self):
        merged = merge_metrics([
            {"sched.shard.windows": 2, "sched.shard.live_jobs_hwm": 700},
            {"sched.shard.windows": 3, "sched.shard.live_jobs_hwm": 950},
        ])
        assert merged["sched.shard.windows"] == 5         # counter
        assert merged["sched.shard.live_jobs_hwm"] == 950  # gauge

    def test_merge_folds_shard_summaries(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        _write_shard_manifest(a, "shard-a",
                              {"sched.shard.windows": 1},
                              [{"path": "x.csv", "sha256": "aa"}])
        _write_shard_manifest(b, "shard-b",
                              {"sched.shard.windows": 2},
                              [{"path": "y.csv", "sha256": "bb"}])
        out = str(tmp_path / "merged")
        paths = merge_manifests([a, b], out, run_id="run")
        with open(paths["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["run_id"] == "run"
        assert summary["shards"] == ["shard-a", "shard-b"]
        assert summary["metrics"]["sched.shard.windows"] == 3
        assert summary["n_artifacts"] == 2
        assert summary["n_events"] == 4

    def test_conflicting_artifact_hashes_rejected(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        _write_shard_manifest(a, "shard-a", {},
                              [{"path": "x.csv", "sha256": "aa"}])
        _write_shard_manifest(b, "shard-b", {},
                              [{"path": "x.csv", "sha256": "bb"}])
        with pytest.raises(DataError, match="disagree"):
            merge_manifests([a, b], str(tmp_path / "m"), run_id="run")

    def test_no_shards_rejected(self, tmp_path):
        with pytest.raises(DataError):
            merge_manifests([], str(tmp_path / "m"), run_id="run")
