"""Tests for ``repro.fabric``: store, launcher, campaigns, crash recovery.

The acceptance scenario lives in :class:`TestCrashRecovery`: a real
``repro-launcher`` subprocess is killed with ``SIGKILL`` mid-job, its
lease expires, a second launcher requeues the orphan and finishes the
work — and the append-only transition history shows every job reaching
a terminal state exactly once.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro._util.errors import ConfigError, ReproError
from repro.fabric import (
    TERMINAL_STATES,
    FabricStore,
    Launcher,
    QueueFull,
    expand_campaign,
    fabric_db_path,
    submit_campaign,
)
from repro.fabric.campaign import MAX_MEMBERS
from repro.fabric.runners import load_runners, simulate_payload
from repro.obs import RunContext

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: a tiny but real simulate payload (one variant, one day)
SIM_BODY = {"system": "testsys", "month": "2024-01", "days": 1,
            "rate_scale": 0.01, "variants": ["baseline"]}

CAMPAIGN_SPEC = {"system": "testsys", "month": "2024-01", "days": 1,
                 "rate_scale": 0.01, "seeds": [0, 1],
                 "variants": ["baseline"]}


@pytest.fixture
def store(tmp_path):
    return FabricStore(str(tmp_path / "fabric.sqlite3"))


def wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    pytest.fail("condition not reached within "
                f"{timeout:g}s: {predicate}")


def terminal_counts(store):
    """job id -> number of transitions into a terminal state."""
    per_job: dict[str, int] = {}
    for t in store.transitions():
        if t["to"] in TERMINAL_STATES:
            per_job[t["job"]] = per_job.get(t["job"], 0) + 1
    return per_job


class TestFabricStore:
    def test_lifecycle_and_history(self, store):
        job = store.submit("noop", {"x": 1})
        assert job.state == "pending" and job.attempt == 0
        leased = store.lease("w0", lease_s=30.0)
        assert leased.id == job.id and leased.state == "leased"
        assert leased.lease and leased.worker == "w0"
        assert store.start(leased.id, leased.lease)
        assert store.complete(leased.id, leased.lease, {"ok": True})
        done = store.get(job.id)
        assert done.state == "done" and done.result == {"ok": True}
        steps = [(t["from"], t["to"])
                 for t in store.transitions(job.id)]
        assert steps == [("", "pending"), ("pending", "leased"),
                         ("leased", "running"), ("running", "done")]

    def test_submit_idempotent_by_job_id(self, store):
        first = store.submit("noop", {"n": 1}, job_id="fixed")
        again = store.submit("noop", {"n": 2}, job_id="fixed")
        assert again.id == first.id
        assert again.payload == {"n": 1}    # original wins
        assert len(store.list_jobs()) == 1
        # only one submitted transition despite two calls
        assert len(store.transitions("fixed")) == 1

    def test_lease_empty_store_and_backoff_window(self, store):
        assert store.lease("w0", 30.0) is None
        job = store.submit("noop", {})
        leased = store.lease("w0", 30.0)
        assert store.fail(leased.id, leased.lease, "flaky") == "pending"
        requeued = store.get(job.id)
        assert requeued.attempt == 1
        assert requeued.not_before_s > time.time()   # backoff holds it
        assert store.lease("w1", 30.0) is None
        # a lease attempt after the backoff window claims it again
        future = requeued.not_before_s + 0.01
        assert store.lease("w1", 30.0, now=future).id == job.id

    def test_retries_bounded_then_terminal(self, store):
        job = store.submit("noop", {}, max_attempts=2)
        leased = store.lease("w0", 30.0)
        assert store.fail(leased.id, leased.lease, "once") == "pending"
        retry = store.lease("w0", 30.0,
                            now=time.time() + 3600)
        assert retry.id == job.id
        assert store.fail(retry.id, retry.lease, "twice") == "failed"
        final = store.get(job.id)
        assert final.state == "failed" and final.attempt == 2
        assert final.error == "twice"
        assert terminal_counts(store) == {job.id: 1}

    def test_nonretryable_fail_goes_terminal_at_once(self, store):
        store.submit("noop", {}, max_attempts=5)
        leased = store.lease("w0", 30.0)
        state = store.fail(leased.id, leased.lease, "bad payload",
                           retryable=False)
        assert state == "failed"
        assert store.get(leased.id).attempt == 1

    def test_stale_lease_cannot_mutate(self, store):
        job = store.submit("noop", {})
        old = store.lease("w0", lease_s=0.01)
        wait_for(lambda: time.time() > old.lease_expires_s)
        assert store.requeue_expired() == [job.id]
        fresh = store.lease("w1", 30.0, now=time.time() + 3600)
        assert fresh.id == job.id and fresh.lease != old.lease
        # the dead worker's token is powerless now
        assert store.heartbeat(job.id, old.lease, 30.0) is False
        assert store.start(job.id, old.lease) is False
        assert store.complete(job.id, old.lease, {}) is False
        assert store.fail(job.id, old.lease, "zombie") is None
        # the orphaning is an explicit history record
        steps = [(t["from"], t["to"])
                 for t in store.transitions(job.id)]
        assert ("leased", "orphaned") in steps
        assert ("orphaned", "pending") in steps

    def test_requeue_expired_exhausts_into_failed(self, store):
        job = store.submit("noop", {}, max_attempts=1)
        store.lease("w0", lease_s=0.01)
        wait_for(lambda: store.requeue_expired())
        final = store.get(job.id)
        assert final.state == "failed"
        assert "expired" in final.error

    def test_counts_and_validation(self, store):
        assert store.counts() == {s: 0 for s in
                                  ("pending", "leased", "running",
                                   "done", "failed", "orphaned")}
        store.submit("noop", {})
        assert store.counts()["pending"] == 1
        with pytest.raises(ConfigError):
            store.submit("noop", {}, max_attempts=0)

    def test_metrics_and_events_reported(self, tmp_path):
        obs = RunContext()
        store = FabricStore(str(tmp_path / "f.sqlite3"), obs=obs)
        store.submit("noop", {})
        leased = store.lease("w0", 30.0)
        store.start(leased.id, leased.lease)
        store.complete(leased.id, leased.lease, {})
        snap = obs.metrics.snapshot()
        assert snap["serve.fabric.submitted"] == 1
        assert snap["serve.fabric.leased"] == 1
        assert snap["serve.fabric.completed"] == 1
        assert snap["serve.fabric.pending"] == 0
        kinds = [e.kind for e in obs.events]
        assert kinds.count("fabric_transition") == 4

    def test_capacity_bound_holds_under_concurrent_submits(self, store):
        """The count and the insert share one write transaction: many
        concurrent submitters never admit more than ``capacity``
        ad-hoc jobs (campaign members never count)."""
        for i in range(10):
            store.submit("noop", {}, campaign="cp-x", job_id=f"cp-x-{i}")
        admitted, refused = [], []

        def submitter():
            for _ in range(6):
                try:
                    admitted.append(store.submit("noop", {}, capacity=5))
                except QueueFull:
                    refused.append(1)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert (len(admitted), len(refused)) == (5, 43)
        assert store.counts()["pending"] == 15

    def test_failed_operation_never_pools_an_open_transaction(self, store):
        with pytest.raises(RuntimeError):
            with store._db() as conn:
                conn.execute("BEGIN IMMEDIATE")
                raise RuntimeError("fails mid-transaction")
        assert not any(c.in_transaction for c in store._pool)
        store.submit("noop", {})        # the write lock was released
        assert store.counts()["pending"] == 1

    def test_db_under_store_layout(self, tmp_path):
        path = fabric_db_path(tmp_path)
        assert path.endswith(os.path.join(".store", "fabric.sqlite3"))
        FabricStore(path)               # creates .store/ on demand
        assert os.path.exists(path)


class TestCampaign:
    def test_expand_grid_stable_order(self):
        members = expand_campaign(CAMPAIGN_SPEC)
        assert len(members) == 2
        assert [m["seed"] for m in members] == [0, 1]
        assert all(m["variants"] == ["baseline"] for m in members)
        assert members == expand_campaign(CAMPAIGN_SPEC)

    def test_expand_validates(self):
        with pytest.raises(ConfigError):
            expand_campaign({"seeds": []})
        with pytest.raises(ConfigError):
            expand_campaign({"variants": []})
        with pytest.raises(ConfigError):
            expand_campaign({"seeds": list(range(MAX_MEMBERS + 1))})
        with pytest.raises(ConfigError):
            expand_campaign({"variants": ["nope"]})

    def test_submit_resume_preserves_terminal_members(self, store):
        status = submit_campaign(store, "camp", CAMPAIGN_SPEC)
        cid = status["id"]
        assert status["n_jobs"] == 2 and status["done"] is False
        # finish one member by hand, then replay the submission
        leased = store.lease("w0", 30.0)
        store.complete(leased.id, leased.lease, {"ok": True})
        again = submit_campaign(store, "camp", CAMPAIGN_SPEC)
        assert again["id"] == cid
        assert again["n_jobs"] == 2
        assert again["states"]["done"] == 1     # not resurrected
        assert store.get(leased.id).state == "done"

    def test_campaign_id_content_addressed(self, store):
        a = store.campaign_id("camp", CAMPAIGN_SPEC)
        assert a == store.campaign_id("camp", dict(CAMPAIGN_SPEC))
        assert a != store.campaign_id("other", CAMPAIGN_SPEC)
        assert a != store.campaign_id(
            "camp", {**CAMPAIGN_SPEC, "seeds": [0]})


class TestRunners:
    def test_simulate_payload_normalizes_and_validates(self):
        payload = simulate_payload(SIM_BODY)
        assert payload["seed"] == 0 and payload["days"] == 1
        with pytest.raises(ReproError):
            simulate_payload({"system": "notasystem"})
        with pytest.raises(ReproError):
            simulate_payload({"rate_scale": 0})
        with pytest.raises(ReproError):
            simulate_payload({"variants": ["nope"]})

    def test_load_runners(self):
        loaded = load_runners("repro.fabric.runners:BUILTIN_RUNNERS")
        assert "simulate" in loaded and "noop" in loaded
        with pytest.raises(ReproError):
            load_runners("repro.nope")
        with pytest.raises(ReproError):
            load_runners("repro.fabric.runners:run_noop")


class TestLauncherInProcess:
    def test_executes_to_done(self, store):
        for _ in range(3):
            store.submit("noop", {})
        stats = Launcher(store, workers=2, lease_s=10.0, poll_s=0.01,
                         max_jobs=3).run(threading.Event())
        assert stats.completed == 3 and stats.failed == 0
        assert store.counts()["done"] == 3

    def test_unknown_kind_fails_terminally_without_retries(self, store):
        job = store.submit("martian", {}, max_attempts=5)
        stats = Launcher(store, workers=1, lease_s=10.0, poll_s=0.01,
                         max_jobs=1).run(threading.Event())
        assert stats.failed == 1
        final = store.get(job.id)
        assert final.state == "failed"
        assert final.attempt == 1           # no retries burned
        assert "no runner" in final.error

    def test_transient_failure_retries_to_success(self, store):
        attempts = []

        def flaky(payload, obs=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return {"ok": True}

        job = store.submit("flaky", {}, max_attempts=3)
        stats = Launcher(store, {"flaky": flaky}, workers=1,
                         lease_s=10.0, poll_s=0.01,
                         max_jobs=2).run(threading.Event())
        assert stats.completed == 1
        final = store.get(job.id)
        assert final.state == "done" and final.attempt == 1
        assert len(attempts) == 2


class TestCrashRecovery:
    """The tentpole property: SIGKILL loses no work and doubles none."""

    def _spawn(self, db, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.fabric", "--db", db,
             "--workers", "1", "--poll", "0.05", *extra],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

    def test_kill9_mid_job_orphan_requeue_and_finish(self, tmp_path):
        db = str(tmp_path / "fabric.sqlite3")
        store = FabricStore(db)
        job = store.submit("sleep", {"seconds": 1.5}, max_attempts=3)

        victim = self._spawn(db, "--lease", "0.8")
        try:
            wait_for(lambda: store.get(job.id).state == "running")
            victim.kill()               # SIGKILL: no cleanup, no beats
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:   # pragma: no cover - cleanup
                victim.kill()

        # the job is stranded mid-run holding a lease that now expires
        assert store.get(job.id).state == "running"
        rescuer = self._spawn(db, "--lease", "0.8",
                              "--idle-exit", "0.5")
        try:
            assert rescuer.wait(timeout=60) == 0
        finally:
            if rescuer.poll() is None:  # pragma: no cover - cleanup
                rescuer.kill()

        final = store.get(job.id)
        assert final.state == "done"
        assert final.attempt == 1       # exactly one spent attempt
        steps = [(t["from"], t["to"])
                 for t in store.transitions(job.id)]
        assert ("running", "orphaned") in steps
        assert ("orphaned", "pending") in steps
        assert terminal_counts(store) == {job.id: 1}

    def test_campaign_survives_kill9_and_resumes(self, tmp_path):
        db = str(tmp_path / "fabric.sqlite3")
        store = FabricStore(db)
        # 4 members: the victim cannot plausibly finish all of them in
        # the gap between lease detection and SIGKILL delivery
        spec = {**CAMPAIGN_SPEC, "seeds": [0, 1, 2, 3]}
        status = submit_campaign(store, "survivor", spec)
        cid = status["id"]
        assert status["n_jobs"] == 4

        victim = self._spawn(db, "--lease", "0.8")
        try:
            wait_for(lambda: store.counts(campaign=cid)["leased"]
                     + store.counts(campaign=cid)["running"] > 0)
            victim.kill()
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:   # pragma: no cover - cleanup
                victim.kill()
        assert store.campaign_status(cid)["done"] is False

        # the crash-safe resume recipe: replay the same submission
        # (no-op for existing members), then point any launcher at it
        resumed = submit_campaign(store, "survivor", spec)
        assert resumed["id"] == cid and resumed["n_jobs"] == 4
        rescuer = self._spawn(db, "--lease", "0.8",
                              "--idle-exit", "0.5")
        try:
            assert rescuer.wait(timeout=120) == 0
        finally:
            if rescuer.poll() is None:  # pragma: no cover - cleanup
                rescuer.kill()

        final = store.campaign_status(cid)
        assert final["done"] is True
        assert final["states"]["done"] == 4
        members = store.list_jobs(campaign=cid)
        assert terminal_counts(store) == {m.id: 1 for m in members}
