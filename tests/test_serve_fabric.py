"""Tests for serve's job backend: every background job is a fabric job.

The transport-free :class:`ServeApp` stores each ``POST`` job in its
fabric database and runs it on its own launcher threads.  Crash/kill
recovery is covered in ``tests/test_fabric.py`` — here the subject is
the HTTP contract (202-plus-poll-URL, job/campaign status endpoints,
paging, the ``serve.fabric.*`` metrics) and what one shared database
means: jobs outlive the app that accepted them, and every app on the
database shares one capacity bound.
"""

import json
import time

import pytest

from repro.fabric import FabricStore
from repro.fabric.runners import run_simulate, simulate_payload
from repro.serve import Request, ServeApp
from repro.workflows import SchedulingAnalysisWorkflow, WorkflowConfig
from tests.test_serve_loop import make_workdir

#: a deliberately tiny simulate body (one variant over one day)
SMALL_SIM = {"system": "testsys", "month": "2024-01", "days": 1,
             "rate_scale": 0.01, "variants": ["baseline"]}

#: a deliberately tiny sweep: 2 seeds x 1 variant over one day
CAMPAIGN_SPEC = {"system": "testsys", "month": "2024-01",
                 "days": 1, "rate_scale": 0.01,
                 "seeds": [0, 1], "variants": ["baseline"]}


@pytest.fixture(scope="module")
def served_workdir(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("served-fabric"))
    cfg = WorkflowConfig(system="testsys", months=("2024-01",),
                         workdir=workdir, workers=2, seed=5,
                         rate_scale=0.04)
    SchedulingAnalysisWorkflow(cfg).run()
    return workdir


@pytest.fixture(scope="module")
def app(served_workdir, tmp_path_factory):
    db = str(tmp_path_factory.mktemp("fabric") / "fabric.sqlite3")
    app = ServeApp([served_workdir], job_workers=1, job_capacity=4,
                   request_timeout_s=30.0, fabric=db)
    yield app
    app.close()


def get(app, path, query=None):
    return app.dispatch(Request(method="GET", path=path,
                                query=query or {}))


def post(app, path, payload):
    return app.dispatch(Request(method="POST", path=path,
                                body=json.dumps(payload).encode()))


def body_json(resp):
    return json.loads(resp.body.decode("utf-8"))


def poll(app, job_id, timeout=30.0):
    """Poll ``/api/jobs/<id>`` until the job is done or failed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = body_json(get(app, f"/api/jobs/{job_id}"))
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.01)
    pytest.fail(f"job {job_id} did not finish")


class TestFabricMode:
    def test_simulate_enqueues_durably_and_completes(self, app):
        resp = post(app, "/api/simulate", SMALL_SIM)
        assert resp.status == 202
        submitted = body_json(resp)
        job = submitted["job"]
        assert job["status"] == "pending"
        assert submitted["poll"] == f"/api/jobs/{job['id']}"
        done = poll(app, job["id"])
        assert done["status"] == "done"
        assert done["submitted_s"] <= done["started_s"] \
            <= done["finished_s"]
        names = [o["name"] for o in done["result"]["outcomes"]]
        assert names == ["baseline"]

    def test_job_history_query(self, app):
        resp = post(app, "/api/simulate",
                    {"days": 1, "rate_scale": 0.01,
                     "variants": ["baseline"]})
        job_id = body_json(resp)["job"]["id"]
        poll(app, job_id)
        hist = body_json(get(app, f"/api/jobs/{job_id}",
                             query={"history": "1"}))
        steps = [(t["from"], t["to"]) for t in hist["transitions"]]
        assert steps == [("", "pending"), ("pending", "leased"),
                         ("leased", "running"), ("running", "done")]

    def test_validation_still_a_400(self, app):
        assert post(app, "/api/simulate",
                    {"system": "notasystem"}).status == 400
        assert post(app, "/api/simulate",
                    {"variants": ["nope"]}).status == 400

    def test_jobs_listing_merges_durable_jobs(self, app):
        # one listing of the store, paged with offset/limit
        post(app, "/api/simulate", SMALL_SIM)
        everything = body_json(get(app, "/api/jobs"))
        ids = [j["id"] for j in everything["jobs"]]
        assert len(ids) >= 2 and everything["n_total"] == len(ids)
        page = body_json(get(app, "/api/jobs",
                             query={"offset": "1", "limit": "1"}))
        assert [j["id"] for j in page["jobs"]] == ids[1:2]
        assert page["next"] == "/api/jobs?limit=1&offset=2"

    def test_campaign_submit_status_resume(self, app):
        resp = post(app, "/api/campaigns",
                    {"name": "smoke", "spec": CAMPAIGN_SPEC})
        assert resp.status == 202
        first = body_json(resp)
        cid = first["campaign"]["id"]
        assert cid.startswith("cp-")
        assert first["campaign"]["n_jobs"] == 2
        assert first["poll"] == f"/api/campaigns/{cid}"
        # resubmission resumes (same id, no duplicate members)
        again = body_json(post(app, "/api/campaigns",
                               {"name": "smoke",
                                "spec": CAMPAIGN_SPEC}))
        assert again["campaign"]["id"] == cid
        assert again["campaign"]["n_jobs"] == 2

        listing = body_json(get(app, "/api/campaigns"))["campaigns"]
        assert any(c["id"] == cid for c in listing)

        deadline = time.monotonic() + 60
        while not body_json(get(app, f"/api/campaigns/{cid}"))["done"] \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        status = body_json(get(app, f"/api/campaigns/{cid}",
                               query={"jobs": "true"}))
        assert status["done"] is True
        assert status["states"]["done"] == 2
        assert [j["status"] for j in status["jobs"]] == ["done", "done"]
        # done members stay done across yet another resubmission
        final = body_json(post(app, "/api/campaigns",
                               {"name": "smoke",
                                "spec": CAMPAIGN_SPEC}))
        assert final["campaign"]["states"]["done"] == 2

    def test_campaign_validation(self, app):
        assert post(app, "/api/campaigns", {}).status == 400
        assert post(app, "/api/campaigns",
                    {"name": "x", "spec": []}).status == 400
        assert post(app, "/api/campaigns",
                    {"name": "x",
                     "spec": {"seeds": []}}).status == 400
        assert get(app, "/api/campaigns/cp-missing").status == 404

    def test_fabric_metrics_exposed(self, app):
        text = get(app, "/metrics").body.decode()
        assert "repro_serve_fabric_submitted_total" in text
        assert "# TYPE repro_serve_fabric_pending gauge" in text


class TestOneBackend:
    """What one shared job database means for the apps on it."""

    def test_leased_job_polls_as_pending(self, served_workdir, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        app = ServeApp([served_workdir], job_workers=1, fabric=db)
        app.close()                     # keep its own workers out
        store = FabricStore(db)
        job = store.submit("simulate", simulate_payload(SMALL_SIM))
        assert store.lease("probe", lease_s=30.0).id == job.id
        polled = body_json(get(app, f"/api/jobs/{job.id}"))
        assert polled["status"] == "pending"
        assert "started_s" not in polled
        listed = body_json(get(app, "/api/jobs",
                               query={"state": "pending"}))["jobs"]
        assert [j["id"] for j in listed] == [job.id]

    def test_pending_job_survives_to_next_app(self, served_workdir,
                                              tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        first = ServeApp([served_workdir], job_workers=1, fabric=db)
        assert first.close(timeout=10)
        job_id = body_json(post(first, "/api/simulate",
                                SMALL_SIM))["job"]["id"]
        time.sleep(0.2)
        assert body_json(get(first, f"/api/jobs/{job_id}"))["status"] \
            == "pending"
        second = ServeApp([served_workdir], job_workers=1, fabric=db)
        try:
            done = poll(second, job_id)
        finally:
            second.close()
        assert done["status"] == "done"
        assert done["result"]["outcomes"][0]["name"] == "baseline"

    def test_apps_on_one_database_share_capacity(self, served_workdir,
                                                 tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        apps = [ServeApp([served_workdir], job_workers=1, job_capacity=2,
                         fabric=db) for _ in range(2)]
        for one in apps:
            one.close()                 # nothing runs: every job waits
        assert [post(one, "/api/simulate", SMALL_SIM).status
                for one in apps] == [202, 202]
        full = [post(one, "/api/simulate", SMALL_SIM) for one in apps]
        assert [r.status for r in full] == [429, 429]
        assert full[0].headers["Retry-After"] == "1"
        # campaign members do not count against the bound
        assert post(apps[1], "/api/campaigns",
                    {"name": "cap", "spec": CAMPAIGN_SPEC}).status == 202

    def test_simulate_result_round_trips(self, tmp_path):
        workdir = make_workdir(str(tmp_path / "run"), "run")
        app = ServeApp([workdir], job_workers=1)
        try:
            resp = post(app, "/api/simulate", SMALL_SIM)
            done = poll(app, body_json(resp)["job"]["id"])
        finally:
            app.close()
        assert done["status"] == "done"
        assert done["result"] == run_simulate(simulate_payload(SMALL_SIM))
