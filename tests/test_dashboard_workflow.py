"""Tests for dashboard assembly and the composed end-to-end workflow."""

import json
import os
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro._util.errors import RenderError
from repro.charts import Axis, ChartSpec, ScatterSeries
from repro.dashboard import DashboardBuilder
from repro.flow import concurrency_profile
from repro.obs import load_events
from repro.workflows import SchedulingAnalysisWorkflow, WorkflowConfig


def _spec(title="chart"):
    rng = np.random.default_rng(0)
    return ChartSpec(title=title, x_axis=Axis("x"), y_axis=Axis("y"),
                     series=[ScatterSeries("s", rng.random(10),
                                           rng.random(10))])


class TestDashboard:
    def test_empty_rejected(self):
        with pytest.raises(RenderError):
            DashboardBuilder("t").render()

    def test_sections_and_stats_rendered(self, tmp_path):
        b = DashboardBuilder("My Dash")
        b.add_stat("jobs", "1,234")
        b.add_section("Waits", _spec("waits"), insight="AI text & more")
        b.add_section("States", _spec("states"))
        path = b.write(str(tmp_path / "index.html"))
        html = open(path).read()
        assert "My Dash" in html
        assert html.count("<svg") == 2
        assert "AI text &amp; more" in html
        assert "1,234" in html
        assert "showTab(1)" in html

    def test_title_escaped(self):
        b = DashboardBuilder("<script>alert(1)</script>")
        b.add_section("s", _spec())
        assert "<script>alert(1)" not in b.render()


@pytest.fixture(scope="module")
def workflow_result(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("wf"))
    cfg = WorkflowConfig(system="testsys", months=("2024-01", "2024-02"),
                         workdir=workdir, workers=4, seed=3,
                         rate_scale=0.12)
    return SchedulingAnalysisWorkflow(cfg).run()


class TestEndToEndWorkflow:
    def test_all_tasks_succeed(self, workflow_result):
        rep = workflow_result.flow_report
        assert rep.ok
        # 2 months x (obtain + curate + 4 plots + 4x2 ai) + volume +
        # occupancy (+2 ai pairs) + compare + llm-reports + advisor
        # + dashboard
        assert len(rep.results) == 38

    def test_aggregate_llm_reports_written(self, workflow_result):
        workdir = workflow_result.config.workdir
        single = os.path.join(workdir, "llm",
                              "llm_single_file_analysis.md")
        double = os.path.join(workdir, "llm",
                              "llm_double_file_analysis.md")
        assert os.path.exists(single) and os.path.exists(double)
        body = open(single).read()
        assert body.count("## ") == len(workflow_result.insights)
        assert "2024-01-waits" in body

    def test_advisor_stage_fires(self, workflow_result):
        assert workflow_result.advisor_report
        assert "walltime" in workflow_result.advisor_report.lower()
        html = open(workflow_result.dashboard_path).read()
        assert "Policy advisor" in html

    def test_dashboard_written(self, workflow_result):
        assert os.path.exists(workflow_result.dashboard_path)
        html = open(workflow_result.dashboard_path).read()
        assert html.count("<svg") == 10  # volume + occupancy + 4 kinds x 2 months

    def test_insights_embedded_in_dashboard(self, workflow_result):
        html = open(workflow_result.dashboard_path).read()
        assert "AI-generated insight" in html

    def test_charts_and_pngs_exist(self, workflow_result):
        assert len(workflow_result.chart_html) == 10
        assert len(workflow_result.chart_png) == 10
        for key, png in workflow_result.chart_png.items():
            assert os.path.exists(png), key
            assert os.path.exists(png + ".json"), key

    def test_insight_per_chart(self, workflow_result):
        assert set(workflow_result.insights) == \
            set(workflow_result.chart_png)
        assert all(len(t) > 50 for t in workflow_result.insights.values())

    def test_cross_month_compare(self, workflow_result):
        assert len(workflow_result.compares) == 1
        (text,) = workflow_result.compares.values()
        assert "chart A" in text and "chart B" in text

    def test_pipeline_counts(self, workflow_result):
        assert workflow_result.n_jobs > 500
        assert workflow_result.n_steps > workflow_result.n_jobs

    def test_concurrency_extracted(self, workflow_result):
        """The Figure 2 claim: a linear task list runs concurrently."""
        peak, avg = concurrency_profile(workflow_result.flow_report.trace)
        assert peak >= 3

    def test_plot_stages_overlap_across_months(self, workflow_result):
        trace = workflow_result.flow_report.trace
        overlaps = 0
        for a in ("plot-waits-2024-01", "plot-states-2024-01"):
            for b in ("plot-waits-2024-02", "plot-states-2024-02",
                      "plot-backfill-2024-01"):
                if trace.overlapping(a, b):
                    overlaps += 1
        assert overlaps >= 1

    def test_rasterization_starts_after_the_plot_stage(self,
                                                       workflow_result):
        """HTML2PNG waits for every plot, so one month's rasterization
        cannot fill the pool while the other month is still plotting."""
        events = workflow_result.flow_report.trace.events
        plotted = max(e.end_s for e in events if e.task.startswith("plot-"))
        assert min(e.start_s for e in events
                   if e.task.startswith("html2png-")) >= plotted

    def test_cache_reused_on_second_run(self, workflow_result,
                                        tmp_path_factory):
        # rerun in a copy, so the module's manifest stays the first run's
        workdir = str(tmp_path_factory.mktemp("wf-rerun") / "wf")
        shutil.copytree(workflow_result.config.workdir, workdir)
        cfg = replace(workflow_result.config, workdir=workdir)
        wf2 = SchedulingAnalysisWorkflow(cfg)
        res2 = wf2.run()
        assert res2.flow_report.ok
        obtain = res2.flow_report.results["obtain-2024-01"]
        assert obtain.status == "ok"
        # curate is memoized: its CSVs are newer than the cached pull
        assert res2.flow_report.results["curate-2024-01"].status == \
            "cached"

    def test_cached_rerun_does_not_simulate(self, tmp_path):
        """Obtain asks for the database only when a window misses the
        cache: a rerun whose pulls are all cached runs no simulation."""
        cfg = WorkflowConfig(system="testsys",
                             months=("2024-01", "2024-02"),
                             workdir=str(tmp_path), workers=2, seed=3,
                             rate_scale=0.1, enable_ai=False)
        SchedulingAnalysisWorkflow(cfg).run()
        data = tmp_path / "data"
        first = {p.name: p.read_bytes() for p in sorted(data.iterdir())}
        res = SchedulingAnalysisWorkflow(cfg).run()
        assert res.flow_report.ok
        assert {res.flow_report.results[f"curate-{m}"].status
                for m in cfg.months} == {"cached"}
        summary = res.run_context.summary()
        assert not [s["name"] for s in summary["spans"]
                    if s["name"].startswith("sim:")]
        assert not [m for m in summary["metrics"]
                    if m.startswith("sched.")]
        assert {p.name: p.read_bytes()
                for p in sorted(data.iterdir())} == first

    def test_ai_disabled_still_builds_dashboard(self, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("wf-noai"))
        cfg = WorkflowConfig(system="testsys", months=("2024-01",),
                             workdir=workdir, workers=2, seed=5,
                             rate_scale=0.05, enable_ai=False)
        res = SchedulingAnalysisWorkflow(cfg).run()
        assert res.flow_report.ok
        assert os.path.exists(res.dashboard_path)
        assert not res.insights

    def test_months_must_be_sorted(self):
        with pytest.raises(Exception):
            WorkflowConfig(months=("2024-02", "2024-01"))

    # -- observability & provenance (the run manifest) -----------------------

    def test_manifest_files_written(self, workflow_result):
        m = workflow_result.manifest
        assert set(m) == {"events", "provenance", "summary"}
        for path in m.values():
            assert os.path.exists(path)
            assert os.path.dirname(path) == workflow_result.config.workdir

    def test_every_task_has_a_lifecycle_record(self, workflow_result):
        events = load_events(workflow_result.manifest["events"])
        terminal = {e.name for e in events
                    if e.kind in ("task_finished", "task_skipped")}
        assert terminal == set(workflow_result.flow_report.results)

    def test_every_declared_output_has_provenance(self, workflow_result):
        prov = json.load(open(workflow_result.manifest["provenance"]))
        recorded = {a["path"] for a in prov["artifacts"]}
        # rebuild the (unexecuted) engine to enumerate declared outputs
        eng = SchedulingAnalysisWorkflow(
            workflow_result.config).build_engine()
        root = workflow_result.config.workdir
        declared = {
            os.path.relpath(out, root).replace(os.sep, "/")
            for task in eng.tasks.values() for out in task.outputs
            if os.path.exists(out)}
        assert declared and declared <= recorded
        for a in prov["artifacts"]:
            assert len(a["sha256"]) == 64
            assert a["bytes"] > 0

    def test_curate_lineage_points_at_obtain(self, workflow_result):
        prov = json.load(open(workflow_result.manifest["provenance"]))
        by_path = {a["path"]: a for a in prov["artifacts"]}
        jobs = by_path["data/2024-01-jobs.csv"]
        assert jobs["inputs"] == ["cache/testsys-2024-01.txt"]
        # first run: the stage records "curate:<tag>"; if a later run
        # in the same workdir re-wrote the manifest with curate cached,
        # the post-run sweep records the task name "curate-<month>"
        assert jobs["producer"].startswith("curate")

    def test_summary_metrics(self, workflow_result):
        summary = json.load(open(workflow_result.manifest["summary"]))
        m = summary["metrics"]
        assert m["sched.passes"] > 0
        assert m["sched.jobs"] >= workflow_result.n_jobs
        assert m["sched.queue_depth_hwm"] >= 0
        assert m["llm.calls"] == len(workflow_result.insights) \
            + len(workflow_result.compares)
        assert m["llm.prompt_tokens"] > 0
        assert summary["n_events"] == len(
            load_events(workflow_result.manifest["events"]))
        span_names = [s["name"] for s in summary["spans"]]
        assert "workflow" in span_names
        assert any(n.startswith("sim:") for n in span_names)
        assert any(n.startswith("llm:") for n in span_names)

    def test_trace_page_written(self, workflow_result):
        assert os.path.exists(workflow_result.trace_page)
        html = open(workflow_result.trace_page).read()
        assert "Artifact lineage" in html
        assert "Task &amp; span timeline" in html
        assert "sched.passes" in html

    def test_run_context_on_result(self, workflow_result):
        ctx = workflow_result.run_context
        assert ctx is not None
        assert not ctx.bus.errors        # no observer ever raised

    def test_calibration_sidecars_valid_json(self, workflow_result):
        for png in workflow_result.chart_png.values():
            cal = json.load(open(png + ".json"))
            assert "x_domain" in cal and "series" in cal
