"""The end-to-end scheduling-analysis workflow.

Every file the workflow touches is a typed :class:`repro.store.Artifact`
handed out by the run's :class:`repro.store.ArtifactStore`: stage wiring
in :meth:`SchedulingAnalysisWorkflow.build_engine` declares artifact
handles (not path strings), curated tables are loaded through the
store's in-run memo (each month parses at most once per run, shared
across every plot/advisor stage), and cached tasks are hash-stamped so
re-runs skip on content, not just mtime ordering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro._util.errors import ConfigError, WorkflowError
from repro.advisor import PolicyAdvisor
from repro.analytics import (
    nodes_vs_elapsed,
    occupancy_timeline,
    states_per_user,
    utilization,
    volume_by_year,
    wait_times,
    walltime_accuracy,
)
from repro.cluster import get_system
from repro.charts import write_html
from repro.charts.figures import (
    fig1_volume_chart,
    fig3_nodes_vs_elapsed_chart,
    fig4_wait_times_chart,
    fig5_states_per_user_chart,
    fig6_walltime_chart,
    occupancy_chart,
)
from repro.charts.spec import ChartSpec
from repro.dashboard import DashboardBuilder, write_trace_page
from repro.flow import FlowEngine, FlowReport
from repro.frame import Frame, concat
from repro.llm import LLMClient
from repro.obs import RunContext
from repro.pipeline import (
    JOB_CSV_COLUMNS,
    STEP_CSV_COLUMNS,
    CurateStage,
    ObtainConfig,
    ObtainStage,
)
from repro.raster import html_to_png, save_primitives
from repro.sched import SimConfig
# simulate_month: looked up by name by perfbench/tracing.py
from repro.sched import simulate_month
from repro.slurm.db import AccountingDB
from repro.slurm.emit import DEFAULT_MALFORMED_RATE
from repro.store import Artifact, ArtifactStore
from repro.workflows.shard import (plan_shards, record_sched_metrics,
                                   run_sharded, simulate_chain)

__all__ = ["WorkflowConfig", "WorkflowResult", "SchedulingAnalysisWorkflow"]

#: the four field-specific plot stages of Section 3.1
_PLOT_KINDS = ("waits", "states", "backfill", "scale")


@dataclass(frozen=True)
class WorkflowConfig:
    """Everything the workflow invocation parameterizes.

    Mirrors the paper's CLI: ``-n N`` (workers), ``--date_spec/--dates``
    (months), ``--cache`` and ``--data`` locations, plus the simulator
    inputs that stand in for the real Slurm database.
    """

    system: str = "frontier"
    months: tuple[str, ...] = ("2024-03", "2024-06")
    workdir: str = "workflow-out"
    workers: int = 4
    seed: int = 0
    rate_scale: float = 0.05
    use_cache: bool = True
    enable_ai: bool = True            # the orange user-defined stages
    llm_backend: str = "chart-analyst"
    malformed_rate: float = DEFAULT_MALFORMED_RATE
    #: scheduler-config template for the synthesized timeline (scenario
    #: runs attach their injection stream here); the run's seed is
    #: layered on top with dataclasses.replace
    sim_config: SimConfig | None = None
    #: trace-calibrated workload profile spec (see
    #: repro.workload.spec.profile_to_spec); None = the built-in
    #: workload for ``system``
    profile_spec: dict | None = None
    #: every build simulates one continuous timeline over ``months``;
    #: 0 curates it through the paper's Obtain → Curate text stages,
    #: > 0 splits it into this many month groups and curates the
    #: records directly, streamed out per month (repro.workflows.shard).
    #: ``data/`` is byte-identical either way
    shards: int = 0
    #: worker processes for the sharded build (1 = in-process)
    procs: int = 1
    #: run shard tasks as durable fabric jobs (crash-resumable)
    fabric: bool = False

    def __post_init__(self) -> None:
        if not self.months:
            raise ConfigError("workflow needs at least one month")
        months = list(self.months)
        if months != sorted(months):
            raise ConfigError("months must be sorted")
        if self.shards < 0:
            raise ConfigError(f"shards must be >= 0, got {self.shards}")
        if self.shards:
            plan_shards(months, self.shards)
        if self.procs < 1:
            raise ConfigError(f"procs must be >= 1, got {self.procs}")
        if self.fabric and not self.shards:
            raise ConfigError("fabric mode requires sharded execution "
                              "(set shards > 0)")


@dataclass
class WorkflowResult:
    """Everything a run produced."""

    config: WorkflowConfig
    dashboard_path: str = ""
    chart_html: dict[str, str] = field(default_factory=dict)
    chart_png: dict[str, str] = field(default_factory=dict)
    insights: dict[str, str] = field(default_factory=dict)
    compares: dict[str, str] = field(default_factory=dict)
    advisor_report: str = ""
    curate_malformed: int = 0
    curate_rows: int = 0
    n_jobs: int = 0
    n_steps: int = 0
    flow_report: FlowReport | None = None
    #: the run's observability context (events, metrics, provenance)
    run_context: RunContext | None = None
    #: manifest name → path (events.jsonl / provenance.json /
    #: summary.json in the workdir)
    manifest: dict[str, str] = field(default_factory=dict)
    #: the dashboard's trace & provenance page
    trace_page: str = ""
    #: sharded-build report (None for the text front-end)
    shard_report: object = None


class SchedulingAnalysisWorkflow:
    """Build and run the full Figure-2 pipeline."""

    def __init__(self, config: WorkflowConfig) -> None:
        self.config = config
        self.result = WorkflowResult(config=config)
        #: one observability context per invocation: every layer below
        #: (engine, pipeline stages, scheduler, LLM client) reports
        #: through it, and run() serializes it as the run manifest
        self.obs = RunContext(root=config.workdir)
        self.result.run_context = self.obs
        #: the run's artifact store: workdir layout, the in-run frame
        #: memo, .npf-twin negotiation, and hash freshness stamps
        self.store = ArtifactStore(config.workdir, obs=self.obs)
        self._specs: dict[str, ChartSpec] = {}
        self._db: AccountingDB | None = None
        self._lock = __import__("threading").Lock()

    # -- artifact handles ------------------------------------------------------

    def _pipe(self, month: str) -> Artifact:
        """The month's raw sacct pull (``cache/<system>-<month>.txt``)."""
        return self.store.declare(f"{self.config.system}-{month}", "pipe")

    def _jobs(self, month: str) -> Artifact:
        return self.store.declare(f"{month}-jobs", "csv",
                                  schema=JOB_CSV_COLUMNS)

    def _steps(self, month: str) -> Artifact:
        return self.store.declare(f"{month}-steps", "csv",
                                  schema=STEP_CSV_COLUMNS)

    def _chart(self, key: str) -> Artifact:
        return self.store.declare(key, "html")

    def _png_art(self, key: str) -> Artifact:
        return self.store.declare(key, "png")

    def _report_md(self, name: str) -> Artifact:
        return self.store.declare(name, "md")

    # -- curated-table loading (store memo: one parse per month per run) -------

    def _month_jobs(self, month: str) -> Frame:
        return self.store.load_frame(self._jobs(month))

    def _all_jobs(self) -> Frame:
        return concat([self._month_jobs(m) for m in self.config.months])

    def _all_steps(self) -> Frame:
        return concat([self.store.load_frame(self._steps(m))
                       for m in self.config.months])

    # -- stage bodies -------------------------------------------------------------

    def _ensure_db(self) -> AccountingDB:
        """The Slurm database, synthesized on first use.

        Guarded by a lock: concurrent Obtain tasks must not both
        synthesize it.
        """
        with self._lock:
            return self._ensure_db_locked()

    def _sim_config(self) -> SimConfig:
        return replace(self.config.sim_config or SimConfig(),
                       seed=self.config.seed)

    def _ensure_db_locked(self) -> AccountingDB:
        if self._db is None:
            cfg = self.config
            with self.obs.span(f"sim:{cfg.system}",
                               months=len(cfg.months)):
                records, counters = simulate_chain(
                    cfg.system, list(cfg.months), seed=cfg.seed,
                    rate_scale=cfg.rate_scale, config=self._sim_config(),
                    profile_spec=cfg.profile_spec)
            record_sched_metrics(self.obs, counters)
            db = AccountingDB(cfg.system)
            db.extend(records)
            self._db = db
        return self._db

    def _obtain(self, month: str) -> None:
        cfg = ObtainConfig(month, month,
                           cache_dir=self.store.dir_for("pipe"),
                           use_cache=self.config.use_cache,
                           malformed_rate=self.config.malformed_rate,
                           seed=self.config.seed,
                           workers=self.config.workers)
        # the database is built only if some window misses the cache
        ObtainStage(self._ensure_db, cfg, obs=self.obs,
                    cluster=self.config.system).run()

    def _curate(self, month: str) -> None:
        stage = CurateStage(self.store.dir_for("csv"), obs=self.obs)
        _, _, report = stage.run(self._pipe(month), tag=month)
        with self._lock:
            self.result.curate_malformed += report.malformed
            self.result.curate_rows += report.input_rows

    def _shard_build(self) -> None:
        """Sharded replacement for every Obtain + Curate task.

        The same timeline, split into ``cfg.shards`` chained
        boundary-state shards, with curated month tables streamed into
        the same ``data/`` artifacts the text stages write.  The emit
        phase replays Obtain's fault stream, so it drops the rows
        Curate would find truncated and counts them.
        """
        from repro.fabric import fabric_db_path

        cfg = self.config
        report = self.result.shard_report = run_sharded(
            cfg.system, list(cfg.months), cfg.workdir,
            shards=cfg.shards, procs=cfg.procs, seed=cfg.seed,
            rate_scale=cfg.rate_scale, config=self._sim_config(),
            profile_spec=cfg.profile_spec,
            fabric_db=fabric_db_path(cfg.workdir) if cfg.fabric else None,
            data_dir=self.store.dir_for("csv"),
            malformed_rate=cfg.malformed_rate, obs=self.obs)
        self.result.curate_malformed = report.malformed
        self.result.curate_rows = \
            report.n_jobs + report.n_steps + report.malformed

    def _plot(self, month: str, kind: str) -> None:
        jobs = self._month_jobs(month)
        system = self.config.system
        if kind == "waits":
            spec = fig4_wait_times_chart(wait_times(jobs), system)
        elif kind == "states":
            spec = fig5_states_per_user_chart(states_per_user(jobs), system)
        elif kind == "backfill":
            spec = fig6_walltime_chart(walltime_accuracy(jobs), system)
        elif kind == "scale":
            spec = fig3_nodes_vs_elapsed_chart(nodes_vs_elapsed(jobs),
                                               system)
        else:
            raise ConfigError(f"unknown plot kind {kind!r}")
        # a fresh spec per month: the figure builders may memoize, so
        # the shared instance is never mutated in place
        self._write_chart(f"{month}-{kind}", replace(
            spec, title=f"{spec.title} — {month}",
            chart_id=f"{kind}-{month}"))

    def _write_chart(self, key: str, spec: ChartSpec) -> None:
        html = self._chart(key)
        write_html(spec, html.path)
        save_primitives(spec, html.path)
        self._specs[key] = spec
        self.result.chart_html[key] = html.path

    def _plot_volume(self) -> None:
        jobs = self._all_jobs()
        steps = self._all_steps()
        self.result.n_jobs = len(jobs)
        self.result.n_steps = len(steps)
        self._write_chart("volume", fig1_volume_chart(
            volume_by_year(jobs, steps), self.config.system))

    def _total_nodes(self, jobs) -> int:
        try:
            return get_system(self.config.system).total_nodes
        except Exception:
            return int(jobs["NNodes"].max()) if len(jobs) else 1

    def _plot_occupancy(self) -> None:
        jobs = self._all_jobs()
        occ = occupancy_timeline(jobs, self._total_nodes(jobs))
        self._write_chart("occupancy",
                          occupancy_chart(occ, self.config.system))

    def _html2png(self, key: str) -> None:
        html_path = self.result.chart_html[key]
        png = html_to_png(html_path, self._png_art(key).path)
        self.result.chart_png[key] = png

    def _insight(self, key: str) -> None:
        client = LLMClient(backend=self.config.llm_backend,
                           context=self.obs)
        resp = client.insight(self.result.chart_png[key])
        self.result.insights[key] = resp.text
        out = self._report_md(f"insight-{key}").path
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(f"# LLM insight — {key}\n\n{resp.text}\n")

    def _compare(self, key_a: str, key_b: str) -> None:
        client = LLMClient(backend=self.config.llm_backend,
                           context=self.obs)
        resp = client.compare(self.result.chart_png[key_a],
                              self.result.chart_png[key_b])
        name = f"{key_a}-vs-{key_b}"
        self.result.compares[name] = resp.text
        out = self._report_md(f"compare-{name}").path
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(f"# LLM compare — {name}\n\n{resp.text}\n")

    def _aggregate_llm_reports(self) -> None:
        """Write the two aggregate markdown files the paper publishes:
        single-file (insight) and double-file (compare) analyses."""
        single = self._report_md("llm_single_file_analysis").path
        os.makedirs(os.path.dirname(single), exist_ok=True)
        with open(single, "w", encoding="utf-8") as fh:
            fh.write("# Single-file LLM analyses\n\n")
            fh.write(f"Model: offline chart analyst "
                     f"(Gemma 3 stand-in), {len(self.result.insights)} "
                     f"charts.\n\n")
            for key in sorted(self.result.insights):
                fh.write(f"## {key}\n\n{self.result.insights[key]}\n\n")
        double = self._report_md("llm_double_file_analysis").path
        with open(double, "w", encoding="utf-8") as fh:
            fh.write("# Double-file LLM analyses\n\n")
            for name in sorted(self.result.compares):
                fh.write(f"## {name}\n\n{self.result.compares[name]}\n\n")

    def _advise(self) -> None:
        """The policy-advisor stage (future-work extension)."""
        jobs = self._all_jobs()
        advisor = PolicyAdvisor(
            waits=wait_times(jobs),
            states=states_per_user(jobs, min_jobs=5),
            backfill=walltime_accuracy(jobs),
            scale=nodes_vs_elapsed(jobs),
            util=utilization(jobs, total_nodes=self._total_nodes(jobs)),
        )
        self.result.advisor_report = advisor.report()
        out = self._report_md("policy-advisor").path
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# Policy advisor report\n\n"
                     + self.result.advisor_report + "\n")

    def _dashboard(self) -> None:
        builder = DashboardBuilder(
            f"HPC scheduling analysis — {self.config.system} "
            f"({self.config.months[0]} .. {self.config.months[-1]})")
        builder.add_stat("jobs", f"{self.result.n_jobs:,}")
        builder.add_stat("job-steps", f"{self.result.n_steps:,}")
        builder.add_stat("malformed dropped",
                         str(self.result.curate_malformed))
        builder.add_section("Volume", self._specs["volume"],
                            self.result.insights.get("volume", ""))
        builder.add_section("Occupancy", self._specs["occupancy"],
                            self.result.insights.get("occupancy", ""))
        for month in self.config.months:
            for kind in _PLOT_KINDS:
                key = f"{month}-{kind}"
                builder.add_section(f"{kind} {month}", self._specs[key],
                                    self.result.insights.get(key, ""))
        if self.result.advisor_report:
            builder.add_text_section("Policy advisor",
                                     self.result.advisor_report)
        self.result.dashboard_path = builder.write(
            self.store.declare("index", "html", subdir="dashboard").path)

    # -- composition (the linear task list of Section 3.3) -------------------------

    def build_engine(self) -> FlowEngine:
        cfg = self.config
        eng = FlowEngine(workers=cfg.workers, context=self.obs,
                         store=self.store)
        if cfg.shards:
            # paper-scale mode: one chained sharded build produces every
            # curated month table; downstream plot stages are unchanged
            # because the artifact names are identical
            shard_outs = []
            for month in cfg.months:
                jobs, steps = self._jobs(month), self._steps(month)
                shard_outs += [jobs, steps, jobs.with_fmt("npf"),
                               steps.with_fmt("npf")]
            eng.task("shard-build", self._shard_build,
                     outputs=shard_outs)
        for month in cfg.months:
            jobs, steps = self._jobs(month), self._steps(month)
            if not cfg.shards:
                pipe = self._pipe(month)
                eng.task(f"obtain-{month}",
                         lambda m=month: self._obtain(m),
                         outputs=[pipe])
                # curate is skipped on re-runs when the hash stamp
                # proves its tables still match the cached sacct pull's
                # content (incremental monthly updates)
                eng.task(f"curate-{month}",
                         lambda m=month: self._curate(m),
                         inputs=[pipe],
                         outputs=[jobs, steps, jobs.with_fmt("npf"),
                                  steps.with_fmt("npf")],
                         cache=cfg.use_cache)
            for kind in _PLOT_KINDS:
                eng.task(f"plot-{kind}-{month}",
                         lambda m=month, k=kind: self._plot(m, k),
                         inputs=[jobs],
                         outputs=[self._chart(f"{month}-{kind}")])
        all_jobs = [self._jobs(m) for m in cfg.months]
        all_steps = [self._steps(m) for m in cfg.months]
        eng.task("plot-volume", self._plot_volume,
                 inputs=all_jobs + all_steps,
                 outputs=[self._chart("volume")])
        eng.task("plot-occupancy", self._plot_occupancy,
                 inputs=all_jobs, outputs=[self._chart("occupancy")])

        keys = ["volume", "occupancy"] + \
            [f"{m}-{k}" for m in cfg.months for k in _PLOT_KINDS]
        plots = ["plot-volume", "plot-occupancy"] + \
            [f"plot-{k}-{m}" for m in cfg.months for k in _PLOT_KINDS]
        dash_inputs: list[Artifact] = []
        if cfg.enable_ai:
            for key in keys:
                png = self._png_art(key)
                md = self._report_md(f"insight-{key}")
                # HTML2PNG starts after the whole plot stage: otherwise
                # the month whose Curate ends first fills every worker
                # with rasterization and the other month's plots run
                # one at a time behind it
                eng.task(f"html2png-{key}",
                         lambda k=key: self._html2png(k),
                         inputs=[self._chart(key)], outputs=[png],
                         after=plots)
                eng.task(f"insight-{key}",
                         lambda k=key: self._insight(k),
                         inputs=[png], outputs=[md])
                dash_inputs.append(md)
            # cross-month compares on the wait-time charts (the paper's
            # March-vs-June example)
            months = list(cfg.months)
            compare_outs = []
            for a, b in zip(months, months[1:]):
                ka, kb = f"{a}-waits", f"{b}-waits"
                out = self._report_md(f"compare-{ka}-vs-{kb}")
                compare_outs.append(out)
                eng.task(f"compare-{a}-{b}",
                         lambda x=ka, y=kb: self._compare(x, y),
                         inputs=[self._png_art(ka), self._png_art(kb)],
                         outputs=[out])
            # the paper's published aggregate markdown artifacts
            eng.task("llm-reports", self._aggregate_llm_reports,
                     inputs=dash_inputs + compare_outs,
                     outputs=[
                         self._report_md("llm_single_file_analysis"),
                         self._report_md("llm_double_file_analysis"),
                     ])
        else:
            dash_inputs = [self._chart(key) for key in keys]
        advisor_md = self._report_md("policy-advisor")
        eng.task("advisor", self._advise, inputs=all_jobs,
                 outputs=[advisor_md])
        eng.task("dashboard", self._dashboard,
                 inputs=dash_inputs + [advisor_md], after=plots)
        return eng

    def _register_outputs(self, engine: FlowEngine) -> None:
        """Provenance sweep: every declared output artifact that exists
        on disk gets a ledger record (the Obtain/Curate stages already
        registered theirs inline; this covers charts, PNGs, LLM
        reports, and the dashboard, with the task's declared inputs as
        lineage)."""
        for name, task in engine.tasks.items():
            for out in task.outputs:
                if os.path.exists(out) and not self.obs.ledger.has(out):
                    self.obs.record_artifact(out, producer=name,
                                             inputs=task.inputs)

    def run(self) -> WorkflowResult:
        """Execute the workflow; raises on any stage failure.

        Whatever happens, the run manifest (``events.jsonl``,
        ``provenance.json``, ``summary.json``) and the trace page land
        in the workdir — a failed run is exactly when the provenance
        record matters most.
        """
        engine = self.build_engine()
        with self.obs.span("workflow", system=self.config.system,
                           months=len(self.config.months)):
            report = engine.run()
        self.result.flow_report = report
        self._register_outputs(engine)
        self.result.manifest = self.obs.write_manifest(self.config.workdir)
        self.result.trace_page = write_trace_page(
            self.obs, self.store.declare("trace", "html",
                                         subdir="dashboard").path)
        bad = report.failed()
        if bad:
            raise WorkflowError(
                f"{len(bad)} task(s) failed; first: {bad[0].name}\n"
                f"{bad[0].error}")
        return self.result
