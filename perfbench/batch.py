"""One rep of a batch workload, in a fresh interpreter.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/batch.py '{"workload": "paper-slice", "seed": 11,
                                 "workdir": ".bench_work/x", "mode": "run"}'

``mode`` is ``setup`` (import and configure, then exit), ``run`` (one
untraced build) or ``trace`` (one build with the per-layer wrappers of
``tracing.py`` installed).  The rep prints ``READY`` as soon as imports
and configuration are done -- the parent times set-up up to that line --
and, unless ``mode`` is ``setup``, one JSON line with the build's
figures and the errors its output checks found.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: paper-slice: the paper-scale Frontier profile over two months, two
#: chained shards (one boundary handoff saved and loaded), inline
PAPER_MONTHS = ["2024-01", "2024-02"]
PAPER_RATE = 0.01
#: figure2: the paper's March-vs-June compare on Frontier
FIG2_MONTHS = ("2024-03", "2024-06")
FIG2_RATE = 0.02


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _profile_spec(name: str) -> dict:
    with open(os.path.join(HERE, "profiles", f"{name}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _tree_sha256(root: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


# -- paper-slice ----------------------------------------------------------------

def _setup_paper(seed: int, workdir: str):
    from repro.sched.simulator import SimConfig
    from repro.workflows.shard import run_sharded
    from repro.workload.spec import profile_from_spec

    spec = _profile_spec("paper_scale")
    profile_from_spec(spec)             # validates the frozen spec
    config = SimConfig(seed=seed)

    def run():
        return run_sharded("frontier", PAPER_MONTHS, workdir, shards=2,
                           procs=1, seed=seed, rate_scale=PAPER_RATE,
                           config=config, profile_spec=spec)
    return run


def _check_paper(report, workdir: str) -> tuple[dict, list[str]]:
    from repro.frame.io import sniff_npf
    from repro.store.hashing import file_sha256

    errors = []
    counted = {"jobs": 0, "steps": 0}
    for month in PAPER_MONTHS:
        for kind in ("jobs", "steps"):
            path = report.artifacts[month][kind]
            with open(path, newline="", encoding="utf-8") as fh:
                rows = csv.reader(fh)
                header = next(rows)
                n = sum(1 for _ in rows)
            counted[kind] += n
            twin = sniff_npf(path[:-len(".csv")] + ".npf")
            if twin["nrows"] != n:
                errors.append(f"{month}-{kind}.npf has {twin['nrows']} "
                              f"rows, its CSV {n}")
            if [c["name"] for c in twin["columns"]] != header:
                errors.append(f"{month}-{kind}.npf columns differ from "
                              f"its CSV header")
            if twin["meta"].get("source_sha256") != file_sha256(path):
                errors.append(f"{month}-{kind}.npf is not the twin of "
                              f"the CSV on disk")
    if counted["jobs"] != report.n_jobs:
        errors.append(f"job CSVs hold {counted['jobs']} rows, report "
                      f"says {report.n_jobs}")
    if counted["steps"] != report.n_steps:
        errors.append(f"step CSVs hold {counted['steps']} rows, report "
                      f"says {report.n_steps}")
    facts = {"n_jobs": report.n_jobs, "n_steps": report.n_steps,
             "data_sha256": _tree_sha256(os.path.join(workdir, "data"))}
    return facts, errors


# -- figure2 --------------------------------------------------------------------

def _setup_figure2(seed: int, workdir: str):
    from repro.workflows.main import (SchedulingAnalysisWorkflow,
                                      WorkflowConfig)

    config = WorkflowConfig(system="frontier", months=FIG2_MONTHS,
                            workdir=workdir, workers=2, seed=seed,
                            rate_scale=FIG2_RATE,
                            profile_spec=_profile_spec("frontier"))

    def run():
        return SchedulingAnalysisWorkflow(config).run()
    return run


def _check_figure2(result, workdir: str) -> tuple[dict, list[str]]:
    errors = []
    if not result.flow_report.ok:
        errors.append("FlowReport.ok is false")
    keys = sorted(result.chart_html)
    if len(keys) != 2 + 4 * len(FIG2_MONTHS):
        errors.append(f"{len(keys)} charts")
    for key in keys:
        for label, path in (("chart", result.chart_html[key]),
                            ("png", result.chart_png.get(key, ""))):
            if not path or not os.path.getsize(path):
                errors.append(f"{label} {key} missing or empty")
        if not result.insights.get(key, "").strip():
            errors.append(f"insight {key} missing")
    if len(result.compares) != len(FIG2_MONTHS) - 1 or \
            not all(t.strip() for t in result.compares.values()):
        errors.append("compare missing")
    advisor_md = os.path.join(workdir, "llm", "policy-advisor.md")
    if not result.advisor_report.strip() or not os.path.exists(advisor_md):
        errors.append("advisor report missing")
    for label, path in (("dashboard", result.dashboard_path),
                        ("trace page", result.trace_page)):
        if not path or not os.path.getsize(path):
            errors.append(f"{label} missing")
    if result.curate_rows != result.n_jobs + result.n_steps + \
            result.curate_malformed:
        errors.append(f"curate_rows {result.curate_rows} != jobs "
                      f"{result.n_jobs} + steps {result.n_steps} + "
                      f"malformed {result.curate_malformed}")
    facts = {"n_jobs": result.n_jobs, "n_steps": result.n_steps,
             "curate_rows": result.curate_rows,
             "malformed": result.curate_malformed}
    return facts, errors


def _flow_metrics(report, workers: int) -> dict:
    from repro.flow.trace import concurrency_profile

    peak, _avg = concurrency_profile(report.trace)
    return {"flow.tasks": len(report.results),
            "flow.peak_concurrency": peak,
            "flow.idle_worker_s": max(0.0, workers * report.trace.makespan_s
                                      - report.trace.busy_s)}


WORKLOADS = {"paper-slice": (_setup_paper, _check_paper),
             "figure2": (_setup_figure2, _check_figure2)}


def main() -> int:
    req = json.loads(sys.argv[1])
    setup, check = WORKLOADS[req["workload"]]
    run = setup(int(req["seed"]), req["workdir"])
    print("READY", flush=True)
    if req["mode"] == "setup":
        return 0

    tracer = expected = None
    if req["mode"] == "trace":
        sys.path.insert(0, HERE)
        import tracing

        tracer = tracing.Tracer(f"{req['workload']}:{req['seed']}")
        expected = tracing.install(tracer, req["workload"])
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    result = run()
    wall_s, cpu_s = time.perf_counter() - wall0, _cpu_s() - cpu0
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": _vm_hwm_mb()}
    facts, errors = check(result, req["workdir"])
    out.update(facts)

    if tracer is not None:
        summary = tracer.summary()
        layers, unfired = tracing.per_layer(summary, expected)
        layers["other.busy_s"] = cpu_s - summary["busy_s"]
        if req["workload"] == "figure2":
            layers.update(_flow_metrics(result.flow_report,
                                        result.config.workers))
            if layers["slurm.parse.rows"] != result.curate_rows:
                errors.append(f"slurm.parse.rows {layers['slurm.parse.rows']}"
                              f" != curate_rows {result.curate_rows}")
        else:
            rows = result.n_jobs + result.n_steps
            if layers["pipeline.curate.rows"] != rows:
                errors.append(f"pipeline.curate.rows "
                              f"{layers['pipeline.curate.rows']} != "
                              f"n_jobs + n_steps {rows}")
        tracer.dump(req["spans"])
        out.update(layers=layers, unfired=unfired)
    out["errors"] = errors
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
