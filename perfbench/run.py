"""The repository benchmark: three workloads, checked, measured from outside.

Run from the repository root::

    python3 perfbench/run.py --workload paper-slice --seed 11 --seconds 20 --trace 0

``paper-slice``
    ``repro.workflows.shard.run_sharded`` over the paper-scale Frontier
    profile (two months, two chained shards, inline dispatch): the
    paper-scale data path, dominated by the record -> sacct text ->
    record round-trip of ``curate_records``.
``figure2``
    ``SchedulingAnalysisWorkflow`` on Frontier, March vs June, two flow
    workers, AI stages on (offline chart analyst): the paper's Figure-2
    workflow through LLM insights to the dashboard.
``serve-mix``
    ``repro-serve`` with its defaults in its own process, serving the
    ``figure2`` output of the same seed: a Zipf GET mix at 200 req/s
    offered over two keep-alive connections (a quarter revalidations),
    one insight or simulate job per second, then a closed-loop capacity
    phase.

Every build and every response is checked.  With ``--trace 0`` the last
line of output is one JSON object carrying every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
from a traced run (wrappers installed by ``tracing.py``) next to an
untraced one.  The table printed above it says which metric measures
what on each workload; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from loadgen import Client, Op  # noqa: E402
from tracing import PER_LAYER_NAMES, percentile  # noqa: E402

WORKLOADS = ("paper-slice", "figure2", "serve-mix")
DEFAULT_SEED = {"paper-slice": 11, "figure2": 21, "serve-mix": 21}

#: end-to-end metrics (BENCHMARK.json order) and the workloads on which
#: each measures something of its own; elsewhere the JSON line carries
#: the workload's own figure restated in that metric's unit (README)
END_TO_END = [
    ("setup_s", "s", WORKLOADS),
    ("jobs_per_s", "jobs/s", ("paper-slice",)),
    ("wall_s", "s", ("figure2",)),
    ("peak_rss_mb", "MiB", WORKLOADS),
    ("req_per_s", "req/s", ("serve-mix",)),
    ("latency_p50_ms", "ms", ("serve-mix",)),
    ("latency_p99_ms", "ms", ("serve-mix",)),
    ("job_turnaround_p50_ms", "ms", ("serve-mix",)),
    ("cpu_ms_per_req", "ms", ("serve-mix",)),
]

#: batch reps: at least this many builds, each preceded by this many
#: set-up-only interpreter starts (set-up is timed on every start), and
#: the seed step between the inputs of consecutive builds
MIN_BUILDS = 3
SETUP_PROBES = 2
SEED_STRIDE = 1000
BUILD_TIMEOUT_S = 120

#: serve-mix: offered load, job rate, revalidation share, job polling
OPEN_RATE = 200.0
JOB_EVERY_S = 1.0
REVALIDATE = 0.25
ZIPF_S = 1.0
POLL_S = 0.02
SERVER_STARTS = 3
#: share of --seconds spent in the open loop (about 4500 GETs at 30 s, so
#: 45 beyond the p99); the rest is the capacity phase, reported as the
#: median of its per-second completions
OPEN_SHARE = 0.75


class Bench:
    """Counts operations and failures across one benchmark run."""

    def __init__(self, args) -> None:
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + os.environ["PYTHONPATH"]
            if os.environ.get("PYTHONPATH") else "")
        self.work = os.path.join(ROOT, ".bench_work",
                                 f"{args.workload}-{os.getpid()}")
        self.trace_dir = os.path.join(ROOT, ".bench_work", "trace")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def median(values):
    return statistics.median(values) if values else float("nan")


# -- batch workloads ---------------------------------------------------------------

def spawn_batch(bench: Bench, workload: str, mode: str, seed: int,
                workdir: str, keep: bool = False) -> dict | None:
    """One fresh interpreter running ``batch.py``; ``None`` on failure."""
    req = {"workload": workload, "seed": seed, "workdir": workdir,
           "mode": mode,
           "spans": os.path.join(bench.trace_dir, f"{workload}.spans.jsonl")}
    bench.attempted += 1
    os.makedirs(bench.work, exist_ok=True)
    err_path = os.path.join(bench.work, "batch.stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "batch.py"),
             json.dumps(req)], cwd=ROOT, env=bench.env,
            stdout=subprocess.PIPE, stderr=err, text=True)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            rest, _ = proc.communicate()
        code = proc.returncode
    if not keep:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or ready.strip() != "READY":
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-400:]
        bench.fail(f"batch {mode} exited {code}: {tail}")
        return None
    out = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" \
        else {}
    out["setup_s"] = setup_s
    for error in out.get("errors", []):
        bench.fail(f"{mode}: {error}")
    return out


def run_batch(bench: Bench) -> dict:
    """Untraced builds, each after ``SETUP_PROBES`` set-up-only starts,
    for ``--seconds``; build *i* runs on seed ``seed + SEED_STRIDE * i``,
    so a run's medians average over inputs as well as over time.  With
    ``--trace 1``: untraced and traced builds of ``seed`` in alternation.
    """
    args = bench.args
    build_dir = os.path.join(bench.work, "build")

    def spawn(mode: str, seed: int = args.seed) -> dict | None:
        return spawn_batch(bench, args.workload, mode, seed, build_dir)

    spawn("setup")                      # fills the bytecode cache
    setups, builds, traced = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or \
            len(builds) < (2 if args.trace else MIN_BUILDS):
        if args.trace:
            rep, trace_rep = spawn("run"), spawn("trace")
            if rep is None or trace_rep is None:
                break
            builds.append(rep)
            traced.append(trace_rep)
            continue
        for _ in range(SETUP_PROBES):
            probe = spawn("setup")
            if probe is not None:
                setups.append(probe["setup_s"])
        rep = spawn("run", args.seed + SEED_STRIDE * len(builds))
        if rep is None:
            break
        builds.append(rep)
        setups.append(rep["setup_s"])
    return {"setups": setups, "builds": builds, "traced": traced}


def batch_end_to_end(runs: dict) -> dict:
    builds = runs["builds"]
    wall = median([b["wall_s"] for b in builds])
    n = len(builds)
    metrics = {
        "setup_s": (median(runs["setups"]), len(runs["setups"])),
        "jobs_per_s": (median([b["n_jobs"] / b["wall_s"] for b in builds]),
                       n),
        "wall_s": (wall, n),
        "peak_rss_mb": (median([b["peak_rss_mb"] for b in builds]), n),
        # a batch request is one whole build
        "req_per_s": (1.0 / wall, n),
        "latency_p50_ms": (wall * 1e3, n),
        "latency_p99_ms": (wall * 1e3, n),
        "job_turnaround_p50_ms": (wall * 1e3, n),
        "cpu_ms_per_req": (median([b["cpu_s"] for b in builds]) * 1e3, n),
    }
    return metrics


def batch_per_layer(runs: dict) -> tuple[dict, list[str]]:
    traced = runs["traced"]
    layers = {}
    for name, _unit in PER_LAYER_NAMES:
        values = [t["layers"][name] for t in traced if name in t["layers"]]
        layers[name] = median(values) if values else 0.0
    untraced = median([b["wall_s"] for b in runs["builds"]])
    layers["trace.overhead_frac"] = \
        median([t["wall_s"] for t in traced]) / untraced - 1.0
    unfired = sorted({u for t in traced for u in t["unfired"]})
    layers["trace.unfired"] = len(unfired)
    for key in ("loadgen.lag_p99_ms", "loadgen.busy_s"):
        layers[key] = 0.0
    return layers, unfired


# -- serve-mix -------------------------------------------------------------------

class Item:
    """One GET of the catalogue and what its warm-up response was."""

    def __init__(self, path: str, raw_file: bool = False,
                 dynamic: bool = False) -> None:
        self.path = path
        self.raw_file = raw_file        # body must hash to its ETag
        self.dynamic = dynamic          # body differs between reads
        self.etag = ""
        self.sha = ""
        self.size = 0


def build_schedule(rng: random.Random, seconds: float) -> list[tuple]:
    """Open-loop arrivals drawn before set-up: ``(offset_s, kind, u,
    revalidate)`` with Poisson GETs (``u`` picks the item) and one job
    POST per second."""
    out, t = [], 0.0
    while True:
        t += rng.expovariate(OPEN_RATE)
        if t >= seconds:
            break
        out.append((t, "get", rng.random(), rng.random() < REVALIDATE))
    n_jobs = int(seconds / JOB_EVERY_S)
    for k in range(n_jobs):
        out.append(((k + 0.5) * JOB_EVERY_S, "job", 0.0, False))
    out.sort(key=lambda e: e[0])
    return out


def zipf_pick(items: list, u: float):
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(items))]
    target = u * sum(weights)
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if target < acc:
            return item
    return items[-1]


class Server:
    """One ``repro-serve`` process and the client driving it."""

    def __init__(self, bench: Bench, run_dir: str, traced: bool) -> None:
        self.bench = bench
        serve_args = ["--workdir", run_dir, "--port", "0"]
        cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
               serve_trace_file(bench)] + serve_args if traced else \
            [sys.executable, "-m", "repro.serve"] + serve_args
        self.err = open(os.path.join(bench.work, "serve.stderr"), "a",
                        encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=bench.env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        self.client = None
        self.sent = 0
        try:
            banner = self.proc.stdout.readline()
            if "http://" not in banner:
                raise RuntimeError(f"repro-serve did not start: {banner!r}")
            host, port = banner.split("http://", 1)[1].split()[0].split(":")
            self.client = Client(host, int(port), n_conns=2)
            health = self.get("/healthz")
            if health.error:
                raise RuntimeError(f"healthz failed: {health.error}")
            self.catalogue, self.charts = self.build_catalogue()
            for item in self.catalogue:
                self.warm(item)
            # one job of each kind, so that no measured job pays for the
            # imports and first-use caches of the job path
            for kind, path, body in self.job_bodies(0):
                self.run_job(kind, path, body)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        # Zipf rank by response size: listings and pages are hot, the
        # megabyte tables and the dashboard are rare
        self.catalogue.sort(key=lambda i: (i.size, i.path))

    # -- requests --------------------------------------------------------------

    def get(self, path: str, headers=None) -> Op:
        self.bench.attempted += 1
        self.sent += 1
        op = self.client.request("GET", path, headers=headers)
        if op.error or op.response.status != 200:
            self.bench.fail(f"GET {path}: {op.error or op.response.status}")
        return op

    def get_json(self, path: str) -> dict:
        op = self.get(path)
        return json.loads(op.response.body) if not op.error else {}

    def build_catalogue(self) -> tuple[list[Item], list[str]]:
        """Every GET of the mix, read from the run's own listings."""
        run = self.get_json("/api/runs")["runs"][0]["id"]
        charts = self.get_json("/api/charts")["charts"]
        records = self.get_json(f"/api/runs/{run}/artifacts")["artifacts"]
        items = [Item("/", raw_file=True), Item("/trace", raw_file=True),
                 Item("/api/runs"), Item("/api/charts"),
                 Item(f"/api/runs/{run}/manifest"),
                 Item(f"/api/runs/{run}/summary"),
                 Item(f"/api/runs/{run}/provenance"),
                 Item("/metrics", dynamic=True)]
        for key in charts:
            items += [Item(f"/api/charts/{key}.svg"),
                      Item(f"/api/charts/{key}.png")]
        paths = sorted(r["path"] for r in records)
        for path in paths:
            folder, name = path.split("/", 1)
            stem = os.path.splitext(name)[0]
            if folder == "data" and path.endswith(".csv"):
                items += [Item(f"/api/artifacts/{stem}?format=csv",
                               raw_file=True),
                          Item(f"/api/artifacts/{stem}?format=npf",
                               raw_file=True),
                          Item(f"/api/artifacts/{stem}?format=json")]
            elif folder == "llm":
                items.append(Item(f"/api/artifacts/{stem}", raw_file=True))
        lineage = [p for p in paths if p.startswith(("llm/policy", "charts/"))
                   ][:2] + [p for p in paths if p.startswith("data/")][:1]
        for path, direction in zip(lineage, ("up", "up", "down")):
            items.append(Item(f"/api/runs/{run}/provenance?artifact={path}"
                              f"&direction={direction}"))
        n_events = self.get_json(f"/api/runs/{run}/summary")[
            "event_counts"]
        total = sum(n_events.values())
        for offset in range(0, total, 50):
            items.append(Item(f"/api/runs/{run}/events?offset={offset}"
                              f"&limit=50"))
        return items, charts

    def warm(self, item: Item) -> None:
        op = self.get(item.path)
        if op.error:
            return
        body = op.response.body
        item.etag = op.response.headers.get("etag", "").strip('"')
        item.sha = hashlib.sha256(body).hexdigest()
        item.size = len(body)
        if item.raw_file and item.etag != item.sha:
            self.bench.fail(f"{item.path}: body does not hash to its ETag")

    def check(self, op: Op) -> bool:
        """Validate one mix response; records the failure."""
        item, revalidate = op.tag
        resp = op.response
        error = op.error
        if not error:
            expect = 304 if revalidate else 200
            if resp.status != expect:
                error = f"status {resp.status}, expected {expect}"
            elif not revalidate and not item.dynamic and \
                    hashlib.sha256(resp.body).hexdigest() != item.sha:
                error = "body differs from the warm-up body"
            elif item.dynamic and \
                    b"repro_serve_http_requests_total" not in resp.body:
                error = "metrics exposition lacks the request counter"
        if error:
            self.bench.fail(f"GET {item.path}: {error}")
        return not error

    def job_bodies(self, k: int) -> list[tuple[str, str, dict]]:
        """Job ``k`` of each kind: insight on chart ``k`` (round robin),
        simulate with seed ``k``; the same sequence on every seed."""
        return [("insight", "/api/insights",
                 {"chart": self.charts[k % len(self.charts)]}),
                ("simulate", "/api/simulate",
                 {"system": "frontier", "days": 2, "month": "2024-03",
                  "seed": k})]

    def run_job(self, kind: str, path: str, body: dict) -> None:
        """Submit one job and poll it to the end (set-up only)."""
        self.bench.attempted += 1
        self.sent += 1
        op = self.client.request("POST", path, body=json.dumps(body).encode())
        op.tag = (kind, body)
        poll = self.on_posted(op)
        done: list = []
        while poll is not None:
            time.sleep(POLL_S)
            self.bench.attempted += 1
            self.sent += 1
            answer = self.client.request("GET", poll.path)
            answer.tag = poll.tag
            poll = self.on_polled(answer, done)

    def pick(self, u: float, revalidate: bool) -> tuple[Item, bool]:
        pool = [i for i in self.catalogue if i.etag] if revalidate \
            else self.catalogue
        return zipf_pick(pool, u), revalidate

    def get_op(self, item: Item, revalidate: bool, due: float) -> Op:
        headers = {"If-None-Match": f'"{item.etag}"'} if revalidate else None
        return Op("GET", item.path, headers=headers, due=due,
                  tag=(item, revalidate))

    # -- phases ----------------------------------------------------------------

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / \
            os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def measure(self, schedule: list[tuple], cap_draws: list[tuple],
                cap_s: float) -> dict:
        """The open-loop phase, then the closed-loop capacity phase."""
        bench = self.bench
        gets, jobs = [], []
        t0 = time.perf_counter() + 0.05
        ops = []
        n_jobs = 0
        for offset, kind, u, revalidate in schedule:
            due = t0 + offset
            if kind == "get":
                ops.append(self.get_op(*self.pick(u, revalidate), due))
                continue
            kind, path, body = self.job_bodies(n_jobs // 2)[n_jobs % 2]
            n_jobs += 1
            ops.append(Op("POST", path, body=json.dumps(body).encode(),
                          due=due, tag=(kind, body)))
        answered = [0]

        def on_done(op: Op):
            bench.attempted += 1
            self.sent += 1
            answered[0] += op.response is not None
            if op.method == "POST":
                return self.on_posted(op)
            if isinstance(op.tag, dict):
                return self.on_polled(op, jobs)
            gets.append((op.done - op.due) * 1e3 if self.check(op)
                        else math.inf)
            return None

        busy0 = time.thread_time()
        cpu0 = self.cpu_s()
        self.client.open_loop(ops, on_done)
        open_s = time.perf_counter() - t0
        cpu_open = self.cpu_s() - cpu0
        lags = [o.lag * 1e3 for o in ops]

        draws = itertools.cycle(cap_draws)
        cap_ok = []

        def make_op():
            u, revalidate = next(draws)
            return self.get_op(*self.pick(u, revalidate),
                               time.perf_counter())

        def on_cap(op: Op):
            bench.attempted += 1
            self.sent += 1
            if self.check(op):
                cap_ok.append(op)

        cap_t0 = time.perf_counter()
        self.client.closed_loop(make_op, cap_s, on_cap)
        per_second = [0] * int(cap_s)
        for op in cap_ok:
            second = int(op.done - cap_t0)
            if second < len(per_second):
                per_second[second] += 1
        n_posted = sum(1 for e in schedule if e[1] == "job")
        if len(jobs) != n_posted:
            bench.fail(f"{len(jobs)} of {n_posted} jobs finished well")
        return {
            "gets": gets, "turnaround": [j[0] for j in jobs],
            "run_s": [j[1] for j in jobs], "open_s": open_s,
            "cpu_ms_per_req": cpu_open * 1e3 / max(1, answered[0]),
            "req_per_s": median(per_second), "cap_n": len(cap_ok),
            "lag_p99_ms": percentile(lags, 0.99),
            "loadgen_busy_s": time.thread_time() - busy0}

    def on_posted(self, op: Op):
        """The first poll of a job just accepted."""
        kind, body = op.tag
        if op.error or op.response.status != 202:
            self.bench.fail(f"POST {op.path}: "
                            f"{op.error or op.response.status}")
            return None
        poll = json.loads(op.response.body)["poll"]
        return Op("GET", poll, due=op.done + POLL_S,
                  tag={"post": op, "kind": kind, "body": body})

    def on_polled(self, op: Op, jobs: list):
        """The next poll, or ``None`` once the job is finished and its
        result checked."""
        info = op.tag
        if op.error or op.response.status != 200:
            self.bench.fail(f"GET {op.path}: "
                            f"{op.error or op.response.status}")
            return None
        job = json.loads(op.response.body)
        status = job.get("status")
        if status in ("pending", "running"):
            return Op("GET", op.path, due=op.done + POLL_S, tag=info)
        result = job.get("result") or {}
        if status != "done":
            self.bench.fail(f"job {op.path} {status}: {job.get('error')}")
        elif info["kind"] == "insight" and (
                result.get("chart") != info["body"]["chart"]
                or not str(result.get("insight", "")).strip()):
            self.bench.fail(f"job {op.path}: malformed insight result")
        elif info["kind"] == "simulate" and (
                result.get("n_requests", 0) <= 0
                or len(result.get("outcomes", [])) != 5):
            self.bench.fail(f"job {op.path}: malformed simulate result")
        else:
            jobs.append(((op.done - info["post"].due) * 1e3,
                         job["finished_s"] - job["started_s"]))
        return None

    def final_metrics_count(self) -> int:
        """``serve.http.requests`` as the server counts it now."""
        op = self.get("/metrics")
        if op.error:
            return -1
        for line in op.response.body.decode().splitlines():
            if line.startswith("repro_serve_http_requests_total"):
                return int(float(line.split()[-1]))
        return -1

    def stop(self) -> int:
        """SIGTERM (the graceful drain) and wait; returns the exit code."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        return code


def run_serve(bench: Bench) -> dict:
    args = bench.args
    open_s = args.seconds * OPEN_SHARE
    cap_s = args.seconds - open_s
    rng = random.Random(f"serve-mix:{args.seed}")
    schedule = build_schedule(rng, open_s)
    cap_draws = [(rng.random(), rng.random() < REVALIDATE)
                 for _ in range(4096)]
    run_dir = os.path.join(bench.work, "run")
    if spawn_batch(bench, "figure2", "run", args.seed, run_dir,
                   keep=True) is None:
        return {}
    out = {"setups": []}
    for traced in ([False, True] if args.trace else [False]):
        starts = 1 if args.trace else SERVER_STARTS
        for i in range(starts):
            server = Server(bench, run_dir, traced)
            try:
                out["setups"].append(server.setup_s)
                if i == starts - 1:
                    result = server.measure(schedule, cap_draws, cap_s)
                    result["metrics_count"] = server.final_metrics_count()
                    result["sent"] = server.sent
                    result["peak_rss_mb"] = server.vm_hwm_mb()
                    out["traced" if traced else "untraced"] = result
            finally:
                if server.stop() != 0:
                    bench.fail("repro-serve did not shut down cleanly")
    return out


def serve_end_to_end(runs: dict) -> dict:
    r = runs["untraced"]
    gets = r["gets"]
    turnaround = r["turnaround"]
    return {
        "setup_s": (median(runs["setups"]), len(runs["setups"])),
        # the serve workload's jobs are its insight and simulate jobs
        "jobs_per_s": (len(r["run_s"]) / r["open_s"], len(r["run_s"])),
        "wall_s": (statistics.fmean(r["run_s"]), len(r["run_s"])),
        "peak_rss_mb": (r["peak_rss_mb"], 1),
        "req_per_s": (r["req_per_s"], r["cap_n"]),
        "latency_p50_ms": (percentile(gets, 0.5), len(gets)),
        "latency_p99_ms": (percentile(gets, 0.99), len(gets)),
        "job_turnaround_p50_ms": (median(turnaround), len(turnaround)),
        "cpu_ms_per_req": (r["cpu_ms_per_req"], len(gets)),
    }


def serve_trace_file(bench: Bench) -> str:
    """Where the traced server leaves its per-layer metrics."""
    return os.path.join(bench.trace_dir, "serve-mix.layers.json")


def serve_per_layer(bench: Bench, runs: dict) -> tuple[dict, list[str]]:
    with open(serve_trace_file(bench), encoding="utf-8") as fh:
        dumped = json.load(fh)
    layers = {name: dumped["layers"].get(name, 0.0)
              for name, _unit in PER_LAYER_NAMES}
    traced = runs["traced"]
    layers["loadgen.lag_p99_ms"] = traced["lag_p99_ms"]
    layers["loadgen.busy_s"] = traced["loadgen_busy_s"]
    # at a fixed offered load the server's cost per request is its CPU
    layers["trace.overhead_frac"] = \
        traced["cpu_ms_per_req"] / runs["untraced"]["cpu_ms_per_req"] - 1.0
    layers["trace.unfired"] = len(dumped["unfired"])
    calls = layers["serve.dispatch.calls"]
    if not calls == traced["sent"] == traced["metrics_count"]:
        bench.fail(f"serve.dispatch.calls {calls}, requests sent "
                   f"{traced['sent']}, serve.http.requests "
                   f"{traced['metrics_count']}: not all equal")
    return layers, dumped["unfired"]


# -- output ------------------------------------------------------------------------

def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEED[args.workload]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2

    bench = Bench(args)
    os.makedirs(bench.trace_dir, exist_ok=True)
    try:
        runs = run_serve(bench) if args.workload == "serve-mix" \
            else run_batch(bench)
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    metrics: dict[str, dict] = {}
    if args.trace:
        try:
            layers, unfired = serve_per_layer(bench, runs) \
                if args.workload == "serve-mix" else batch_per_layer(runs)
        except (KeyError, ZeroDivisionError, statistics.StatisticsError,
                OSError) as exc:
            print(f"perfbench: no trace: {exc}", file=sys.stderr)
            return 1
        rows = []
        for name, unit in PER_LAYER_NAMES:
            value = float(layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            rows.append((f"{name:<32}", f"{value:>14.6g}", unit))
        print_table(f"{args.workload} per-layer (traced run, seed "
                    f"{args.seed})", rows)
        print(f"  unfired: {', '.join(unfired) or 'none'}")
    else:
        try:
            e2e = serve_end_to_end(runs) \
                if args.workload == "serve-mix" else batch_end_to_end(runs)
        except (KeyError, ZeroDivisionError, statistics.StatisticsError) \
                as exc:
            print(f"perfbench: no result: {exc}", file=sys.stderr)
            return 1
        rows = []
        for name, unit, applies in END_TO_END:
            value, n = e2e[name]
            metrics[name] = {"value": float(value), "unit": unit}
            note = "" if args.workload in applies else \
                "(restated; see README)"
            rows.append((f"{name:<22}", f"{value:>12.5g}", f"{unit:<7}",
                         f"n={n:<6}", note))
        frac = bench.failed / max(1, bench.attempted)
        rows.append((f"{'failed_frac':<22}", f"{frac:>12.5g}",
                     f"{'ratio':<7}", f"n={bench.attempted}", ""))
        print_table(f"{args.workload} end-to-end (seed {args.seed}, "
                    f"{args.seconds:g} s)", rows)
    for error in bench.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
