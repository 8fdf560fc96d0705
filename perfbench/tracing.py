"""Per-layer spans recorded from outside the program.

:func:`install` replaces each function or method listed in :data:`LAYERS`
at the name its callers look up (``repro.workflows.shard.curate_records``,
``repro.serve.api.run_insight`` ...) with a wrapper that records one span
per call.  A span holds its name, start, end, parent span, the root span
of its thread (the run or request it belongs to), and its *self* time:
CPU from ``time.thread_time`` and wall from ``time.perf_counter``, minus
whatever wrapped calls nested inside it on the same thread.  Self CPU
summed over every span therefore never counts a nanosecond twice, and
work on thread pools adds up to process CPU.

Spans live in memory, one list per thread, and are written out once, when
the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter

__all__ = ["Tracer", "install", "LAYERS", "per_layer", "PER_LAYER_NAMES",
           "percentile"]


class _ThreadState:
    __slots__ = ("stack", "spans", "calls", "counts", "samples")

    def __init__(self) -> None:
        #: open frames: [child_cpu, child_wall, span_id, root_id]
        self.stack: list[list] = []
        #: closed spans: (name, id, parent, root, start, end, cpu, wall)
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {}


class Tracer:
    """Span store for one process; one :class:`_ThreadState` per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.t0 = time.perf_counter()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn, post=None, count: bool = True):
        """``fn`` timed as span ``name``; ``post(state, args, result,
        exc)`` adds counters once the call returned or raised."""
        tracer = self
        thread_time, perf = time.thread_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            if count:
                st.calls[name] += 1
            stack = st.stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            frame = [0.0, 0.0, sid, parent[3] if parent else sid]
            stack.append(frame)
            result = exc = None
            w0 = perf()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                c1 = thread_time()
                w1 = perf()
                stack.pop()
                cpu, wall = c1 - c0, w1 - w0
                if parent is not None:
                    parent[0] += cpu
                    parent[1] += wall
                st.spans.append((name, sid, parent[2] if parent else 0,
                                 frame[3], w0, w1, cpu - frame[0],
                                 wall - frame[1]))
                if post is not None:
                    post(st, args, result, exc)

        return wrapper

    def wrap_generator(self, name: str, fn):
        """A generator function whose every ``next`` is a span of
        ``name``; the call itself counts once."""
        tracer = self
        step = self.wrap(name, next, count=False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.state().calls[name] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- results -------------------------------------------------------------

    def _merged(self):
        with self._lock:
            threads = list(self._threads)
        calls, counts, samples = Counter(), Counter(), {}
        for st in threads:
            calls.update(st.calls)
            counts.update(st.counts)
            for key, values in st.samples.items():
                samples.setdefault(key, []).extend(values)
        return threads, calls, counts, samples

    def summary(self) -> dict:
        """Per-op ``calls``, ``busy_s``, ``wait_s`` and inclusive wall
        durations, plus the counters the post hooks added."""
        threads, calls, counts, samples = self._merged()
        ops: dict[str, dict] = {}
        names = {span[1]: span[0] for st in threads for span in st.spans}
        nested: Counter = Counter()
        for st in threads:
            for name, _sid, parent, _root, w0, w1, cpu, wall in st.spans:
                op = ops.setdefault(name, {"busy_s": 0.0, "wait_s": 0.0,
                                           "durations": []})
                op["busy_s"] += cpu
                op["wait_s"] += max(0.0, wall - cpu)
                op["durations"].append(w1 - w0)
                if parent:
                    nested[(names.get(parent), name)] += 1
        for name, n in calls.items():
            ops.setdefault(name, {"busy_s": 0.0, "wait_s": 0.0,
                                  "durations": []})["calls"] = n
        busy = sum(op["busy_s"] for op in ops.values())
        return {"ops": ops, "counts": dict(counts), "samples": samples,
                "nested": nested, "busy_s": busy}

    def dump(self, path: str) -> None:
        """Every span as one JSON line (times relative to tracer start)."""
        threads, *_ = self._merged()
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for st in threads:
                for name, sid, parent, root, w0, w1, cpu, wall in st.spans:
                    fh.write(json.dumps({
                        "name": name, "id": sid, "parent": parent,
                        "request": f"{self.run_id}:{root}",
                        "start": round(w0 - self.t0, 7),
                        "end": round(w1 - self.t0, 7),
                        "self_cpu": round(cpu, 7),
                        "self_wall": round(wall, 7)}) + "\n")


# -- post hooks: the per-op counters -------------------------------------------

def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _add_len(key):
    def post(st, args, result, exc):
        if exc is None:
            st.counts[key] += len(result)
    return post


def _add_size_of_arg(key, index):
    def post(st, args, result, exc):
        if exc is None and len(args) > index:
            st.counts[key] += _size(args[index])
    return post


def _add_size_of_result(key):
    def post(st, args, result, exc):
        if exc is None:
            st.counts[key] += _size(result)
    return post


def _manifest_bytes(st, args, result, exc):
    if exc is None:
        st.counts["obs.write_manifest.bytes"] += sum(
            _size(p) for p in result.values())


def _parse_failed(st, args, result, exc):
    if exc is not None:
        st.counts["slurm.parse.failed"] += 1


def _curate_records_rows(st, args, result, exc):
    if exc is None:
        st.counts["pipeline.curate.rows"] += len(result[0]) + len(result[1])


def _curate_stage_rows(st, args, result, exc):
    if exc is None:
        report = result[2]
        st.counts["pipeline.curate.rows"] += report.job_rows + \
            report.step_rows


def _cache_hit(st, args, result, exc):
    if exc is None and result[1]:
        st.counts["serve.cache.hits"] += 1


def _job_submitted(st, args, result, exc):
    if exc is None:
        st.samples.setdefault("serve.jobs", []).append(result)
    elif type(exc).__name__ == "QueueFull":
        st.counts["serve.jobs.rejected"] += 1


class Op:
    """One traced layer boundary: a span name and where to install it."""

    def __init__(self, name, targets, workloads, post=None,
                 generator=()):
        self.name = name
        self.targets = targets
        self.workloads = set(workloads)
        self.post = post
        self.generator = set(generator)


_BATCH = ("paper-slice", "figure2")
_ALL = ("paper-slice", "figure2", "serve-mix")

#: every traced op, its install points, and the workloads expected to
#: call it (an op that never fires on one of those is reported unfired)
LAYERS = [
    Op("workload.generate",
       ["repro.workload.generate:WorkloadGenerator.generate"], _ALL,
       _add_len("workload.generate.jobs")),
    Op("sched.run_window",
       ["repro.sched.shard:ChainSimulator.run_window"], ["paper-slice"]),
    Op("sched.simulate_month",
       ["repro.workflows.main:simulate_month"], ["figure2"]),
    Op("sched.finalize",
       ["repro.workflows.shard:finalize_outcomes"], ["paper-slice"],
       _add_len("sched.finalize.jobs")),
    Op("sched.handoff",
       ["repro.sched.shard:ShardHandoff.save",
        "repro.sched.shard:ShardHandoff.load"], ["paper-slice"],
       _add_size_of_arg("sched.handoff.bytes", 1)),
    Op("policylab.evaluate",
       ["repro.policylab.sweep:PolicySweep.evaluate"], ["serve-mix"]),
    Op("slurm.emit",
       ["repro.slurm.emit:SacctEmitter.job_row",
        "repro.slurm.emit:SacctEmitter.step_row"], _BATCH),
    Op("slurm.parse",
       ["repro.pipeline.curate:record_from_row"], _BATCH, _parse_failed),
    Op("pipeline.obtain",
       ["repro.pipeline.obtain:ObtainStage.run"], ["figure2"]),
    Op("pipeline.curate",
       ["repro.workflows.shard:curate_records"], ["paper-slice"],
       _curate_records_rows),
    Op("pipeline.curate",
       ["repro.pipeline.curate:CurateStage.run"], ["figure2"],
       _curate_stage_rows),
    Op("frame.write_csv",
       ["repro.pipeline.curate:write_csv"], ["figure2"],
       _add_size_of_arg("frame.write_csv.bytes", 1)),
    Op("frame.read_csv",
       ["repro.pipeline.curate:read_csv",
        "repro.workflows.shard:read_csv"], _BATCH),
    Op("frame.write_npf",
       ["repro.pipeline.curate:write_npf",
        "repro.workflows.shard:write_npf"], _BATCH,
       _add_size_of_arg("frame.write_npf.bytes", 1)),
    Op("frame.spool",
       ["repro.frame.io:NpfAppender.append",
        "repro.workflows.shard:iter_npf"], ["paper-slice"],
       generator=["repro.workflows.shard:iter_npf"]),
    Op("frame.read_table",
       ["repro.store.store:read_table"], ["figure2", "serve-mix"]),
    Op("store.sha256",
       ["repro.store.hashing:file_sha256"], _ALL,
       _add_size_of_arg("store.sha256.bytes", 0)),
    Op("store.load_frame",
       ["repro.store.store:ArtifactStore.load_frame"], ["figure2"]),
    Op("analytics.compute",
       [f"repro.workflows.main:{fn}" for fn in (
           "nodes_vs_elapsed", "occupancy_timeline", "states_per_user",
           "utilization", "volume_by_year", "wait_times",
           "walltime_accuracy")], ["figure2"]),
    Op("advisor.report",
       ["repro.advisor.rules:PolicyAdvisor.report"], ["figure2"]),
    Op("charts.write_html",
       ["repro.workflows.main:write_html"], ["figure2"]),
    Op("raster.save_primitives",
       ["repro.workflows.main:save_primitives"], ["figure2"]),
    Op("raster.html_to_png",
       ["repro.workflows.main:html_to_png", "repro.raster:html_to_png"],
       ["figure2"], _add_size_of_result("raster.html_to_png.bytes")),
    Op("charts.render",
       ["repro.serve.api:ServeApp._render_chart"], ["serve-mix"]),
    Op("llm.insight",
       ["repro.llm.client:LLMClient.insight"], ["figure2", "serve-mix"]),
    Op("llm.compare",
       ["repro.llm.client:LLMClient.compare"], ["figure2"]),
    Op("dashboard.write",
       ["repro.dashboard.build:DashboardBuilder.write"], ["figure2"]),
    Op("dashboard.trace_page",
       ["repro.workflows.main:write_trace_page"], ["figure2"]),
    Op("obs.write_manifest",
       ["repro.obs.context:RunContext.write_manifest"], _BATCH,
       _manifest_bytes),
    Op("workflows.sim_shard",
       ["repro.workflows.shard:_TASK_FNS[shard_sim]"], ["paper-slice"]),
    Op("workflows.emit_month",
       ["repro.workflows.shard:_TASK_FNS[shard_emit]"], ["paper-slice"]),
    Op("serve.parse",
       ["repro.serve.proto:RequestParser.feed"], ["serve-mix"]),
    Op("serve.dispatch",
       ["repro.serve.loop:EventLoopServer._handle"], ["serve-mix"]),
    Op("serve.cache",
       ["repro.serve.cache:LRUCache.get_or_put"], ["serve-mix"],
       _cache_hit),
    Op("serve.jobs",
       ["repro.serve.jobs:JobQueue.submit"], ["serve-mix"],
       _job_submitted),
]


def _resolve(target: str):
    """``(owner, attr, kind)`` for ``module:attr``, ``module:Cls.attr``
    or ``module:DICT[key]``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    if "[" in path:
        attr, key = path[:-1].split("[")
        return getattr(owner, attr), key, "item"
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], "class" if isinstance(owner, type) \
        else "module"


def install(tracer: Tracer, workload: str) -> list[str]:
    """Install every op's wrappers; returns the ops expected to fire
    on ``workload``."""
    for op in LAYERS:
        for target in op.targets:
            owner, attr, kind = _resolve(target)
            if kind == "item":
                owner[attr] = tracer.wrap(op.name, owner[attr], op.post)
                continue
            raw = owner.__dict__[attr] if kind == "class" \
                else getattr(owner, attr)
            if target in op.generator:
                setattr(owner, attr, tracer.wrap_generator(op.name, raw))
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    tracer.wrap(op.name, raw.__func__, op.post)))
            else:
                setattr(owner, attr, tracer.wrap(op.name, raw, op.post))
    return sorted({op.name for op in LAYERS if workload in op.workloads})


# -- per-layer metrics -----------------------------------------------------------

#: (metric, unit) in report order; every metric is printed on every
#: workload, 0 where the workload does not reach that layer
PER_LAYER_NAMES: list[tuple[str, str]] = []


def _op_metrics(name, extra=(), wait=False):
    PER_LAYER_NAMES.append((f"{name}.calls", "count"))
    PER_LAYER_NAMES.append((f"{name}.busy_s", "s"))
    if wait:
        PER_LAYER_NAMES.append((f"{name}.wait_s", "s"))
    for key, unit in extra:
        PER_LAYER_NAMES.append((f"{name}.{key}", unit))


_op_metrics("workload.generate", [("jobs", "count")])
_op_metrics("sched.run_window")
_op_metrics("sched.simulate_month")
_op_metrics("sched.finalize", [("jobs", "count")])
_op_metrics("sched.handoff", [("bytes", "B")])
_op_metrics("policylab.evaluate")
_op_metrics("slurm.emit", [("rows", "count")])
_op_metrics("slurm.parse", [("rows", "count"), ("failed", "count")])
_op_metrics("pipeline.obtain", wait=True)
_op_metrics("pipeline.curate", [("rows", "count")])
_op_metrics("frame.write_csv", [("bytes", "B")])
_op_metrics("frame.read_csv")
_op_metrics("frame.write_npf", [("bytes", "B")])
_op_metrics("frame.spool")
_op_metrics("frame.read_table")
_op_metrics("store.sha256", [("bytes", "B")])
_op_metrics("store.load_frame", [("hit_ratio", "ratio")])
PER_LAYER_NAMES += [("flow.tasks", "count"),
                    ("flow.peak_concurrency", "count"),
                    ("flow.idle_worker_s", "s")]
_op_metrics("analytics.compute")
_op_metrics("advisor.report")
_op_metrics("charts.write_html")
_op_metrics("raster.save_primitives")
_op_metrics("raster.html_to_png", [("bytes", "B")])
_op_metrics("charts.render")
_op_metrics("llm.insight")
_op_metrics("llm.compare")
_op_metrics("dashboard.write")
_op_metrics("dashboard.trace_page")
_op_metrics("obs.write_manifest", [("bytes", "B")])
_op_metrics("workflows.sim_shard")
_op_metrics("workflows.emit_month")
_op_metrics("serve.parse")
_op_metrics("serve.dispatch", [("p50_ms", "ms"), ("p99_ms", "ms")],
            wait=True)
_op_metrics("serve.cache", [("hit_ratio", "ratio")])
_op_metrics("serve.jobs", [("wait_ms_p50", "ms"), ("rejected", "count")])
PER_LAYER_NAMES += [("loadgen.lag_p99_ms", "ms"), ("loadgen.busy_s", "s"),
                    ("other.busy_s", "s"), ("trace.overhead_frac", "ratio"),
                    ("trace.unfired", "count")]


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def per_layer(summary: dict, expected: list[str]) -> tuple[dict, list[str]]:
    """Flatten a :meth:`Tracer.summary` into the per-layer metric dict
    (harness and flow metrics are left for the caller) and the list of
    expected ops that never fired."""
    ops, counts = summary["ops"], summary["counts"]
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER_NAMES:
        op_name, _, key = name.rpartition(".")
        op = ops.get(op_name)
        if key == "calls":
            out[name] = op.get("calls", 0) if op else 0
        elif key == "busy_s":
            out[name] = op["busy_s"] if op else 0.0
        elif key == "wait_s":
            out[name] = op["wait_s"] if op else 0.0
        elif name in counts:
            out[name] = counts[name]
    # both are called once per sacct row
    out["slurm.emit.rows"] = out["slurm.emit.calls"]
    out["slurm.parse.rows"] = out["slurm.parse.calls"]
    dispatch = ops.get("serve.dispatch", {}).get("durations", [])
    out["serve.dispatch.p50_ms"] = percentile(dispatch, 0.5) * 1e3
    out["serve.dispatch.p99_ms"] = percentile(dispatch, 0.99) * 1e3
    loads = out["store.load_frame.calls"]
    misses = summary["nested"].get(("store.load_frame", "frame.read_table"),
                                   0)
    out["store.load_frame.hit_ratio"] = (loads - misses) / loads if loads \
        else 0.0
    cache_calls = out.get("serve.cache.calls", 0)
    out["serve.cache.hit_ratio"] = \
        counts.get("serve.cache.hits", 0) / cache_calls if cache_calls \
        else 0.0
    jobs = summary["samples"].get("serve.jobs", [])
    waits = [(j.started_s - j.submitted_s) * 1e3 for j in jobs
             if j.started_s is not None]
    out["serve.jobs.wait_ms_p50"] = statistics.median(waits) if waits \
        else 0.0
    unfired = [name for name in expected
               if not ops.get(name, {}).get("calls")]
    return out, unfired
