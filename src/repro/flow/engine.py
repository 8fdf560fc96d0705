"""The dataflow engine core."""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import networkx as nx

from repro._util.errors import WorkflowError
from repro.flow.trace import ExecutionTrace, TraceRecorder
from repro.obs import EventBus, RunContext

__all__ = ["Task", "TaskResult", "FlowReport", "FlowEngine"]


@dataclass
class Task:
    """One unit of work with file-reference dataflow."""

    name: str
    fn: Callable[[], object]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    #: explicit extra dependencies (task names), for control-only edges
    after: tuple[str, ...] = ()
    #: re-run attempts on failure (transient-fault tolerance)
    retries: int = 0
    #: seconds slept before the first re-run attempt, doubling per
    #: subsequent attempt (0 = immediate retry, the historical default)
    retry_backoff_s: float = 0.0
    #: skip execution when every output already exists and is newer than
    #: every input (incremental re-runs, like the paper's data cache)
    cache: bool = False

    def is_fresh(self) -> bool:
        """True when cached outputs make execution unnecessary.

        A missing declared *input* forces re-execution just like a
        missing output: outputs on disk cannot be trusted to reflect an
        input the task says it reads but that no longer exists.
        """
        if not self.cache or not self.outputs:
            return False
        try:
            out_times = [os.path.getmtime(p) for p in self.outputs]
            in_times = [os.path.getmtime(p) for p in self.inputs]
        except OSError:
            return False
        newest_in = max(in_times, default=float("-inf"))
        return min(out_times) >= newest_in


@dataclass
class TaskResult:
    """Outcome of one task.

    ``status`` is one of:

    - ``"ok"`` — the task function ran and returned
    - ``"cached"`` — fresh outputs let the run be skipped
      (:meth:`Task.is_fresh`); counts as success for
      :attr:`FlowReport.ok` and is listed by :meth:`FlowReport.cached`
    - ``"failed"`` — the function raised on every attempt
    - ``"skipped"`` — never executed (upstream failure, fail-fast
      cancellation, or the task never became ready); ``error`` says why
    """

    name: str
    status: str                   # "ok" | "cached" | "failed" | "skipped"
    duration_s: float = 0.0
    value: object = None
    error: str = ""
    #: times the task function was invoked (0 for cached/skipped; > 1
    #: means retries happened — visible in the run manifest)
    attempts: int = 0


@dataclass
class FlowReport:
    """Outcome of one engine run."""

    results: dict[str, TaskResult] = field(default_factory=dict)
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.status in ("ok", "cached")
                   for r in self.results.values())

    def cached(self) -> list[TaskResult]:
        return [r for r in self.results.values() if r.status == "cached"]

    def failed(self) -> list[TaskResult]:
        return [r for r in self.results.values() if r.status == "failed"]


def _norm(path: str | os.PathLike) -> str:
    # accepts plain strings and typed handles (repro.store.Artifact or
    # anything os.PathLike); the engine's dataflow inference runs on
    # the normalized path either way
    return os.path.normpath(os.fspath(path))


class FlowEngine:
    """Build a task list, infer the DAG, execute concurrently.

    Example::

        eng = FlowEngine(workers=4)
        eng.task("obtain", fetch, outputs=["cache/jan.txt"])
        eng.task("curate", clean, inputs=["cache/jan.txt"],
                 outputs=["data/jan.csv"])
        report = eng.run()
    """

    def __init__(self, workers: int = 4, fail_fast: bool = False,
                 context: RunContext | None = None,
                 store=None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if workers < 1:
            raise WorkflowError("workers must be >= 1")
        self.workers = workers
        self.fail_fast = fail_fast
        #: observability context; when absent the engine runs on a
        #: private bus whose only subscriber is the trace recorder
        self.context = context
        #: optional repro.store.ArtifactStore: with one attached,
        #: cached-task freshness is verified by content hash against
        #: the store's persisted stamps (mtime ordering alone cannot
        #: catch a rewritten-in-place input), and completed cached
        #: tasks are re-stamped
        self.store = store
        self._sleep = sleep
        self._tasks: dict[str, Task] = {}

    # -- construction -----------------------------------------------------------

    def task(self, name: str, fn: Callable[[], object], *,
             inputs: Sequence[str | os.PathLike] = (),
             outputs: Sequence[str | os.PathLike] = (),
             after: Sequence[str] = (), retries: int = 0,
             retry_backoff_s: float = 0.0, cache: bool = False) -> Task:
        """Register a task; returns it for reference.

        ``inputs``/``outputs`` accept path strings or artifact handles
        (any ``os.PathLike``, e.g. :class:`repro.store.Artifact`)."""
        if name in self._tasks:
            raise WorkflowError(f"duplicate task name {name!r}")
        if retries < 0:
            raise WorkflowError(f"task {name!r}: negative retries")
        if retry_backoff_s < 0:
            raise WorkflowError(f"task {name!r}: negative retry backoff")
        t = Task(name=name, fn=fn,
                 inputs=tuple(_norm(p) for p in inputs),
                 outputs=tuple(_norm(p) for p in outputs),
                 after=tuple(after), retries=retries,
                 retry_backoff_s=retry_backoff_s, cache=cache)
        self._tasks[name] = t
        return t

    @property
    def tasks(self) -> dict[str, Task]:
        """Registered tasks by name (read-only view by convention)."""
        return self._tasks

    def graph(self) -> nx.DiGraph:
        """The inferred dependency DAG (validated)."""
        g = nx.DiGraph()
        producer: dict[str, str] = {}
        for t in self._tasks.values():
            g.add_node(t.name)
            for out in t.outputs:
                other = producer.get(out)
                if other is not None:
                    raise WorkflowError(
                        f"both {other!r} and {t.name!r} produce {out}")
                producer[out] = t.name
        for t in self._tasks.values():
            for inp in t.inputs:
                src = producer.get(inp)
                if src is not None and src != t.name:
                    g.add_edge(src, t.name)
            for dep in t.after:
                if dep not in self._tasks:
                    raise WorkflowError(
                        f"{t.name!r} depends on unknown task {dep!r}")
                g.add_edge(dep, t.name)
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise WorkflowError(f"dependency cycle: {cycle}")
        return g

    # -- freshness ---------------------------------------------------------------

    def _is_fresh(self, task: Task) -> bool:
        """Cached-task freshness: content hashes against the store's
        stamp when one is attached and covers this task; the historical
        mtime comparison otherwise."""
        if not task.cache or not task.outputs:
            return False
        if self.store is not None:
            verdict = self.store.task_is_fresh(task.name, task.inputs,
                                               task.outputs)
            if verdict is not None:
                return verdict
        return task.is_fresh()

    def _stamp(self, task: Task) -> None:
        """Record the content hashes a just-completed cached task read
        and wrote, so the next run's freshness check is hash-verified."""
        if self.store is None or not task.cache or not task.outputs:
            return
        try:
            self.store.record_stamp(task.name, task.inputs, task.outputs)
        except OSError:
            pass        # an unstampable task just re-runs next time

    # -- execution ----------------------------------------------------------------

    def run(self) -> FlowReport:
        """Execute the DAG on the worker pool; returns the full report."""
        g = self.graph()
        report = FlowReport()
        # lifecycle events flow through the run context's bus when one
        # is attached, else a private bus; either way the legacy
        # ExecutionTrace is reconstructed by a TraceRecorder subscriber
        bus = self.context.bus if self.context is not None else EventBus()
        recorder = bus.subscribe(TraceRecorder(report.trace))
        try:
            return self._run(g, report, bus)
        finally:
            bus.unsubscribe(recorder)

    def _run(self, g: nx.DiGraph, report: FlowReport,
             bus: EventBus) -> FlowReport:
        t_origin = time.perf_counter()
        bus.emit("run_started", "flow", tasks=len(self._tasks),
                 workers=self.workers)
        indegree = {n: g.in_degree(n) for n in g.nodes}
        ready = [n for n, d in indegree.items() if d == 0]
        # deterministic submission order: the tasks released together
        # (the roots here, one completion's successors below) go to the
        # pool in registration order, and the pool starts what it holds
        # first in first out — so a task released later starts after
        # every task released before it, whatever its registration
        # order (one worker runs t0, t1 after t0, t2 as t0, t2, t1)
        order = {name: i for i, name in enumerate(self._tasks)}
        ready.sort(key=order.__getitem__)
        lock = threading.Lock()
        running: dict[Future, str] = {}
        cancelled: set[str] = set()
        failed_any = False

        def finish(name: str, status: str, value, err: str,
                   t0: float, t1: float, attempts: int) -> None:
            """Record one terminal outcome (result + lifecycle event)."""
            report.results[name] = TaskResult(
                name=name, status=status, duration_s=t1 - t0,
                value=value, error=err, attempts=attempts)
            bus.emit("task_finished", name, status=status,
                     start_s=t0 - t_origin, end_s=t1 - t_origin,
                     attempts=attempts)

        def launch(pool: ThreadPoolExecutor, name: str) -> None:
            task = self._tasks[name]
            bus.emit("task_ready", name)

            def call():
                t0 = time.perf_counter()
                if self._is_fresh(task):
                    return ("cached", None, "", t0, time.perf_counter(), 0)
                bus.emit("task_started", name)
                last_tb = ""
                attempts = 0
                for attempt in range(task.retries + 1):
                    attempts += 1
                    try:
                        value = task.fn()
                        self._stamp(task)
                        return ("ok", value, "", t0,
                                time.perf_counter(), attempts)
                    except Exception:
                        last_tb = traceback.format_exc()
                    if attempt < task.retries:
                        bus.emit("task_retried", name, attempt=attempts)
                        if task.retry_backoff_s > 0:
                            # deterministic exponential backoff:
                            # backoff, 2*backoff, 4*backoff, ...
                            self._sleep(task.retry_backoff_s
                                        * (2 ** attempt))
                return ("failed", None, last_tb, t0,
                        time.perf_counter(), attempts)
            running[pool.submit(call)] = name

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            for name in ready:
                launch(pool, name)
            while running:
                done, _ = wait(list(running), return_when=FIRST_COMPLETED)
                newly_ready: list[str] = []
                for fut in done:
                    name = running.pop(fut)
                    status, value, err, t0, t1, attempts = fut.result()
                    with lock:
                        finish(name, status, value, err, t0, t1, attempts)
                    if status == "failed":
                        failed_any = True
                        for desc in nx.descendants(g, name):
                            cancelled.add(desc)
                        if self.fail_fast:
                            for f in running:
                                f.cancel()
                    for succ in g.successors(name):
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            newly_ready.append(succ)
                if failed_any and self.fail_fast:
                    break
                # drain via an explicit worklist, re-sorting whenever a
                # skip releases successors mid-drain: every dispatch
                # (launch or skip) happens in registration order among
                # the ready tasks known at that moment — appending to
                # the list being iterated would dispatch transitively
                # skipped successors in arbitrary discovery order
                worklist = sorted(newly_ready, key=order.__getitem__)
                while worklist:
                    name = worklist.pop(0)
                    if name in cancelled:
                        report.results[name] = TaskResult(
                            name=name, status="skipped",
                            error="upstream failure")
                        bus.emit("task_skipped", name,
                                 reason="upstream failure")
                        # propagate skip transitively
                        released = False
                        for succ in g.successors(name):
                            indegree[succ] -= 1
                            if indegree[succ] == 0:
                                worklist.append(succ)
                                released = True
                        if released:
                            worklist.sort(key=order.__getitem__)
                        continue
                    launch(pool, name)

        # a fail-fast break leaves futures behind: pool shutdown has
        # waited for the ones already executing, so record their real
        # outcome rather than pretending they never became ready
        for fut, name in running.items():
            if fut.cancelled():
                report.results[name] = TaskResult(
                    name=name, status="skipped",
                    error="cancelled (fail_fast)")
                bus.emit("task_skipped", name,
                         reason="cancelled (fail_fast)")
                continue
            status, value, err, t0, t1, attempts = fut.result()
            finish(name, status, value, err, t0, t1, attempts)
        for name in self._tasks:
            if name not in report.results:
                report.results[name] = TaskResult(
                    name=name, status="skipped",
                    error="never became ready")
                bus.emit("task_skipped", name,
                         reason="never became ready")
        report.wall_s = time.perf_counter() - t_origin
        bus.emit("run_finished", "flow", ok=report.ok,
                 wall_s=round(report.wall_s, 6),
                 tasks=len(report.results))
        return report

    def run_or_raise(self) -> FlowReport:
        """:meth:`run`, raising on any task failure with its traceback."""
        report = self.run()
        bad = report.failed()
        if bad:
            raise WorkflowError(
                f"{len(bad)} task(s) failed; first: {bad[0].name}\n"
                f"{bad[0].error}")
        return report
