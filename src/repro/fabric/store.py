"""The durable job store: SQLite-backed states, leases, and history.

Every background job ``repro-serve`` accepts (LLM insights, policy
what-ifs, campaign members) and every shard of a paper-scale fabric
build is one row here.  :class:`FabricStore` is shaped after Balsam's
service/launcher split: jobs live in one SQLite database (WAL mode,
under the workdir's existing ``.store/`` layout), move through explicit
states, and every state change is appended to an immutable transition
history — the store *is* the audit log.

State machine::

    pending ──lease──► leased ──start──► running ──complete──► done
       ▲                 │                  │
       │                 └──lease expired───┤──error/expiry──► orphaned
       │                                    │                     │
       └───────────── requeue (attempt < max_attempts) ◄──────────┤
                                            │                     │
                                            └──────► failed ◄─────┘

Work is *leased*, never popped: a launcher takes a job by writing a
unique lease token plus an expiry, and must heartbeat to keep it.  A
crashed launcher simply stops heartbeating; any other process that
calls :meth:`requeue_expired` moves the orphan back to ``pending``
(bounded retries, deterministic exponential backoff) where the next
launcher picks it up.  No job is ever lost and no terminal state is
reached twice — ``tests/test_fabric.py`` kills a launcher with
``SIGKILL`` mid-campaign and verifies exactly that from the history.

Each operation holds one pooled connection: the store is shared by
request threads and launcher workers in every ``repro-serve`` shard and
in independent ``repro-launcher`` processes, and SQLite's own locking
is the only synchronization this design needs — which is also why the
admission bound (``submit(capacity=)``) is checked inside the insert's
write transaction.  Timestamps in the database are epoch seconds on
purpose — they must be comparable *across* processes and restarts,
which monotonic clocks are not; in-process deadline arithmetic (the
launcher's heartbeat cadence) uses ``time.monotonic``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro._util.errors import ConfigError, DataError, ReproError

__all__ = ["FabricStore", "FabricJob", "QueueFull", "FABRIC_STATES",
           "TERMINAL_STATES", "fabric_db_path"]

#: every legal job state, in lifecycle order
FABRIC_STATES = ("pending", "leased", "running", "done", "failed",
                 "orphaned")

#: states a job never leaves
TERMINAL_STATES = frozenset({"done", "failed"})

#: deterministic exponential backoff bounds for requeued jobs
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 60.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS fabric_jobs (
    id              TEXT PRIMARY KEY,
    kind            TEXT NOT NULL,
    payload         TEXT NOT NULL,
    state           TEXT NOT NULL,
    campaign        TEXT,
    attempt         INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    not_before_s    REAL NOT NULL DEFAULT 0,
    lease           TEXT,
    worker          TEXT,
    lease_expires_s REAL,
    result          TEXT,
    error           TEXT NOT NULL DEFAULT '',
    created_s       REAL NOT NULL,
    updated_s       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS fabric_jobs_state
    ON fabric_jobs(state, not_before_s, created_s);
CREATE INDEX IF NOT EXISTS fabric_jobs_campaign
    ON fabric_jobs(campaign);
CREATE TABLE IF NOT EXISTS fabric_transitions (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    job    TEXT NOT NULL,
    t_s    REAL NOT NULL,
    src    TEXT NOT NULL,
    dst    TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS fabric_transitions_job
    ON fabric_transitions(job, seq);
CREATE TABLE IF NOT EXISTS fabric_campaigns (
    id        TEXT PRIMARY KEY,
    name      TEXT NOT NULL,
    spec      TEXT NOT NULL,
    created_s REAL NOT NULL
);
"""

_JOB_COLUMNS = ("id", "kind", "payload", "state", "campaign", "attempt",
                "max_attempts", "not_before_s", "lease", "worker",
                "lease_expires_s", "result", "error", "created_s",
                "updated_s")

#: every job row plus its start and finish times, read off the history
#: (so a database written before those fields existed reads the same)
_SELECT_JOBS = (
    "SELECT %s,"
    " (SELECT MAX(t_s) FROM fabric_transitions"
    "  WHERE job = fabric_jobs.id AND dst = 'running'),"
    " (SELECT MAX(t_s) FROM fabric_transitions"
    "  WHERE job = fabric_jobs.id AND dst IN ('done', 'failed'))"
    " FROM fabric_jobs" % ", ".join(_JOB_COLUMNS))


class QueueFull(ReproError):
    """A bounded submission was refused: the store already holds
    ``capacity`` pending ad-hoc jobs (HTTP 429)."""


def fabric_db_path(workdir: str | os.PathLike) -> str:
    """The conventional fabric database location for one workdir
    (shared with the artifact store's ``.store/`` directory)."""
    return os.path.join(os.fspath(workdir), ".store", "fabric.sqlite3")


@dataclass
class FabricJob:
    """One durable job row, decoded."""

    id: str
    kind: str
    payload: dict
    state: str
    campaign: str | None
    attempt: int
    max_attempts: int
    not_before_s: float
    lease: str | None
    worker: str | None
    lease_expires_s: float | None
    result: object
    error: str
    created_s: float
    updated_s: float
    #: time of the latest ``running`` transition (None before any)
    started_s: float | None = None
    #: time of the terminal transition (None until done or failed)
    finished_s: float | None = None

    def to_dict(self) -> dict:
        """Polling-endpoint shape: ``status`` is ``pending``,
        ``running``, ``done`` or ``failed`` (a job leased but not yet
        started reads ``pending``); times are epoch seconds."""
        status = self.state if self.state in (
            "running", "done", "failed") else "pending"
        out = {"id": self.id, "kind": self.kind, "status": status,
               "attempt": self.attempt,
               "max_attempts": self.max_attempts,
               "submitted_s": round(self.created_s, 3),
               "updated_s": round(self.updated_s, 3)}
        if self.started_s is not None:
            out["started_s"] = round(self.started_s, 3)
        if self.finished_s is not None:
            out["finished_s"] = round(self.finished_s, 3)
        if self.campaign:
            out["campaign"] = self.campaign
        if self.worker:
            out["worker"] = self.worker
        if self.state == "done":
            out["result"] = self.result
        if self.state == "failed":
            out["error"] = self.error
        return out


def _row_to_job(row: tuple) -> FabricJob:
    d = dict(zip(_JOB_COLUMNS + ("started_s", "finished_s"), row))
    d["payload"] = json.loads(d["payload"])
    d["result"] = json.loads(d["result"]) if d["result"] else None
    return FabricJob(**d)


class FabricStore:
    """Crash-safe job store over one SQLite database.

    ``obs`` is an optional :class:`repro.obs.RunContext`; when present
    the store reports ``serve.fabric.*`` counters/gauges and emits a
    ``fabric_transition`` event per state change (the durable history
    in ``fabric_transitions`` is written regardless).
    """

    def __init__(self, path: str | os.PathLike, obs=None,
                 timeout_s: float = 10.0) -> None:
        self.path = os.fspath(path)
        self.obs = obs
        self.timeout_s = timeout_s
        self._pool: list[sqlite3.Connection] = []
        self._pool_pid = os.getpid()
        self._pool_lock = threading.Lock()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with self._db() as conn:
            # WAL is persistent: set once here, every later connection
            # (any process) inherits readers-don't-block-writers
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)

    # -- connections ---------------------------------------------------------------

    @contextmanager
    def _db(self) -> Iterator[sqlite3.Connection]:
        """A pooled connection, held for one operation: opening one
        costs more than a job poll's query, and in ``repro-serve``
        each sqlite call hands the GIL to a running job.  A failed
        operation's open transaction is closed (rolled back), not
        reused; a forked child opens its own."""
        with self._pool_lock:
            if self._pool_pid != os.getpid():
                self._pool, self._pool_pid = [], os.getpid()
            conn = self._pool.pop() if self._pool else None
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=self.timeout_s,
                                   isolation_level=None,
                                   check_same_thread=False)
            conn.execute("PRAGMA synchronous=NORMAL")
        try:
            yield conn
        finally:
            if conn.in_transaction:
                conn.close()
            else:
                with self._pool_lock:
                    self._pool.append(conn)

    # -- metrics / events ----------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.counter(name).inc()

    def _gauges(self, conn: sqlite3.Connection) -> None:
        if self.obs is None:
            return
        # the state index bounds this by the live jobs, not the history
        rows = conn.execute(
            "SELECT state, COUNT(*) FROM fabric_jobs WHERE state IN"
            " ('pending', 'leased', 'running') GROUP BY state")
        counts = dict(rows.fetchall())
        self.obs.gauge("serve.fabric.pending").set(
            counts.get("pending", 0))
        self.obs.gauge("serve.fabric.running").set(
            counts.get("leased", 0) + counts.get("running", 0))

    def _transition(self, conn: sqlite3.Connection, job_id: str,
                    src: str, dst: str, detail: str = "") -> None:
        """Append one history row (caller holds the transaction)."""
        conn.execute(
            "INSERT INTO fabric_transitions (job, t_s, src, dst, detail)"
            " VALUES (?, ?, ?, ?, ?)",
            (job_id, time.time(), src, dst, detail))
        if self.obs is not None:
            self.obs.bus.emit("fabric_transition", job_id,
                              **{"from": src, "to": dst,
                                 "detail": detail})

    # -- submission ----------------------------------------------------------------

    def submit(self, kind: str, payload: dict, *,
               campaign: str | None = None, job_id: str | None = None,
               max_attempts: int = 3,
               capacity: int | None = None) -> FabricJob:
        """Insert one pending job; idempotent when ``job_id`` is given.

        An explicit ``job_id`` that already exists returns the stored
        job unchanged — that is what lets a crashed campaign submission
        be replayed wholesale without duplicating members.  With a
        ``capacity``, the insert raises :class:`QueueFull` while the
        store already holds that many pending ad-hoc jobs (campaign
        members do not count); the count and the insert share one
        write transaction, so every process submitting to this
        database shares the bound.
        """
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        job_id = job_id or f"fj-{uuid.uuid4().hex[:12]}"
        now = time.time()
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            if capacity is not None:
                held = conn.execute(
                    "SELECT COUNT(*) FROM fabric_jobs WHERE campaign IS"
                    " NULL AND state IN ('pending', 'leased')").fetchone()
                if held[0] >= capacity:
                    conn.execute("ROLLBACK")
                    raise QueueFull(
                        f"job queue full ({capacity} pending)")
            cur = conn.execute(
                "INSERT OR IGNORE INTO fabric_jobs (id, kind, payload,"
                " state, campaign, max_attempts, created_s, updated_s)"
                " VALUES (?, ?, ?, 'pending', ?, ?, ?, ?)",
                (job_id, kind, json.dumps(payload, sort_keys=True,
                                          default=str),
                 campaign, max_attempts, now, now))
            if cur.rowcount:
                self._transition(conn, job_id, "", "pending",
                                 "submitted")
            conn.execute("COMMIT")
            if cur.rowcount:
                self._count("serve.fabric.submitted")
            self._gauges(conn)
            return self._get(conn, job_id)

    # -- queries -------------------------------------------------------------------

    def _get(self, conn: sqlite3.Connection,
             job_id: str) -> FabricJob | None:
        row = conn.execute(_SELECT_JOBS + " WHERE id = ?",
                           (job_id,)).fetchone()
        return _row_to_job(row) if row else None

    def get(self, job_id: str) -> FabricJob | None:
        with self._db() as conn:
            return self._get(conn, job_id)

    def list_jobs(self, campaign: str | None = None) -> list[FabricJob]:
        """Every job (or one campaign's members), oldest first."""
        sql = _SELECT_JOBS
        args: tuple = ()
        if campaign is not None:
            sql += " WHERE campaign = ?"
            args = (campaign,)
        with self._db() as conn:
            return [_row_to_job(r) for r in conn.execute(
                sql + " ORDER BY created_s, id", args)]

    def counts(self, campaign: str | None = None) -> dict[str, int]:
        """Job count per state (every state present, zeros included)."""
        sql = "SELECT state, COUNT(*) FROM fabric_jobs"
        args: tuple = ()
        if campaign is not None:
            sql += " WHERE campaign = ?"
            args = (campaign,)
        with self._db() as conn:
            found = dict(conn.execute(sql + " GROUP BY state", args))
        return {s: int(found.get(s, 0)) for s in FABRIC_STATES}

    def transitions(self, job_id: str | None = None) -> list[dict]:
        """The append-only history, oldest first."""
        sql = ("SELECT seq, job, t_s, src, dst, detail"
               " FROM fabric_transitions")
        args: tuple = ()
        if job_id is not None:
            sql += " WHERE job = ?"
            args = (job_id,)
        with self._db() as conn:
            rows = conn.execute(sql + " ORDER BY seq", args).fetchall()
        return [{"seq": r[0], "job": r[1], "t_s": r[2], "from": r[3],
                 "to": r[4], "detail": r[5]} for r in rows]

    # -- leasing (the launcher contract) -------------------------------------------

    def lease(self, worker: str, lease_s: float,
              now: float | None = None) -> FabricJob | None:
        """Atomically claim the oldest runnable pending job.

        The claim writes a fresh lease token; every later mutation of
        the job (``start``/``heartbeat``/``complete``/``fail``) must
        present that token, so a stale launcher whose lease expired and
        was re-issued cannot corrupt the second attempt.
        """
        now = time.time() if now is None else now
        token = uuid.uuid4().hex
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT id FROM fabric_jobs WHERE state = 'pending'"
                " AND not_before_s <= ? ORDER BY created_s, id LIMIT 1",
                (now,)).fetchone()
            if row is None:
                conn.execute("COMMIT")
                return None
            job_id = row[0]
            conn.execute(
                "UPDATE fabric_jobs SET state = 'leased', lease = ?,"
                " worker = ?, lease_expires_s = ?, updated_s = ?"
                " WHERE id = ?",
                (token, worker, now + lease_s, now, job_id))
            self._transition(conn, job_id, "pending", "leased",
                             f"worker {worker}")
            conn.execute("COMMIT")
            self._count("serve.fabric.leased")
            self._gauges(conn)
            return self._get(conn, job_id)

    def _guarded_update(self, conn: sqlite3.Connection, job_id: str,
                        lease: str, from_states: tuple[str, ...],
                        set_sql: str, args: tuple) -> str | None:
        """UPDATE guarded by lease token + state; returns the prior
        state on success, None when the lease is stale."""
        marks = ", ".join("?" for _ in from_states)
        row = conn.execute(
            "SELECT state FROM fabric_jobs WHERE id = ? AND lease = ?"
            " AND state IN (%s)" % marks,
            (job_id, lease) + from_states).fetchone()
        if row is None:
            return None
        conn.execute(
            "UPDATE fabric_jobs SET %s WHERE id = ?" % set_sql,
            args + (job_id,))
        return row[0]

    def start(self, job_id: str, lease: str) -> bool:
        """``leased -> running`` (the launcher began executing)."""
        now = time.time()
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            src = self._guarded_update(
                conn, job_id, lease, ("leased",),
                "state = 'running', updated_s = ?", (now,))
            if src is not None:
                self._transition(conn, job_id, src, "running")
            conn.execute("COMMIT")
            self._gauges(conn)
            return src is not None

    def heartbeat(self, job_id: str, lease: str,
                  lease_s: float) -> bool:
        """Extend a live lease; ``False`` means the lease was lost
        (expired and requeued) and the holder must abandon the job."""
        now = time.time()
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            src = self._guarded_update(
                conn, job_id, lease, ("leased", "running"),
                "lease_expires_s = ?, updated_s = ?",
                (now + lease_s, now))
            conn.execute("COMMIT")
        if src is not None:
            self._count("serve.fabric.heartbeats")
        return src is not None

    def complete(self, job_id: str, lease: str, result) -> bool:
        """``running|leased -> done`` with the serialized result."""
        now = time.time()
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            src = self._guarded_update(
                conn, job_id, lease, ("running", "leased"),
                "state = 'done', result = ?, lease = NULL,"
                " lease_expires_s = NULL, updated_s = ?",
                (json.dumps(result, sort_keys=True, default=str), now))
            if src is not None:
                self._transition(conn, job_id, src, "done")
            conn.execute("COMMIT")
            if src is not None:
                self._count("serve.fabric.completed")
            self._gauges(conn)
            return src is not None

    def fail(self, job_id: str, lease: str, error: str, *,
             retryable: bool = True) -> str | None:
        """Record a failed attempt; returns the resulting state.

        Retryable failures requeue with deterministic exponential
        backoff until ``max_attempts`` lease cycles are spent, then
        land in ``failed``; non-retryable ones (bad payload — every
        retry would fail identically) go terminal at once.
        """
        now = time.time()
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT state, attempt, max_attempts FROM fabric_jobs"
                " WHERE id = ? AND lease = ?"
                " AND state IN ('leased', 'running')",
                (job_id, lease)).fetchone()
            if row is None:
                conn.execute("COMMIT")
                return None
            state = self._retire_locked(conn, job_id, row[0], row[1],
                                        row[2], error, retryable, now)
            conn.execute("COMMIT")
            self._gauges(conn)
            return state

    def _retire_locked(self, conn: sqlite3.Connection, job_id: str,
                       src: str, attempt: int, max_attempts: int,
                       error: str, retryable: bool,
                       now: float) -> str:
        """One spent attempt (caller holds the transaction): requeue
        with backoff, or go terminal when retries are exhausted."""
        attempt += 1
        if retryable and attempt < max_attempts:
            backoff = min(_BACKOFF_CAP_S,
                          _BACKOFF_BASE_S * (2.0 ** (attempt - 1)))
            conn.execute(
                "UPDATE fabric_jobs SET state = 'pending', attempt = ?,"
                " not_before_s = ?, lease = NULL, worker = NULL,"
                " lease_expires_s = NULL, error = ?, updated_s = ?"
                " WHERE id = ?",
                (attempt, now + backoff, error, now, job_id))
            self._transition(conn, job_id, src, "pending",
                             f"retry {attempt}/{max_attempts} in "
                             f"{backoff:g}s: {error}")
            self._count("serve.fabric.requeued")
            return "pending"
        conn.execute(
            "UPDATE fabric_jobs SET state = 'failed', attempt = ?,"
            " lease = NULL, lease_expires_s = NULL, error = ?,"
            " updated_s = ? WHERE id = ?",
            (attempt, error, now, job_id))
        self._transition(conn, job_id, src, "failed", error)
        self._count("serve.fabric.failed")
        return "failed"

    def requeue_expired(self, now: float | None = None) -> list[str]:
        """Sweep orphans: leased/running jobs whose lease expired.

        Each orphan is first recorded as ``orphaned`` in the history
        (so a crash leaves an explicit trace, not a mystery gap), then
        immediately requeued or failed under the same bounded-retry
        rule as any other spent attempt.  Any process may run the
        sweep; the launcher does on every heartbeat tick.
        """
        now = time.time() if now is None else now
        swept: list[str] = []
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                "SELECT id, state, attempt, max_attempts, worker"
                " FROM fabric_jobs WHERE state IN ('leased', 'running')"
                " AND lease_expires_s < ? ORDER BY created_s, id",
                (now,)).fetchall()
            for job_id, src, attempt, max_attempts, worker in rows:
                detail = f"lease of worker {worker!r} expired"
                conn.execute(
                    "UPDATE fabric_jobs SET state = 'orphaned',"
                    " updated_s = ? WHERE id = ?", (now, job_id))
                self._transition(conn, job_id, src, "orphaned", detail)
                self._retire_locked(conn, job_id, "orphaned", attempt,
                                    max_attempts, detail, True, now)
                swept.append(job_id)
            conn.execute("COMMIT")
            self._gauges(conn)
        return swept

    # -- campaigns -----------------------------------------------------------------

    @staticmethod
    def campaign_id(name: str, spec: dict) -> str:
        """Deterministic id from name + spec, so resubmitting the same
        campaign resumes it instead of duplicating it."""
        blob = json.dumps({"name": name, "spec": spec}, sort_keys=True,
                          default=str)
        return "cp-" + hashlib.sha256(blob.encode()).hexdigest()[:12]

    def add_campaign(self, campaign_id: str, name: str,
                     spec: dict) -> bool:
        """Register a campaign row; ``False`` when it already exists."""
        with self._db() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO fabric_campaigns"
                " (id, name, spec, created_s) VALUES (?, ?, ?, ?)",
                (campaign_id, name,
                 json.dumps(spec, sort_keys=True, default=str),
                 time.time()))
            return bool(cur.rowcount)

    def get_campaign(self, campaign_id: str) -> dict | None:
        with self._db() as conn:
            row = conn.execute(
                "SELECT id, name, spec, created_s FROM fabric_campaigns"
                " WHERE id = ?", (campaign_id,)).fetchone()
        if row is None:
            return None
        return {"id": row[0], "name": row[1],
                "spec": json.loads(row[2]),
                "created_s": round(row[3], 3)}

    def list_campaigns(self) -> list[dict]:
        with self._db() as conn:
            ids = [r[0] for r in conn.execute(
                "SELECT id FROM fabric_campaigns ORDER BY created_s, id")]
        return [self.campaign_status(i) for i in ids]

    def campaign_status(self, campaign_id: str) -> dict:
        """Aggregate member state; raises for unknown campaigns."""
        meta = self.get_campaign(campaign_id)
        if meta is None:
            raise DataError(f"no campaign {campaign_id!r}")
        counts = self.counts(campaign=campaign_id)
        n = sum(counts.values())
        n_terminal = sum(counts[s] for s in sorted(TERMINAL_STATES))
        meta.update({
            "n_jobs": n,
            "states": counts,
            "done": n > 0 and n_terminal == n,
        })
        return meta
