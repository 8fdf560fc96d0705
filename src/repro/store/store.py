"""The artifact store: workdir layout, caching, format negotiation.

An :class:`ArtifactStore` owns one run root.  It hands out typed
:class:`~repro.store.artifact.Artifact` handles for every file a
workflow touches (sacct pipe text under ``cache/``, curated tables under
``data/``, charts, PNGs, LLM reports), and provides the three services
the string-path plumbing it replaces could not:

- **in-run frame memo** — :meth:`load_frame` parses each table once per
  run, no matter how many plot/advisor/volume stages read it, and is
  safe under the flow engine's worker pool;
- **format negotiation** — a CSV whose ``.npf`` twin carries a matching
  ``source_sha256`` is transparently served from the binary twin
  (:func:`read_table_fast` gives the same behaviour store-free, so both
  return exactly the Frame ``read_csv`` would);
- **content-addressed freshness stamps** — :meth:`record_stamp` /
  :meth:`task_is_fresh` let the flow engine skip a cached task because
  its input *content* is unchanged, not merely because mtimes happen to
  be ordered.
"""

from __future__ import annotations

import json
import os
import threading

from repro._util.errors import ConfigError, DataError
from repro.frame import Frame
from repro.frame.io import read_table, sniff_npf
from repro.store.artifact import FORMATS, Artifact
from repro.store.hashing import HashCache, default_hash_cache

__all__ = ["ArtifactStore", "read_table_fast", "resolve_table_path"]

#: default subdirectory per format (the workflow's historical layout)
LAYOUT = {
    "pipe": "cache",
    "csv": "data",
    "npf": "data",
    "html": "charts",
    "png": "png",
    "md": "llm",
    "json": "data",
}

_STAMP_DIR = ".store"
_STAMP_FILE = "stamps.json"


def resolve_table_path(path: str | os.PathLike,
                       hash_cache: HashCache | None = None) -> str:
    """The cheapest valid source for a tabular artifact.

    For a ``.csv`` whose sibling ``.npf`` twin exists and whose header
    records the CSV's current SHA-256 (and whole-file inference), return
    the twin; otherwise the path unchanged.  A stale, absent or corrupt
    twin silently falls back to the text parse — correctness never
    depends on the binary cache.
    """
    p = os.fspath(path)
    if not p.endswith(".csv"):
        return p
    twin = p[:-4] + FORMATS["npf"]
    if not (os.path.exists(twin) and os.path.exists(p)):
        return p
    try:
        meta = sniff_npf(twin).get("meta", {})
    except (DataError, OSError):
        return p
    want = meta.get("source_sha256")
    if not want or meta.get("infer", True) is not True:
        return p
    cache = hash_cache or default_hash_cache()
    try:
        if cache.sha256(p) == want:
            return twin
    except OSError:
        pass
    return p


def _read_negotiated(path: str,
                     hash_cache: HashCache | None) -> tuple[Frame, bool]:
    """``(frame, read from the twin)``: the current twin when it reads,
    else the file itself — negotiation checks only the twin's header,
    so a payload corrupted behind an intact header surfaces here."""
    source = resolve_table_path(path, hash_cache=hash_cache)
    if source != path:
        try:
            return read_table(source), True
        except (DataError, OSError):
            pass
    return read_table(path), False


def read_table_fast(path: str | os.PathLike,
                    hash_cache: HashCache | None = None) -> Frame:
    """:func:`repro.frame.io.read_table` with transparent ``.npf``-twin
    negotiation (a twin that fails to read falls back to the CSV).
    Accepts either format directly."""
    return _read_negotiated(os.fspath(path), hash_cache)[0]


class _PendingFrame:
    """One in-flight or completed table load."""

    __slots__ = ("ready", "frame", "error")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.frame: Frame | None = None
        self.error: BaseException | None = None


class ArtifactStore:
    """Typed artifact handles plus caching for one run root.

    ``obs`` is an optional :class:`repro.obs.RunContext`; when present
    the store reports ``store.loads`` / ``store.memo_hits`` /
    ``store.npf_reads`` counters (the store never *imports* the obs
    layer — it only calls the context it is handed).
    """

    def __init__(self, root: str | os.PathLike, obs=None,
                 hash_cache: HashCache | None = None) -> None:
        self.root = os.path.abspath(os.fspath(root))
        self.obs = obs
        self.hashes = hash_cache or default_hash_cache()
        self._frames: dict[tuple, _PendingFrame] = {}
        self._frame_lock = threading.Lock()
        self._stamp_lock = threading.Lock()
        self._stamps: dict[str, dict] | None = None

    # -- layout ------------------------------------------------------------------

    def dir_for(self, fmt: str) -> str:
        """The root-relative directory a format lives in."""
        try:
            return os.path.join(self.root, LAYOUT[fmt])
        except KeyError:
            raise ConfigError(f"no layout for format {fmt!r}") from None

    def declare(self, name: str, fmt: str, subdir: str | None = None,
                schema=None) -> Artifact:
        """A typed handle for logical ``name`` in format ``fmt``.

        Declaration is pure path arithmetic — nothing touches disk, so
        handles can be built before, during, or after the run equally.
        """
        base = os.path.join(self.root, subdir) if subdir else \
            self.dir_for(fmt)
        return Artifact(name=name, fmt=fmt,
                        path=os.path.join(base, name + FORMATS[fmt]),
                        schema=tuple(schema) if schema else None)

    def _rel(self, path: str | os.PathLike) -> str:
        """Root-relative posix path (ledger-compatible normalization)."""
        p = os.path.normpath(os.fspath(path))
        ap = os.path.abspath(p)
        if ap == self.root or ap.startswith(self.root + os.sep):
            p = os.path.relpath(ap, self.root)
        return p.replace(os.sep, "/")

    # -- hashing -----------------------------------------------------------------

    def sha256(self, path: str | os.PathLike) -> str:
        """Memoized streaming content hash (shared with provenance)."""
        return self.hashes.sha256(path)

    # -- frame loading (the in-run parse-once memo) --------------------------------

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.counter(name).inc()

    def load_frame(self, artifact: Artifact | str | os.PathLike) -> Frame:
        """Load a tabular artifact, once per content per run.

        Concurrent callers for the same table block on the first load
        and share the resulting Frame (treat as read-only, as Frame
        documents).  The memo key is the requested file and its stat
        identity (a current twin holds that file's content, whichever
        of the two is read), so a rewrite between tasks is picked up,
        never served stale.
        """
        path = os.fspath(artifact)
        st = os.stat(path)
        key = (path, st.st_size, st.st_mtime_ns)
        with self._frame_lock:
            entry = self._frames.get(key)
            owner = entry is None
            if owner:
                entry = self._frames[key] = _PendingFrame()
        if not owner:
            entry.ready.wait()
            self._count("store.memo_hits")
            if entry.error is not None:
                raise entry.error
            return entry.frame
        try:
            entry.frame, via_twin = _read_negotiated(path, self.hashes)
        except BaseException as exc:
            entry.error = exc
            with self._frame_lock:      # failed loads are retryable
                self._frames.pop(key, None)
            raise
        finally:
            entry.ready.set()
        self._count("store.loads")
        if via_twin or path.endswith(FORMATS["npf"]):
            self._count("store.npf_reads")
        return entry.frame

    # -- freshness stamps (hash-based task caching) --------------------------------

    def _stamp_path(self) -> str:
        return os.path.join(self.root, _STAMP_DIR, _STAMP_FILE)

    def _load_stamps_locked(self) -> dict[str, dict]:
        if self._stamps is None:
            try:
                with open(self._stamp_path(), encoding="utf-8") as fh:
                    payload = json.load(fh)
                self._stamps = dict(payload.get("tasks", {}))
            except (OSError, ValueError):
                self._stamps = {}
        return self._stamps

    def task_is_fresh(self, name: str, inputs, outputs) -> bool | None:
        """Hash-verified freshness of one cached task.

        ``True``/``False`` when a stamp for ``name`` covers exactly the
        declared files; ``None`` when no comparable stamp exists (the
        caller falls back to its mtime heuristic).
        """
        with self._stamp_lock:
            stamp = self._load_stamps_locked().get(name)
        if stamp is None:
            return None
        want_in = {self._rel(p) for p in inputs}
        want_out = {self._rel(p) for p in outputs}
        ins, outs = stamp.get("inputs", {}), stamp.get("outputs", {})
        if set(ins) != want_in or set(outs) != want_out:
            return None                 # declaration changed: re-stamp
        try:
            for rel, sha in {**ins, **outs}.items():
                if self.sha256(os.path.join(self.root, rel)) != sha:
                    return False
        except OSError:
            return False                # a declared file is missing
        return True

    def record_stamp(self, name: str, inputs, outputs) -> None:
        """Persist the content hashes a completed task consumed and
        produced (atomic rewrite; survives across processes)."""
        def digest(paths) -> dict[str, str]:
            out = {}
            for p in paths:
                try:
                    out[self._rel(p)] = self.sha256(p)
                except OSError:
                    pass                # undeclared-in-practice file
            return out

        entry = {"inputs": digest(inputs), "outputs": digest(outputs)}
        with self._stamp_lock:
            stamps = self._load_stamps_locked()
            stamps[name] = entry
            path = self._stamp_path()
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"version": 1, "tasks": stamps}, fh,
                          indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
