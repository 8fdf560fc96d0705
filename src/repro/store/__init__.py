"""Typed, content-addressed workflow artifacts.

The paper's Swift/T composition infers its dataflow graph from *file
references*; this package makes those references first-class.  An
:class:`Artifact` is a typed handle (logical name, format, schema hint)
that still walks and quacks like a path (``os.PathLike``), and an
:class:`ArtifactStore` owns the run root's layout, the in-run frame
memo, ``.npf``-twin format negotiation, and the hash-based freshness
stamps the flow engine uses for task caching.  :func:`read_table_fast`
and :meth:`ArtifactStore.load_frame` are the two ways to load a curated
table, and both return the Frame ``read_csv`` gives for the CSV: a twin
is used only while it records the CSV's current hash, and a stale or
corrupt twin falls back to the text parse.  The streaming SHA-256 in
:mod:`repro.store.hashing` is the one implementation the provenance
ledger shares.
"""

from repro.store.artifact import Artifact, FORMATS
from repro.store.hashing import HashCache, default_hash_cache, file_sha256
from repro.store.store import (
    LAYOUT,
    ArtifactStore,
    read_table_fast,
    resolve_table_path,
)

__all__ = [
    "Artifact",
    "FORMATS",
    "LAYOUT",
    "ArtifactStore",
    "HashCache",
    "default_hash_cache",
    "file_sha256",
    "read_table_fast",
    "resolve_table_path",
]
