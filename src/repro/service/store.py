"""Persistent, content-addressed result store.

One directory, one JSON document per executed spec, filed under the
spec's deterministic ``cache_key()``.  Point ``REPRO_RESULT_STORE`` at
a directory and every process — workers in a pool, successive CI jobs,
figure harnesses run weeks apart — shares one memo table: a warm rerun
of a whole figure grid loads records instead of simulating.

Concurrency and failure model:

* **Writers never collide.**  Each ``put`` writes to a process-unique
  temporary file in the store directory and ``os.replace``-s it over
  the final name — atomic on POSIX and Windows.  Two workers racing on
  one key both write the same canonical bytes (the codec is
  deterministic), so either winner is correct and readers never see a
  partial document.
* **Corruption is quarantined, not fatal.**  A truncated or mangled
  entry (killed writer on a non-atomic filesystem, disk trouble,
  manual editing) is moved aside into ``quarantine/`` with a
  :class:`StoreWarning`, and the lookup reports a miss — the run is
  simply re-simulated and re-stored.
* **Old schemas force re-runs.**  An entry stamped with a different
  :data:`~repro.service.serialization.SCHEMA_VERSION` is left in place
  but reported as a miss; the subsequent ``put`` overwrites it with a
  current document.
* **The index is advisory.**  ``index.sqlite`` in the store root
  memoizes ``(key, schema, size)`` per entry so ``count()`` and the
  fabric master's stats never have to glob a large directory; it is
  maintained write-through by ``put``, rebuilt from the filesystem by
  ``reindex()``, and every reader falls back to a directory scan if
  SQLite is unavailable or the file is damaged — the JSON documents
  remain the only ground truth.  A failing index is retired on first
  failure: ``index_failures`` counts it and one :class:`StoreWarning`
  names the operation and the exception.

``gc()`` is the compaction companion: it reclaims quarantined
corpses, abandoned temporary files and (optionally) entries stamped
with a stale schema version, leaving live current-schema records
untouched, then rebuilds the index.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import warnings
from pathlib import Path
from typing import Iterator

try:
    import sqlite3
except ImportError:  # pragma: no cover - stdlib, but stay optional
    sqlite3 = None  # type: ignore[assignment]

from repro.errors import StoreError
from repro.runner.spec import RunRecord
from repro.service.serialization import (
    SCHEMA_VERSION,
    SchemaMismatchError,
    dumps_record,
    loads_record,
)

__all__ = ["ENV_RESULT_STORE", "ResultStore", "StoreWarning"]

#: Environment variable naming the store directory.
ENV_RESULT_STORE = "REPRO_RESULT_STORE"

_QUARANTINE = "quarantine"

#: SQLite index file kept next to the entries (shared by every
#: process that opens the store; advisory — see module docstring).
_INDEX_NAME = "index.sqlite"


class StoreWarning(UserWarning):
    """A store entry was unusable and has been quarantined, or the
    advisory index failed and reads fell back to directory scans."""


class ResultStore:
    """Filesystem-backed map from cache key to
    :class:`~repro.runner.spec.RunRecord`."""

    _tmp_seq = itertools.count()

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.schema_misses = 0
        self.index_failures = 0
        self._index_conn = None
        self._index_dead = sqlite3 is None
        self._index_lock = threading.Lock()
        # Separate from _index_lock, which the open path already holds
        # when it fails.
        self._failure_lock = threading.Lock()

    @classmethod
    def from_env(cls) -> "ResultStore | None":
        """The store named by ``REPRO_RESULT_STORE``, or None."""
        root = os.environ.get(ENV_RESULT_STORE)
        return cls(root) if root else None

    # -- paths -------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if not key or any(c in key for c in "/\\."):
            raise StoreError(f"illegal store key {key!r}")
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path, reason: Exception) -> None:
        qdir = self.root / _QUARANTINE
        qdir.mkdir(exist_ok=True)
        target = qdir / f"{path.name}.{os.getpid()}.corrupt"
        try:
            path.replace(target)
        except OSError:
            # A racing reader quarantined it first; nothing to move.
            return
        self.quarantined += 1
        self._index_drop(path.stem)
        warnings.warn(
            f"result store quarantined corrupted entry {path.name} "
            f"-> {target.relative_to(self.root)}: {reason}",
            StoreWarning, stacklevel=3)

    # -- index -------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def _index_failed(self, operation: str, exc: Exception) -> None:
        """Retire the advisory index after a failure: count it, warn
        once, and let every later reader scan the directory.  A locked
        or damaged index never blocks a filesystem write that already
        landed."""
        with self._failure_lock:
            self.index_failures += 1
            first = not self._index_dead
            self._index_dead = True
        if first:
            warnings.warn(
                f"result store index {self.index_path} failed during "
                f"{operation} ({type(exc).__name__}: {exc}); falling "
                f"back to directory scans", StoreWarning, stacklevel=3)

    def _index(self):
        """The shared SQLite index connection, or None when SQLite is
        unavailable or the index file is unusable (the store then
        falls back to directory scans — never an exception)."""
        if self._index_dead:
            return None
        with self._index_lock:
            if self._index_conn is not None:
                return self._index_conn
            try:
                conn = sqlite3.connect(
                    self.index_path, timeout=5.0,
                    check_same_thread=False)
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    "  key    TEXT PRIMARY KEY,"
                    "  schema INTEGER,"
                    "  size   INTEGER NOT NULL)")
                conn.commit()
                empty = conn.execute(
                    "SELECT 1 FROM entries LIMIT 1").fetchone() is None
            except Exception as exc:
                self._index_failed("open", exc)
                return None
            self._index_conn = conn
        if empty and next(self.root.glob("*.json"), None) is not None:
            # Pre-index store directory (or a rebuilt index file):
            # adopt the existing entries so count() is right from the
            # first call.
            self.reindex()
        return self._index_conn

    def _index_put(self, key: str, schema: "int | None",
                   size: int) -> None:
        conn = self._index()
        if conn is None:
            return
        try:
            with self._index_lock:
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, schema, size)"
                    " VALUES (?, ?, ?)", (key, schema, size))
                conn.commit()
        except Exception as exc:
            self._index_failed("put", exc)

    def _index_drop(self, key: str) -> None:
        conn = self._index()
        if conn is None:
            return
        try:
            with self._index_lock:
                conn.execute("DELETE FROM entries WHERE key = ?",
                             (key,))
                conn.commit()
        except Exception as exc:
            self._index_failed("drop", exc)

    def count(self) -> int:
        """Number of entries, from the index when available (O(1) for
        the fabric master's stats) with a directory-scan fallback."""
        conn = self._index()
        if conn is not None:
            try:
                with self._index_lock:
                    row = conn.execute(
                        "SELECT COUNT(*) FROM entries").fetchone()
                return int(row[0])
            except Exception as exc:
                self._index_failed("count", exc)
        return sum(1 for _ in self.keys())

    def reindex(self) -> int:
        """Rebuild the index from the filesystem (the ground truth);
        returns the number of entries indexed.  Safe to call on a
        store that predates the index or whose index drifted."""
        rows = []
        for path in self.root.glob("*.json"):
            try:
                data = path.read_bytes()
                schema = json.loads(data).get("schema")
                if not isinstance(schema, int):
                    schema = None
            except Exception:
                data, schema = b"", None
            rows.append((path.stem, schema, len(data)))
        conn = self._index()
        if conn is not None:
            try:
                with self._index_lock:
                    conn.execute("DELETE FROM entries")
                    conn.executemany(
                        "INSERT OR REPLACE INTO entries "
                        "(key, schema, size) VALUES (?, ?, ?)", rows)
                    conn.commit()
            except Exception as exc:
                self._index_failed("reindex", exc)
        return len(rows)

    # -- compaction --------------------------------------------------------
    def gc(self, keep_latest_schema: bool = True) -> dict:
        """Compact the store directory.

        Reclaims quarantined corpses, abandoned ``.tmp-*`` files from
        killed writers, undecodable entries, and — when
        ``keep_latest_schema`` — entries stamped with a schema version
        other than the current one (they are dead weight: every read
        already treats them as misses).  Live current-schema records
        are never touched.  Rebuilds the index afterwards and returns
        a summary dict.
        """
        removed_quarantined = removed_tmp = 0
        removed_stale_schema = removed_corrupt = 0
        reclaimed = 0

        qdir = self.root / _QUARANTINE
        if qdir.is_dir():
            for path in qdir.iterdir():
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                removed_quarantined += 1
                reclaimed += size
            try:
                qdir.rmdir()
            except OSError:  # pragma: no cover - racing writer
                pass

        for path in self.root.glob(".tmp-*"):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed_tmp += 1
            reclaimed += size

        kept = 0
        for path in self.root.glob("*.json"):
            try:
                payload = json.loads(path.read_bytes())
                schema = payload["schema"] if isinstance(payload, dict) \
                    else None
            except Exception:
                schema = None
            if schema is None:
                stale = True  # undecodable: any reader would quarantine
            elif keep_latest_schema:
                stale = schema != SCHEMA_VERSION
            else:
                stale = False
            if not stale:
                kept += 1
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            if schema is None:
                removed_corrupt += 1
            else:
                removed_stale_schema += 1
            reclaimed += size

        self.reindex()
        return {
            "kept": kept,
            "removed_quarantined": removed_quarantined,
            "removed_tmp": removed_tmp,
            "removed_stale_schema": removed_stale_schema,
            "removed_corrupt": removed_corrupt,
            "reclaimed_bytes": reclaimed,
        }

    # -- mapping -----------------------------------------------------------
    def get(self, key: str) -> RunRecord | None:
        """The stored record for ``key``, or None (miss, stale schema,
        or quarantined corruption — never an exception)."""
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            record = loads_record(data, expect_key=key)
        except SchemaMismatchError:
            self.schema_misses += 1
            self.misses += 1
            return None
        except Exception as exc:  # corrupt: quarantine, report a miss
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: RunRecord) -> Path:
        """Persist ``record`` under ``key`` atomically; concurrent
        writers on one key are safe (identical canonical bytes)."""
        path = self.path_for(key)
        payload = dumps_record(record, key=key)
        tmp = self.root / (f".tmp-{os.getpid()}"
                           f"-{next(self._tmp_seq)}-{key[:8]}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        self.writes += 1
        self._index_put(key, SCHEMA_VERSION, len(payload))
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        for path in self.root.glob("*.json"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __bool__(self) -> bool:
        # An empty store is still a store: never let ``len == 0``
        # disable read-through/write-back via truthiness.
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
