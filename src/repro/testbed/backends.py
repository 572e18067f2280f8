"""Pluggable storage backends for the content-addressed result cache.

:class:`~repro.testbed.cache.ResultCache` separates *policy* (schema
validation, LRU caps, quarantine accounting, hit/miss counters) from
*storage*.  Storage is a :class:`CacheBackend`: anything that can read,
write, delete, enumerate and quarantine opaque ``key -> bytes`` entries.
Two implementations ship:

- :class:`DirectoryBackend` — the original sharded file tree
  (``<dir>/ab/abcd….json``); entries are separate files, writes are
  atomic per shard, and a separate sqlite index keeps the aggregates.  Best for one host, or debugging (entries are plain
  JSON files you can ``cat``).
- :class:`SqliteBackend` — a single-file WAL-mode sqlite store holding
  payload *and* index columns in one table.  WAL mode plus a busy
  timeout make it safe for many concurrent writer processes sharing a
  filesystem mount, which is what the distributed grid mode needs; it
  is ``index_capable``, so :class:`ResultCache` uses it as its own
  index instead of opening a second file.

Backends are selected by URL-style spec (``parse_backend_spec``):
``sqlite:PATH`` or ``sqlite:///PATH`` for the single-file store,
``dir:PATH`` (or a bare path) for the sharded tree.  The
``REPRO_CACHE_BACKEND`` environment variable feeds the same parser (the
bare word ``sqlite`` means "a ``cache.sqlite`` inside the cache
directory"), so benches and workers pick a shared backend without code
changes.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

__all__ = [
    "TMP_PREFIX", "QUARANTINE_DIR", "IndexEntry",
    "CacheBackend", "DirectoryBackend", "SqliteBackend",
    "parse_backend_spec", "backend_from_env",
]

TMP_PREFIX = ".tmp-"
QUARANTINE_DIR = "quarantine"


@dataclass
class IndexEntry:
    """One indexed cache entry: identity, size, and LRU bookkeeping."""

    key: str
    size: int
    created: float
    accessed: float


class CacheBackend:
    """Protocol for result-cache storage (documented base, not enforced).

    A backend stores opaque ``key -> bytes`` entries and exposes:

    - ``name`` — short identifier for stats output;
    - ``root`` — a directory ``Path`` the cache may use for lock files;
    - ``lock_path`` — where the maintenance lock for this store lives;
    - ``index_capable`` — ``True`` when the backend also implements the
      index protocol (``upsert``/``touch``/``remove``/``count``/
      ``total_bytes``/``entries``/``lru``/``replace_all``) so
      :class:`~repro.testbed.cache.ResultCache` need not open a
      separate index file;
    - ``read(key) -> bytes | None``; ``write(key, data) -> size``
      (atomic: concurrent readers only ever observe complete entries);
      ``delete(key) -> bool``;
    - ``quarantine(key) -> bool`` (move a corrupt entry aside for
      post-mortem) and ``clear_quarantine() -> int``;
    - ``scan() -> Iterator[(key, size, mtime)]`` — the maintenance
      walk; hot paths never call it;
    - ``sweep_temp(max_age_s) -> int`` — file-tree housekeeping;
      stores without temp files return ``0``;
    - ``close()``.
    """

    name = "abstract"
    index_capable = False

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


# -- the sharded file tree -----------------------------------------------------


class DirectoryBackend(CacheBackend):
    """Sharded entry files: key ``abcd…`` lives at ``ab/abcd….json``.

    Owns everything that touches the filesystem — atomic writes, deletes,
    quarantine moves, the maintenance walk, and the stale-temp sweep —
    so :class:`~repro.testbed.cache.ResultCache` itself never composes
    paths.
    """

    name = "dir"
    index_capable = False

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    @property
    def root(self) -> Path:
        return self.directory

    @property
    def lock_path(self) -> Path:
        return self.directory / ".maintenance.lock"

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def read(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def write(self, key: str, data: bytes) -> int:
        """Atomically persist one entry; returns its size in bytes."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=TMP_PREFIX, suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return len(data)

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self.path_for(key))
            return True
        except OSError:
            return False

    def quarantine(self, key: str) -> bool:
        """Move a corrupt entry to ``quarantine/`` for post-mortem."""
        source = self.path_for(key)
        target_dir = self.directory / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(source, target_dir / source.name)
            return True
        except OSError:
            return False

    def clear_quarantine(self) -> int:
        removed = 0
        quarantine = self.directory / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def _shard_dirs(self) -> Iterator[Path]:
        if not self.directory.is_dir():
            return
        for child in sorted(self.directory.iterdir()):
            if (child.is_dir() and child.name != QUARANTINE_DIR
                    and not child.name.startswith(".")):
                yield child

    def scan(self) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(key, size, mtime)`` for every entry on disk.

        This is the maintenance walk (index rebuild/verify/clear); the hot
        paths — ``get``/``__len__``/``stats`` — go through the index and
        never call it.
        """
        for shard in self._shard_dirs():
            for path in sorted(shard.glob("*.json")):
                if path.name.startswith("."):
                    continue  # in-flight or orphaned temp file
                try:
                    stat = path.stat()
                except OSError:
                    continue
                yield path.stem, stat.st_size, stat.st_mtime

    def sweep_temp(self, max_age_s: float = 0.0) -> int:
        """Remove ``.tmp-*`` files older than ``max_age_s`` seconds —
        the droppings of writers that crashed between create and rename."""
        removed = 0
        now = time.time()
        for parent in (self.directory, *self._shard_dirs()):
            if not parent.is_dir():
                continue
            for path in parent.glob(f"{TMP_PREFIX}*"):
                try:
                    if now - path.stat().st_mtime >= max_age_s:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed


# -- the single-file sqlite store ----------------------------------------------


class SqliteBackend(CacheBackend):
    """Payload + index in one WAL-mode sqlite file.

    Designed for N concurrent writer processes sharing a filesystem
    mount (the distributed grid mode): WAL journaling lets readers
    proceed during writes, a generous ``busy_timeout`` serialises the
    writers, and every operation commits immediately so other processes
    observe complete entries only.  ``synchronous=NORMAL`` — unlike the
    derived sqlite *index* of the directory backend, this file holds
    primary data, so durability is not traded away.

    The backend is ``index_capable``: the ``entries`` table carries the
    size/created/accessed columns the cache's LRU policy needs, so no
    second index file is opened.  Quarantined payloads move to a
    ``quarantine`` table instead of a directory.
    """

    name = "sqlite"
    index_capable = True

    def __init__(self, path, *, busy_timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.busy_timeout_s = busy_timeout_s
        self._connection = None
        self._conn  # connect eagerly so bad paths fail at construction

    @property
    def _conn(self):
        """The sqlite connection, reopened on demand after ``close()``
        (the cache's close/reuse contract predates this backend)."""
        if self._connection is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path),
                                   timeout=self.busy_timeout_s)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " data BLOB NOT NULL,"
                " size INTEGER NOT NULL,"
                " created REAL NOT NULL,"
                " accessed REAL NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS quarantine ("
                " key TEXT PRIMARY KEY,"
                " data BLOB,"
                " quarantined REAL NOT NULL)"
            )
            conn.commit()
            self._connection = conn
        return self._connection

    @property
    def root(self) -> Path:
        return self.path.parent

    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    # -- store protocol ----------------------------------------------------

    def read(self, key: str) -> Optional[bytes]:
        row = self._conn.execute(
            "SELECT data FROM entries WHERE key = ?", (key,)).fetchone()
        return None if row is None else bytes(row[0])

    def write(self, key: str, data: bytes) -> int:
        now = time.time()
        self._conn.execute(
            "INSERT INTO entries (key, data, size, created, accessed)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET data = excluded.data,"
            "  size = excluded.size, accessed = excluded.accessed",
            (key, data, len(data), now, now),
        )
        self._conn.commit()
        return len(data)

    def delete(self, key: str) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM entries WHERE key = ?", (key,))
        self._conn.commit()
        return cursor.rowcount > 0

    def quarantine(self, key: str) -> bool:
        cursor = self._conn.execute(
            "INSERT OR REPLACE INTO quarantine (key, data, quarantined)"
            " SELECT key, data, ? FROM entries WHERE key = ?",
            (time.time(), key),
        )
        moved = cursor.rowcount > 0
        self._conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        self._conn.commit()
        return moved

    def clear_quarantine(self) -> int:
        cursor = self._conn.execute("DELETE FROM quarantine")
        self._conn.commit()
        return cursor.rowcount

    def scan(self) -> Iterator[Tuple[str, int, float]]:
        rows = self._conn.execute(
            "SELECT key, size, created FROM entries ORDER BY key"
        ).fetchall()
        for key, size, created in rows:
            yield key, size, created

    def sweep_temp(self, max_age_s: float = 0.0) -> int:
        return 0  # no temp files: sqlite's WAL handles torn writes

    # -- index protocol (the store is its own index) -----------------------

    def upsert(self, entry: IndexEntry) -> None:
        self._conn.execute(
            "UPDATE entries SET size = ?, created = ?, accessed = ?"
            " WHERE key = ?",
            (entry.size, entry.created, entry.accessed, entry.key),
        )
        self._conn.commit()

    def touch(self, key: str, size: int, accessed: float) -> None:
        self._conn.execute(
            "UPDATE entries SET size = ?, accessed = ? WHERE key = ?",
            (size, accessed, key),
        )
        self._conn.commit()

    def remove(self, key: str) -> None:
        self.delete(key)

    def count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def total_bytes(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()
        return row[0]

    def entries(self) -> List[IndexEntry]:
        rows = self._conn.execute(
            "SELECT key, size, created, accessed FROM entries ORDER BY key"
        ).fetchall()
        return [IndexEntry(*row) for row in rows]

    def lru(self) -> List[IndexEntry]:
        rows = self._conn.execute(
            "SELECT key, size, created, accessed FROM entries"
            " ORDER BY accessed, created, key"
        ).fetchall()
        return [IndexEntry(*row) for row in rows]

    def replace_all(self, entries: List[IndexEntry]) -> None:
        """Reconcile index metadata with a fresh scan.

        Payload rows are the scan's source, so only their metadata needs
        updating; rows for keys absent from ``entries`` were already
        deleted/quarantined by the caller, but stray ones are dropped to
        honour the index contract.
        """
        keep = {entry.key for entry in entries}
        for row in self._conn.execute("SELECT key FROM entries").fetchall():
            if row[0] not in keep:
                self._conn.execute(
                    "DELETE FROM entries WHERE key = ?", (row[0],))
        self._conn.executemany(
            "UPDATE entries SET size = ?, created = ?, accessed = ?"
            " WHERE key = ?",
            [(e.size, e.created, e.accessed, e.key) for e in entries],
        )
        self._conn.commit()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


# -- spec parsing --------------------------------------------------------------


def parse_backend_spec(spec: Union[str, Path]) -> CacheBackend:
    """Build a backend from a URL-style spec.

    - ``sqlite:PATH`` / ``sqlite://PATH`` / ``sqlite:///PATH`` — the
      single-file WAL store at ``PATH``;
    - ``dir:PATH`` / ``file:PATH`` — the sharded directory tree;
    - ``tcp:HOST:PORT`` — a ``repro cached serve`` endpoint, every
      operation proxied over the framed wire protocol;
    - anything else — treated as a directory path.
    """
    text = str(spec)
    lowered = text.lower()
    if lowered.startswith("tcp:"):
        from .netproto import TcpCacheBackend  # noqa: avoids import cycle
        return TcpCacheBackend.from_spec(text)
    if lowered.startswith("sqlite:"):
        path = text[len("sqlite:"):]
        path = path[2:] if path.startswith("//") else path
        if not path or path == "/":
            raise ValueError(f"sqlite backend spec needs a path: {spec!r}")
        return SqliteBackend(path)
    for prefix in ("dir:", "file:"):
        if lowered.startswith(prefix):
            path = text[len(prefix):]
            path = path[2:] if path.startswith("//") else path
            if not path:
                raise ValueError(
                    f"directory backend spec needs a path: {spec!r}")
            return DirectoryBackend(path)
    scheme, sep, _rest = text.partition(":")
    if sep and scheme.isalnum() and os.sep not in scheme:
        raise ValueError(
            f"unknown cache backend scheme {scheme!r} in {spec!r};"
            " supported: sqlite:, dir:, file:, tcp:, or a bare"
            " directory path"
        )
    return DirectoryBackend(text)


def backend_from_env(directory, *,
                     env_var: str = "REPRO_CACHE_BACKEND") -> CacheBackend:
    """Backend for ``directory``, honouring the selection env var.

    Unset/empty or ``dir`` keeps the sharded tree at ``directory``;
    the bare word ``sqlite`` places a ``cache.sqlite`` inside it; any
    spec with a path (``sqlite:/mnt/shared/grid.sqlite``) wins outright.
    """
    raw = os.environ.get(env_var, "").strip()
    if raw in ("", "dir"):
        return DirectoryBackend(directory)
    if raw == "sqlite":
        return SqliteBackend(Path(directory) / "cache.sqlite")
    return parse_backend_spec(raw)
