"""Storage for the content-addressed result cache: one sqlite file.

:class:`~repro.testbed.cache.ResultCache` separates *policy* (schema
validation, size caps, hit/miss counters) from *storage*.  Storage is a
:class:`CacheBackend`, and two implementations ship:

- :class:`SqliteBackend` — the local store: one WAL-mode sqlite file
  whose ``entries`` table holds each payload *and* its size/created/
  accessed columns, so the store is its own index.  Concurrent writer
  processes on one host share it safely: WAL lets readers proceed
  during writes and a busy timeout queues the writers.
- :class:`~repro.testbed.netproto.TcpCacheBackend` — the same protocol
  proxied to a ``repro cached serve`` endpoint, whose server runs every
  call against its own local :class:`SqliteBackend`.

Backends are selected by spec (:func:`parse_backend_spec`): a bare
directory path means ``<dir>/cache.sqlite``, ``sqlite:FILE`` names the
file, ``tcp:HOST:PORT`` names a server.

Maintenance (``gc``, ``verify``, ``clear``) runs as one store call in
one ``BEGIN IMMEDIATE`` transaction.  SQLite's write lock serialises
concurrent maintainers; a maintainer that dies mid-walk rolls back and
the operating system drops its lock with the process, so no lock file
can go stale.

A cache file must live on a local filesystem: SQLite's WAL mode needs
memory shared between the processes of one host.  Hosts share a cache
through ``repro cached serve`` and ``tcp:``; network filesystems such
as NFS are untested.

This module is the only one that touches ``sqlite3`` (``repro lint``
enforces it), so the storage format is known here alone.
"""

from __future__ import annotations

import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

__all__ = ["CACHE_FILE", "CacheBackend", "SqliteBackend",
           "parse_backend_spec"]

#: The store a bare cache directory holds.
CACHE_FILE = "cache.sqlite"


class CacheBackend:
    """Protocol for result-cache storage (documented base, not enforced).

    A backend stores opaque ``key -> bytes`` entries and exposes:

    - ``name`` — short identifier for stats output;
    - ``read(key) -> bytes | None``; ``write(key, data) -> size``
      (atomic: readers only ever observe complete entries);
      ``delete(key) -> bool``; ``touch(key, accessed)`` (LRU clock);
    - ``quarantine(key) -> bool`` — move a corrupt entry aside for
      post-mortem;
    - ``count()``, ``total_bytes()`` — index aggregates, never a walk;
    - ``gc(max_bytes, max_entries, protect) -> report`` — evict
      least-recently-accessed entries until both caps hold (never
      ``protect``);
    - ``verify(valid) -> report`` — quarantine every entry whose bytes
      ``valid`` rejects;
    - ``clear() -> removed`` — delete every entry and the quarantine;
    - ``close()``.

    ``gc``, ``verify`` and ``clear`` are each atomic with respect to
    every other maintainer of the same store.
    """

    name = "abstract"

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class SqliteBackend(CacheBackend):
    """Payload and index columns in one WAL-mode sqlite file.

    Single statements commit on their own (autocommit); multi-statement
    operations run inside ``BEGIN IMMEDIATE`` so they are atomic and
    serialised against other processes.  ``synchronous=NORMAL``: in WAL
    mode a commit survives a process crash, and only a power loss can
    drop the last few.  Quarantined payloads move to a ``quarantine``
    table.

    The file is created by the first write.  Until then, read-only calls
    answer as an empty store without creating anything, so inspecting a
    cache that was never written leaves the disk alone.
    """

    name = "sqlite"

    def __init__(self, path, *, busy_timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.busy_timeout_s = busy_timeout_s
        self._connection: Optional[sqlite3.Connection] = None

    def _conn(self, create: bool = True) -> Optional[sqlite3.Connection]:
        """The connection, opened on first use (and again after
        ``close()``); ``None`` if the file is missing and ``create`` is
        false."""
        if self._connection is None:
            if not create and not self.path.exists():
                return None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # check_same_thread=False: a ServerThread builds its store on
            # the constructing thread and then serves it from its event
            # loop thread.  One thread at a time still uses the
            # connection: the constructor's, then the loop's.
            conn = sqlite3.connect(
                str(self.path), timeout=self.busy_timeout_s,
                isolation_level=None, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
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
            self._connection = conn
        return self._connection

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` … ``COMMIT``, rolled back on any error.
        Taking the write lock up front makes concurrent maintainers
        queue (up to the busy timeout) instead of deadlocking."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    @staticmethod
    def _totals(conn: sqlite3.Connection):
        return conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
        ).fetchone()

    @staticmethod
    def _move_to_quarantine(conn: sqlite3.Connection, key: str) -> bool:
        moved = conn.execute(
            "INSERT OR REPLACE INTO quarantine (key, data, quarantined)"
            " SELECT key, data, ? FROM entries WHERE key = ?",
            (time.time(), key),
        ).rowcount > 0
        conn.execute("DELETE FROM entries WHERE key = ?", (key,))
        return moved

    # -- entries -----------------------------------------------------------

    def read(self, key: str) -> Optional[bytes]:
        conn = self._conn(create=False)
        if conn is None:
            return None
        row = conn.execute(
            "SELECT data FROM entries WHERE key = ?", (key,)).fetchone()
        return None if row is None else bytes(row[0])

    def write(self, key: str, data: bytes) -> int:
        now = time.time()
        self._conn().execute(
            "INSERT INTO entries (key, data, size, created, accessed)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET data = excluded.data,"
            "  size = excluded.size, accessed = excluded.accessed",
            (key, data, len(data), now, now),
        )
        return len(data)

    def delete(self, key: str) -> bool:
        conn = self._conn(create=False)
        if conn is None:
            return False
        return conn.execute(
            "DELETE FROM entries WHERE key = ?", (key,)).rowcount > 0

    def touch(self, key: str, accessed: float) -> None:
        conn = self._conn(create=False)
        if conn is not None:
            conn.execute("UPDATE entries SET accessed = ? WHERE key = ?",
                         (accessed, key))

    def quarantine(self, key: str) -> bool:
        if self._conn(create=False) is None:
            return False
        with self._transaction() as conn:
            return self._move_to_quarantine(conn, key)

    def count(self) -> int:
        conn = self._conn(create=False)
        if conn is None:
            return 0
        return conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def total_bytes(self) -> int:
        conn = self._conn(create=False)
        return 0 if conn is None else self._totals(conn)[1]

    # -- maintenance: one transaction each ---------------------------------

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None,
           protect: Optional[str] = None) -> Dict[str, int]:
        report = {"evicted": 0, "entries": 0, "total_bytes": 0}
        if self._conn(create=False) is None:
            return report
        with self._transaction() as conn:
            count, total = self._totals(conn)

            def over() -> bool:
                return ((max_entries is not None and count > max_entries)
                        or (max_bytes is not None and total > max_bytes))

            if over():
                oldest_first = conn.execute(
                    "SELECT key, size FROM entries"
                    " ORDER BY accessed, created, key").fetchall()
                for key, size in oldest_first:
                    if not over():
                        break
                    if key == protect:
                        continue
                    conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                    count -= 1
                    total -= size
                    report["evicted"] += 1
        report["entries"], report["total_bytes"] = count, total
        return report

    def verify(self, valid: Callable[[bytes], bool]) -> Dict[str, int]:
        report = {"entries": 0, "total_bytes": 0, "corrupt": 0}
        if self._conn(create=False) is None:
            return report
        with self._transaction() as conn:
            bad = [key for key, data in conn.execute(
                       "SELECT key, data FROM entries")
                   if not valid(bytes(data))]
            for key in bad:
                self._move_to_quarantine(conn, key)
            report["entries"], report["total_bytes"] = self._totals(conn)
        report["corrupt"] = len(bad)
        return report

    def clear(self) -> int:
        if self._conn(create=False) is None:
            return 0
        with self._transaction() as conn:
            removed = conn.execute("DELETE FROM entries").rowcount
            conn.execute("DELETE FROM quarantine")
        return removed

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def parse_backend_spec(spec: Union[str, Path]) -> CacheBackend:
    """Build a backend from a spec.

    - ``sqlite:FILE`` / ``sqlite://FILE`` / ``sqlite:///FILE`` — the
      store at ``FILE``;
    - ``tcp:HOST:PORT`` — a ``repro cached serve`` endpoint, every
      operation proxied over the framed wire protocol;
    - a :class:`~pathlib.Path` or any other string — a cache directory,
      whose store is ``<dir>/cache.sqlite``.
    """
    if isinstance(spec, Path):
        return SqliteBackend(spec / CACHE_FILE)
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
    scheme, sep, _rest = text.partition(":")
    if sep and scheme.isalnum() and os.sep not in scheme:
        raise ValueError(
            f"unknown cache backend scheme {scheme!r} in {spec!r};"
            " supported: sqlite:FILE, tcp:HOST:PORT, or a bare"
            " directory path"
        )
    return SqliteBackend(Path(text) / CACHE_FILE)
