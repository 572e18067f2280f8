"""Content-addressed, size-capped on-disk cache for experiment summaries.

The advisor workflow (Fig. 1) repeatedly sweeps a clip x policy x device
grid looking for the cheapest policy meeting a confidentiality target;
benches re-run the same grid on every invocation.  Each grid cell is
deterministic given (scenario content, experiment config, seed, code
version), so its per-run metrics can be persisted once and replayed
forever: a cache hit performs **zero** new simulations and reproduces the
summary byte-for-byte, because the same floats feed the same
:func:`repro.analysis.stats.summarize`.

Storage.  A cache directory holds one WAL-mode sqlite file,
``<dir>/cache.sqlite`` (:class:`~repro.testbed.backends.SqliteBackend`).
Each row carries the payload and its byte size and created/last-accessed
timestamps, so the store is its own index: ``__len__``,
:meth:`ResultCache.stats` and LRU eviction are queries, never walks, and
there is no derived index to rebuild.  A ``sqlite:FILE`` spec names the
file directly; ``tcp:HOST:PORT`` reaches a ``repro cached serve``
store on another host.  The file must live on a local filesystem (WAL
needs shared memory on one host); share across hosts through ``tcp:``,
since network filesystems such as NFS are untested.

Writes are single sqlite commits, so concurrent bench processes sharing
a cache can only ever observe complete entries.  Size caps
(``max_bytes`` / ``max_entries``) are enforced on
:meth:`ResultCache.put_runs` and by an explicit :meth:`ResultCache.gc`,
evicting least-recently-accessed entries first.  Payloads that read back
malformed — undecodable JSON, a missing ``"runs"`` key, fields a current
:class:`RunMetrics` does not know — are counted as ``corrupt``, moved to
the store's quarantine table for post-mortem, and reported as misses
instead of crashing the engine.

Keys are SHA-256 digests of a canonical JSON payload that includes a
fingerprint of the simulation source code, so editing the simulator,
transport, energy, video-quality, policy or mobility code automatically
invalidates stale entries.

Maintenance (``gc``, ``verify``, ``clear``) is one store call each, run
in a single sqlite ``BEGIN IMMEDIATE`` transaction: concurrent
maintainers queue on SQLite's write lock, and one that crashes rolls
back without leaving a lock behind.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .backends import CacheBackend, SqliteBackend, parse_backend_spec

__all__ = [
    "ResultCache", "RunMetrics", "stable_key", "code_fingerprint",
    "CacheBackend", "SqliteBackend", "parse_backend_spec",
]


@dataclass(frozen=True)
class RunMetrics:
    """The scalar metrics of one experiment run — everything the paper's
    aggregate statistics consume, small enough to persist as JSON."""

    mean_delay_ms: float
    mean_waiting_ms: float
    average_power_w: float
    receiver_psnr_db: Optional[float] = None
    receiver_mos: Optional[float] = None
    eavesdropper_psnr_db: Optional[float] = None
    eavesdropper_mos: Optional[float] = None

    @classmethod
    def from_experiment_result(cls, result) -> "RunMetrics":
        return cls(
            mean_delay_ms=result.mean_delay_ms,
            mean_waiting_ms=result.mean_waiting_ms,
            average_power_w=result.average_power_w,
            receiver_psnr_db=result.receiver_psnr_db,
            receiver_mos=result.receiver_mos,
            eavesdropper_psnr_db=result.eavesdropper_psnr_db,
            eavesdropper_mos=result.eavesdropper_mos,
        )


_RUN_FIELDS = frozenset(field.name for field in fields(RunMetrics))
_REQUIRED_RUN_FIELDS = frozenset(
    field.name for field in fields(RunMetrics) if field.default is MISSING
)


def _parse_runs(payload: Any) -> Optional[List[RunMetrics]]:
    """``payload["runs"]`` as :class:`RunMetrics`, or ``None`` if the
    payload is structurally unusable (future schema, truncated writer,
    hand-edited file…) — the caller treats that as a corrupt entry."""
    if not isinstance(payload, dict):
        return None
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        return None
    parsed = []
    for run in runs:
        if not isinstance(run, dict):
            return None
        names = set(run)
        if not names <= _RUN_FIELDS or not _REQUIRED_RUN_FIELDS <= names:
            return None
        for name, value in run.items():
            if value is None and name not in _REQUIRED_RUN_FIELDS:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return None
        parsed.append(RunMetrics(**run))
    return parsed


def stable_key(payload: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    ``json.dumps`` with sorted keys and ``repr``-based float encoding is
    deterministic across processes and Python >= 3.1, which makes the
    digest a stable content address.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# The sources, relative to the ``repro`` package, whose behaviour
# experiment results depend on.  They are read by path rather than
# imported, so a process that never simulates mobility does not pay for
# importing that package just to key its cells.
_FINGERPRINT_SOURCES = (
    "testbed/simulator.py", "testbed/events.py", "testbed/multiflow.py",
    "testbed/vector_flows.py", "testbed/flow_sampling.py",
    "testbed/experiment.py", "testbed/transport.py", "testbed/energy.py",
    "testbed/tracing.py", "testbed/devices.py", "video/packetizer.py",
    "video/concealment.py", "video/quality.py", "core/frame_success.py",
    "core/policies.py", "wifi/dcf.py", "wifi/phy.py",
    "mobility/trace.py", "mobility/field.py", "mobility/selection.py",
    "mobility/scenario.py", "mobility/process.py", "mobility/sampling.py",
    "mobility/vector.py",
)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the source files whose behaviour experiment results
    depend on; changing any of them invalidates every cache entry."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for source in _FINGERPRINT_SOURCES:
        digest.update((package / source).read_bytes())
    return digest.hexdigest()


def _valid_entry(data: bytes) -> bool:
    """Whether stored bytes decode to a usable ``runs`` payload."""
    try:
        payload = json.loads(data)
    except ValueError:
        return False
    return _parse_runs(payload) is not None


# -- the cache -----------------------------------------------------------------


class ResultCache:
    """Size-capped store of cell results with LRU eviction.

    Parameters
    ----------
    directory:
        Cache directory (its store is ``<directory>/cache.sqlite``), or a
        backend spec such as ``sqlite:/data/grid.sqlite`` or
        ``tcp:HOST:PORT`` — see
        :func:`repro.testbed.backends.parse_backend_spec`.
    max_bytes, max_entries:
        Optional caps; least-recently-accessed entries are evicted on
        :meth:`put_runs` and :meth:`gc` until both hold.
    backend:
        An explicit :class:`~repro.testbed.backends.CacheBackend`
        instance; overrides ``directory``.
    """

    def __init__(self, directory=None, *, max_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None,
                 backend: Optional[CacheBackend] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        if backend is None:
            if directory is None:
                raise ValueError("ResultCache needs a directory, a backend"
                                 " spec, or an explicit backend")
            backend = parse_backend_spec(directory)
        self.backend = backend
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0

    @classmethod
    def from_spec(cls, spec: Union[str, Path], **kwargs) -> "ResultCache":
        """Cache over the backend named by ``spec``."""
        return cls(backend=parse_backend_spec(spec), **kwargs)

    def close(self) -> None:
        """Release the store handle (safe to call repeatedly; the next
        call reopens it)."""
        self.backend.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- read path ---------------------------------------------------------

    def _read_payload(self, key: str) -> Optional[Any]:
        """Decoded payload for ``key``, or ``None`` on a miss;
        quarantines and counts undecodable entries."""
        data = self.backend.read(key)
        if data is None:
            return None
        try:
            return json.loads(data)
        except ValueError:
            self._quarantine(key)
            return None

    def _quarantine(self, key: str) -> None:
        self.corrupt += 1
        self.backend.quarantine(key)

    def _record_hit(self, key: str) -> None:
        self.hits += 1
        self.backend.touch(key, time.time())

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored payload for ``key``, or ``None`` (counted as a miss)."""
        payload = self._read_payload(key)
        if payload is None:
            self.misses += 1
            return None
        self._record_hit(key)
        return payload

    def get_runs(self, key: str) -> Optional[List[RunMetrics]]:
        """Cached per-run metrics for ``key``, or ``None``.

        Entries that are valid JSON but structurally unusable (missing
        ``"runs"``, fields from a future schema…) are quarantined and
        reported as misses rather than raising into the engine.
        """
        payload = self._read_payload(key)
        if payload is None:
            self.misses += 1
            return None
        runs = _parse_runs(payload)
        if runs is None:
            self._quarantine(key)
            self.misses += 1
            return None
        self._record_hit(key)
        return runs

    # -- write path --------------------------------------------------------

    def put_runs(self, key: str, runs: List[RunMetrics],
                 meta: Optional[Dict[str, Any]] = None) -> None:
        """Persist one cell's per-run metrics (plus a readable ``meta``
        block describing what the key hashes, for debuggability), then
        enforce the size caps."""
        payload = {"meta": meta or {}, "runs": [asdict(run) for run in runs]}
        self.backend.write(key, json.dumps(payload).encode("utf-8"))
        if self.max_bytes is not None or self.max_entries is not None:
            self._evict(protect=key)

    def _evict(self, protect: Optional[str] = None) -> Dict[str, int]:
        report = self.backend.gc(self.max_bytes, self.max_entries, protect)
        self.evictions += report["evicted"]
        return report

    # -- maintenance -------------------------------------------------------

    def gc(self) -> Dict[str, int]:
        """Enforce the size caps; returns ``evicted`` plus the surviving
        ``entries`` and ``total_bytes``.  One store transaction, so it is
        safe to run from several processes at once."""
        return self._evict()

    def verify(self) -> Dict[str, int]:
        """Quarantine every undecodable or schema-invalid entry; returns
        ``corrupt`` plus the surviving ``entries`` and ``total_bytes``.
        One store transaction, serialised against other maintainers."""
        report = self.backend.verify(_valid_entry)
        self.corrupt += report["corrupt"]
        return report

    def clear(self) -> int:
        """Delete every entry and quarantined payload; returns how many
        entries were removed."""
        return self.backend.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self.backend.count()

    def total_bytes(self) -> int:
        return self.backend.total_bytes()

    def stats(self) -> Dict[str, Any]:
        """Counters and store aggregates (queries, never a walk)."""
        lookups = self.hits + self.misses
        return {
            "backend": self.backend.name,
            "entries": self.backend.count(),
            "total_bytes": self.backend.total_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
        }
