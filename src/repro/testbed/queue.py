"""Crash-safe on-disk work queue for distributed grid execution.

The advisor's sweeps (ROADMAP "Distributed grid execution") outgrow one
host long before they outgrow one cache: a grid is embarrassingly
parallel across cells, and every cell's result is already content
addressed.  This module turns a directory into a queue that any number
of independent ``repro worker`` processes can drain with zero duplicate
simulations and no coordinator process.

Layout under the queue root::

    config.json    queue-wide settings (cache spec, lease expiry)
    tasks/         pending cells, one JSON file per cell key
    leases/        claimed cells (file mtime = last claim/renew time)
    done/          completion markers
    failed/        cells a worker refused or crashed on, with a reason
    scenarios/     content-addressed clip/bitstream blobs (``.npz``)

Correctness rests on three filesystem guarantees:

- **atomic claim** — claiming renames ``tasks/<key>.json`` into
  ``leases/``; ``os.rename`` has exactly one winner, so two workers can
  never both own a cell.  The winner immediately ``os.utime``\\ s the
  lease (rename preserves the submit-time mtime, which would otherwise
  look instantly expired).
- **lease expiry** — a worker that dies mid-cell leaves its lease file
  behind; once its heartbeat is older than ``lease_expiry_s`` any caller
  of :meth:`WorkQueue.requeue_expired` moves it back to ``tasks/``.
  Live workers renew between repeats.  The heartbeat is a
  ``renewed_at`` wall-clock timestamp written *into* the lease payload
  (claim and renew both stamp it); file mtime is only a fallback for
  bare legacy leases, because mtime granularity and clock skew on
  shared filesystems (NFS/SMB) can make a live lease look expired — or
  a dead one look fresh.
- **idempotent completion** — results land in the shared result cache
  under the cell's content key *before* the lease is retired, so the
  race where an expired worker and its replacement both finish is
  benign: they write byte-identical entries to the same key.

Scenario payloads ride next to the queue as fingerprint-addressed
``.npz`` blobs so workers on other hosts can reconstruct the exact
clip/bitstream the submitter fingerprinted.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..video.gop import Bitstream, EncodedFrame, FrameType, GopLayout
from ..video.yuv import Frame, Sequence420

__all__ = ["QueueTask", "WorkQueue", "open_queue",
           "pack_scenario", "unpack_scenario"]

_TMP_PREFIX = ".tmp-"

TASKS_DIR = "tasks"
LEASES_DIR = "leases"
DONE_DIR = "done"
FAILED_DIR = "failed"
SCENARIOS_DIR = "scenarios"
CONFIG_FILE = "config.json"

DEFAULT_LEASE_EXPIRY_S = 120.0


@dataclass(frozen=True)
class QueueTask:
    """One grid cell, serialized for execution by an arbitrary worker.

    ``key`` is the cell's content address in the result cache; ``schema``
    and ``code`` pin the cache-key schema and simulation-code fingerprint
    the submitter used, so a worker running different code refuses the
    task instead of poisoning the cache under the submitter's key.
    """

    key: str
    scenario: str
    scenario_fingerprint: str
    scenario_meta: Dict[str, Any]
    config: Dict[str, Any]
    repeats: int
    master_seed: int
    schema: int
    code: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=0)

    @classmethod
    def from_json(cls, text: str) -> "QueueTask":
        try:
            raw = json.loads(text)
            return cls(**raw)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"malformed queue task: {exc}") from exc


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{_TMP_PREFIX}{os.getpid()}-{path.name}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _parse_lease_payload(text: str) -> Tuple[QueueTask, Optional[float]]:
    """A lease file is either a wrapped ``{"task": ..., "renewed_at": ts}``
    payload or (legacy / freshly renamed from ``tasks/``) a bare task.
    Returns the task plus the heartbeat timestamp, ``None`` when only
    file mtime is available."""
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"malformed queue task: {exc}") from exc
    if isinstance(raw, dict) and "task" in raw and "renewed_at" in raw:
        try:
            return QueueTask(**raw["task"]), float(raw["renewed_at"])
        except (ValueError, TypeError) as exc:
            raise ValueError(f"malformed queue task: {exc}") from exc
    return QueueTask.from_json(text), None


def _lease_payload(task: QueueTask, renewed_at: float) -> bytes:
    return json.dumps(
        {"task": json.loads(task.to_json()), "renewed_at": renewed_at},
        sort_keys=True,
    ).encode("utf-8")


class WorkQueue:
    """A directory-backed task queue with atomic claims and lease expiry.

    Parameters
    ----------
    path:
        Queue root; created (with :data:`CONFIG_FILE`) on first use.
    lease_expiry_s:
        Age after which an unreneweed lease is presumed dead and
        eligible for :meth:`requeue_expired`.  Persisted in the queue
        config on creation so every worker agrees.
    cache_spec:
        Backend spec (see :func:`repro.testbed.backends.parse_backend_spec`)
        of the result cache all workers share.  Defaults to the queue's
        ``cache`` directory, whose store is ``cache/cache.sqlite``:
        every local process that can reach the queue can reach it, and
        workers on other hosts reach it through ``repro cached serve``.
    """

    def __init__(self, path: Union[str, Path], *,
                 lease_expiry_s: Optional[float] = None,
                 cache_spec: Optional[str] = None) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        for sub in (TASKS_DIR, LEASES_DIR, DONE_DIR, FAILED_DIR,
                    SCENARIOS_DIR):
            (self.path / sub).mkdir(exist_ok=True)
        config_path = self.path / CONFIG_FILE
        if config_path.exists():
            config = json.loads(config_path.read_text())
            if cache_spec is not None and cache_spec != config["cache_spec"]:
                raise ValueError(
                    f"queue {self.path} already uses cache spec"
                    f" {config['cache_spec']!r}, not {cache_spec!r}"
                )
            if (lease_expiry_s is not None
                    and lease_expiry_s != config["lease_expiry_s"]):
                raise ValueError(
                    f"queue {self.path} already uses lease_expiry_s="
                    f"{config['lease_expiry_s']}, not {lease_expiry_s}"
                )
        else:
            config = {
                "cache_spec": cache_spec or str(self.path / "cache"),
                "lease_expiry_s": (DEFAULT_LEASE_EXPIRY_S
                                   if lease_expiry_s is None
                                   else float(lease_expiry_s)),
            }
            _atomic_write(config_path,
                          json.dumps(config, indent=2).encode("utf-8"))
        self.cache_spec: str = config["cache_spec"]
        self.lease_expiry_s: float = float(config["lease_expiry_s"])
        if self.lease_expiry_s <= 0:
            raise ValueError(
                f"lease_expiry_s must be > 0, got {self.lease_expiry_s}")

    # -- paths -------------------------------------------------------------

    def _task_path(self, key: str) -> Path:
        return self.path / TASKS_DIR / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.path / LEASES_DIR / f"{key}.json"

    def _done_path(self, key: str) -> Path:
        return self.path / DONE_DIR / f"{key}.json"

    def _failed_path(self, key: str) -> Path:
        return self.path / FAILED_DIR / f"{key}.json"

    @staticmethod
    def _keys_in(directory: Path) -> List[str]:
        return sorted(
            entry.name[:-len(".json")]
            for entry in directory.iterdir()
            if entry.name.endswith(".json")
            and not entry.name.startswith(_TMP_PREFIX)
        )

    # -- submission --------------------------------------------------------

    def submit(self, task: QueueTask) -> bool:
        """Enqueue a task; returns ``False`` if its key is already
        pending, leased, done, or failed (idempotent re-submission)."""
        for probe in (self._task_path(task.key), self._lease_path(task.key),
                      self._done_path(task.key), self._failed_path(task.key)):
            if probe.exists():
                return False
        _atomic_write(self._task_path(task.key),
                      task.to_json().encode("utf-8"))
        return True

    # -- claiming and leases -----------------------------------------------

    def claim(self) -> Optional[QueueTask]:
        """Atomically claim one pending task, or ``None`` if none remain.

        ``os.rename`` into ``leases/`` has exactly one winner per key, so
        concurrent claimers can never both receive the same cell; losers
        simply move on to the next candidate.
        """
        for key in self._keys_in(self.path / TASKS_DIR):
            task_path = self._task_path(key)
            lease_path = self._lease_path(key)
            try:
                os.rename(task_path, lease_path)
            except OSError:
                continue  # lost the race for this key
            # Stamp the mtime heartbeat the instant the rename is won,
            # BEFORE parsing: rename preserves the submit-time mtime, so
            # a task submitted more than lease_expiry_s ago would
            # otherwise look already-expired during the parse window and
            # a concurrent requeue_expired() could steal it back — two
            # workers then simulate the same cell.
            try:
                os.utime(lease_path)
            except OSError:
                pass  # lease vanished (completed elsewhere); parse fails next
            try:
                task, _ = _parse_lease_payload(lease_path.read_text())
            except (OSError, ValueError) as exc:
                self.fail(key, f"unreadable task file: {exc}")
                continue
            # Then stamp the claim heartbeat *into* the payload: mtime
            # alone is unreliable on coarse-granularity or clock-skewed
            # shared filesystems (the payload stamp is authoritative).
            _atomic_write(lease_path, _lease_payload(task, time.time()))
            os.utime(lease_path)
            return task
        return None

    def renew(self, key: str) -> None:
        """Refresh a held lease's heartbeat (call between repeats):
        rewrites the payload's ``renewed_at`` stamp and touches mtime
        (the fallback signal)."""
        lease_path = self._lease_path(key)
        try:
            task, _ = _parse_lease_payload(lease_path.read_text())
            _atomic_write(lease_path, _lease_payload(task, time.time()))
            os.utime(lease_path)
        except (OSError, ValueError):
            pass  # lease expired and was requeued; completion still works

    def _lease_heartbeat(self, lease_path: Path) -> float:
        """Last-renewal timestamp of a lease: the payload's
        ``renewed_at`` when present, file mtime otherwise (bare legacy
        leases or a claim interrupted before its payload rewrite)."""
        try:
            _, renewed_at = _parse_lease_payload(lease_path.read_text())
        except ValueError:
            renewed_at = None  # unreadable payload: judge by mtime alone
        if renewed_at is not None:
            return renewed_at
        return lease_path.stat().st_mtime

    def requeue_expired(self) -> List[str]:
        """Return expired leases to ``tasks/`` so another worker can take
        over; returns the requeued keys."""
        now = time.time()
        requeued: List[str] = []
        for key in self._keys_in(self.path / LEASES_DIR):
            lease_path = self._lease_path(key)
            try:
                age = now - self._lease_heartbeat(lease_path)
            except OSError:
                continue  # completed or failed while we looked
            if age < self.lease_expiry_s:
                continue
            try:
                os.rename(lease_path, self._task_path(key))
            except OSError:
                continue  # another caller requeued it first
            requeued.append(key)
        return requeued

    # -- completion --------------------------------------------------------

    def complete(self, key: str) -> None:
        """Retire a cell.  Idempotent and safe after lease expiry: the
        result is already in the shared cache under ``key``, so all this
        records is "no further execution needed"."""
        lease_path = self._lease_path(key)
        done_path = self._done_path(key)
        try:
            os.rename(lease_path, done_path)
            return
        except OSError:
            pass
        if done_path.exists():
            return  # a twin (post-expiry) finished first
        # Our lease expired and was requeued (or we never held one, e.g.
        # a cached replay): retire the pending copy if it is still there.
        try:
            os.rename(self._task_path(key), done_path)
        except OSError:
            _atomic_write(done_path, json.dumps({"key": key}).encode())

    def fail(self, key: str, reason: str) -> None:
        """Move a claimed (or pending) cell to ``failed/`` with a reason."""
        failed_path = self._failed_path(key)
        payload: Dict[str, Any] = {"key": key, "reason": reason,
                                   "failed_at": time.time()}
        for source in (self._lease_path(key), self._task_path(key)):
            try:
                task, _ = _parse_lease_payload(source.read_text())
                payload["task"] = asdict(task)
            except (OSError, ValueError):
                pass
            try:
                os.unlink(source)
            except OSError:
                pass
        _atomic_write(failed_path,
                      json.dumps(payload, indent=2).encode("utf-8"))

    def retry_failed(self) -> List[str]:
        """Move every failed cell that still carries its task payload
        back to ``tasks/``; returns the resubmitted keys."""
        retried: List[str] = []
        for key in self._keys_in(self.path / FAILED_DIR):
            failed_path = self._failed_path(key)
            try:
                payload = json.loads(failed_path.read_text())
                task = QueueTask(**payload["task"])
            except (OSError, ValueError, TypeError, KeyError):
                continue  # no payload to retry (e.g. unreadable task file)
            try:
                os.unlink(failed_path)  # before submit: its own probe
            except OSError:
                continue  # a concurrent retry got here first
            if self.submit(task):
                retried.append(key)
        return retried

    # -- introspection -----------------------------------------------------

    def pending_keys(self) -> List[str]:
        return self._keys_in(self.path / TASKS_DIR)

    def leased_keys(self) -> List[str]:
        return self._keys_in(self.path / LEASES_DIR)

    def done_keys(self) -> List[str]:
        return self._keys_in(self.path / DONE_DIR)

    def failed_keys(self) -> List[str]:
        return self._keys_in(self.path / FAILED_DIR)

    def failure_reason(self, key: str) -> Optional[str]:
        try:
            return json.loads(self._failed_path(key).read_text())["reason"]
        except (OSError, ValueError, KeyError):
            return None

    def counts(self) -> Dict[str, int]:
        return {
            "pending": len(self.pending_keys()),
            "leased": len(self.leased_keys()),
            "done": len(self.done_keys()),
            "failed": len(self.failed_keys()),
        }

    def is_drained(self) -> bool:
        """True once nothing is pending or in flight (done/failed only)."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def lease_stats(self) -> Dict[str, float]:
        """Heartbeat age (seconds) per held lease — the signal the
        elastic-worker supervisor scales on: old ages mean dead workers,
        many young ones mean a busy fleet."""
        now = time.time()
        stats: Dict[str, float] = {}
        for key in self._keys_in(self.path / LEASES_DIR):
            try:
                stats[key] = now - self._lease_heartbeat(
                    self._lease_path(key))
            except OSError:
                continue  # completed or requeued while we looked
        return stats

    # -- scenario blobs ----------------------------------------------------

    def _scenario_path(self, fingerprint: str) -> Path:
        return self.path / SCENARIOS_DIR / f"{fingerprint}.npz"

    def has_scenario(self, fingerprint: str) -> bool:
        return self._scenario_path(fingerprint).exists()

    def store_scenario(self, fingerprint: str, original: Sequence420,
                       bitstream: Bitstream) -> None:
        """Persist a scenario's inputs under their content fingerprint
        (idempotent; concurrent writers race benignly to identical bytes)."""
        if self.has_scenario(fingerprint):
            return
        self.store_scenario_blob(fingerprint,
                                 pack_scenario(original, bitstream))

    def store_scenario_blob(self, fingerprint: str, data: bytes) -> None:
        """Persist an already-packed scenario blob (the networked path:
        the client packs, the server stores the raw bytes)."""
        blob_path = self._scenario_path(fingerprint)
        if blob_path.exists():
            return
        _atomic_write(blob_path, data)

    def scenario_blob(self, fingerprint: str) -> bytes:
        """The raw packed bytes of one scenario; raises ``OSError`` when
        the fingerprint is unknown."""
        return self._scenario_path(fingerprint).read_bytes()

    def load_scenario(
        self, fingerprint: str, *,
        verify: Optional[Callable[[Sequence420, Bitstream], str]] = None,
    ) -> Tuple[Sequence420, Bitstream]:
        """Reconstruct a scenario blob; ``verify`` (typically
        :func:`repro.testbed.engine.scenario_fingerprint`) recomputes the
        content digest and must reproduce ``fingerprint`` exactly."""
        return unpack_scenario(self.scenario_blob(fingerprint),
                               fingerprint=fingerprint, verify=verify)


# -- scenario blob packing -----------------------------------------------------


def pack_scenario(original: Sequence420, bitstream: Bitstream) -> bytes:
    """Serialize a scenario's inputs into one compressed ``.npz`` blob —
    shared by the on-disk queue and the TCP tier, so both transports
    move the exact bytes the submitter fingerprinted."""
    meta = {
        "clip": {"width": original.width, "height": original.height,
                 "fps": original.fps, "name": original.name,
                 "n_frames": len(original.frames)},
        "bitstream": {"width": bitstream.width,
                      "height": bitstream.height,
                      "fps": bitstream.fps,
                      "gop_size": bitstream.gop_layout.gop_size,
                      "b_frames": bitstream.gop_layout.b_frames,
                      "quantizer": bitstream.quantizer,
                      "name": bitstream.name},
        "frame_types": "".join(
            frame.frame_type.value for frame in bitstream.frames),
    }
    clip = np.frombuffer(
        b"".join(frame.to_planar_bytes() for frame in original.frames),
        dtype=np.uint8,
    )
    payloads = np.frombuffer(
        b"".join(frame.payload for frame in bitstream.frames),
        dtype=np.uint8,
    )
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                           dtype=np.uint8),
        clip=clip,
        payloads=payloads,
        payload_lens=np.array(
            [len(frame.payload) for frame in bitstream.frames],
            dtype=np.int64),
        frame_indices=np.array(
            [frame.index for frame in bitstream.frames], dtype=np.int64),
        gop_indices=np.array(
            [frame.gop_index for frame in bitstream.frames],
            dtype=np.int64),
        gop_positions=np.array(
            [frame.position_in_gop for frame in bitstream.frames],
            dtype=np.int64),
    )
    return buffer.getvalue()


def unpack_scenario(
    data: bytes, *, fingerprint: str = "",
    verify: Optional[Callable[[Sequence420, Bitstream], str]] = None,
) -> Tuple[Sequence420, Bitstream]:
    """Inverse of :func:`pack_scenario`; ``verify`` recomputes the
    content digest and must reproduce ``fingerprint`` exactly."""
    try:
        with np.load(io.BytesIO(data)) as blob:
            meta = json.loads(bytes(blob["meta"]).decode("utf-8"))
            clip_bytes = blob["clip"].tobytes()
            payload_bytes = blob["payloads"].tobytes()
            payload_lens = blob["payload_lens"]
            frame_indices = blob["frame_indices"]
            gop_indices = blob["gop_indices"]
            gop_positions = blob["gop_positions"]
    except (OSError, KeyError, ValueError) as exc:
        raise ValueError(
            f"scenario blob {fingerprint[:12]}… is not a readable"
            f" scenario archive: {exc}"
        ) from exc
    clip_meta = meta["clip"]
    width, height = clip_meta["width"], clip_meta["height"]
    frame_bytes = width * height * 3 // 2
    if len(clip_bytes) != frame_bytes * clip_meta["n_frames"]:
        raise ValueError(
            f"scenario blob {fingerprint[:12]}… clip bytes do not"
            " match its geometry metadata"
        )
    frames = [
        Frame.from_planar_bytes(
            clip_bytes[i * frame_bytes:(i + 1) * frame_bytes],
            width, height)
        for i in range(clip_meta["n_frames"])
    ]
    original = Sequence420(frames, fps=clip_meta["fps"],
                           name=clip_meta["name"])
    bs_meta = meta["bitstream"]
    layout = GopLayout(gop_size=bs_meta["gop_size"],
                       b_frames=bs_meta["b_frames"])
    encoded: List[EncodedFrame] = []
    offset = 0
    for position, length in enumerate(payload_lens):
        payload = payload_bytes[offset:offset + int(length)]
        offset += int(length)
        encoded.append(EncodedFrame(
            index=int(frame_indices[position]),
            frame_type=FrameType(meta["frame_types"][position]),
            payload=payload,
            gop_index=int(gop_indices[position]),
            position_in_gop=int(gop_positions[position]),
        ))
    bitstream = Bitstream(
        frames=encoded, width=bs_meta["width"],
        height=bs_meta["height"], fps=bs_meta["fps"],
        gop_layout=layout, quantizer=bs_meta["quantizer"],
        name=bs_meta["name"],
    )
    if verify is not None:
        recomputed = verify(original, bitstream)
        if recomputed != fingerprint:
            raise ValueError(
                f"scenario blob {fingerprint[:12]}… failed its"
                f" fingerprint check (got {recomputed[:12]}…);"
                " refusing to simulate corrupted inputs"
            )
    return original, bitstream


def open_queue(queue, **kwargs):
    """A queue from whatever names one: an existing queue object is
    passed through; a ``tcp:HOST:PORT`` spec opens a
    :class:`~repro.testbed.netproto.RemoteWorkQueue`; anything else is a
    :class:`WorkQueue` directory."""
    if not isinstance(queue, (str, Path)):
        return queue
    spec = str(queue)
    if spec.lower().startswith("tcp:"):
        from .netproto import RemoteWorkQueue
        return RemoteWorkQueue.from_spec(spec, **kwargs)
    return WorkQueue(queue, **kwargs)
