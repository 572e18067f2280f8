"""Wire protocol + client side of the networked cache/queue tier.

A ``WorkQueue`` directory and a local sqlite cache store serve the
processes of one host.  This module (with :mod:`repro.testbed.server`)
lifts the same contracts onto TCP so hosts that share *nothing* can
drain one grid:

- a small **length-prefixed binary framing** (:func:`encode_frame` /
  :func:`decode_frame`) carrying a JSON header plus an opaque binary
  blob — scenario ``.npz`` payloads and cache entries travel as raw
  bytes, never JSON-inflated;
- a synchronous :class:`NetClient` RPC caller with per-call timeout,
  bounded retries, and reconnect-with-jittered-exponential-backoff on
  every failure (the :class:`Backoff` helper is shared with the worker
  poll loop, so a hundred elastic workers never hammer the server in
  lockstep);
- :class:`RemoteWorkQueue` — the duck-typed twin of
  :class:`~repro.testbed.queue.WorkQueue` over ``tcp:HOST:PORT``;
- :class:`TcpCacheBackend` — a
  :class:`~repro.testbed.backends.CacheBackend` that proxies every
  store call to the server's sqlite store, so a stock
  :class:`~repro.testbed.cache.ResultCache` works unchanged over the
  wire and writes stay byte-identical to local execution.

Every RPC is idempotent or benign on retry: ``submit``/``complete``
already are, a re-sent ``claim`` after an ambiguous failure at worst
strands a lease that expiry requeues, and cache writes are
content-addressed so twins land identical bytes.  Claim atomicity comes
for free: the server executes requests inline on one event loop, so the
filesystem queue's single-winner rename is never raced from the wire.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import socket
import struct
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from .backends import CacheBackend
from .queue import QueueTask, pack_scenario, unpack_scenario

__all__ = [
    "PROTOCOL_VERSION", "MAX_HEADER_BYTES", "MAX_BLOB_BYTES",
    "KIND_REQUEST", "KIND_RESPONSE", "KIND_ERROR",
    "ProtocolError", "RemoteError",
    "encode_frame", "decode_frame", "parse_prefix", "read_frame_async",
    "Backoff", "NetClient", "RemoteWorkQueue", "TcpCacheBackend",
    "parse_tcp_spec",
]

# -- framing -------------------------------------------------------------------

MAGIC = b"RW"
PROTOCOL_VERSION = 2

KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2
_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR)

#: magic(2) version(1) kind(1) header_len(u32) blob_len(u32)
_PREFIX = struct.Struct("!2sBBII")
PREFIX_LEN = _PREFIX.size

MAX_HEADER_BYTES = 1 << 20   # 1 MiB of JSON is already pathological
MAX_BLOB_BYTES = 1 << 28     # 256 MiB bounds a hostile length prefix


class ProtocolError(ValueError):
    """The byte stream is not a well-formed frame (garbage, truncation,
    hostile length prefix, undecodable header)."""


class RemoteError(RuntimeError):
    """The server executed the request and reported a failure it could
    not map onto a builtin exception type."""

    def __init__(self, message: str, kind: str = "RemoteError") -> None:
        super().__init__(message)
        self.kind = kind


def encode_frame(header: Dict[str, Any], blob: bytes = b"",
                 kind: int = KIND_REQUEST) -> bytes:
    """Serialize one frame: prefix + JSON header + opaque blob."""
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"header of {len(header_bytes)} bytes exceeds the"
            f" {MAX_HEADER_BYTES}-byte cap")
    if len(blob) > MAX_BLOB_BYTES:
        raise ProtocolError(
            f"blob of {len(blob)} bytes exceeds the"
            f" {MAX_BLOB_BYTES}-byte cap")
    return (_PREFIX.pack(MAGIC, PROTOCOL_VERSION, kind,
                         len(header_bytes), len(blob))
            + header_bytes + blob)


def parse_prefix(prefix: bytes) -> Tuple[int, int, int]:
    """Validate a frame prefix; returns ``(kind, header_len, blob_len)``."""
    if len(prefix) != PREFIX_LEN:
        raise ProtocolError(
            f"short frame prefix: {len(prefix)} of {PREFIX_LEN} bytes")
    magic, version, kind, header_len, blob_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {header_len} exceeds cap")
    if blob_len > MAX_BLOB_BYTES:
        raise ProtocolError(f"blob length {blob_len} exceeds cap")
    return kind, header_len, blob_len


def _decode_header(header_bytes: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}")
    return header


def decode_frame(data: bytes) -> Tuple[int, Dict[str, Any], bytes]:
    """Parse one complete frame held in ``data``; trailing bytes are an
    error.  Raises :class:`ProtocolError` on any malformation."""
    kind, header_len, blob_len = parse_prefix(data[:PREFIX_LEN])
    expected = PREFIX_LEN + header_len + blob_len
    if len(data) < expected:
        raise ProtocolError(
            f"truncated frame: {len(data)} of {expected} bytes")
    if len(data) > expected:
        raise ProtocolError(
            f"trailing garbage: {len(data) - expected} bytes past the frame")
    header = _decode_header(data[PREFIX_LEN:PREFIX_LEN + header_len])
    blob = data[PREFIX_LEN + header_len:expected]
    return kind, header, blob


async def read_frame_async(reader) -> Tuple[int, Dict[str, Any], bytes]:
    """Read one frame from an asyncio stream reader.  Raises
    :class:`ProtocolError` on malformed bytes and
    ``asyncio.IncompleteReadError`` on a clean mid-frame disconnect."""
    prefix = await reader.readexactly(PREFIX_LEN)
    kind, header_len, blob_len = parse_prefix(prefix)
    header = _decode_header(await reader.readexactly(header_len))
    blob = await reader.readexactly(blob_len)
    return kind, header, blob


# -- backoff -------------------------------------------------------------------


class Backoff:
    """Jittered exponential backoff: ``base * factor^n`` capped at
    ``cap``, multiplied by a uniform jitter in ``[1-jitter, 1+jitter)``.

    One instance per waiter; :meth:`reset` after any success so the next
    failure starts cheap again.  Shared by the worker poll loop and the
    TCP client's reconnect path, so fleets of elastic workers decorrelate
    instead of hammering the filesystem/server in lockstep.
    """

    def __init__(self, base_s: float = 0.05, cap_s: float = 2.0, *,
                 factor: float = 2.0, jitter: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        if base_s <= 0 or cap_s < base_s:
            raise ValueError(
                f"need 0 < base_s <= cap_s, got {base_s}/{cap_s}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self.factor = float(factor)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else random.Random()
        self._attempt = 0

    def next_delay(self) -> float:
        """The next sleep, growing the attempt counter."""
        raw = min(self.cap_s, self.base_s * self.factor ** self._attempt)
        self._attempt += 1
        if self.jitter == 0.0:
            return raw
        scale = 1.0 - self.jitter + 2.0 * self.jitter * self._rng.random()
        return raw * scale

    def reset(self) -> None:
        self._attempt = 0

    @property
    def attempt(self) -> int:
        return self._attempt


# -- spec parsing --------------------------------------------------------------

_TCP_SPEC = re.compile(
    r"^tcp:(?://)?(?P<host>\[[^\]]+\]|[^:/]+):(?P<port>\d+)$",
    re.IGNORECASE,
)


def parse_tcp_spec(spec: str) -> Tuple[str, int]:
    """``tcp:HOST:PORT`` (or ``tcp://HOST:PORT``) -> ``(host, port)``."""
    match = _TCP_SPEC.match(str(spec).strip())
    if match is None:
        raise ValueError(
            f"malformed tcp spec {spec!r}; expected tcp:HOST:PORT")
    host = match.group("host").strip("[]")
    port = int(match.group("port"))
    if not 0 < port < 65536:
        raise ValueError(f"tcp spec {spec!r} has out-of-range port {port}")
    return host, port


# -- the RPC client ------------------------------------------------------------


class NetClient:
    """Synchronous RPC caller over one TCP connection.

    Every :meth:`call` retries up to ``attempts`` times across transport
    failures (refused/reset/timeout/desync), reconnecting with jittered
    exponential backoff between tries, so a brief server restart or
    network partition looks like latency, not an error.  Server-side
    *semantic* errors (an op that executed and failed) are raised
    immediately without retry, mapped back onto builtin exception types
    where possible.
    """

    _ERROR_TYPES: Dict[str, Callable[[str], Exception]] = {
        "ValueError": ValueError,
        "KeyError": KeyError,
        "OSError": OSError,
        "FileNotFoundError": FileNotFoundError,
    }

    def __init__(self, host: str, port: int, *,
                 connect_timeout_s: float = 5.0,
                 call_timeout_s: float = 60.0,
                 attempts: int = 8,
                 backoff: Optional[Backoff] = None) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.call_timeout_s = call_timeout_s
        self.attempts = attempts
        self._backoff = backoff or Backoff(base_s=0.05, cap_s=2.0)
        self._sock: Optional[socket.socket] = None

    # -- connection management ---------------------------------------------

    def _ensure_socket(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
            sock.settimeout(self.call_timeout_s)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the connection; the next call reconnects transparently."""
        self._drop()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the call path -----------------------------------------------------

    def _recv_exact(self, sock: socket.socket, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(min(remaining, 1 << 16))
            if not chunk:
                raise ConnectionError(
                    f"server closed mid-frame ({n - remaining} of {n}"
                    " bytes read)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _roundtrip(self, payload: bytes) -> Tuple[int, Dict[str, Any], bytes]:
        sock = self._ensure_socket()
        sock.sendall(payload)
        kind, header_len, blob_len = parse_prefix(
            self._recv_exact(sock, PREFIX_LEN))
        header = _decode_header(self._recv_exact(sock, header_len))
        blob = self._recv_exact(sock, blob_len)
        return kind, header, blob

    def call(self, op: str, header: Optional[Dict[str, Any]] = None,
             blob: bytes = b"") -> Tuple[Dict[str, Any], bytes]:
        """Execute one RPC; returns ``(response_header, response_blob)``.

        Transport failures are retried with reconnect + backoff; after
        ``attempts`` consecutive failures a :class:`ConnectionError`
        carrying the last cause is raised.
        """
        request = dict(header or {})
        request["op"] = op
        payload = encode_frame(request, blob, kind=KIND_REQUEST)
        last_error: Optional[Exception] = None
        for attempt in range(self.attempts):
            if attempt:
                time.sleep(self._backoff.next_delay())
            try:
                kind, response, response_blob = self._roundtrip(payload)
            except (OSError, ProtocolError) as exc:
                # includes socket.timeout (an OSError) and stream desync;
                # drop the connection so the retry starts clean.
                self._drop()
                last_error = exc
                continue
            self._backoff.reset()
            if kind == KIND_ERROR:
                raise self._remote_error(response)
            return response, response_blob
        raise ConnectionError(
            f"rpc {op!r} to {self.host}:{self.port} failed after"
            f" {self.attempts} attempts: {last_error}") from last_error

    def _remote_error(self, response: Dict[str, Any]) -> Exception:
        message = str(response.get("error", "unspecified server error"))
        kind = str(response.get("kind", "RemoteError"))
        factory = self._ERROR_TYPES.get(kind)
        if factory is not None:
            return factory(message)
        return RemoteError(message, kind=kind)


# -- the remote work queue -----------------------------------------------------


class RemoteWorkQueue:
    """Duck-typed twin of :class:`~repro.testbed.queue.WorkQueue` over a
    ``tcp:HOST:PORT`` server.

    Lease heartbeats, expiry, and claim atomicity all live server-side
    (one event loop, one filesystem queue), so wire latency cannot widen
    any race window: a claim either happens on the server or it does
    not, and the heartbeat is stamped there in the same dispatch.
    """

    def __init__(self, host: str, port: int, *,
                 client: Optional[NetClient] = None,
                 **client_kwargs) -> None:
        self.host = host
        self.port = port
        self._client = client or NetClient(host, port, **client_kwargs)
        config, _ = self._client.call("queue.config")
        self.lease_expiry_s = float(config["lease_expiry_s"])
        #: remote workers reach the same store through the same server
        self.cache_spec = f"tcp:{host}:{port}"

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "RemoteWorkQueue":
        host, port = parse_tcp_spec(spec)
        return cls(host, port, **kwargs)

    @property
    def path(self) -> str:
        """Spec string; mirrors ``WorkQueue.path`` for reports/CLI."""
        return f"tcp:{self.host}:{self.port}"

    def close(self) -> None:
        self._client.close()

    # -- submission / claiming ---------------------------------------------

    def submit(self, task: QueueTask) -> bool:
        header, _ = self._client.call("queue.submit",
                                      {"task": asdict(task)})
        return bool(header["submitted"])

    def claim(self) -> Optional[QueueTask]:
        header, _ = self._client.call("queue.claim")
        raw = header.get("task")
        return None if raw is None else QueueTask(**raw)

    def renew(self, key: str) -> None:
        try:
            self._client.call("queue.renew", {"key": key})
        except (ConnectionError, RemoteError):
            pass  # best-effort, exactly like the local heartbeat

    def requeue_expired(self) -> List[str]:
        header, _ = self._client.call("queue.requeue_expired")
        return list(header["requeued"])

    def complete(self, key: str) -> None:
        self._client.call("queue.complete", {"key": key})

    def fail(self, key: str, reason: str) -> None:
        self._client.call("queue.fail", {"key": key, "reason": reason})

    def retry_failed(self) -> List[str]:
        header, _ = self._client.call("queue.retry_failed")
        return list(header["retried"])

    # -- introspection -----------------------------------------------------

    def _keys(self, state: str) -> List[str]:
        header, _ = self._client.call("queue.keys", {"state": state})
        return list(header["keys"])

    def pending_keys(self) -> List[str]:
        return self._keys("pending")

    def leased_keys(self) -> List[str]:
        return self._keys("leased")

    def done_keys(self) -> List[str]:
        return self._keys("done")

    def failed_keys(self) -> List[str]:
        return self._keys("failed")

    def counts(self) -> Dict[str, int]:
        header, _ = self._client.call("queue.counts")
        return {state: int(header["counts"][state])
                for state in ("pending", "leased", "done", "failed")}

    def is_drained(self) -> bool:
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def failure_reason(self, key: str) -> Optional[str]:
        header, _ = self._client.call("queue.failure_reason", {"key": key})
        return header["reason"]

    def lease_stats(self) -> Dict[str, float]:
        header, _ = self._client.call("queue.lease_stats")
        return {key: float(age) for key, age in header["leases"].items()}

    # -- scenario blobs ----------------------------------------------------

    def has_scenario(self, fingerprint: str) -> bool:
        header, _ = self._client.call("scenario.has",
                                      {"fingerprint": fingerprint})
        return bool(header["has"])

    def store_scenario(self, fingerprint: str, original,
                       bitstream) -> None:
        if self.has_scenario(fingerprint):
            return
        blob = pack_scenario(original, bitstream)
        self._client.call("scenario.put", {"fingerprint": fingerprint},
                          blob)

    def load_scenario(self, fingerprint: str, *, verify=None):
        _, blob = self._client.call("scenario.get",
                                    {"fingerprint": fingerprint})
        return unpack_scenario(blob, fingerprint=fingerprint,
                               verify=verify)


# -- the remote cache backend --------------------------------------------------


class TcpCacheBackend(CacheBackend):
    """A :class:`CacheBackend` whose store lives behind a
    ``tcp:HOST:PORT`` server.

    Every method is one RPC that the server runs against its local
    :class:`~repro.testbed.backends.SqliteBackend`, so ``gc``/``verify``/
    ``clear`` are serialised by the server's store transaction, exactly
    as for local maintainers of that store.
    """

    name = "tcp"

    def __init__(self, host: str, port: int, *,
                 client: Optional[NetClient] = None,
                 **client_kwargs) -> None:
        self.host = host
        self.port = port
        self._client = client or NetClient(host, port, **client_kwargs)

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "TcpCacheBackend":
        host, port = parse_tcp_spec(spec)
        return cls(host, port, **kwargs)

    def read(self, key: str) -> Optional[bytes]:
        header, blob = self._client.call("cache.read", {"key": key})
        return blob if header["found"] else None

    def write(self, key: str, data: bytes) -> int:
        header, _ = self._client.call("cache.write", {"key": key}, data)
        return int(header["size"])

    def delete(self, key: str) -> bool:
        header, _ = self._client.call("cache.delete", {"key": key})
        return bool(header["deleted"])

    def touch(self, key: str, accessed: float) -> None:
        self._client.call("cache.touch", {"key": key, "accessed": accessed})

    def quarantine(self, key: str) -> bool:
        header, _ = self._client.call("cache.quarantine", {"key": key})
        return bool(header["moved"])

    def count(self) -> int:
        header, _ = self._client.call("cache.count")
        return int(header["count"])

    def total_bytes(self) -> int:
        header, _ = self._client.call("cache.total_bytes")
        return int(header["total_bytes"])

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None,
           protect: Optional[str] = None) -> Dict[str, int]:
        header, _ = self._client.call(
            "cache.gc", {"max_bytes": max_bytes, "max_entries": max_entries,
                         "protect": protect})
        return header["report"]

    def verify(self, valid: Callable[[bytes], bool]) -> Dict[str, int]:
        """The server checks entries against its own copy of the cache
        schema; ``valid`` does not cross the wire."""
        header, _ = self._client.call("cache.verify")
        return header["report"]

    def clear(self) -> int:
        header, _ = self._client.call("cache.clear")
        return int(header["removed"])

    def close(self) -> None:
        self._client.close()
