"""``repro cached serve`` / ``repro serve`` — the asyncio TCP servers.

:class:`FramedServer` owns the shared machinery: bind/serve/stop
lifecycle, per-connection frame loops, and dispatch of ``op``-keyed
requests to handler methods with exceptions mapped onto ``KIND_ERROR``
frames.  Two services ride on it:

- :class:`CacheQueueServer` fronts an on-disk
  :class:`~repro.testbed.queue.WorkQueue` plus its
  :class:`~repro.testbed.cache.ResultCache`, so workers on hosts that
  share no filesystem mount can submit/claim/heartbeat/complete cells
  and read/write cache entries over ``tcp:HOST:PORT``.  Every request
  is dispatched inline on the single event loop; the underlying
  operations are small filesystem/sqlite touches, and running them
  serially IS the correctness argument — two claims can never
  interleave, so the on-disk queue's single-winner rename is never
  raced from the wire.

- :class:`AdvisorServer` is the production facade of the paper's
  policy advisor (``repro serve``): streaming-session requests in,
  :class:`~repro.core.advisor.AdvisorChoice`-shaped recommendations
  out.  Warm answers come from a content-addressed memo layer over
  :class:`~repro.testbed.cache.ResultCache` and perform **zero** model
  sweeps; cold evaluations run on a thread pool so the loop keeps
  answering, guarded by per-simulated-AP admission caps — a session
  over an AP already at capacity gets a ``busy`` response the client
  retries with backoff instead of queueing unboundedly.

No blocking network primitives belong in this module (``repro lint``
enforces that); connection I/O is all asyncio streams.

The served directory is an ordinary queue root: a grid submitted
locally with ``repro grid submit --queue DIR`` can be served afterwards
with ``repro cached serve --root DIR``, and vice versa.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Any, Deque, Dict, Optional, Sequence, Tuple, Union

from .cache import ResultCache
from .netproto import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    read_frame_async,
)
from .queue import QueueTask, WorkQueue
from . import advisor_service
from ..wifi.dcf import admission_capacity

__all__ = ["FramedServer", "CacheQueueServer", "AdvisorServer",
           "ServerThread"]

_Reply = Tuple[Dict[str, Any], bytes]


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample (fraction in [0,1])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


class FramedServer:
    """Lifecycle + connection handling + op dispatch for one framed-RPC
    TCP service.  Subclasses populate ``_HANDLERS`` with methods taking
    ``(self, header, blob)`` and returning ``(header, blob)``; handlers
    may be sync (run inline on the loop, atomically w.r.t. other
    requests) or async (may await, e.g. into an executor)."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.requested_host = host
        self.requested_port = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.requests_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.host``/``self.port`` hold the
        actual address afterwards (``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.requested_host,
            self.requested_port)
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    @property
    def spec(self) -> str:
        """The ``tcp:HOST:PORT`` clients should dial."""
        return f"tcp:{self.host}:{self.port}"

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    kind, header, blob = await read_frame_async(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away (cleanly or not)
                except ProtocolError:
                    return  # garbage on the wire: drop the connection
                if kind != KIND_REQUEST:
                    return
                response_header, response_blob, reply_kind = \
                    await self._execute(header, blob)
                writer.write(encode_frame(response_header, response_blob,
                                          kind=reply_kind))
                try:
                    await writer.drain()
                except ConnectionError:
                    return
        except asyncio.CancelledError:
            return  # server shutdown: end the task cleanly, not cancelled
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _execute(self, header: Dict[str, Any],
                       blob: bytes) -> Tuple[Dict[str, Any], bytes, int]:
        op = header.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return ({"error": f"unknown op {op!r}",
                     "kind": "ValueError"}, b"", KIND_ERROR)
        try:
            result = handler(self, header, blob)
            if inspect.isawaitable(result):
                result = await result
            response_header, response_blob = result
            self.requests_served += 1
            return response_header, response_blob, KIND_RESPONSE
        except Exception as exc:
            summary = traceback.format_exception_only(type(exc), exc)
            return ({"error": summary[-1].strip(),
                     "kind": type(exc).__name__}, b"", KIND_ERROR)

    # -- ops every service answers -----------------------------------------

    def _op_ping(self, header, blob) -> _Reply:
        return {"pong": True, "version": PROTOCOL_VERSION}, b""

    _HANDLERS: Dict[str, Any] = {"ping": _op_ping}


class CacheQueueServer(FramedServer):
    """Serve one queue root (queue state + result cache + scenario
    blobs) to any number of TCP clients.

    Parameters mirror :class:`~repro.testbed.queue.WorkQueue`; the cache
    is opened from the queue's own ``cache_spec``, so local and remote
    workers land results in the same store.
    """

    def __init__(self, root: Union[str, Path], *,
                 host: str = "127.0.0.1", port: int = 0,
                 lease_expiry_s: Optional[float] = None,
                 cache_spec: Optional[str] = None) -> None:
        super().__init__(host=host, port=port)
        self.queue = WorkQueue(root, lease_expiry_s=lease_expiry_s,
                               cache_spec=cache_spec)
        self.cache = ResultCache.from_spec(self.queue.cache_spec)

    async def stop(self) -> None:
        await super().stop()
        self.cache.close()

    # -- op handlers -------------------------------------------------------

    def _op_stats(self, header, blob) -> _Reply:
        return {
            "queue": self.queue.counts(),
            "leases": self.queue.lease_stats(),
            "lease_expiry_s": self.queue.lease_expiry_s,
            "cache_entries": len(self.cache),
            "requests_served": self.requests_served,
        }, b""

    def _op_queue_config(self, header, blob) -> _Reply:
        return {"lease_expiry_s": self.queue.lease_expiry_s,
                "cache_spec_local": self.queue.cache_spec}, b""

    def _op_queue_submit(self, header, blob) -> _Reply:
        task = QueueTask(**header["task"])
        return {"submitted": self.queue.submit(task)}, b""

    def _op_queue_claim(self, header, blob) -> _Reply:
        task = self.queue.claim()
        return {"task": None if task is None else asdict(task)}, b""

    def _op_queue_renew(self, header, blob) -> _Reply:
        self.queue.renew(header["key"])
        return {}, b""

    def _op_queue_complete(self, header, blob) -> _Reply:
        self.queue.complete(header["key"])
        return {}, b""

    def _op_queue_fail(self, header, blob) -> _Reply:
        self.queue.fail(header["key"], str(header.get("reason", "")))
        return {}, b""

    def _op_queue_requeue_expired(self, header, blob) -> _Reply:
        return {"requeued": self.queue.requeue_expired()}, b""

    def _op_queue_retry_failed(self, header, blob) -> _Reply:
        return {"retried": self.queue.retry_failed()}, b""

    def _op_queue_keys(self, header, blob) -> _Reply:
        state = header.get("state")
        keys_by_state = {
            "pending": self.queue.pending_keys,
            "leased": self.queue.leased_keys,
            "done": self.queue.done_keys,
            "failed": self.queue.failed_keys,
        }
        if state not in keys_by_state:
            raise ValueError(f"unknown queue state {state!r}")
        return {"keys": keys_by_state[state]()}, b""

    def _op_queue_counts(self, header, blob) -> _Reply:
        return {"counts": self.queue.counts()}, b""

    def _op_queue_failure_reason(self, header, blob) -> _Reply:
        return {"reason": self.queue.failure_reason(header["key"])}, b""

    def _op_queue_lease_stats(self, header, blob) -> _Reply:
        return {"leases": self.queue.lease_stats()}, b""

    def _op_scenario_has(self, header, blob) -> _Reply:
        return {"has": self.queue.has_scenario(header["fingerprint"])}, b""

    def _op_scenario_put(self, header, blob) -> _Reply:
        self.queue.store_scenario_blob(header["fingerprint"], blob)
        return {}, b""

    def _op_scenario_get(self, header, blob) -> _Reply:
        fingerprint = header["fingerprint"]
        try:
            data = self.queue.scenario_blob(fingerprint)
        except OSError:
            raise FileNotFoundError(
                f"no scenario blob {fingerprint[:12]}… on this server")
        return {"size": len(data)}, data

    def _op_cache_read(self, header, blob) -> _Reply:
        data = self.cache.backend.read(header["key"])
        if data is None:
            return {"found": False}, b""
        return {"found": True}, data

    def _op_cache_write(self, header, blob) -> _Reply:
        return {"size": self.cache.backend.write(header["key"], blob)}, b""

    def _op_cache_delete(self, header, blob) -> _Reply:
        return {"deleted": self.cache.backend.delete(header["key"])}, b""

    def _op_cache_touch(self, header, blob) -> _Reply:
        self.cache.backend.touch(header["key"], float(header["accessed"]))
        return {}, b""

    def _op_cache_quarantine(self, header, blob) -> _Reply:
        return {"moved": self.cache.backend.quarantine(header["key"])}, b""

    def _op_cache_count(self, header, blob) -> _Reply:
        return {"count": self.cache.backend.count()}, b""

    def _op_cache_total_bytes(self, header, blob) -> _Reply:
        return {"total_bytes": self.cache.backend.total_bytes()}, b""

    def _op_cache_gc(self, header, blob) -> _Reply:
        return {"report": self.cache.backend.gc(
            header.get("max_bytes"), header.get("max_entries"),
            header.get("protect"))}, b""

    def _op_cache_verify(self, header, blob) -> _Reply:
        return {"report": self.cache.verify()}, b""

    def _op_cache_clear(self, header, blob) -> _Reply:
        return {"removed": self.cache.clear()}, b""

    _HANDLERS = {
        "ping": FramedServer._op_ping,
        "stats": _op_stats,
        "queue.config": _op_queue_config,
        "queue.submit": _op_queue_submit,
        "queue.claim": _op_queue_claim,
        "queue.renew": _op_queue_renew,
        "queue.complete": _op_queue_complete,
        "queue.fail": _op_queue_fail,
        "queue.requeue_expired": _op_queue_requeue_expired,
        "queue.retry_failed": _op_queue_retry_failed,
        "queue.keys": _op_queue_keys,
        "queue.counts": _op_queue_counts,
        "queue.failure_reason": _op_queue_failure_reason,
        "queue.lease_stats": _op_queue_lease_stats,
        "scenario.has": _op_scenario_has,
        "scenario.put": _op_scenario_put,
        "scenario.get": _op_scenario_get,
        "cache.read": _op_cache_read,
        "cache.write": _op_cache_write,
        "cache.delete": _op_cache_delete,
        "cache.touch": _op_cache_touch,
        "cache.quarantine": _op_cache_quarantine,
        "cache.count": _op_cache_count,
        "cache.total_bytes": _op_cache_total_bytes,
        "cache.gc": _op_cache_gc,
        "cache.verify": _op_cache_verify,
        "cache.clear": _op_cache_clear,
    }


class AdvisorServer(FramedServer):
    """``repro serve`` — policy recommendations as a long-running,
    admission-controlled TCP service.

    Parameters
    ----------
    cache:
        A :class:`~repro.testbed.cache.ResultCache`, or a directory /
        backend spec to open one from.  Holds the content-addressed memo
        of finished recommendations; a warm request is answered straight
        from it with zero model sweeps.
    ap_capacity:
        Max cold evaluations in flight per simulated AP.  A request
        whose AP is at capacity gets a ``{"busy": true}`` response (a
        normal ``KIND_RESPONSE``, so :class:`NetClient` does not treat
        it as an error) and the client retries with backoff.  ``None``
        (the default) derives the cap from the Section 4.1 DCF
        contention model (:func:`repro.wifi.dcf.admission_capacity`):
        admit contenders while the modelled packet success rate holds
        the admission floor.  Passing an integer overrides the model.
    engine:
        Model backend for cold evaluations: ``"vector"`` (default, one
        batched numpy sweep) or ``"scalar"`` (the per-policy oracle).
        Answers and memo keys are engine-agnostic.
    workers:
        Thread-pool size for cold evaluations.  The model sweep is pure
        CPU over numpy, and the pool keeps the event loop free to answer
        warm requests and ``stats`` while sweeps run.
    """

    # Ring size for per-engine cold solve latencies backing the
    # ``advise.stats`` percentiles; old samples age out.
    SOLVE_WINDOW = 4096

    def __init__(self, cache: Union[ResultCache, str, Path], *,
                 host: str = "127.0.0.1", port: int = 0,
                 ap_capacity: Optional[int] = None,
                 engine: str = "vector", workers: int = 2) -> None:
        super().__init__(host=host, port=port)
        if ap_capacity is None:
            ap_capacity = admission_capacity()
        elif ap_capacity < 1:
            raise ValueError(
                f"ap_capacity must be >= 1, got {ap_capacity}")
        if engine not in ("scalar", "vector"):
            raise ValueError(f"unknown engine {engine!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not isinstance(cache, ResultCache):
            cache = ResultCache.from_spec(cache)
        self.cache = cache
        self.memo = advisor_service.AdvisorMemo(cache)
        self.ap_capacity = ap_capacity
        self.engine = engine
        self.evaluations = 0
        self._aps: Dict[str, Dict[str, int]] = {}
        self._solve_ms: Dict[str, Deque[float]] = {
            "scalar": deque(maxlen=self.SOLVE_WINDOW),
            "vector": deque(maxlen=self.SOLVE_WINDOW),
        }
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-advise")
        self._started_monotonic = time.monotonic()

    async def start(self) -> None:
        await super().start()
        self._started_monotonic = time.monotonic()

    async def stop(self) -> None:
        await super().stop()
        self._executor.shutdown(wait=True)
        self.cache.close()

    def _ap_load(self, ap: str) -> Dict[str, int]:
        load = self._aps.get(ap)
        if load is None:
            load = {"in_flight": 0, "admitted": 0, "rejected": 0,
                    "peak_in_flight": 0}
            self._aps[ap] = load
        return load

    # -- op handlers -------------------------------------------------------

    async def _op_advise_recommend(self, header, blob) -> _Reply:
        request = advisor_service.ServiceRequest.from_header(
            header.get("request"))
        key = self.memo.key(request)
        payload = self.memo.get(key)
        if payload is not None:
            return ({"source": "memo", "key": key, "ap": request.ap},
                    advisor_service.encode_payload(payload))
        # Admission check + bookkeeping with no await in between: atomic
        # on the loop, so in-flight can never overshoot the cap.
        load = self._ap_load(request.ap)
        if load["in_flight"] >= self.ap_capacity:
            load["rejected"] += 1
            return ({"busy": True, "ap": request.ap,
                     "in_flight": load["in_flight"],
                     "capacity": self.ap_capacity}, b"")
        load["in_flight"] += 1
        load["admitted"] += 1
        load["peak_in_flight"] = max(load["peak_in_flight"],
                                     load["in_flight"])
        try:
            loop = asyncio.get_running_loop()
            payload, elapsed_ms = await loop.run_in_executor(
                self._executor, self._timed_evaluate, request)
        finally:
            load["in_flight"] -= 1
        self.evaluations += 1
        self._solve_ms[self.engine].append(elapsed_ms)
        self.memo.put(key, request, payload)
        return ({"source": "cold", "key": key, "ap": request.ap},
                advisor_service.encode_payload(payload))

    def _timed_evaluate(self, request) -> Tuple[Dict[str, Any], float]:
        """Run one cold evaluation on the pool, returning its wall time
        so ``advise.stats`` can report per-engine solve percentiles."""
        started = time.perf_counter()
        payload = advisor_service.evaluate_payload(
            request, engine=self.engine)
        return payload, (time.perf_counter() - started) * 1e3

    def _solve_latency_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-engine cold-solve latency percentiles over the sample
        ring (``None`` percentiles until that engine has samples)."""
        stats: Dict[str, Dict[str, Any]] = {}
        for engine, samples in self._solve_ms.items():
            stats[engine] = {
                "count": len(samples),
                "p50_ms": _percentile(samples, 0.50) if samples else None,
                "p99_ms": _percentile(samples, 0.99) if samples else None,
            }
        return stats

    def _op_advise_stats(self, header, blob) -> _Reply:
        lookups = self.memo.hits + self.memo.misses
        return {
            "ok": True,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "requests_served": self.requests_served,
            "evaluations": self.evaluations,
            "engine": self.engine,
            "solve_ms": self._solve_latency_stats(),
            "memo": {
                "hits": self.memo.hits,
                "misses": self.memo.misses,
                "hit_rate": (self.memo.hits / lookups) if lookups else None,
            },
            "in_flight": sum(load["in_flight"]
                             for load in self._aps.values()),
            "ap_capacity": self.ap_capacity,
            "aps": {ap: dict(load) for ap, load in self._aps.items()},
        }, b""

    _HANDLERS = {
        "ping": FramedServer._op_ping,
        "advise.recommend": _op_advise_recommend,
        "advise.stats": _op_advise_stats,
    }


class ServerThread:
    """A :class:`FramedServer` on a background thread with its own
    event loop — the in-process harness tests and ``repro selftest``
    use (production serving goes through ``repro cached serve`` /
    ``repro serve``).

    Pass a queue root to serve a :class:`CacheQueueServer` (the
    historical calling convention), or ``server=`` with any
    already-constructed :class:`FramedServer`.

    Context-manager: entering starts the loop and blocks until the
    server is bound; ``.host``/``.port``/``.spec`` then address it.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None, *,
                 server: Optional[FramedServer] = None,
                 host: str = "127.0.0.1",
                 port: int = 0, lease_expiry_s: Optional[float] = None,
                 cache_spec: Optional[str] = None) -> None:
        if (root is None) == (server is None):
            raise ValueError("pass exactly one of root= or server=")
        if server is None:
            server = CacheQueueServer(root, host=host, port=port,
                                      lease_expiry_s=lease_expiry_s,
                                      cache_spec=cache_spec)
        self.server = server
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-framed-serve",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("framed server failed to start in 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise RuntimeError(
                f"framed server failed to bind: {self._startup_error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None \
                and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=10.0)

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def host(self) -> str:
        assert self.server.host is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def spec(self) -> str:
        return self.server.spec
