"""Deterministic discrete-event simulation kernel.

A single per-packet loop would hard-code the paper's single-flow
assumption (eq. 19's one sender owning the channel), but the paper's
own testbed runs two phones contending for one AP.  This kernel lets
sender, MAC and eavesdropper run as *concurrent processes* so
multi-flow contention becomes expressible
(:mod:`repro.testbed.multiflow`); the single-flow
:class:`~repro.testbed.simulator.SenderSimulator` is its one-process
case.  It stays bit-for-bit reproducible:

- **heap scheduler** — pending events live in a binary heap ordered by
  ``(time, sequence)``; the monotone sequence counter makes ties between
  same-time events resolve in scheduling order (FIFO), independent of
  heap size or contents;
- **generator processes** — a process is a plain Python generator that
  yields commands (:class:`Timeout`, :class:`WaitUntil`,
  :class:`Request`) back to the kernel; there are no threads, so the
  interleaving is fully determined by the event order;
- **seeded RNG streams** — the kernel owns a root
  :class:`numpy.random.SeedSequence`; :meth:`EventKernel.spawn_rng`
  hands each process its own child stream (spawn order = call order),
  so adding a process never perturbs the draws of existing ones.

Determinism contract: identical seeds and identical process setup give
an identical fired-event trace (:attr:`EventKernel.fired` when tracing
is on) and identical simulation results — the property tests in
``tests/test_events_properties.py`` and the golden fixtures under
``tests/golden/`` pin this down.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Generator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "EventKernel", "FiredEvent", "Process", "Request", "Resource",
    "Timeout", "WaitUntil",
]


# -- commands a process can yield ----------------------------------------------


@dataclass(frozen=True)
class Timeout:
    """Resume the yielding process ``delay`` seconds from now."""

    delay: float


@dataclass(frozen=True)
class WaitUntil:
    """Resume the yielding process at absolute time ``time`` (or
    immediately if that instant already passed).  Unlike ``Timeout(t -
    now)`` this reproduces the target time exactly, with no float
    round-trip through a subtraction."""

    time: float


@dataclass(frozen=True)
class Request:
    """Block until ``resource`` grants the yielding process a slot."""

    resource: "Resource"


Command = Union[Timeout, WaitUntil, Request]


# -- bookkeeping ---------------------------------------------------------------


@dataclass(frozen=True)
class FiredEvent:
    """One scheduler step, as recorded when tracing is enabled."""

    time: float
    sequence: int
    process: str
    kind: str  # "start" | "timeout" | "wait_until" | "grant"


class Process:
    """A generator registered with the kernel (created by
    :meth:`EventKernel.add_process`, not directly)."""

    def __init__(self, kernel: "EventKernel",
                 generator: Generator[Command, None, None],
                 name: str) -> None:
        self.kernel = kernel
        self.generator = generator
        self.name = name
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"

    def kill(self) -> None:
        """Terminate the process: close its generator and mark it dead.

        Any event already in the heap for it becomes a no-op, and a
        :class:`Resource` will never grant it a slot — hand-overs skip
        dead waiters, and a grant that was already in flight releases
        the slot back to the queue when it fires.
        """
        if not self.alive:
            return
        self.alive = False
        self.generator.close()


class Resource:
    """A FIFO resource with fixed capacity (default 1): the shared
    medium of :class:`~repro.testbed.multiflow.ContentionMAC`.

    Processes acquire a slot by yielding ``Request(resource)`` and give
    it back with a plain :meth:`release` call.  Waiters are granted
    strictly in request order; a hand-over is scheduled at the current
    time through the ordinary heap, so it interleaves deterministically
    with any other same-time events.
    """

    def __init__(self, kernel: "EventKernel", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Process] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def _request(self, process: Process) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            self.kernel._schedule(self.kernel.now, process, "grant",
                                  resource=self)
        else:
            self._waiters.append(process)

    def release(self) -> None:
        """Free one slot; the oldest *alive* waiter (if any) inherits it.

        Dead waiters are skipped: handing the slot to a killed process
        would leak it (the grant event would fire into a no-op) and
        deadlock every remaining waiter behind a medium nobody holds.
        """
        if self._in_use == 0:
            raise RuntimeError("release() without a matching acquired slot")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.alive:
                # Slot handed over: _in_use is unchanged.
                self.kernel._schedule(self.kernel.now, waiter, "grant",
                                      resource=self)
                return
        self._in_use -= 1


# -- the kernel ----------------------------------------------------------------


class EventKernel:
    """Heap-based deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Root of the per-process RNG streams handed out by
        :meth:`spawn_rng` — an ``int``, an existing
        :class:`numpy.random.SeedSequence`, or ``None`` for OS entropy
        (only deterministic runs pass ``None`` *and* never call
        ``spawn_rng``).
    trace:
        When true, every scheduler step is appended to :attr:`fired` —
        the raw material of the ordering property tests and the golden
        fixtures.
    """

    def __init__(self, *, seed: "Optional[int | np.random.SeedSequence]" = None,
                 trace: bool = False) -> None:
        self._heap: List[Tuple[float, int, Process, str,
                               Optional[Resource]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        if isinstance(seed, np.random.SeedSequence):
            self._seeds = seed
        else:
            self._seeds = np.random.SeedSequence(seed)
        self._trace = trace
        self.fired: List[FiredEvent] = []
        self._processes: List[Process] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- processes and randomness ------------------------------------------

    def spawn_rng(self) -> np.random.Generator:
        """A fresh, independent RNG stream (one ``SeedSequence`` child
        per call; spawn order is call order, so stream assignment is
        deterministic)."""
        return np.random.default_rng(self._seeds.spawn(1)[0])

    def add_process(self, generator: Generator[Command, None, None], *,
                    name: Optional[str] = None) -> Process:
        """Register a generator; its first step fires at the current time."""
        process = Process(self, generator,
                          name or f"process-{len(self._processes)}")
        self._processes.append(process)
        self._schedule(self._now, process, "start")
        return process

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: float, process: Process, kind: str, *,
                  resource: "Optional[Resource]" = None) -> None:
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule {kind!r} for {process.name!r} at t={time}"
                f" before current time t={self._now}"
            )
        heapq.heappush(self._heap,
                       (time, next(self._counter), process, kind, resource))

    def run(self, until: Optional[float] = None) -> float:
        """Drive the event loop; returns the final simulation time.

        With ``until`` the loop stops *before* executing any event
        scheduled past that horizon and the clock advances to exactly
        ``until``; without it, the loop drains the heap — and raises
        ``RuntimeError`` if it drains while registered processes are
        still alive (a stalled simulation: some process waits on a
        resource or event that can never come, e.g. a slot that was
        never released).  Returning silently there would hand callers
        half-finished flows that look complete.
        """
        while self._heap:
            time, sequence, process, kind, resource = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self._now = time  # >= old now by the _schedule invariant
            if self._trace:
                self.fired.append(
                    FiredEvent(time, sequence, process.name, kind))
            self._advance(process, resource)
        if until is not None:
            if until > self._now:
                self._now = until
        else:
            stalled = [p.name for p in self._processes if p.alive]
            if stalled:
                shown = ", ".join(stalled[:5])
                if len(stalled) > 5:
                    shown += f", ... ({len(stalled) - 5} more)"
                raise RuntimeError(
                    f"event kernel stalled at t={self._now}: the heap"
                    f" drained with {len(stalled)} process(es) still"
                    f" waiting ({shown}) — typically a Resource slot that"
                    " was never released"
                )
        return self._now

    def _advance(self, process: Process,
                 resource: "Optional[Resource]" = None) -> None:
        if not process.alive:
            if resource is not None:
                # A granted slot must not die with its grantee: give it
                # back so the next waiter can take over.
                resource.release()
            return
        try:
            command = next(process.generator)
        except StopIteration:
            process.alive = False
            return
        self._dispatch(process, command)

    def _dispatch(self, process: Process, command: Command) -> None:
        if isinstance(command, Timeout):
            if not command.delay >= 0.0:  # also rejects NaN
                raise ValueError(
                    f"process {process.name!r} yielded a negative timeout"
                    f" ({command.delay})"
                )
            self._schedule(self._now + command.delay, process, "timeout")
        elif isinstance(command, WaitUntil):
            if command.time != command.time:  # NaN
                raise ValueError(
                    f"process {process.name!r} yielded WaitUntil(nan)")
            self._schedule(max(command.time, self._now), process,
                           "wait_until")
        elif isinstance(command, Request):
            command.resource._request(process)
        else:
            raise TypeError(
                f"process {process.name!r} yielded {command!r}; expected"
                " Timeout, WaitUntil or Request"
            )
