"""Per-layer timing from outside the program.

A :class:`Tracer` rebinds public functions and methods of ``repro`` to
timing wrappers.  A function is rebound at every module that holds it,
because ``from x import f`` copies the binding: ``encode_sequence`` lives
in both ``repro.video`` and ``repro.video.codec``, ``mse`` in both
``repro.video.quality`` and ``repro.analysis.regression``.  Methods are
replaced on their class.

Two kinds of layer:

- a *span* takes part in the self-time partition.  Open spans form one
  stack shared by every thread, so a span's self time excludes the spans
  opened inside it.  The benchmark's loops are closed (one operation in
  flight), so spans opened on a server thread nest inside the client's
  span in time; a span that closes out of order is recorded as a
  violation and fails the run.
- a *probe* only counts calls and their inclusive time (``wire.rpc``
  wraps every RPC, which already sits inside a queue or cache span).

Statistics are kept per phase (``setup`` or ``main``), so set-up work is
reported apart from the measured loop.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Layer", "LayerStat", "Tracer"]

# Modules searched for bindings of a wrapped function.
_SCANNED_PREFIXES = ("repro", "perfbench")


@dataclass
class LayerStat:
    """What one layer did in one phase."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount


@dataclass(frozen=True)
class Layer:
    """One wrapped function or method.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    When one function serves several layers (``conceal_decode`` in
    strict and best-effort mode), ``variant(args, kwargs)`` picks one of
    ``variants`` and the layer is named ``<name>.<variant>``.
    ``observe(stat, result, args, kwargs)`` may record counters from the
    call's result.
    """

    target: str
    name: str
    kind: str = "span"
    observe: Optional[Callable[..., None]] = None
    variants: Tuple[str, ...] = ()
    variant: Optional[Callable[[tuple, dict], str]] = None

    def names(self) -> Tuple[str, ...]:
        if self.variant is None:
            return (self.name,)
        return tuple(f"{self.name}.{v}" for v in self.variants)


class Tracer:
    """Installs layer wrappers and accumulates their statistics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stack: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.phase = "main"
        self.stats: Dict[Tuple[str, str], LayerStat] = {}
        self.kinds: Dict[str, str] = {}
        self.violations = 0

    # -- accounting --------------------------------------------------------

    def stat(self, layer: str, phase: Optional[str] = None) -> LayerStat:
        key = (phase or self.phase, layer)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = LayerStat()
        return stat

    def calls(self, layer: str, phase: str = "main") -> int:
        stat = self.stats.get((phase, layer))
        return 0 if stat is None else stat.calls

    def _enter(self, layer: str) -> list:
        with self._lock:
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        with self._lock:
            now = time.perf_counter()
            if not self._stack or self._stack[-1] is not frame:
                # Interleaved spans: self times would be wrong.
                self.violations += 1
                if frame in self._stack:
                    self._stack.remove(frame)
                return
            self._stack.pop()
            elapsed = now - frame[1]
            stat = self.stat(frame[0])
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed

    def _probe(self, layer: str, elapsed: float) -> None:
        with self._lock:
            stat = self.stat(layer)
            stat.calls += 1
            stat.total_s += elapsed

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        if layer.kind == "probe":
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._probe(layer.name, time.perf_counter() - started)
            return probe

        @functools.wraps(fn)
        def span(*args, **kwargs):
            name = layer.name if layer.variant is None \
                else f"{layer.name}.{layer.variant(args, kwargs)}"
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if layer.observe is not None:
                with tracer._lock:
                    layer.observe(tracer.stat(name), result, args, kwargs)
            return result
        return span

    def install(self, layers: List[Layer]) -> None:
        for layer in layers:
            if layer.kind not in ("span", "probe"):
                raise ValueError(f"unknown layer kind {layer.kind!r}")
            for name in layer.names():
                self.kinds[name] = layer.kind
            module_name, _, attr = layer.target.partition(":")
            owner: Any = import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(layer, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if not module_name.startswith(_SCANNED_PREFIXES):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, binding, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def self_seconds(self, phase: str) -> float:
        """Sum of span self times in one phase."""
        return sum(stat.self_s for (p, layer), stat in self.stats.items()
                   if p == phase and self.kinds.get(layer) == "span")

    def rows(self, phase: str, wall_s: float) -> List[Tuple]:
        """``(layer, kind, calls, self ms, ms per call, share of wall)``
        for every layer with calls, busiest first."""
        rows = []
        for (p, layer), stat in self.stats.items():
            if p != phase or not stat.calls:
                continue
            spent = stat.self_s if self.kinds[layer] == "span" \
                else stat.total_s
            rows.append((layer, self.kinds[layer], stat.calls, spent * 1e3,
                         spent * 1e3 / stat.calls,
                         spent / wall_s if wall_s else 0.0))
        rows.sort(key=lambda row: -row[3])
        return rows
