"""Helpers shared by the workloads: the run's outcome, percentiles,
repeated set-up timing and server processes on the loopback interface."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


@dataclass
class Options:
    """One invocation's arguments."""

    seed: int
    seconds: float
    trace: bool
    small: bool
    workdir: Path
    src: Path


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``errors`` are failed checks; ``lines`` the human report.  ``ops``
    is the per-layer denominator: cells, requests, or cold grid cells;
    ``setups`` the number of traced set-ups.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)
    ops: int = 0
    setups: int = 0

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def samples_for(q: float) -> int:
    """Samples needed for ten of them to lie beyond percentile ``q``."""
    return math.ceil(10.0 / (1.0 - q / 100.0) - 1e-9)


def reportable(count: int, wanted: float) -> float:
    """``wanted``, or the highest lower standard percentile with ten of
    ``count`` samples beyond it; for the figures printed but not gated,
    whose sample counts the workloads do not control."""
    for q in (wanted, 95.0, 90.0, 75.0):
        if q <= wanted and count >= samples_for(q):
            return q
    return 50.0


def timed_setups(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int, speed: Speed) -> Tuple[float, Any]:
    """Run ``setup`` ``repeats`` times; return the median wall time and
    the last result (the earlier ones are torn down)."""
    times: List[float] = []
    kept = None
    for _ in range(repeats):
        speed.sample(setup=True)
        started = time.perf_counter()
        kept_next = setup()
        times.append(time.perf_counter() - started)
        speed.sample(setup=True)
        if kept is not None:
            teardown(kept)
        kept = kept_next
    return float(np.median(times)), kept


class Speed:
    """How fast the machine runs during this run.

    The host's speed drifts by up to 2x over minutes (other tenants
    share it), and that drift swamps any code change.  A fixed kernel
    shaped like the workloads' inner loops (float64 MSE over a CIF luma
    plane, ``np.roll``, zlib inflate, a Python loop) is timed between
    operations.  ``factor`` is its median time over ``NOMINAL_S``, its
    time on the 2-vCPU Xeon KVM guest the benchmark was written on; the
    gated figures are divided by it ("ms at nominal speed").  The kernel
    is the benchmark's own code, so no change to the program moves it.
    Set-up gets its own factor from samples taken around each set-up,
    because set-up runs before the measured loop and the drift between
    the two is as large as the drift between runs.
    """

    NOMINAL_S = 0.005

    def __init__(self) -> None:
        rng = np.random.default_rng(2013)
        self._a = rng.integers(0, 256, (288, 352), dtype=np.uint8)
        self._b = rng.integers(0, 256, (288, 352), dtype=np.uint8)
        self._blob = zlib.compress(self._a.tobytes())
        self.samples: List[float] = []
        self.setup_samples: List[float] = []

    def _kernel(self) -> None:
        for _ in range(8):
            diff = self._a.astype(np.float64) - self._b.astype(np.float64)
            float(np.mean(diff * diff))
            np.roll(self._a, 3, axis=1)
            zlib.decompress(self._blob)
        total = 0
        for index in range(20_000):
            total += index

    def sample(self, setup: bool = False) -> None:
        # The first pass after the process sat idle (a client waiting
        # on its server) runs ~15% slow while caches refill; time the
        # second.
        self._kernel()
        started = time.perf_counter()
        self._kernel()
        (self.setup_samples if setup else self.samples).append(
            time.perf_counter() - started)

    def factor(self, setup: bool = False) -> float:
        samples = self.setup_samples if setup else self.samples
        return float(np.median(samples)) / self.NOMINAL_S


def gated(speed: Speed, *, rate: float, p50_s: float, tail_s: float,
          setup_s: float, lines: List[str]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics at nominal machine speed."""
    factor, setup_factor = speed.factor(), speed.factor(setup=True)
    lines.append(f"  machine speed factor   {factor:.4f} in the loop"
                 f" ({len(speed.samples)} samples), {setup_factor:.4f} in"
                 f" set-up ({len(speed.setup_samples)}); JSON times are"
                 " divided by it, rates multiplied")
    return {"ops_per_s": (rate * factor, "1/s"),
            "op_p50_ms": (p50_s * 1e3 / factor, "ms"),
            "op_tail_ms": (tail_s * 1e3 / factor, "ms"),
            "setup_s": (setup_s / setup_factor, "s")}


def digest(rows: Sequence[Any]) -> str:
    """Order-sensitive digest of JSON-able rows (floats by ``repr``)."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(json.dumps(row, sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


class ServerProcess:
    """``python -m repro.cli <args>`` listening on a free loopback port.

    The server prints ``serving ... on HOST:PORT`` once bound; the
    address is read from that line.  Its standard error goes to a log
    file in the work directory, so a crash leaves a trace.
    """

    def __init__(self, args: List[str], *, src: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args,
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env)
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if " on " not in line:
            self.stop()
            raise RuntimeError(
                f"server {args[0]!r} did not start (see {log})")
        self.host, _, port = line.strip().rpartition(" on ")[2] \
            .rpartition(":")
        self.port = int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def rows_table(rows: List[Tuple], title: str) -> List[str]:
    """The traced run's per-layer table as text lines."""
    lines = [title,
             f"  {'layer':<28} {'kind':<5} {'calls':>8} {'self ms':>11}"
             f" {'ms/call':>9} {'share':>7}"]
    for layer, kind, calls, spent_ms, per_call, share in rows:
        lines.append(f"  {layer:<28} {kind:<5} {calls:>8d} {spent_ms:>11.2f}"
                     f" {per_call:>9.4f} {share:>7.1%}")
    return lines


def as_cell_json(summary) -> Dict[str, Any]:
    """A :class:`CellSummary` as plain JSON (floats keep every digit)."""
    from dataclasses import asdict
    data = asdict(summary)
    data.pop("from_cache", None)
    return data


