"""Project-specific static checks: ``repro lint``.

Generic linters cannot know this codebase's reproducibility contract,
so this module enforces the rules that protect it:

- ``np.random.seed(...)`` is banned everywhere: global seeding makes a
  run's results depend on call order.  Use ``np.random.default_rng`` /
  ``SeedSequence`` plumbed through explicitly.
- Calls through the *module-level* ``random.*`` API are banned for the
  same reason (the hidden global Mersenne Twister); constructing a
  seeded ``random.Random(...)`` instance is fine.
- ``time.time()`` is banned inside the event kernel (``events.py``):
  simulated time must come from the kernel's clock, never the wall.
- per-packet Python ``for`` loops are banned inside the vectorized
  scheduler (``vector_flows.py``): its whole reason to exist is that
  per-flow state stays in arrays; looping over packets there silently
  reintroduces the coroutine kernel's costs.  Per-packet work belongs
  in ``flow_sampling.py``.
- per-policy Python ``for`` loops are banned inside the batched model
  solver (``vector_models.py``) for the same reason: candidate lanes
  stay on numpy's leading axis; looping over them reintroduces the
  scalar stack's per-policy cost.  Object assembly (policies in, lane
  results out) belongs in ``delay.py`` / ``advisor.py``.
- blocking calls (``socket.*``, ``time.sleep(...)``) are banned inside
  the asyncio cache/queue server (``server.py``): one stalled handler
  would freeze every connected worker's RPCs.  Connection I/O must go
  through asyncio streams; delays through the event loop.
- per-timestep/per-segment/per-packet Python ``for`` loops are banned
  inside the mobile vector path (``mobility/vector.py``): the arrival
  latch is one ``searchsorted`` and every parameter a fancy index, so
  any loop walking trace time there silently reintroduces the
  coroutine kernel's costs.  Per-packet/per-segment Python work
  belongs in ``mobility/sampling.py``.
- wall-clock and global-seed calls (``time.time()``,
  ``np.random.seed(...)``) are banned anywhere under ``mobility/``:
  traces are simulated time seeded through ``SeedSequence``; a wall
  clock or global seed would break the byte-identical warm-cache
  replay the mobility bench asserts.
- bare ``print(...)`` is banned in the package source (``src/repro/``)
  outside the two console front ends, ``cli.py`` and ``selftest.py``:
  library code returns values or raises, and the front ends decide
  what reaches stdout.
- ``import sqlite3`` and ``sqlite3.`` references are banned in the
  package source outside ``testbed/backends.py``: the cache's storage
  format belongs to that one module, and everything else goes through
  its :class:`~repro.testbed.backends.CacheBackend` protocol.

A line may opt out with a trailing ``# lint: allow`` comment (used by
code that mentions the patterns in strings, e.g. this linter's tests).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

__all__ = ["LintError", "lint_file", "lint_paths", "DEFAULT_ROOTS"]

DEFAULT_ROOTS = ("src", "tests", "benchmarks")

ALLOW_MARKER = "# lint: allow"

# Files that legitimately contain the banned patterns as data.
_SELF_NAMES = {"lint.py", "lint_checks.py"}

_GLOBAL_NP_SEED = re.compile(r"np\.random\.seed\s*\(")
# module-level random.* calls; random.Random(...) instances are fine and
# np.random.* / rng.random(...) never match thanks to the lookbehind.
_GLOBAL_RANDOM = re.compile(r"(?<![\w.])random\.(?!Random\b)\w+")
_WALL_CLOCK = re.compile(r"time\.time\s*\(\s*\)")
# A ``for`` loop whose target or iterable is packet-named (packet,
# packets, pkt, pkts...) — the loop shape the vector module must never
# contain.
_PACKET_LOOP = re.compile(
    r"\bfor\b(?=[^#]*\bin\b)[^#]*(\bpacket\w*|\bpkts?\b)")
# A ``for`` loop whose target or iterable is policy/candidate/lane-named
# — the loop shape the batched model solver must never contain: lanes
# live on numpy's leading axis, and a Python loop over them silently
# reintroduces the scalar stack's per-policy cost.
_POLICY_LOOP = re.compile(
    r"\bfor\b(?=[^#]*\bin\b)[^#]*(\bpolic\w*|\bcandidate\w*|\blanes?\b)")
# Blocking primitives inside the asyncio server module: raw socket use
# or time.sleep() would stall the single event loop that serializes
# every client's RPCs.
_BLOCKING_NET = re.compile(
    r"(?<![\w.])socket\.\w+|(?<![\w.])time\.sleep\s*\(")
# A ``for`` loop whose target or iterable walks trace time — steps,
# timesteps, segments, waypoints, samples, or packets — the loop shapes
# the mobile vector path must never contain (flow-indexed assembly
# loops are fine; per-segment/per-packet work lives in sampling.py).
_TIMESTEP_LOOP = re.compile(
    r"\bfor\b(?=[^#]*\bin\b)[^#]*(\bpacket\w*|\bpkts?\b|\bsteps?\b"
    r"|\btimestep\w*|\bsegment\w*|\bsegs?\b|\bwaypoint\w*|\bsamples?\b)")
# Wall-clock or global-seed calls anywhere in the mobility layer: both
# would break deterministic trace replay.
_MOBILITY_CLOCK_SEED = re.compile(
    r"time\.time\s*\(\s*\)|np\.random\.seed\s*\(")
# A call of the builtin print; method calls (``console.print(...)``) and
# longer names (``fingerprint(...)``) never match.
_BARE_PRINT = re.compile(r"(?<![\w.])print\s*\(")
# The package source files that may write to stdout.
_CONSOLE_FRONT_ENDS = {"cli.py", "selftest.py"}
# Any use of the sqlite3 module: an import of it or an attribute on it.
_SQLITE = re.compile(
    r"^\s*(?:import|from)\s+sqlite3\b|(?<![\w.])sqlite3\.")
# The one package module that owns the cache's storage format.
_STORAGE_MODULE = ("testbed", "backends.py")


@dataclass(frozen=True)
class LintError:
    path: str
    line: int
    rule: str
    message: str
    source: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_comment(line: str) -> str:
    """Best-effort removal of a trailing ``#`` comment (string-safe
    enough for these patterns, which never span strings with '#')."""
    in_string: Optional[str] = None
    for position, char in enumerate(line):
        if in_string:
            if char == in_string and line[position - 1] != "\\":
                in_string = None
        elif char in ("'", '"'):
            in_string = char
        elif char == "#":
            return line[:position]
    return line


def _in_package_source(path: Path) -> bool:
    """Whether ``path`` lies under a ``src/repro/`` package tree."""
    parts = path.parts
    return any(parts[i:i + 2] == ("src", "repro")
               for i in range(len(parts) - 1))


def lint_file(path: Path) -> List[LintError]:
    """All rule violations in one Python file."""
    errors: List[LintError] = []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [LintError(str(path), 0, "unreadable", str(exc), "")]
    is_events = path.name == "events.py"
    is_vector = path.name == "vector_flows.py"
    is_models = path.name == "vector_models.py"
    is_server = path.name == "server.py"
    in_mobility = "mobility" in path.parts
    is_mobile_vector = in_mobility and path.name == "vector.py"
    in_package = _in_package_source(path)
    bans_print = in_package and path.name not in _CONSOLE_FRONT_ENDS
    bans_sqlite = in_package and path.parts[-2:] != _STORAGE_MODULE
    for number, raw in enumerate(text.splitlines(), start=1):
        if ALLOW_MARKER in raw:
            continue
        line = _strip_comment(raw)
        if _GLOBAL_NP_SEED.search(line):
            errors.append(LintError(
                str(path), number, "global-np-seed",
                "np.random.seed() seeds the global state; pass a"
                " default_rng/SeedSequence instead", raw.strip()))
        match = _GLOBAL_RANDOM.search(line)
        if match:
            errors.append(LintError(
                str(path), number, "global-random",
                f"module-level {match.group(0)}() uses the hidden global"
                " RNG; construct a seeded random.Random instead",
                raw.strip()))
        if is_events and _WALL_CLOCK.search(line):
            errors.append(LintError(
                str(path), number, "wall-clock-in-kernel",
                "time.time() in the event kernel: simulated time must"
                " come from the kernel clock", raw.strip()))
        if is_vector and _PACKET_LOOP.search(line):
            errors.append(LintError(
                str(path), number, "packet-loop-in-vector",
                "per-packet Python loop in the vectorized scheduler:"
                " keep per-flow state in arrays (per-packet work lives"
                " in flow_sampling.py)", raw.strip()))
        if is_models and _POLICY_LOOP.search(line):
            errors.append(LintError(
                str(path), number, "policy-loop-in-vector-models",
                "per-policy Python loop in the batched model solver:"
                " keep policy lanes on numpy's leading axis (object"
                " assembly belongs in delay.py/advisor.py)", raw.strip()))
        if is_server and _BLOCKING_NET.search(line):
            errors.append(LintError(
                str(path), number, "blocking-call-in-server",
                "blocking socket/sleep call in the asyncio server: use"
                " asyncio streams and loop-scheduled delays so one"
                " handler cannot stall every client", raw.strip()))
        if is_mobile_vector and _TIMESTEP_LOOP.search(line):
            errors.append(LintError(
                str(path), number, "timestep-loop-in-mobility-vector",
                "per-timestep/per-segment Python loop in the mobile"
                " vector path: latch segments with searchsorted and"
                " gather parameters with fancy indexing (per-packet/"
                "per-segment work lives in mobility/sampling.py)",
                raw.strip()))
        if in_mobility and _MOBILITY_CLOCK_SEED.search(line):
            errors.append(LintError(
                str(path), number, "wall-clock-in-mobility",
                "time.time()/np.random.seed() in the mobility layer:"
                " traces run on simulated time and SeedSequence streams,"
                " or warm-cache replay stops being byte-identical",
                raw.strip()))
        if bans_print and _BARE_PRINT.search(line):
            errors.append(LintError(
                str(path), number, "print-in-library",
                "bare print() in package source: return the value or"
                " raise, and let cli.py/selftest.py write to stdout",
                raw.strip()))
        if bans_sqlite and _SQLITE.search(line):
            errors.append(LintError(
                str(path), number, "sqlite-outside-storage",
                "sqlite3 in package source outside testbed/backends.py:"
                " go through the CacheBackend protocol so one module owns"
                " the storage format", raw.strip()))
    return errors


def _python_files(roots: Sequence[Path]) -> Iterable[Path]:
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            yield root
            continue
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))


def lint_paths(roots: Sequence = DEFAULT_ROOTS, *,
               base: Optional[Path] = None) -> List[LintError]:
    """Lint every ``.py`` under the given roots (relative to ``base``)."""
    base = Path(base) if base is not None else Path.cwd()
    resolved = [base / root for root in roots]
    errors: List[LintError] = []
    for path in _python_files(resolved):
        if path.name in _SELF_NAMES:
            continue
        errors.extend(lint_file(path))
    return errors
