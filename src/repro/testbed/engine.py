"""Parallel, cached experiment engine: the sweep backend of the advisor.

The paper's argument rests on sweeping many encryption policies across
clips and devices to find the cheapest one meeting a confidentiality
target (the Fig. 1 advisor workflow).  :func:`~repro.testbed.experiment.
run_repeated` executes one cell serially; this module fans a whole grid
out over a ``multiprocessing`` pool and memoizes finished cells through
the content-addressed :class:`~repro.testbed.cache.ResultCache`.

Reproducibility contract:

- every cell derives its own ``np.random.SeedSequence`` from the master
  seed *and the cell's content digest* — not from its position in the
  grid — so a cell's results are identical whether it runs alone, inside
  a larger grid, serially, or on any number of workers;
- each repeat receives one spawned child sequence, so repeat streams are
  statistically independent and never overlap across cells;
- summaries are byte-identical between the serial and parallel paths
  (same per-run floats, same :func:`~repro.analysis.stats.summarize`).

Worker processes are forked, so the (large) clips and bitstreams are
inherited by reference from module globals instead of being pickled per
task; platforms without ``fork`` silently fall back to serial execution.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.stats import Summary, summarize
from ..video.gop import Bitstream
from ..video.yuv import Sequence420
from .cache import ResultCache, RunMetrics, code_fingerprint, stable_key
from .experiment import ExperimentConfig, run_experiment
from .queue import QueueTask, WorkQueue, open_queue

__all__ = ["CellSummary", "GridCell", "ExperimentEngine",
           "cell_seed_payload", "cell_seed_sequences",
           "config_from_description", "describe_config",
           "scenario_fingerprint"]

# v2: cell descriptions gained the "flows" and "engine" fields (the
# multi-flow event-kernel transport).  They are emitted only when they
# differ from the single-flow defaults, so every pre-existing
# cell keeps its v1 seed stream (and therefore its published bench
# numbers) — see EXPERIMENTS.md "Cache-key versioning".
# v3: the optional "mobility" field (a profile spec string such as
# "vehicular:hysteresis") — emitted only when set, so static cells
# keep their v2 keys and seed streams; the bump marks that workers
# older than this schema cannot rebuild mobility cells.
# v4: the legacy single-flow loop is gone; the default engine (no
# "engine" field) now runs the event kernel, which the legacy loop
# matched bit for bit, so descriptions and seed streams are unchanged.
# The bump marks that older workers run default cells on another code
# path and reject the multi-flow and vector decode cells v4 accepts.
ENGINE_SCHEMA_VERSION = 4


# -- cache-key serialization ---------------------------------------------------


def describe_config(config: ExperimentConfig) -> Dict[str, Any]:
    """Canonical JSON-able description of an experiment cell's config.

    The format now lives on the dataclass itself
    (:meth:`ExperimentConfig.to_description`, with
    :meth:`ExperimentConfig.from_description` as the exact inverse the
    queue workers use); this wrapper remains the engine-side spelling.
    """
    return config.to_description()


def config_from_description(description: Dict[str, Any]) -> ExperimentConfig:
    """Rebuild a cell config from its canonical description."""
    return ExperimentConfig.from_description(description)


def cell_seed_payload(scenario_fingerprint: str,
                      config_description: Dict[str, Any],
                      repeats: int, master_seed: int) -> Dict[str, Any]:
    """The canonical payload both cell keys and seed streams hash.

    Deliberately excludes the code fingerprint: results depend on code
    through the *cache* key; the random streams should not.
    """
    return {
        "scenario": scenario_fingerprint,
        "config": config_description,
        "repeats": repeats,
        "master_seed": master_seed,
    }


def cell_seed_sequences(seed_payload: Dict[str, Any], repeats: int,
                        master_seed: int) -> List[np.random.SeedSequence]:
    """Per-repeat seed sequences for one cell, derived from its content.

    Shared by the in-process engine and the queue workers so a cell's
    random streams are identical no matter which host runs it.
    """
    digest = stable_key(seed_payload)
    words = [int(digest[i:i + 8], 16) for i in range(0, 32, 8)]
    root = np.random.SeedSequence([master_seed, *words])
    return root.spawn(repeats)


def scenario_fingerprint(original: Sequence420, bitstream: Bitstream) -> str:
    """Content digest of a scenario's inputs (raw clip + encoded stream)."""
    digest = hashlib.sha256()
    digest.update(f"{original.width}x{original.height}@{original.fps}".encode())
    for frame in original.frames:
        digest.update(frame.y.tobytes())
        digest.update(frame.u.tobytes())
        digest.update(frame.v.tobytes())
    digest.update(
        f"|{bitstream.width}x{bitstream.height}@{bitstream.fps}"
        f"|gop={bitstream.gop_layout.gop_size}"
        f"|b={bitstream.gop_layout.b_frames}"
        f"|q={bitstream.quantizer}".encode()
    )
    for frame in bitstream.frames:
        digest.update(frame.frame_type.value.encode())
        digest.update(frame.payload)
    return digest.hexdigest()


# -- grid cells ----------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One cell of an experiment grid: a registered scenario under a
    config, optionally overriding the engine-wide repeat count."""

    scenario: str
    config: ExperimentConfig
    repeats: Optional[int] = None


@dataclass(frozen=True)
class CellSummary:
    """Aggregates of one cell (the paper's mean +/- 95% CI protocol).

    Field names mirror :class:`~repro.testbed.experiment.RepeatedResult`
    so benches can consume either; ``from_cache`` is excluded from
    equality because cached and freshly computed summaries are the same
    result.
    """

    delay_ms: Summary
    waiting_ms: Summary
    power_w: Summary
    receiver_psnr_db: Optional[Summary]
    receiver_mos: Optional[Summary]
    eavesdropper_psnr_db: Optional[Summary]
    eavesdropper_mos: Optional[Summary]
    n_runs: int
    from_cache: bool = field(default=False, compare=False)


def _summarize_runs(runs: Sequence[RunMetrics], decode: bool,
                    from_cache: bool) -> CellSummary:
    def agg(name: str) -> Optional[Summary]:
        values = [getattr(run, name) for run in runs]
        if not decode or any(value is None for value in values):
            return None
        return summarize(values)

    return CellSummary(
        delay_ms=summarize([run.mean_delay_ms for run in runs]),
        waiting_ms=summarize([run.mean_waiting_ms for run in runs]),
        power_w=summarize([run.average_power_w for run in runs]),
        receiver_psnr_db=agg("receiver_psnr_db"),
        receiver_mos=agg("receiver_mos"),
        eavesdropper_psnr_db=agg("eavesdropper_psnr_db"),
        eavesdropper_mos=agg("eavesdropper_mos"),
        n_runs=len(runs),
        from_cache=from_cache,
    )


# -- worker side ---------------------------------------------------------------

# Scenario payloads are installed here in the *parent* before the pool is
# created; forked workers inherit them by reference (no per-task pickling
# of megabytes of video).
_WORKER_SCENARIOS: Dict[str, Tuple[Sequence420, Bitstream]] = {}


def _run_single(task) -> RunMetrics:
    scenario_key, config, seed_seq = task
    original, bitstream = _WORKER_SCENARIOS[scenario_key]
    result = run_experiment(original, bitstream, config, seed=seed_seq)
    return RunMetrics.from_experiment_result(result)


# -- the engine ----------------------------------------------------------------


class ExperimentEngine:
    """Runs experiment grids in parallel with content-addressed caching.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`, or ``None`` to always recompute.
    workers:
        Process count; ``None`` reads ``REPRO_ENGINE_WORKERS`` and falls
        back to the CPU count.  ``1`` runs serially in-process.
    master_seed:
        Root of every cell's :class:`np.random.SeedSequence`.
    repeats:
        Default repetition count per cell (the paper uses 20).
    dispatch:
        ``"local"`` fans pending cells over the in-process fork pool;
        ``"queue"`` submits them to a :class:`~repro.testbed.queue.
        WorkQueue` and waits for external ``repro worker`` processes to
        land results in the shared cache.  Both paths assemble
        byte-identical summaries.
    queue:
        The work queue (instance or directory) for ``dispatch="queue"``.
        When ``cache`` is ``None`` the queue's ``cache_spec`` supplies
        it, so engine and workers automatically agree on one store.
    queue_poll_s / queue_timeout_s:
        Poll interval and overall deadline of the queue wait loop.
    """

    def __init__(self, *, cache: Optional[ResultCache] = None,
                 workers: Optional[int] = None, master_seed: int = 0,
                 repeats: int = 3, dispatch: str = "local",
                 queue: Optional[Union[str, Path, WorkQueue]] = None,
                 queue_poll_s: float = 0.1,
                 queue_timeout_s: float = 600.0) -> None:
        if dispatch not in ("local", "queue"):
            raise ValueError(
                f"dispatch must be 'local' or 'queue', got {dispatch!r}")
        if queue is not None and not isinstance(queue, WorkQueue):
            queue = open_queue(queue)
        if dispatch == "queue":
            if queue is None:
                raise ValueError("dispatch='queue' requires a work queue")
            if cache is None:
                cache = ResultCache.from_spec(queue.cache_spec)
        if workers is None:
            raw = os.environ.get("REPRO_ENGINE_WORKERS", "0")
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_ENGINE_WORKERS must be an integer process"
                    f" count, got {raw!r}"
                ) from None
            workers = workers or (os.cpu_count() or 1)
        if repeats < 1:
            raise ValueError(
                f"engine repeats must be >= 1, got {repeats}")
        self.cache = cache
        self.workers = max(1, int(workers))
        self.master_seed = master_seed
        self.repeats = repeats
        self.dispatch = dispatch
        self.queue = queue
        self.queue_poll_s = queue_poll_s
        self.queue_timeout_s = queue_timeout_s
        self.simulations_run = 0
        self._scenarios: Dict[str, Dict[str, Any]] = {}
        self._memo: Dict[str, CellSummary] = {}
        self._pool = None

    # -- scenarios ---------------------------------------------------------

    def add_scenario(self, key: str, original: Sequence420,
                     bitstream: Bitstream, *,
                     meta: Optional[Dict[str, Any]] = None) -> None:
        """Register (or re-register, idempotently) a scenario's inputs."""
        fingerprint = scenario_fingerprint(original, bitstream)
        existing = self._scenarios.get(key)
        if existing is not None:
            if existing["fingerprint"] != fingerprint:
                raise ValueError(
                    f"scenario {key!r} already registered with different"
                    " content; use a distinct key per clip/bitstream"
                )
            return
        self._scenarios[key] = {"fingerprint": fingerprint,
                                "meta": dict(meta or {})}
        _WORKER_SCENARIOS[key] = (original, bitstream)
        # Live workers predate this scenario; rebuild the pool lazily.
        self._close_pool()

    # -- keys and seeding --------------------------------------------------

    def _seed_payload(self, cell: GridCell, repeats: int) -> Dict[str, Any]:
        return cell_seed_payload(
            self._scenarios[cell.scenario]["fingerprint"],
            describe_config(cell.config),
            repeats,
            self.master_seed,
        )

    def _resolve_repeats(self, cell: GridCell) -> int:
        """The cell's effective repeat count, validated.

        ``None`` means "use the engine default"; an explicit value is
        taken literally, so ``GridCell(repeats=0)`` is an error rather
        than silently coerced to the default.
        """
        repeats = self.repeats if cell.repeats is None else cell.repeats
        if not isinstance(repeats, int) or isinstance(repeats, bool) \
                or repeats < 1:
            raise ValueError(
                f"GridCell repeats must be a positive integer or None,"
                f" got {cell.repeats!r}"
            )
        return repeats

    def cell_key(self, cell: GridCell) -> str:
        """Content address of one cell's results."""
        repeats = self._resolve_repeats(cell)
        payload = self._seed_payload(cell, repeats)
        payload["schema"] = ENGINE_SCHEMA_VERSION
        payload["code"] = code_fingerprint()
        return stable_key(payload)

    def _cell_seeds(self, cell: GridCell,
                    repeats: int) -> List[np.random.SeedSequence]:
        return cell_seed_sequences(self._seed_payload(cell, repeats),
                                   repeats, self.master_seed)

    # -- execution ---------------------------------------------------------

    def _execute(self, tasks: List[tuple]) -> List[RunMetrics]:
        self.simulations_run += len(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            return [_run_single(task) for task in tasks]
        pool = self._ensure_pool()
        if pool is None:  # no fork on this platform
            return [_run_single(task) for task in tasks]
        return pool.map(_run_single, tasks)

    def _ensure_pool(self):
        if self._pool is None:
            try:
                context = get_context("fork")
            except ValueError:
                return None
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        """Release worker processes (safe to call repeatedly)."""
        self._close_pool()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def run_cell(self, scenario: str, config: ExperimentConfig, *,
                 repeats: Optional[int] = None) -> CellSummary:
        """Run (or replay from cache) a single grid cell."""
        return self.run_grid([GridCell(scenario, config, repeats)])[0]

    def run_grid(self, cells: Sequence[GridCell]) -> List[CellSummary]:
        """Run a whole grid; cached cells are replayed, the rest fan out
        over the worker pool.  Output order matches input order.

        Duplicate cells (same content key) are simulated once and the
        summary fanned back to every position that requested it.
        """
        summaries: List[Optional[CellSummary]] = [None] * len(cells)
        pending_indices: Dict[str, List[int]] = {}
        pending_cells: Dict[str, GridCell] = {}
        for index, cell in enumerate(cells):
            if cell.scenario not in self._scenarios:
                raise KeyError(
                    f"unknown scenario {cell.scenario!r}; call"
                    " add_scenario() first"
                )
            key = self.cell_key(cell)
            if key in pending_indices:
                pending_indices[key].append(index)
                continue
            memoized = self._memo.get(key)
            if memoized is not None:
                summaries[index] = memoized
                continue
            if self.cache is not None:
                runs = self.cache.get_runs(key)
                if runs is not None:
                    summary = _summarize_runs(
                        runs, cell.config.decode_video, from_cache=True
                    )
                    self._memo[key] = summary
                    summaries[index] = summary
                    continue
            pending_indices[key] = [index]
            pending_cells[key] = cell

        if pending_cells and self.dispatch == "queue":
            runs_by_key = self._run_via_queue(pending_cells)
            for key, cell in pending_cells.items():
                summary = _summarize_runs(
                    runs_by_key[key], cell.config.decode_video,
                    from_cache=True,
                )
                self._memo[key] = summary
                for index in pending_indices[key]:
                    summaries[index] = summary
            return summaries  # type: ignore[return-value]

        tasks: List[tuple] = []
        slices: List[Tuple[str, GridCell, int, int]] = []
        for key, cell in pending_cells.items():
            repeats = self._resolve_repeats(cell)
            seeds = self._cell_seeds(cell, repeats)
            start = len(tasks)
            tasks.extend(
                (cell.scenario, cell.config, seed) for seed in seeds
            )
            slices.append((key, cell, start, start + repeats))

        results = self._execute(tasks)

        for key, cell, start, stop in slices:
            runs = results[start:stop]
            summary = _summarize_runs(
                runs, cell.config.decode_video, from_cache=False
            )
            if self.cache is not None:
                self.cache.put_runs(key, runs, meta={
                    "scenario": cell.scenario,
                    "scenario_meta": self._scenarios[cell.scenario]["meta"],
                    "config": describe_config(cell.config),
                    "repeats": self._resolve_repeats(cell),
                    "master_seed": self.master_seed,
                })
            self._memo[key] = summary
            for index in pending_indices[key]:
                summaries[index] = summary
        return summaries  # type: ignore[return-value]

    # -- queue dispatch ----------------------------------------------------

    def _queue_task(self, cell: GridCell) -> QueueTask:
        return QueueTask(
            key=self.cell_key(cell),
            scenario=cell.scenario,
            scenario_fingerprint=self._scenarios[cell.scenario]["fingerprint"],
            scenario_meta=self._scenarios[cell.scenario]["meta"],
            config=describe_config(cell.config),
            repeats=self._resolve_repeats(cell),
            master_seed=self.master_seed,
            schema=ENGINE_SCHEMA_VERSION,
            code=code_fingerprint(),
        )

    def submit_grid(self, cells: Sequence[GridCell], *,
                    queue: Optional[WorkQueue] = None) -> List[str]:
        """Submit a grid's uncached cells to a work queue without waiting.

        Scenario blobs are stored first so a worker can never claim a
        cell whose inputs are missing.  Returns the keys newly enqueued
        (cached, duplicate, and already-queued cells are skipped).
        """
        queue = queue or self.queue
        if queue is None:
            raise ValueError("submit_grid needs a queue (argument or"
                             " engine-level)")
        submitted: List[str] = []
        seen: set = set()
        for cell in cells:
            if cell.scenario not in self._scenarios:
                raise KeyError(
                    f"unknown scenario {cell.scenario!r}; call"
                    " add_scenario() first"
                )
            key = self.cell_key(cell)
            if key in seen:
                continue
            seen.add(key)
            if self.cache is not None and self.cache.get_runs(key) is not None:
                continue
            fingerprint = self._scenarios[cell.scenario]["fingerprint"]
            if not queue.has_scenario(fingerprint):
                original, bitstream = _WORKER_SCENARIOS[cell.scenario]
                queue.store_scenario(fingerprint, original, bitstream)
            if queue.submit(self._queue_task(cell)):
                submitted.append(key)
        return submitted

    def _run_via_queue(
            self, pending_cells: Dict[str, GridCell]
    ) -> Dict[str, List[RunMetrics]]:
        """Submit pending cells, then wait for workers to land their runs
        in the shared cache (requeueing expired leases while waiting)."""
        assert self.queue is not None and self.cache is not None
        self.submit_grid(list(pending_cells.values()), queue=self.queue)
        deadline = time.monotonic() + self.queue_timeout_s
        waiting = set(pending_cells)
        runs_by_key: Dict[str, List[RunMetrics]] = {}
        while waiting:
            self.queue.requeue_expired()
            for key in sorted(waiting):
                runs = self.cache.get_runs(key)
                if runs is not None:
                    runs_by_key[key] = runs
                    waiting.discard(key)
            if not waiting:
                break
            failed = waiting.intersection(self.queue.failed_keys())
            if failed:
                reasons = "; ".join(
                    f"{key[:12]}…: {self.queue.failure_reason(key)}"
                    for key in sorted(failed)
                )
                raise RuntimeError(
                    f"{len(failed)} queued cell(s) failed — {reasons}")
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"queue dispatch timed out after"
                    f" {self.queue_timeout_s:.0f}s with {len(waiting)}"
                    f" cell(s) incomplete (queue counts:"
                    f" {self.queue.counts()})"
                )
            time.sleep(self.queue_poll_s)
        return runs_by_key

    def stats(self) -> Dict[str, Any]:
        """Engine counters plus the cache's counters/aggregates (or
        ``cache=None`` when caching is disabled)."""
        return {
            "simulations_run": self.simulations_run,
            "memo_entries": len(self._memo),
            "workers": self.workers,
            "dispatch": self.dispatch,
            "cache": None if self.cache is None else self.cache.stats(),
        }
