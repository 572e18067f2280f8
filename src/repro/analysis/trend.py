"""Benchmark regression trend gate: current BENCH numbers vs a baseline.

``benchmarks/crypto_microbench.py`` emits ``BENCH_crypto.json`` every
run; this module compares such a report against a committed baseline
(``benchmarks/results/bench_baseline.json``) and fails when a throughput
metric regressed by more than the threshold, so crypto/cache performance
regressions are caught the moment they land rather than archaeologically.

Gating policy: only *throughput* metrics — leaves whose key ends in
``_per_s`` (this covers the ciphers' ``scalar_bytes_per_s`` and the
cache's ``cold_put_per_s`` / ``warm_get_per_s``) — participate in the
gate.  Latency leaves (``*_s``), ratios (``speedup``) and workload
descriptors are reported for context but never fail the run: they are
either derived from the gated numbers or too noisy at bench scale to gate
on.  Metrics present on only one side are reported as ``new``/``missing``
and do not fail the gate (a PR that *adds* a bench section must be able
to land before its baseline exists).

The baseline is refreshed deliberately, never automatically::

    PYTHONPATH=src python benchmarks/crypto_microbench.py
    cp BENCH_crypto.json benchmarks/results/bench_baseline.json

after an intentional perf change (and only from the machine class the
committed numbers were measured on — cross-host comparisons tell you
about the hosts, not the code).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .tables import render_table

__all__ = [
    "DEFAULT_THRESHOLD",
    "TrendRow",
    "compare_reports",
    "flatten_metrics",
    "load_report",
    "render_trend",
    "trend_gate",
]

DEFAULT_THRESHOLD = 0.30

# Statuses that fail the gate.
_FAILING = ("regression",)


@dataclass(frozen=True)
class TrendRow:
    """One metric's baseline-vs-current comparison."""

    metric: str
    baseline: Union[float, None]
    current: Union[float, None]
    delta_fraction: Union[float, None]
    status: str  # ok | regression | improved | new | missing | info

    @property
    def failed(self) -> bool:
        return self.status in _FAILING


def load_report(path) -> Dict:
    """Load a BENCH json report from ``path``."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            f"bench report not found at {path}; run"
            " `PYTHONPATH=src python benchmarks/crypto_microbench.py` first"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"bench report {path} is not valid JSON: {exc}") \
            from None
    if not isinstance(payload, dict):
        raise ValueError(
            f"bench report {path} must be a JSON object, got"
            f" {type(payload).__name__}"
        )
    return payload


def flatten_metrics(report: Dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a nested report into ``section.metric -> numeric value``.

    Non-numeric leaves (workload descriptors, backend names) are skipped;
    bools are not numbers for this purpose.
    """
    flat: Dict[str, float] = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = float(value)
    return flat


def _is_gated(metric: str) -> bool:
    """Throughput metrics (higher is better) participate in the gate."""
    return metric.endswith("_per_s")


def compare_reports(current: Dict, baseline: Dict,
                    threshold: float = DEFAULT_THRESHOLD) -> List[TrendRow]:
    """Per-metric delta table between two BENCH reports.

    ``threshold`` is the fractional throughput drop that fails the gate
    (0.30 means a metric below 70% of its baseline is a regression).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"threshold must be a fraction in (0, 1), got {threshold}"
        )
    flat_current = flatten_metrics(current)
    flat_baseline = flatten_metrics(baseline)
    rows: List[TrendRow] = []
    for metric in sorted(set(flat_current) | set(flat_baseline)):
        base = flat_baseline.get(metric)
        cur = flat_current.get(metric)
        if base is None:
            rows.append(TrendRow(metric, None, cur, None, "new"))
            continue
        if cur is None:
            rows.append(TrendRow(metric, base, None, None, "missing"))
            continue
        # Saturated-queue markers (p99 = inf) and other non-finite
        # leaves carry no meaningful delta; they ride as context rows.
        if base and math.isfinite(base) and math.isfinite(cur):
            delta = (cur - base) / base
        else:
            delta = None
        if not _is_gated(metric):
            rows.append(TrendRow(metric, base, cur, delta, "info"))
            continue
        if delta is not None and delta < -threshold:
            status = "regression"
        elif delta is not None and delta > threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(TrendRow(metric, base, cur, delta, status))
    return rows


def _fmt_value(value: Union[float, None]) -> str:
    if value is None:
        return "-"
    if not math.isfinite(value):
        return str(value)  # "inf": a saturated-queue marker, not a number
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_trend(rows: List[TrendRow], *, threshold: float,
                 title: str = "bench trend") -> str:
    """Aligned delta table; gated metrics first, context rows after."""
    ordered = sorted(rows, key=lambda r: (r.status == "info", r.metric))
    table_rows = []
    for row in ordered:
        delta = ("-" if row.delta_fraction is None
                 else f"{row.delta_fraction * 100:+.1f}%")
        table_rows.append([
            row.metric, _fmt_value(row.baseline), _fmt_value(row.current),
            delta, row.status,
        ])
    return render_table(
        ["metric", "baseline", "current", "delta", "status"],
        table_rows,
        title=f"{title} (gate: throughput -{threshold * 100:.0f}%)",
    )


def trend_gate(current: Dict, baseline: Dict,
               threshold: float = DEFAULT_THRESHOLD,
               ) -> Tuple[List[TrendRow], bool]:
    """Compare and decide: returns ``(rows, failed)``."""
    rows = compare_reports(current, baseline, threshold)
    return rows, any(row.failed for row in rows)
