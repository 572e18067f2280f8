"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Every workload runs in ``--small`` mode, untraced and traced, and must
pass its own checks and print exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.trace import Layer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inner() -> None:
    time.sleep(0.02)


def _outer() -> None:
    _inner()
    time.sleep(0.01)


def test_self_time_excludes_nested_spans_and_uninstall_restores():
    original = _inner
    tracer = Tracer()
    tracer.install([Layer(f"{__name__}:_inner", "inner"),
                    Layer(f"{__name__}:_outer", "outer")])
    try:
        assert _inner is not original  # rebound in this module
        _outer()
    finally:
        tracer.uninstall()
    assert _inner is original
    inner = tracer.stats["main", "inner"]
    outer = tracer.stats["main", "outer"]
    assert inner.calls == outer.calls == 1
    assert inner.self_s >= 0.02 and 0.01 <= outer.self_s < 0.02
    assert outer.total_s == pytest.approx(outer.self_s + inner.total_s)
    assert tracer.violations == 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in
            layers.PER_LAYER]
    assert {w["name"] for w in SPEC["workloads"]} == set(layers.EXPECTED)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(layers.EXPECTED))
def test_small_run_passes_its_checks(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in wanted}
    if not trace:
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("decode_cell", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
