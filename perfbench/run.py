#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decode_cell --seed 1 --seconds 15 --trace 0

Workloads: ``decode_cell`` (paper-scale experiment cells with decode),
``advise`` (a closed-loop client of ``repro serve``) and ``grid_tcp``
(a grid over ``repro cached serve``: submit, drain, assemble, replay).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same operations untraced and then traced, and
reports the per-layer metrics and the tracing overhead.  ``--small``
runs every check on tiny inputs (the benchmark's own tests use it).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are a human
report, including the metrics under their workload-specific names.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("decode_cell", "advise", "grid_tcp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, same checks")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from importlib import import_module

    from perfbench.common import Options

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORKDIR))
    try:
        options = Options(seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), small=args.small,
                          workdir=workdir, src=SRC)
        workload = import_module(f"perfbench.{args.workload}")
        outcome, metrics = workload.run(options)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in outcome.lines:
        print(line)
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
