"""Command-line front end: the EvalVid-style workflow as one tool.

The paper's toolchain was a pile of binaries (x264, MP4Box, EvalVid's
mp4trace/etmp4/psnr, the Android app, tcpdump).  This CLI packs the
reproduction's equivalents behind subcommands:

    python -m repro.cli clip --motion fast --frames 150 --out clip.yuv
    python -m repro.cli inspect --motion slow --gop 30
    python -m repro.cli advise --motion fast --target-psnr 15
    python -m repro.cli experiment --motion slow --policy I --device samsung-s2
    python -m repro.cli cache stats --dir benchmarks/results/cache

Every subcommand prints an aligned table; none requires network access
or external binaries.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import render_table
from .analysis.history import (
    DEFAULT_HISTORY_DIR,
    load_history,
    record_run,
    render_history,
)
from .analysis.trend import (
    DEFAULT_THRESHOLD,
    load_report,
    render_trend,
    trend_gate,
)
from .core import EncryptionPolicy
from .lint import DEFAULT_ROOTS, lint_paths
from .mobility import MOBILITY_PROFILES, SELECTION_POLICIES
from .selftest import run_selftest
from .testbed import (
    AdvisorClient,
    DEVICES,
    ExperimentConfig,
    ExperimentEngine,
    GridCell,
    MULTIFLOW_ENGINES,
    ResultCache,
    ServiceRequest,
    WorkQueue,
    evaluate_payload,
    open_queue,
    policy_from_name,
    run_autoscaler,
    run_experiment,
    run_multiflow,
    run_worker,
)
from .video import (
    CodecConfig,
    analyze_motion,
    decode_bitstream,
    encode_sequence,
    generate_clip,
    sensitivity_for,
    sequence_mse,
)

__all__ = ["main", "build_parser"]


def _clip_and_bitstream(args):
    clip = generate_clip(args.motion, args.frames, seed=args.seed)
    bitstream = encode_sequence(
        clip, CodecConfig(gop_size=args.gop, quantizer=args.quantizer)
    )
    return clip, bitstream


def _policy_from_name(name: str, algorithm: str) -> EncryptionPolicy:
    try:
        return policy_from_name(name, algorithm)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_clip(args) -> int:
    clip, bitstream = _clip_and_bitstream(args)
    if args.out:
        clip.save(args.out)
        print(f"wrote {len(clip)} frames of raw I420 to {args.out}")
    summary = bitstream.size_summary()
    print(render_table(
        ["frames", "GOP", "mean I bytes", "mean P bytes", "total KiB"],
        [[len(clip), args.gop, f"{summary['mean_i_bytes']:.0f}",
          f"{summary['mean_p_bytes']:.0f}",
          f"{bitstream.total_bytes / 1024:.0f}"]],
        title=f"{args.motion}-motion clip",
    ))
    return 0


def cmd_inspect(args) -> int:
    clip, bitstream = _clip_and_bitstream(args)
    report = analyze_motion(clip)
    baseline = sequence_mse(clip, decode_bitstream(bitstream))
    summary = bitstream.size_summary()
    rows = [
        ["motion class", report.motion_class.value],
        ["mean activity", f"{report.mean_activity:.2f}"],
        ["decoder sensitivity", f"{sensitivity_for(report.motion_class):.2f}"],
        ["mean I-frame bytes", f"{summary['mean_i_bytes']:.0f}"],
        ["mean P-frame bytes", f"{summary['mean_p_bytes']:.0f}"],
        ["encoder quality (MSE)", f"{baseline:.1f}"],
    ]
    print(render_table(["property", "value"], rows,
                       title=f"{args.motion}-motion clip, GOP {args.gop}"))
    return 0


def _advise_request(args) -> ServiceRequest:
    """One :class:`ServiceRequest` from the `advise` CLI arguments.

    When neither confidentiality target is given the historical CLI
    default (15 dB) applies; the service's own default (19 dB) is only
    for requests that arrive over the wire with no target at all.
    """
    target_psnr = args.target_psnr
    if target_psnr is None and args.target_mos is None:
        target_psnr = 15.0
    candidates = None
    if args.policies:
        candidates = tuple(
            name.strip() for name in args.policies.split(","))
    try:
        return ServiceRequest(
            motion=args.motion, frames=args.frames, gop=args.gop,
            quantizer=args.quantizer, seed=args.seed, device=args.device,
            flows=args.flows, algorithm=args.algorithm,
            target_psnr_db=target_psnr, target_mos=args.target_mos,
            candidates=candidates, ap=args.ap,
            mobility=args.mobility,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _print_choice_table(payload, *, device_name: str,
                        source: str = "local") -> None:
    """Render one choice payload — the exact same table whether the
    recommendation was computed here or served over TCP."""
    recommended = payload["recommended"]
    rows = []
    for label, prediction in payload["sweep"].items():
        marker = "<= recommended" if label == recommended else ""
        rows.append([label, f"{prediction['delay_ms']:.2f}",
                     f"{prediction['eavesdropper_psnr_db']:.1f}", marker])
    print(render_table(
        ["policy", "predicted delay (ms)", "predicted eaves PSNR (dB)", ""],
        rows,
        title=f"advisor sweep (target <= {payload['target_psnr_db']:.0f}"
              f" dB, {device_name}, {source})",
    ))


def cmd_advise(args) -> int:
    request = _advise_request(args)
    if args.server:
        try:
            with AdvisorClient.from_spec(args.server) as client:
                answer = client.recommend(request)
        except ValueError as exc:
            raise SystemExit(str(exc))
        except ConnectionError as exc:
            print(f"advise: {exc}")
            return 1
        payload = answer.payload
        source = f"{args.server} {answer.source}"
    else:
        payload = evaluate_payload(request)
        source = "local"
    _print_choice_table(payload, device_name=DEVICES[args.device].name,
                        source=source)
    if not payload["satisfied"]:
        print("no candidate met the target; encrypt everything.")
        return 1
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .testbed.server import AdvisorServer

    try:
        server = AdvisorServer(
            ResultCache(args.cache), host=args.host, port=args.port,
            ap_capacity=args.ap_capacity, engine=args.engine,
            workers=args.workers)
    except ValueError as exc:
        raise SystemExit(str(exc))

    async def _serve() -> None:
        await server.start()
        # One parseable line so scripts (and the serve bench) can scrape
        # the bound port when --port 0 picked a free one.
        print(f"serving advisor on {server.host}:{server.port}",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_experiment(args) -> int:
    clip, bitstream = _clip_and_bitstream(args)
    device = DEVICES[args.device]
    sensitivity = sensitivity_for(analyze_motion(clip).motion_class)
    policy = _policy_from_name(args.policy, args.algorithm)
    config = ExperimentConfig(policy=policy, device=device,
                              sensitivity_fraction=sensitivity)
    result = run_experiment(clip, bitstream, config, seed=args.seed)
    rows = [[
        policy.label,
        f"{result.mean_delay_ms:.2f}",
        f"{result.average_power_w:.2f}",
        f"{result.eavesdropper_psnr_db:.1f}",
        f"{result.eavesdropper_mos:.2f}",
        f"{result.receiver_psnr_db:.1f}",
    ]]
    print(render_table(
        ["policy", "delay (ms)", "power (W)", "eaves PSNR", "eaves MOS",
         "receiver PSNR"],
        rows,
        title=f"{args.motion}-motion transfer on {device.name}",
    ))
    return 0


def cmd_multiflow(args) -> int:
    if args.flows < 1:
        raise SystemExit(f"--flows must be >= 1, got {args.flows}")
    clip, bitstream = _clip_and_bitstream(args)
    device = DEVICES[args.device]
    policy = _policy_from_name(args.policy, args.algorithm)
    result = run_multiflow(
        bitstream,
        flows=args.flows,
        policy=policy,
        device=device,
        seed=args.seed,
        stagger_s=args.stagger_ms * 1e-3,
        engine=args.engine,
    )
    rows = []
    for flow_id, (run, row) in enumerate(
            zip(result.flows, result.delay_percentiles_ms())):
        if row is None:  # zero-packet flow: no delay statistics exist
            rows.append([flow_id, 0, "-", "-", "-", "-", "-"])
            continue
        delivered = sum(run.usable_by_receiver) / len(run.packets)
        rows.append([
            flow_id, len(run.packets), f"{delivered * 100:.1f}",
            f"{row['mean']:.2f}", f"{row['p50']:.2f}",
            f"{row['p90']:.2f}", f"{row['p99']:.2f}",
        ])
    print(render_table(
        ["flow", "packets", "delivered %", "mean delay (ms)",
         "p50 (ms)", "p90 (ms)", "p99 (ms)"],
        rows,
        title=f"{args.flows} contending {args.motion}-motion flows on"
              f" {device.name} ({policy.label})",
    ))
    print(f"all-flow mean delay: {result.mean_delay_ms:.2f} ms over"
          f" {result.makespan_s:.2f} s")
    return 0


def cmd_mobility(args) -> int:
    from .mobility import run_mobility

    if args.flows < 1:
        raise SystemExit(f"--flows must be >= 1, got {args.flows}")
    _clip, bitstream = _clip_and_bitstream(args)
    device = DEVICES[args.device]
    policy = _policy_from_name(args.policy, args.algorithm)
    spec = args.profile if args.selection is None \
        else f"{args.profile}:{args.selection}"
    try:
        result = run_mobility(
            bitstream,
            mobility=spec,
            flows=args.flows,
            policy=policy,
            device=device,
            seed=args.seed,
            engine=args.engine,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    mrun = result.flows_run
    rows = []
    for flow_id, (run, row) in enumerate(
            zip(mrun.flows, mrun.delay_percentiles_ms())):
        if row is None:  # zero-packet flow: no delay statistics exist
            rows.append([flow_id, 0, "-", "-", "-", "-"])
            continue
        delivered = sum(run.usable_by_receiver) / len(run.packets)
        rows.append([
            flow_id, len(run.packets), f"{delivered * 100:.1f}",
            f"{row['mean']:.2f}", f"{row['p50']:.2f}",
            f"{row['p99']:.2f}",
        ])
    print(render_table(
        ["flow", "packets", "delivered %", "mean delay (ms)",
         "p50 (ms)", "p99 (ms)"],
        rows,
        title=f"{args.flows} mobile {args.motion}-motion flows on"
              f" {device.name} ({policy.label}, {spec})",
    ))
    summary = result.describe()
    detail_rows = [[key, str(summary[key])] for key in sorted(summary)]
    print(render_table(["property", "value"], detail_rows,
                       title=f"mobility run ({result.engine} engine)"))
    return 0


def cmd_cache(args) -> int:
    cache = ResultCache(args.dir, max_bytes=args.max_bytes,
                        max_entries=args.max_entries)
    try:
        if args.action == "stats":
            stats = cache.stats()
            rows = [[name, str(stats[name])] for name in (
                "backend", "entries", "total_bytes",
                "hits", "misses", "hit_rate", "evictions", "corrupt",
                "max_bytes", "max_entries",
            )]
            print(render_table(["statistic", "value"], rows,
                               title=f"result cache at {args.dir}"))
            return 0
        if args.action == "gc":
            report = cache.gc()
            rows = [[name, str(report[name])] for name in
                    ("evicted", "entries", "total_bytes")]
            print(render_table(["gc action", "value"], rows,
                               title=f"result cache at {args.dir}"))
            return 0
        if args.action == "clear":
            removed = cache.clear()
            print(f"removed {removed} cache entries from {args.dir}")
            return 0
        report = cache.verify()
        rows = [[name, str(report[name])] for name in
                ("entries", "total_bytes", "corrupt")]
        print(render_table(["verify result", "value"], rows,
                           title=f"result cache at {args.dir}"))
        return 1 if report["corrupt"] else 0
    finally:
        cache.close()


def cmd_bench(args) -> int:
    if args.action == "history":
        snapshots = load_history(args.history_dir)
        print(render_history(
            snapshots, title=f"bench history in {args.history_dir}"))
        return 0
    try:
        current = load_report(args.current)
        baseline = load_report(args.baseline)
        rows, failed = trend_gate(current, baseline,
                                  threshold=args.threshold)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(render_trend(rows, threshold=args.threshold,
                       title=f"{args.current} vs {args.baseline}"))
    if not args.no_history:
        snapshot = record_run(current, args.history_dir,
                              source=str(args.current))
        print(f"recorded history snapshot {snapshot}")
    if failed:
        regressed = [row.metric for row in rows if row.failed]
        print(f"REGRESSION: {', '.join(regressed)} dropped more than"
              f" {args.threshold * 100:.0f}% below baseline")
        return 1
    print("trend gate passed")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(args.only or None)
    rows = [[result.name, "ok" if result.ok else "FAIL", result.detail]
            for result in results]
    print(render_table(["check", "status", "detail"], rows,
                       title="repro selftest"))
    if any(not result.ok for result in results):
        print("SELFTEST FAILED")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_lint(args) -> int:
    roots = args.paths or list(DEFAULT_ROOTS)
    errors = lint_paths(roots)
    for error in errors:
        print(error)
    if errors:
        print(f"repro lint: {len(errors)} violation(s)")
        return 1
    print(f"repro lint: clean ({', '.join(str(r) for r in roots)})")
    return 0


def cmd_worker(args) -> int:
    report = run_worker(
        args.queue,
        worker_id=args.worker_id,
        max_cells=args.max_cells,
        drain=not args.no_drain,
        report_path=args.report,
    )
    rows = [
        ["worker", report.worker_id],
        ["claimed", str(report.claimed)],
        ["simulations", str(report.simulations)],
        ["completed", str(report.completed)],
        ["replayed from cache", str(report.replayed_from_cache)],
        ["failed", str(report.failed)],
        ["wall time (s)", f"{report.wall_s:.2f}"],
    ]
    print(render_table(["counter", "value"], rows,
                       title=f"worker drained {args.queue}"))
    return 1 if report.failed else 0


def _grid_cells(args):
    clip, bitstream = _clip_and_bitstream(args)
    device = DEVICES[args.device]
    sensitivity = sensitivity_for(analyze_motion(clip).motion_class)
    cells = []
    for name in args.policies.split(","):
        policy = _policy_from_name(name.strip(), args.algorithm)
        cells.append(GridCell(
            args.scenario,
            ExperimentConfig(policy=policy, device=device,
                             sensitivity_fraction=sensitivity,
                             decode_video=args.decode),
            args.repeats,
        ))
    return clip, bitstream, cells


def _print_queue_counts(queue: WorkQueue) -> None:
    counts = queue.counts()
    rows = [[state, str(counts[state])]
            for state in ("pending", "leased", "done", "failed")]
    print(render_table(["state", "cells"], rows,
                       title=f"queue at {queue.path}"))
    for key in queue.failed_keys():
        print(f"failed {key[:16]}…: {queue.failure_reason(key)}")


def cmd_cached(args) -> int:
    import asyncio

    from .testbed.server import CacheQueueServer

    server = CacheQueueServer(args.root, host=args.host, port=args.port,
                              lease_expiry_s=args.lease_expiry)

    async def _serve() -> None:
        await server.start()
        # One parseable line so scripts (and the smoke bench) can scrape
        # the bound port when --port 0 picked a free one.
        print(f"serving {args.root} on {server.host}:{server.port}",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_grid(args) -> int:
    queue = open_queue(args.queue)
    if args.action == "status":
        _print_queue_counts(queue)
        return 1 if queue.failed_keys() else 0
    if args.action == "autoscale":
        report = run_autoscaler(
            queue,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            cells_per_worker=args.cells_per_worker,
            poll_s=args.poll,
        )
        rows = [
            ["rounds", str(report.rounds)],
            ["workers spawned", str(report.spawned)],
            ["workers retired", str(report.retired)],
            ["peak pool size", str(report.peak_workers)],
            ["leases requeued", str(report.requeued)],
        ]
        print(render_table(["counter", "value"], rows,
                           title=f"autoscaled {args.queue}"))
        _print_queue_counts(queue)
        return 1 if report.final_counts.get("failed") else 0
    if args.action == "drain":
        report = run_worker(queue, drain=True)
        print(f"drained: {report.completed} completed,"
              f" {report.simulations} simulations,"
              f" {report.failed} failed")
        _print_queue_counts(queue)
        return 1 if report.failed else 0
    # submit
    clip, bitstream, cells = _grid_cells(args)
    engine = ExperimentEngine(dispatch="queue", queue=queue,
                              master_seed=args.master_seed,
                              repeats=args.repeats)
    try:
        engine.add_scenario(args.scenario, clip, bitstream)
        submitted = engine.submit_grid(cells)
    finally:
        engine.close()
    print(f"submitted {len(submitted)} of {len(cells)} cells"
          f" (rest cached or already queued)")
    _print_queue_counts(queue)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Selective video encryption toolkit (CoNEXT'13"
                    " reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--motion", choices=("slow", "medium", "fast"),
                       default="slow")
        p.add_argument("--frames", type=int, default=150)
        p.add_argument("--gop", type=int, default=30)
        p.add_argument("--quantizer", type=int, default=8)
        p.add_argument("--seed", type=int, default=2013)

    p_clip = sub.add_parser("clip", help="generate a synthetic clip")
    common(p_clip)
    p_clip.add_argument("--out", help="write raw I420 YUV to this path")
    p_clip.set_defaults(func=cmd_clip)

    p_inspect = sub.add_parser("inspect",
                               help="motion/structure analysis of a clip")
    common(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    p_advise = sub.add_parser(
        "advise",
        help="run the Fig. 1 policy advisor (locally or via a server)",
        description="Sweeps candidate encryption policies and recommends"
                    " the cheapest one whose predicted eavesdropper PSNR"
                    " meets the confidentiality target.  With --server"
                    " the question is asked of a running `repro serve`"
                    " daemon instead (answers are byte-identical to the"
                    " local computation, memoized server-side).",
    )
    common(p_advise)
    p_advise.add_argument("--device", choices=sorted(DEVICES),
                          default="samsung-s2")
    p_advise.add_argument("--target-psnr", type=float, default=None,
                          help="eavesdropper PSNR ceiling in dB"
                               " (default 15 when no target is given)")
    p_advise.add_argument("--target-mos", type=float, default=None,
                          help="eavesdropper MOS ceiling in [1, 5];"
                               " mutually exclusive with --target-psnr")
    p_advise.add_argument("--flows", type=int, default=2,
                          help="contending stations the DCF fixed point"
                               " is solved for (default 2)")
    p_advise.add_argument("--algorithm",
                          choices=("AES128", "AES256", "3DES"),
                          default="AES256")
    p_advise.add_argument("--policies", default=None,
                          help="comma-separated candidate policies"
                               " (none/I/P/all or I+<percent>%%P;"
                               " default: the standard ladder)")
    p_advise.add_argument("--server", default=None, metavar="SPEC",
                          help="ask a running `repro serve` daemon at"
                               " tcp:HOST:PORT instead of computing"
                               " locally")
    p_advise.add_argument("--ap", default="default",
                          help="simulated access point the session rides"
                               " (scopes server-side admission control)")
    p_advise.add_argument("--mobility", default=None, metavar="SPEC",
                          help="mobility profile spec"
                               " (profile[:selection], e.g."
                               " vehicular:hysteresis); folds handoff"
                               " gaps and the roamed links into the"
                               " advised channel")
    p_advise.set_defaults(func=cmd_advise)

    p_exp = sub.add_parser("experiment",
                           help="one simulated transfer with full metrics")
    common(p_exp)
    p_exp.add_argument("--device", choices=sorted(DEVICES),
                       default="samsung-s2")
    p_exp.add_argument("--policy", default="I",
                       help="none/I/P/all or I+<percent>%%P")
    p_exp.add_argument("--algorithm",
                       choices=("AES128", "AES256", "3DES"),
                       default="AES256")
    p_exp.set_defaults(func=cmd_experiment)

    p_multiflow = sub.add_parser(
        "multiflow",
        help="N senders contending for one AP (event-kernel transport)",
        description="Runs N copies of the clip as concurrent flows"
                    " through the discrete-event kernel, with the DCF"
                    " fixed point solved for the actual contender count,"
                    " and reports per-flow delay percentiles.",
    )
    common(p_multiflow)
    p_multiflow.add_argument("--flows", type=int, default=2,
                             help="number of contending senders")
    p_multiflow.add_argument("--device", choices=sorted(DEVICES),
                             default="samsung-s2")
    p_multiflow.add_argument("--policy", default="I",
                             help="none/I/P/all or I+<percent>%%P")
    p_multiflow.add_argument("--algorithm",
                             choices=("AES128", "AES256", "3DES"),
                             default="AES256")
    p_multiflow.add_argument("--engine", choices=MULTIFLOW_ENGINES,
                             default="events",
                             help="contention engine: the coroutine event"
                                  " kernel or the vectorized fast path")
    p_multiflow.add_argument("--stagger-ms", type=float, default=0.0,
                             help="offset flow i's producer by i*stagger")
    p_multiflow.set_defaults(func=cmd_multiflow)

    p_mobility = sub.add_parser(
        "mobility",
        help="N mobile senders roaming an AP corridor with handoffs",
        description="Runs N concurrent flows along a mobility profile:"
                    " the client walks/drives a trace through a field of"
                    " APs, an AP-selection policy picks the serving AP,"
                    " and every handoff opens a connectivity gap."
                    "  Packets latch the link that was live at their"
                    " arrival instant, so the event kernel and the"
                    " vectorized engine agree exactly.",
    )
    common(p_mobility)
    p_mobility.add_argument("--flows", type=int, default=2,
                            help="number of contending mobile senders")
    p_mobility.add_argument("--device", choices=sorted(DEVICES),
                            default="samsung-s2")
    p_mobility.add_argument("--policy", default="I",
                            help="none/I/P/all or I+<percent>%%P")
    p_mobility.add_argument("--algorithm",
                            choices=("AES128", "AES256", "3DES"),
                            default="AES256")
    p_mobility.add_argument("--profile", choices=sorted(MOBILITY_PROFILES),
                            default="pedestrian",
                            help="trace shape: parked, pedestrian,"
                                 " vehicular, or waypoint")
    p_mobility.add_argument("--selection", choices=SELECTION_POLICIES,
                            default=None,
                            help="AP selection policy (default:"
                                 " strongest RSSI)")
    p_mobility.add_argument("--engine", choices=MULTIFLOW_ENGINES,
                            default="events",
                            help="contention engine: the coroutine event"
                                 " kernel or the vectorized fast path")
    p_mobility.set_defaults(func=cmd_mobility)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or maintain the result cache",
        description="stats: counters and store aggregates; gc: enforce"
                    " the size caps; clear: delete every entry; verify:"
                    " quarantine corrupt entries (exit 1 if any were"
                    " found).  gc, verify and clear each run in one store"
                    " transaction, serialised against other maintainers.",
    )
    p_cache.add_argument("action", choices=("stats", "gc", "clear", "verify"))
    p_cache.add_argument(
        "--dir",
        default=os.environ.get("REPRO_CACHE_DIR",
                               "benchmarks/results/cache"),
        help="cache directory (store: DIR/cache.sqlite), sqlite:FILE or"
             " tcp:HOST:PORT (default: $REPRO_CACHE_DIR or"
             " benchmarks/results/cache)",
    )
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="byte cap enforced by gc (LRU eviction)")
    p_cache.add_argument("--max-entries", type=int, default=None,
                         help="entry cap enforced by gc (LRU eviction)")
    p_cache.set_defaults(func=cmd_cache)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark maintenance (trend: regression gate vs baseline)",
        description="trend: compare a BENCH_crypto.json against the"
                    " committed baseline and exit 1 if any throughput"
                    " metric (*_per_s) regressed more than the threshold."
                    "  Refresh the baseline deliberately with"
                    " `cp BENCH_crypto.json"
                    " benchmarks/results/bench_baseline.json`.",
    )
    p_bench.add_argument("action", choices=("trend", "history"))
    p_bench.add_argument(
        "--current", default="BENCH_crypto.json",
        help="report to check (default ./BENCH_crypto.json)",
    )
    p_bench.add_argument(
        "--baseline", default="benchmarks/results/bench_baseline.json",
        help="committed baseline report"
             " (default benchmarks/results/bench_baseline.json)",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fractional throughput drop that fails the gate"
             " (default 0.30)",
    )
    p_bench.add_argument(
        "--history-dir", default=DEFAULT_HISTORY_DIR,
        help="per-revision snapshot directory (default"
             f" {DEFAULT_HISTORY_DIR})",
    )
    p_bench.add_argument(
        "--no-history", action="store_true",
        help="trend only: skip recording this run into the history",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_selftest = sub.add_parser(
        "selftest",
        help="fast end-to-end sanity check (crypto KAT, cached engine,"
             " event kernel)",
        description="Runs a known-answer crypto check, a tiny grid"
                    " through the cached engine (cold then warm), and a"
                    " 2-flow event-kernel run.  CI runs this before"
                    " every job; exit 1 on any failure.",
    )
    p_selftest.add_argument(
        "--only", action="append", metavar="CHECK",
        help="run only this check (repeatable):"
             " crypto-kat/cached-engine/event-kernel/vector-flows/"
             "sender-oracle/lookup-decode/vector-models/mobility/"
             "net-queue/advise-serve",
    )
    p_selftest.set_defaults(func=cmd_selftest)

    p_lint = sub.add_parser(
        "lint",
        help="project-specific static checks (global RNG and wall-clock"
             " bans)",
        description="Bans np.random.seed(), module-level"  # lint: allow
                    " random.* calls, time.time() in the event"
                    " kernel, and blocking socket/sleep calls in the"
                    " asyncio server."
                    "  Exit 1 on any violation.",
    )
    p_lint.add_argument("paths", nargs="*",
                        help=f"files/dirs to lint (default:"
                             f" {'/'.join(DEFAULT_ROOTS)})")
    p_lint.set_defaults(func=cmd_lint)

    p_worker = sub.add_parser(
        "worker",
        help="drain a distributed-grid work queue",
        description="Claims cells from the queue, simulates them with"
                    " the submitter's exact seeds and config, and lands"
                    " results in the shared cache.  Run N of these on"
                    " one queue for an N-way distributed grid.",
    )
    p_worker.add_argument("--queue", required=True,
                          help="queue directory (created by grid submit)"
                               " or tcp:HOST:PORT of a `repro cached"
                               " serve` endpoint")
    p_worker.add_argument("--max-cells", type=int, default=None,
                          help="stop after claiming this many cells")
    p_worker.add_argument("--no-drain", action="store_true",
                          help="exit when nothing is claimable instead of"
                               " waiting for other workers to finish")
    p_worker.add_argument("--worker-id", default=None,
                          help="identity recorded in cache entries and"
                               " the report (default host-pid)")
    p_worker.add_argument("--report", default=None,
                          help="write a JSON WorkerReport here")
    p_worker.set_defaults(func=cmd_worker)

    p_grid = sub.add_parser(
        "grid",
        help="submit/inspect/drain a distributed experiment grid",
        description="submit: enqueue a policy sweep over a synthetic"
                    " clip; status: queue counters and failures; drain:"
                    " run an in-process worker until the queue is empty."
                    "  Results land in the cache named by the queue's"
                    " config.json, so `repro cache stats --dir <spec>`"
                    " can inspect them.",
    )
    p_grid.add_argument("action",
                        choices=("submit", "status", "drain", "autoscale"))
    p_grid.add_argument("--queue", required=True,
                        help="queue directory or tcp:HOST:PORT spec")
    common(p_grid)
    p_grid.add_argument("--scenario", default="grid",
                        help="scenario key recorded in cache entries")
    p_grid.add_argument("--policies", default="none,I,P,all",
                        help="comma-separated policy names"
                             " (none/I/P/all or I+<percent>%%P)")
    p_grid.add_argument("--device", choices=sorted(DEVICES),
                        default="samsung-s2")
    p_grid.add_argument("--algorithm",
                        choices=("AES128", "AES256", "3DES"),
                        default="AES256")
    p_grid.add_argument("--repeats", type=int, default=3)
    p_grid.add_argument("--master-seed", type=int, default=0)
    p_grid.add_argument("--decode", action="store_true",
                        help="decode at receiver/eavesdropper (slower)")
    p_grid.add_argument("--min-workers", type=int, default=0,
                        help="autoscale: floor on the worker pool")
    p_grid.add_argument("--max-workers", type=int, default=4,
                        help="autoscale: ceiling on the worker pool")
    p_grid.add_argument("--cells-per-worker", type=int, default=2,
                        help="autoscale: backlog cells per spawned worker")
    p_grid.add_argument("--poll", type=float, default=0.5,
                        help="autoscale: supervision poll interval (s)")
    p_grid.set_defaults(func=cmd_grid)

    p_cached = sub.add_parser(
        "cached",
        help="serve a queue+cache over TCP for networked workers",
        description="serve: bind an asyncio server on HOST:PORT speaking"
                    " the framed repro wire protocol, fronting the work"
                    " queue (and its result cache) at --root.  Workers on"
                    " hosts that share no filesystem then drain the grid"
                    " with `repro worker --queue tcp:HOST:PORT`.",
    )
    p_cached.add_argument("action", choices=("serve",))
    p_cached.add_argument("--root", required=True,
                          help="queue directory to serve (created by"
                               " grid submit, or fresh)")
    p_cached.add_argument("--host", default="127.0.0.1",
                          help="bind address (default loopback)")
    p_cached.add_argument("--port", type=int, default=0,
                          help="bind port (default 0 = pick a free one,"
                               " printed on startup)")
    p_cached.add_argument("--lease-expiry", type=float, default=None,
                          help="queue lease expiry in seconds (default:"
                               " the queue's configured value)")
    p_cached.set_defaults(func=cmd_cached)

    p_serve = sub.add_parser(
        "serve",
        help="run the policy advisor as a long-running TCP service",
        description="Binds an asyncio server speaking the framed repro"
                    " wire protocol that answers `repro advise --server"
                    " tcp:HOST:PORT` requests.  Finished recommendations"
                    " are memoized content-addressed in the cache at"
                    " --cache, so repeated questions are answered with"
                    " zero model sweeps; cold evaluations run on a"
                    " thread pool behind per-AP admission caps.",
    )
    p_serve.add_argument(
        "--cache",
        default=os.environ.get("REPRO_CACHE_DIR",
                               "benchmarks/results/cache"),
        help="memo cache directory or backend spec (default:"
             " $REPRO_CACHE_DIR or benchmarks/results/cache)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port (default 0 = pick a free one,"
                              " printed on startup)")
    p_serve.add_argument("--ap-capacity", type=int, default=None,
                         help="max cold evaluations in flight per"
                              " simulated AP before sessions get a busy"
                              " response (default: derived from the DCF"
                              " contention model)")
    p_serve.add_argument("--engine", choices=("scalar", "vector"),
                         default="vector",
                         help="model backend for cold evaluations:"
                              " batched numpy sweep (vector, default) or"
                              " the per-policy oracle (scalar)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="thread-pool size for cold evaluations"
                              " (default 2)")
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
