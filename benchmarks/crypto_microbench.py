#!/usr/bin/env python
"""Micro-benchmark: scalar OFB cipher throughput (AES256 and 3DES) plus
the result-cache layer.

Encrypts a payload the way the paper's sender does — split into MTU-sized
RTP segments, each under its own derived IV (Section 5) — through the
byte-oriented reference ciphers that the ``T_e`` calibration times, and
emits ``BENCH_crypto.json`` so the performance trajectory is tracked
from PR to PR.

Run from the repo root::

    PYTHONPATH=src python benchmarks/crypto_microbench.py
    PYTHONPATH=src python benchmarks/crypto_microbench.py --check-trend

The scalar ciphers are slow by construction (they are the readable
reference implementations), so by default they are timed on samples of
the segment stream and reported as bytes/second; pass ``--full-scalar``
to push the entire payload through them.  3DES gets a smaller default
sample than AES because it is several times slower per byte (which is
exactly the paper's Table 1 point).

``--check-trend`` runs the regression gate (``repro bench trend``)
against ``benchmarks/results/bench_baseline.json`` after writing the
report, and exits non-zero on a >30% throughput regression.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
import time
from pathlib import Path

from repro.cli import main as repro_main
from repro.crypto import AES, OFBMode, TripleDES, derive_iv
from repro.testbed.cache import ResultCache, RunMetrics

DEFAULT_PAYLOAD = 1 << 20          # the acceptance target: 1 MiB
DEFAULT_SEGMENT = 1460             # MTU-sized RTP payload
DEFAULT_SCALAR_SAMPLE = 192 * 1024
DEFAULT_SCALAR_SAMPLE_3DES = 24 * 1024
DEFAULT_CACHE_ENTRIES = 10_000     # the grid size the cache targets
DEFAULT_BASELINE = Path("benchmarks/results/bench_baseline.json")
KEY = bytes(range(32))             # AES256, the paper's headline cipher
KEY_3DES = bytes(range(24))        # 3-key 3DES, the paper's slow cipher
SALT = b"crypto-microbench"


def _segments(total_bytes: int, segment_bytes: int, block_size: int = 16):
    """Deterministic odd-and-even sized segment stream summing to
    ``total_bytes`` (RTP payloads are odd-sized by design, so alternate)."""
    payloads = []
    remaining = total_bytes
    index = 0
    while remaining > 0:
        size = min(segment_bytes - (index % 2), remaining)
        payloads.append(bytes((index + offset) & 0xFF
                              for offset in range(size)))
        remaining -= size
        index += 1
    ivs = [derive_iv(SALT, i, block_size) for i in range(len(payloads))]
    return ivs, payloads


def _bench_cipher(label: str, cipher, block_size: int, sample_bytes: int,
                  segment_bytes: int) -> dict:
    """Scalar OFB throughput for one cipher over ``sample_bytes`` of the
    segment stream."""
    ivs, payloads = _segments(sample_bytes, segment_bytes, block_size)
    mode = OFBMode(cipher)
    start = time.perf_counter()
    for iv, payload in zip(ivs, payloads):
        mode.encrypt(iv, payload)
    elapsed = time.perf_counter() - start
    return {
        "cipher": label,
        "segments": len(payloads),
        "scalar_sample_bytes": sample_bytes,
        "scalar_bytes_per_s": sample_bytes / elapsed,
    }


def _bench_cache(n_entries: int) -> dict:
    """Cache-layer micro-section: cold puts, warm gets, ``len``/``stats``
    (store queries, so they must not scale like a directory scan), and a
    gc that evicts half the entries under ``max_entries``."""
    runs = [RunMetrics(mean_delay_ms=1.25, mean_waiting_ms=0.5,
                       average_power_w=2.0, receiver_psnr_db=38.0)]
    keys = [hashlib.sha256(b"cache-bench-%d" % i).hexdigest()
            for i in range(n_entries)]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        start = time.perf_counter()
        for key in keys:
            cache.put_runs(key, runs)
        cold_put_s = time.perf_counter() - start

        start = time.perf_counter()
        for key in keys:
            cache.get_runs(key)
        warm_get_s = time.perf_counter() - start

        start = time.perf_counter()
        entries = len(cache)
        len_s = time.perf_counter() - start
        assert entries == n_entries, "index disagrees with the puts"

        start = time.perf_counter()
        cache.stats()
        stats_s = time.perf_counter() - start
        cache.close()

        capped = ResultCache(tmp, max_entries=max(1, n_entries // 2))
        start = time.perf_counter()
        gc_report = capped.gc()
        gc_s = time.perf_counter() - start
        capped.close()

    return {
        "entries": n_entries,
        "cold_put_per_s": n_entries / cold_put_s,
        "warm_get_per_s": n_entries / warm_get_s,
        "len_s": len_s,
        "stats_s": stats_s,
        "gc_s": gc_s,
        "gc_evicted": gc_report["evicted"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bytes", type=int, default=DEFAULT_PAYLOAD,
                        help="total payload size (default 1 MiB)")
    parser.add_argument("--segment-bytes", type=int, default=DEFAULT_SEGMENT,
                        help="RTP segment size (default 1460)")
    parser.add_argument("--full-scalar", action="store_true",
                        help="time the ciphers on the full payload "
                             "instead of a sample")
    parser.add_argument("--out", type=Path, default=Path("BENCH_crypto.json"),
                        help="output JSON path (default ./BENCH_crypto.json)")
    parser.add_argument("--cache-entries", type=int,
                        default=DEFAULT_CACHE_ENTRIES,
                        help="entries for the result-cache micro-section"
                             " (0 skips it; default 10000)")
    parser.add_argument("--check-trend", action="store_true",
                        help="after writing the report, run the regression"
                             " gate against the committed baseline and exit"
                             " non-zero on a >30%% throughput drop")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline for --check-trend (default"
                             f" {DEFAULT_BASELINE})")
    args = parser.parse_args()
    if args.bytes < 1:
        parser.error("--bytes must be at least 1")
    if args.segment_bytes < 3:
        parser.error("--segment-bytes must be at least 3")

    def sample(default: int) -> int:
        return args.bytes if args.full_scalar else min(default, args.bytes)

    aes = _bench_cipher("AES256-OFB", AES(KEY), 16,
                        sample(DEFAULT_SCALAR_SAMPLE), args.segment_bytes)
    des3 = _bench_cipher("3DES-OFB", TripleDES(KEY_3DES), 8,
                         sample(DEFAULT_SCALAR_SAMPLE_3DES),
                         args.segment_bytes)

    report = {
        "workload": {
            "payload_bytes": args.bytes,
            "segment_bytes": args.segment_bytes,
            "segments": aes.pop("segments"),
            "cipher": aes.pop("cipher"),
            "scalar_sample_bytes": aes.pop("scalar_sample_bytes"),
        },
        **aes,
        "3des": des3,
    }
    if args.cache_entries > 0:
        report["cache"] = _bench_cache(args.cache_entries)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for label, section in (("AES256", report), ("3DES", des3)):
        print(f"{label:7s}: scalar {section['scalar_bytes_per_s'] / 1e3:8.1f}"
              " KB/s")
    if "cache" in report:
        cache = report["cache"]
        print(f"cache  : {cache['entries']} entries,"
              f" put {cache['cold_put_per_s']:.0f}/s,"
              f" get {cache['warm_get_per_s']:.0f}/s,"
              f" len {cache['len_s'] * 1e3:.2f} ms,"
              f" stats {cache['stats_s'] * 1e3:.2f} ms,"
              f" gc evicted {cache['gc_evicted']} in {cache['gc_s']:.2f}s")
    print(f"[saved to {args.out}]")
    if args.check_trend:
        raise SystemExit(repro_main([
            "bench", "trend", "--current", str(args.out),
            "--baseline", str(args.baseline),
        ]))


if __name__ == "__main__":
    main()
