"""Encryption-cost models: from cipher micro-benchmarks to per-packet time.

The analytical framework (Section 4.2.2) consumes the *distribution* of the
per-packet encryption time ``T_e``: a mean and a small Gaussian jitter for
MTU-sized I-frame packets and for small P-frame packets (paper eq. 15).
The Android app obtained those numbers by timing an initial set of packets
on the phone (Section 6.1).  We obtain them the same way: time the real
from-scratch ciphers on this host, then rescale by a device speed factor
from :mod:`repro.testbed.devices` to stand in for each phone's CPU.

The cost of a symmetric cipher is affine in the payload size —
``t(n) = setup + per_byte * n`` — and that affine model is what the rest
of the system consumes, so full-video simulations never have to push
megabytes through a pure-Python cipher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .aes import AES
from .des import TripleDES
from .ofb import OFBMode, derive_iv

__all__ = [
    "CIPHERS",
    "CipherCost",
    "make_cipher",
    "measure_cipher_cost",
    "reference_cipher_cost",
]

# name -> (key size in bytes, factory)
CIPHERS: Dict[str, Tuple[int, Callable[[bytes], object]]] = {
    "AES128": (16, AES),
    "AES256": (32, AES),
    "3DES": (24, TripleDES),
}


def make_cipher(algorithm: str, key: bytes):
    """Instantiate the block cipher by its paper name.

    This is the modelled device's cipher: :func:`measure_cipher_cost`
    times it to stand in for the phone's per-packet encryption cost
    ``T_e`` (paper eq. 15).
    """
    try:
        key_size, factory = CIPHERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown cipher {algorithm!r}; expected one of {sorted(CIPHERS)}"
        ) from None
    if len(key) != key_size:
        raise ValueError(
            f"{algorithm} needs a {key_size}-byte key, got {len(key)}"
        )
    return factory(key)


@dataclass(frozen=True)
class CipherCost:
    """Affine per-packet encryption-time model ``t(n) = setup_s + per_byte_s * n``.

    ``jitter_fraction`` is the relative standard deviation observed around
    the affine fit; the service-time model turns it into the Gaussian
    variation term of paper eq. (15).
    """

    algorithm: str
    setup_s: float
    per_byte_s: float
    jitter_fraction: float = 0.05

    def time_for(self, payload_bytes: int) -> float:
        """Expected seconds to encrypt a payload of ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload size must be non-negative")
        if payload_bytes == 0:
            return 0.0
        return self.setup_s + self.per_byte_s * payload_bytes

    def sigma_for(self, payload_bytes: int) -> float:
        """Std-dev of the encryption time for a payload of that size."""
        return self.jitter_fraction * self.time_for(payload_bytes)

    def scaled(self, speed_factor: float) -> "CipherCost":
        """Return the cost model on a CPU ``speed_factor``x faster than this one."""
        if speed_factor <= 0:
            raise ValueError("speed factor must be positive")
        return CipherCost(
            algorithm=self.algorithm,
            setup_s=self.setup_s / speed_factor,
            per_byte_s=self.per_byte_s / speed_factor,
            jitter_fraction=self.jitter_fraction,
        )


def measure_cipher_cost(
    algorithm: str,
    *,
    sizes: Tuple[int, ...] = (64, 512, 1460),
    repeats: int = 3,
) -> CipherCost:
    """Micro-benchmark a cipher on this host and fit the affine cost model.

    This is the reproduction's analogue of the paper's calibration phase
    where "the sequence of times that are necessary for the encryption of
    an initial set of packets ... are used to estimate the mean and
    variance of the encryption time" (Section 6.1).
    """
    key_size, _ = CIPHERS[algorithm]
    cipher = make_cipher(algorithm, bytes(range(key_size)))
    mode = OFBMode(cipher)
    salt = b"calibration-salt"

    xs = []
    ys = []
    for size in sizes:
        payload = bytes(i & 0xFF for i in range(size))
        best = float("inf")
        for attempt in range(repeats):
            iv = derive_iv(salt, attempt, mode.block_size)
            start = time.perf_counter()
            mode.encrypt(iv, payload)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        xs.append(float(size))
        ys.append(best)

    # Least-squares affine fit without pulling in numpy for two parameters.
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    cov_xy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    per_byte = cov_xy / var_x if var_x else 0.0
    setup = max(mean_y - per_byte * mean_x, 0.0)
    per_byte = max(per_byte, 1e-12)
    return CipherCost(algorithm=algorithm, setup_s=setup, per_byte_s=per_byte)


# Reference per-byte costs, in seconds, for a nominal 1 GHz mobile core.
# These are the documented defaults used when the caller does not want to
# run a live micro-benchmark (deterministic tests, model-only studies).
# The *ratios* are what matter for reproducing the paper's shape: 3DES is
# roughly 4-5x the per-byte cost of AES, and AES256 is ~1.4x AES128
# (14 rounds vs 10).
_REFERENCE_COSTS = {
    "AES128": CipherCost("AES128", setup_s=4.0e-6, per_byte_s=1.8e-8),
    "AES256": CipherCost("AES256", setup_s=5.0e-6, per_byte_s=2.5e-8),
    "3DES": CipherCost("3DES", setup_s=6.0e-6, per_byte_s=9.0e-8),
}


def reference_cipher_cost(algorithm: str, speed_factor: float = 1.0) -> CipherCost:
    """Deterministic cipher cost for a device ``speed_factor``x a 1 GHz core."""
    try:
        base = _REFERENCE_COSTS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown cipher {algorithm!r}; expected one of {sorted(_REFERENCE_COSTS)}"
        ) from None
    return base.scaled(speed_factor)
