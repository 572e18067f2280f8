"""Symmetric ciphers (AES, DES/3DES), OFB mode, and encryption-cost models.

This subpackage is the reproduction's stand-in for the GPAC crypto API the
paper's Android app used (Section 5): AES-128/256 and 3DES in OFB mode
applied per video segment, plus the micro-benchmark machinery that turns
cipher throughput into the per-packet encryption-time distributions the
analytical model consumes.
"""

from .aes import AES
from .des import DES, TripleDES
from .ofb import OFBMode, derive_iv
from .timing import (
    CIPHERS,
    CipherCost,
    make_cipher,
    measure_cipher_cost,
    reference_cipher_cost,
)

__all__ = [
    "AES",
    "DES",
    "TripleDES",
    "OFBMode",
    "derive_iv",
    "CIPHERS",
    "CipherCost",
    "make_cipher",
    "measure_cipher_cost",
    "reference_cipher_cost",
]
