"""Output-Feedback (OFB) mode on top of any block cipher.

Section 5 of the paper: "it uses the GPAC API to encrypt the segment
according to the encryption algorithm (AES128, AES256, 3DES) using the
Output Feedback Mode (OFB).  The OFB encryption mode is applied to each
segment separately, and therefore a possible error at the receiver does
not propagate to the following segments during the decryption process."

OFB turns a block cipher into a synchronous stream cipher: the keystream
is ``O_1 = E_K(IV), O_i = E_K(O_{i-1})`` and the ciphertext is the plain
XOR of the keystream, so ciphertext length equals plaintext length (no
padding — important because RTP payloads are odd-sized) and encryption
and decryption are the same operation.

The XOR runs over ``np.frombuffer`` views, so even MTU-sized payloads
never pay a per-byte Python loop; the keystream itself is generated one
block at a time, because each output block feeds the next.
"""

from __future__ import annotations

import hashlib
from typing import Protocol

import numpy as np

__all__ = ["BlockCipher", "OFBMode", "derive_iv"]

# derive_iv truncates a SHA-256 digest, so block sizes beyond the digest
# length cannot be served.
_MAX_IV_BYTES = hashlib.sha256().digest_size


class BlockCipher(Protocol):
    """Structural interface shared by :class:`~repro.crypto.aes.AES`,
    :class:`~repro.crypto.des.DES` and :class:`~repro.crypto.des.TripleDES`."""

    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...


def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    return (
        np.frombuffer(data, dtype=np.uint8)
        ^ np.frombuffer(keystream, dtype=np.uint8)
    ).tobytes()


def derive_iv(session_salt: bytes, segment_index: int, block_size: int) -> bytes:
    """Deterministically derive a per-segment IV.

    The paper encrypts each video segment independently under OFB.  Reusing
    an IV under OFB leaks the XOR of plaintexts, so each segment must get a
    distinct IV; deriving it from the (shared) session salt and the segment
    sequence number means the receiver can regenerate it without extra
    header bytes.
    """
    if segment_index < 0:
        raise ValueError(
            f"segment index must be non-negative, got {segment_index}"
        )
    if not 1 <= block_size <= _MAX_IV_BYTES:
        raise ValueError(
            f"block size must be in [1, {_MAX_IV_BYTES}], got {block_size}"
        )
    digest = hashlib.sha256(
        session_salt + segment_index.to_bytes(8, "big")
    ).digest()
    return digest[:block_size]


class OFBMode:
    """Stateless OFB encryptor/decryptor over a block cipher instance."""

    def __init__(self, cipher: BlockCipher) -> None:
        self._cipher = cipher
        self._block_size = cipher.block_size

    @property
    def block_size(self) -> int:
        return self._block_size

    def _check_iv(self, iv: bytes) -> None:
        if len(iv) != self._block_size:
            raise ValueError(
                f"IV must be {self._block_size} bytes, got {len(iv)}"
            )

    def keystream(self, iv: bytes, length: int) -> bytes:
        """Generate ``length`` keystream bytes from ``iv``."""
        self._check_iv(iv)
        if length < 0:
            raise ValueError(f"keystream length must be non-negative, got {length}")
        stream = bytearray()
        feedback = iv
        while len(stream) < length:
            feedback = self._cipher.encrypt_block(feedback)
            stream.extend(feedback)
        return bytes(stream[:length])

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        """Encrypt (or, identically, decrypt) ``plaintext`` under ``iv``."""
        stream = self.keystream(iv, len(plaintext))
        return _xor_bytes(plaintext, stream)

    # OFB is an involution given the same IV.
    decrypt = encrypt
