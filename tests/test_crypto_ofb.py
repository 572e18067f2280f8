"""OFB mode: involution, length preservation, per-segment error isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import AES, OFBMode, TripleDES, derive_iv

KEY = bytes(range(16))


@pytest.fixture
def mode():
    return OFBMode(AES(KEY))


class TestOfb:
    def test_encrypt_decrypt_involution(self, mode):
        iv = derive_iv(b"salt", 0, 16)
        message = b"the I-frame carries most of the content"
        assert mode.decrypt(iv, mode.encrypt(iv, message)) == message

    def test_length_preserved_no_padding(self, mode):
        """RTP payloads are odd-sized; OFB must not pad (Section 5)."""
        iv = derive_iv(b"salt", 1, 16)
        for size in (0, 1, 15, 16, 17, 100, 1461):
            assert len(mode.encrypt(iv, bytes(size))) == size

    def test_ciphertext_differs_from_plaintext(self, mode):
        iv = derive_iv(b"salt", 2, 16)
        message = b"A" * 64
        assert mode.encrypt(iv, message) != message

    def test_different_ivs_different_keystreams(self, mode):
        iv_a = derive_iv(b"salt", 0, 16)
        iv_b = derive_iv(b"salt", 1, 16)
        assert mode.keystream(iv_a, 32) != mode.keystream(iv_b, 32)

    def test_keystream_prefix_consistency(self, mode):
        iv = derive_iv(b"salt", 3, 16)
        assert mode.keystream(iv, 64)[:16] == mode.keystream(iv, 16)

    def test_error_isolated_within_segment(self, mode):
        """OFB is a stream XOR: flipping a ciphertext byte corrupts only
        that plaintext byte — the non-propagation property Section 5
        relies on."""
        iv = derive_iv(b"salt", 4, 16)
        message = bytes(range(64)) * 2
        ciphertext = bytearray(mode.encrypt(iv, message))
        ciphertext[10] ^= 0xFF
        recovered = mode.decrypt(iv, bytes(ciphertext))
        differing = [i for i, (a, b) in enumerate(zip(message, recovered))
                     if a != b]
        assert differing == [10]

    def test_separate_segments_independent(self, mode):
        """Segments use distinct IVs, so corrupting one segment cannot
        affect another's decryption."""
        segments = [b"segment-zero....", b"segment-one....."]
        ivs = [derive_iv(b"session", i, 16) for i in range(len(segments))]
        ciphertexts = [mode.encrypt(iv, seg)
                       for iv, seg in zip(ivs, segments)]
        # Corrupt segment 0 entirely; segment 1 still decrypts.
        assert mode.decrypt(ivs[1], ciphertexts[1]) == segments[1]

    def test_bad_iv_length_rejected(self, mode):
        with pytest.raises(ValueError):
            mode.encrypt(b"short", b"data")

    def test_zero_length_plaintext_is_valid(self, mode):
        iv = derive_iv(b"salt", 5, 16)
        assert mode.encrypt(iv, b"") == b""
        assert mode.keystream(iv, 0) == b""

    def test_negative_keystream_length_rejected(self, mode):
        iv = derive_iv(b"salt", 6, 16)
        with pytest.raises(ValueError, match="non-negative"):
            mode.keystream(iv, -1)

    def test_works_over_3des(self):
        mode = OFBMode(TripleDES(bytes(range(24))))
        iv = derive_iv(b"salt", 0, 8)
        message = b"an RTP payload of arbitrary length!"
        assert mode.decrypt(iv, mode.encrypt(iv, message)) == message


class TestDeriveIv:
    def test_deterministic(self):
        assert derive_iv(b"s", 7, 16) == derive_iv(b"s", 7, 16)

    def test_varies_with_segment(self):
        ivs = {derive_iv(b"s", i, 16) for i in range(100)}
        assert len(ivs) == 100

    def test_varies_with_salt(self):
        assert derive_iv(b"a", 0, 16) != derive_iv(b"b", 0, 16)

    @pytest.mark.parametrize("block_size", [8, 16])
    def test_length_matches_block(self, block_size):
        assert len(derive_iv(b"s", 0, block_size)) == block_size

    def test_negative_segment_index_rejected(self):
        """Used to escape as a bare OverflowError from int.to_bytes."""
        with pytest.raises(ValueError, match="non-negative"):
            derive_iv(b"s", -1, 16)

    @pytest.mark.parametrize("block_size", [0, -4, 33])
    def test_unservable_block_size_rejected(self, block_size):
        with pytest.raises(ValueError, match="block size"):
            derive_iv(b"s", 0, block_size)


@settings(max_examples=25, deadline=None)
@given(message=st.binary(max_size=256), segment=st.integers(0, 1000))
def test_property_roundtrip(message, segment):
    mode = OFBMode(AES(KEY))
    iv = derive_iv(b"prop", segment, 16)
    assert mode.decrypt(iv, mode.encrypt(iv, message)) == message


# RTP payloads are odd-sized by design, so the round-trip properties are
# exercised with odd payload sizes (plus the zero-length edge case) over
# every cipher the paper evaluates — and AES-192 for FIPS completeness.
_CIPHER_FACTORIES = {
    "AES128": lambda: AES(bytes(range(16))),
    "AES192": lambda: AES(bytes(range(24))),
    "AES256": lambda: AES(bytes(range(32))),
    "3DES": lambda: TripleDES(bytes(range(24))),
}

_odd_sizes = st.integers(0, 400).map(lambda n: 2 * n + 1)


@pytest.mark.parametrize("cipher_name", sorted(_CIPHER_FACTORIES))
@settings(max_examples=15, deadline=None)
@given(size=_odd_sizes, segment=st.integers(0, 1000), data=st.data())
def test_property_roundtrip_odd_sizes(cipher_name, size, segment, data):
    cipher = _CIPHER_FACTORIES[cipher_name]()
    mode = OFBMode(cipher)
    message = data.draw(st.binary(min_size=size, max_size=size))
    iv = derive_iv(b"odd", segment, cipher.block_size)
    ciphertext = mode.encrypt(iv, message)
    assert len(ciphertext) == size  # no padding, ever
    assert mode.decrypt(iv, ciphertext) == message


@pytest.mark.parametrize("cipher_name", sorted(_CIPHER_FACTORIES))
def test_zero_length_roundtrip_all_ciphers(cipher_name):
    cipher = _CIPHER_FACTORIES[cipher_name]()
    mode = OFBMode(cipher)
    iv = derive_iv(b"zero", 0, cipher.block_size)
    assert mode.decrypt(iv, mode.encrypt(iv, b"")) == b""


@settings(max_examples=25, deadline=None)
@given(payload=st.binary(max_size=512))
def test_property_xor_matches_bytewise(payload):
    from repro.crypto.ofb import _xor_bytes

    keystream = bytes((i * 37 + 11) & 0xFF for i in range(len(payload)))
    expected = bytes(p ^ s for p, s in zip(payload, keystream))
    assert _xor_bytes(payload, keystream) == expected
