"""Encryption-cost models: affine behaviour, scaling, live measurement."""

import pytest

from repro.crypto.timing import (
    CIPHERS,
    CipherCost,
    make_cipher,
    measure_cipher_cost,
    reference_cipher_cost,
)


class TestCipherCost:
    def test_affine_time(self):
        cost = CipherCost("AES128", setup_s=1e-5, per_byte_s=1e-8)
        assert cost.time_for(1000) == pytest.approx(1e-5 + 1e-5)

    def test_zero_bytes_cost_nothing(self):
        cost = CipherCost("AES128", setup_s=1e-5, per_byte_s=1e-8)
        assert cost.time_for(0) == 0.0

    def test_negative_bytes_rejected(self):
        cost = CipherCost("AES128", setup_s=1e-5, per_byte_s=1e-8)
        with pytest.raises(ValueError):
            cost.time_for(-1)

    def test_sigma_proportional_to_mean(self):
        cost = CipherCost("AES128", 1e-5, 1e-8, jitter_fraction=0.1)
        assert cost.sigma_for(1000) == pytest.approx(0.1 * cost.time_for(1000))

    def test_scaled_divides_times(self):
        cost = CipherCost("AES128", 2e-5, 4e-8)
        faster = cost.scaled(2.0)
        assert faster.setup_s == pytest.approx(1e-5)
        assert faster.per_byte_s == pytest.approx(2e-8)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CipherCost("AES128", 1e-5, 1e-8).scaled(0.0)


class TestReferenceCosts:
    def test_ordering_matches_cipher_complexity(self):
        aes128 = reference_cipher_cost("AES128")
        aes256 = reference_cipher_cost("AES256")
        des3 = reference_cipher_cost("3DES")
        assert aes128.per_byte_s < aes256.per_byte_s < des3.per_byte_s

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            reference_cipher_cost("ROT13")

    def test_speed_factor_applied(self):
        slow = reference_cipher_cost("AES128", speed_factor=1.0)
        fast = reference_cipher_cost("AES128", speed_factor=2.0)
        assert fast.per_byte_s == pytest.approx(slow.per_byte_s / 2.0)


class TestMakeCipher:
    @pytest.mark.parametrize("name", sorted(CIPHERS))
    def test_instantiates_each(self, name):
        key_size, _ = CIPHERS[name]
        cipher = make_cipher(name, bytes(key_size))
        block = bytes(cipher.block_size)
        assert len(cipher.encrypt_block(block)) == cipher.block_size

    def test_wrong_key_size(self):
        with pytest.raises(ValueError):
            make_cipher("AES128", bytes(10))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_cipher("DES5", bytes(8))


class TestModelledTimesPinned:
    """T_e invariance: the modelled encryption-time inputs of the delay
    model (Section 4.2.2) must not move when a cipher implementation
    gets faster.  These literals are the committed model; a deliberate
    recalibration must update this test."""

    def test_make_cipher_stays_scalar(self):
        """The calibration path times the byte-oriented reference
        implementation — it must never pick up encrypt_blocks."""
        for name in CIPHERS:
            key_size, _ = CIPHERS[name]
            assert not hasattr(make_cipher(name, bytes(key_size)),
                               "encrypt_blocks")

    def test_reference_costs_pinned(self):
        pins = {
            "AES128": (4.0e-6, 1.8e-8),
            "AES256": (5.0e-6, 2.5e-8),
            "3DES": (6.0e-6, 9.0e-8),
        }
        for name, (setup_s, per_byte_s) in pins.items():
            cost = reference_cipher_cost(name)
            assert cost.setup_s == setup_s
            assert cost.per_byte_s == per_byte_s
            assert cost.jitter_fraction == 0.05

    def test_device_costs_pinned(self):
        from repro.testbed.devices import GALAXY_S2, HTC_AMAZE_4G

        pins = [
            (GALAXY_S2, "3DES", 0.9e-3 * 2.2, 2.0e-6),
            (GALAXY_S2, "AES256", 0.9e-3, 0.68e-6),
            (HTC_AMAZE_4G, "3DES", 1.1e-3 * 2.2, 2.5e-6),
            (HTC_AMAZE_4G, "AES128", 1.1e-3 * 0.85, 0.70e-6),
        ]
        for device, algorithm, setup_s, per_byte_s in pins:
            cost = device.cipher_cost(algorithm)
            assert cost.setup_s == pytest.approx(setup_s, rel=0, abs=0)
            assert cost.per_byte_s == per_byte_s

    def test_mtu_packet_times_pinned(self):
        """The actual T_e numbers fed into eq. 15 for an MTU packet."""
        assert reference_cipher_cost("3DES").time_for(1460) == \
            pytest.approx(6.0e-6 + 9.0e-8 * 1460, rel=0, abs=0)
        from repro.testbed.devices import GALAXY_S2

        assert GALAXY_S2.cipher_cost("3DES").time_for(1460) == \
            pytest.approx(0.9e-3 * 2.2 + 2.0e-6 * 1460, rel=0, abs=0)


class TestMeasurement:
    def test_live_measurement_positive_and_ordered(self):
        aes = measure_cipher_cost("AES128", sizes=(64, 256), repeats=1)
        assert aes.per_byte_s > 0
        assert aes.time_for(256) > aes.time_for(64)

    def test_3des_slower_than_aes_live(self):
        aes = measure_cipher_cost("AES128", sizes=(64, 256), repeats=1)
        des3 = measure_cipher_cost("3DES", sizes=(64, 256), repeats=1)
        assert des3.per_byte_s > aes.per_byte_s
