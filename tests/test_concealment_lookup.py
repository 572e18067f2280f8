"""Reconstruction by lookup == decode-every-frame, bit for bit.

``conceal_decode`` serves clean decodes from a per-bitstream cache and
``quality`` scores them from a per-clip distortion table.  These
differentials pin both against :mod:`repro.video.oracle` (the
decode-every-frame loop and the float64-mean MSE) on QCIF clips, cold
and warm, under both concealment modes.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (CodecConfig, SceneConfig, Sequence420,
                         encode_sequence, generate_clip)
from repro.video import concealment
from repro.video.concealment import (CONCEALMENT_MODES, ConcealedSequence,
                                     conceal_decode)
from repro.video.oracle import (oracle_conceal_decode, oracle_mse,
                                oracle_scores)
from repro.video.quality import frame_mses, mse, sequence_mos, sequence_psnr

FRAMES = 24
GOP = 6
QCIF = SceneConfig(width=176, height=144)


@pytest.fixture(scope="module")
def streams():
    built = {}
    for seed, motion in enumerate(("slow", "fast")):
        clip = generate_clip(motion, FRAMES, scene=QCIF, seed=seed + 11)
        built[motion] = (clip, encode_sequence(clip,
                                               CodecConfig(gop_size=GOP)))
    return built


def _random_mask(loss_and_seed):
    loss, seed = loss_and_seed
    draws = np.random.default_rng(seed).random(FRAMES)
    return frozenset(i for i in range(FRAMES) if draws[i] >= loss)


ALL = frozenset(range(FRAMES))
masks = st.one_of(
    st.just(frozenset()),
    st.just(ALL),
    st.integers(0, FRAMES // GOP - 1).map(lambda g: ALL - {g * GOP}),
    st.just(ALL - set(range(GOP))),
    st.tuples(st.floats(0.05, 0.30), st.integers(0, 2 ** 32 - 1)).map(
        _random_mask),
)


def _assert_same_display(result, oracle):
    assert result.frames == oracle.frames
    assert len(result.sequence) == len(oracle.sequence)
    for got, want in zip(result.sequence, oracle.sequence):
        assert np.array_equal(got.y, want.y)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)


class TestLookupEqualsDecode:
    @settings(max_examples=40, deadline=None)
    @given(mask=masks, mode=st.sampled_from(CONCEALMENT_MODES),
           motion=st.sampled_from(("slow", "fast")))
    def test_cold_and_warm_match_the_oracle(self, streams, mask, mode,
                                            motion):
        clip, bitstream = streams[motion]
        oracle = oracle_conceal_decode(bitstream, mask, mode)
        want = oracle_scores(clip, oracle.sequence)
        # A shallow copy is a new object: its cache entry starts cold.
        fresh = dataclasses.replace(bitstream)
        for stream in (fresh, fresh, bitstream):
            result = conceal_decode(stream, mask, mode=mode)
            _assert_same_display(result, oracle)
            got = (sequence_psnr(clip, result.sequence),
                   sequence_mos(clip, result.sequence))
            assert got == want
            # Memoized second read of the same pair.
            assert (sequence_psnr(clip, result.sequence),
                    sequence_mos(clip, result.sequence)) == want

    @settings(max_examples=20, deadline=None)
    @given(mask=masks, mode=st.sampled_from(CONCEALMENT_MODES))
    def test_per_frame_mses_match_the_oracle(self, streams, mask, mode):
        clip, bitstream = streams["fast"]
        result = conceal_decode(bitstream, mask, mode=mode)
        want = tuple(oracle_mse(r.y, d.y) for r, d in zip(
            clip, oracle_conceal_decode(bitstream, mask, mode).sequence))
        assert frame_mses(clip, result.sequence) == want
        plain = Sequence420(list(result.sequence), fps=clip.fps)
        assert frame_mses(clip, plain) == want


class TestMse:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 48), st.integers(1, 48)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_equal_on_random_planes(self, shape, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        b = rng.integers(0, 256, shape, dtype=np.uint8)
        assert mse(a, b) == oracle_mse(a, b)

    def test_bit_equal_at_the_extremes(self):
        zeros = np.zeros((288, 352), dtype=np.uint8)
        full = np.full((288, 352), 255, dtype=np.uint8)
        assert mse(zeros, full) == oracle_mse(zeros, full) == 255.0 ** 2
        assert mse(full, zeros) == oracle_mse(full, zeros)
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, (288, 352), dtype=np.uint8)
        assert mse(a, full) == oracle_mse(a, full)

    def test_does_not_touch_its_inputs(self):
        a = np.full((4, 4), 9, dtype=np.uint8)
        b = np.full((4, 4), 2, dtype=np.uint8)
        mse(a, b)
        assert (a == 9).all() and (b == 2).all()


class TestSharedReadOnlyFrames:
    @pytest.mark.parametrize("mode", CONCEALMENT_MODES)
    def test_writing_a_displayed_frame_raises(self, streams, mode):
        _clip, bitstream = streams["slow"]
        # Blank GOP 0, decoded GOP 1, frozen tail, drift under best effort.
        mask = set(range(GOP, FRAMES)) - {2 * GOP + 3}
        result = conceal_decode(bitstream, mask, mode=mode)
        for frame in result.sequence:
            for plane in (frame.y, frame.u, frame.v):
                with pytest.raises(ValueError):
                    plane[0, 0] = 1
        editable = result.sequence[0].copy()
        editable.y[0, 0] = 1

    def test_frozen_frames_share_the_shown_picture(self, streams):
        _clip, bitstream = streams["slow"]
        mask = ALL - {4}
        result = conceal_decode(bitstream, mask)
        assert result.sequence[5] is result.sequence[3]
        again = conceal_decode(bitstream, ALL)
        assert again.sequence[3] is result.sequence[3]

    def test_sources_name_what_each_frame_shows(self, streams):
        _clip, bitstream = streams["slow"]
        result = conceal_decode(bitstream, ALL - set(range(GOP)) - {GOP + 2})
        assert result.sequence.sources[:GOP + 4] == (
            (concealment.BLANK,) * GOP + (GOP, GOP + 1, GOP + 1, GOP + 1))
        best = conceal_decode(bitstream, ALL - {0}, mode="best_effort")
        assert best.sequence.sources[:2] == (concealment.BLANK, None)


class TestCacheLifetime:
    def test_entry_dies_with_its_bitstream(self, streams):
        _clip, bitstream = streams["slow"]
        fresh = dataclasses.replace(bitstream)
        conceal_decode(fresh, ALL)
        key = id(fresh)
        assert key in concealment._CLEAN
        del fresh
        gc.collect()
        assert key not in concealment._CLEAN

    def test_best_effort_decodes_only_what_it_shows(self, streams,
                                                    monkeypatch):
        """All I-frames lost: no clean chain is forced; every decode
        is a frame the eavesdropper actually shows."""
        _clip, bitstream = streams["fast"]
        fresh = dataclasses.replace(bitstream)
        calls = []
        original = concealment.Decoder.decode_frame
        monkeypatch.setattr(concealment.Decoder, "decode_frame",
                            lambda self, f: calls.append(f.index)
                            or original(self, f))
        mask = {i for i in range(FRAMES) if i % GOP}
        conceal_decode(fresh, mask, mode="best_effort")
        assert sorted(calls) == sorted(mask)


class TestThreads:
    def test_racing_threads_share_one_entry_and_match_the_oracle(
            self, streams):
        """Threads filling one cold entry may decode a frame twice but
        must never see a wrong picture, score or second entry."""
        clip, bitstream = streams["fast"]
        fresh = dataclasses.replace(bitstream)
        jobs = [(frozenset(range(FRAMES)) - {i, i + 7}, mode)
                for i in range(8) for mode in CONCEALMENT_MODES]
        want = {job: oracle_scores(clip, oracle_conceal_decode(
            bitstream, job[0], job[1]).sequence) for job in jobs}
        got, entries, errors = {}, set(), []
        barrier = threading.Barrier(len(jobs))

        def work(job):
            try:
                barrier.wait(timeout=30)
                result = conceal_decode(fresh, job[0], mode=job[1])
                entries.add(id(result.sequence._clean))
                got[job] = (sequence_psnr(clip, result.sequence),
                            sequence_mos(clip, result.sequence))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(job,))
                       for job in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == want
        assert len(entries) == 1


class TestBFrames:
    def test_b_stream_keeps_its_own_path(self, monkeypatch):
        clip = generate_clip("slow", 12, scene=QCIF, seed=3)
        bitstream = encode_sequence(clip, CodecConfig(gop_size=6,
                                                      b_frames=2))
        seen = []
        original = concealment._conceal_decode_b
        monkeypatch.setattr(concealment, "_conceal_decode_b",
                            lambda *args: seen.append(args[3])
                            or original(*args))
        for mode in CONCEALMENT_MODES:
            result = conceal_decode(bitstream, set(range(12)), mode=mode)
            assert not isinstance(result.sequence, ConcealedSequence)
        assert seen == list(CONCEALMENT_MODES)
        assert id(bitstream) not in concealment._CLEAN
