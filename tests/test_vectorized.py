"""Bit-exactness of the batched kernels against the scalar references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (
    DecoderKernel,
    QFormat,
    QLlr,
    decode_batch,
    encode,
    encode_batch,
    quantize,
    quantize_batch,
)
from polarsc.vectorized import BLOCK_FRAMES
from test_decoder import reference_decode

Q5 = QFormat(5)


class TestEncodeBatch:
    @given(n_exp=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_match_scalar(self, n_exp, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 2, (8, 2**n_exp), dtype=np.uint8)
        batch = encode_batch(u)
        for row in range(len(u)):
            assert np.array_equal(batch[row], encode(u[row]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            encode_batch(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_batch(np.zeros((4, 3), dtype=np.uint8))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            encode_batch(np.full((2, 4), 2, dtype=np.uint8))


class TestQuantizeBatch:
    def test_matches_scalar_on_tricky_values(self):
        values = np.array([0.0, -0.0, 2.5, -2.5, 3.49, -100.0, 15.5, 0.49, -0.5])
        batch = quantize_batch(values, Q5)
        for i, v in enumerate(values):
            assert batch[i] == quantize(float(v), Q5).value

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.25, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_random(self, seed, scale):
        fmt = QFormat(5, scale)
        values = np.random.default_rng(seed).normal(scale=8.0, size=64)
        batch = quantize_batch(values, fmt)
        for i, v in enumerate(values):
            assert batch[i] == quantize(float(v), fmt).value

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            quantize_batch(np.array([[1.0, bad]]), Q5)

    @pytest.mark.parametrize("bits", [16, 32, 33, 40, 55, 63, 64])
    def test_wide_formats_saturate_like_scalar(self, bits):
        # from 54 bits float(max_magnitude) rounds up past max_magnitude
        fmt = QFormat(bits)
        top = float(fmt.max_magnitude)
        values = np.array([1e30, 1e12, top, np.nextafter(top, 0), top / 2, 2.5, 0.4, 0.0])
        values = np.concatenate([values, -values])
        batch = quantize_batch(values, fmt)
        for i, v in enumerate(values):
            assert batch[i] == quantize(float(v), fmt).value, v

    def test_decode_batch_round_trip_at_40_bits(self):
        fmt = QFormat(40)
        rng = np.random.default_rng(40)
        mask = np.array([0, 0, 0, 1, 0, 1, 1, 1] * 2, dtype=np.uint8)
        u = rng.integers(0, 2, (16, 16), dtype=np.uint8) * mask
        llrs = 3e11 * (1.0 - 2.0 * encode_batch(u))
        words = quantize_batch(llrs, fmt)
        assert np.array_equal(decode_batch(words, mask, DecoderKernel.quantized(fmt)), u)


def _scalar_quantized(llr_row, mask, kernel):
    words = [quantize(float(v), kernel.qformat) for v in llr_row]
    return reference_decode(words, mask, kernel)[0]


class TestDecodeBatch:
    @pytest.mark.parametrize("arithmetic", ["minsum", "exact"])
    @pytest.mark.parametrize("decision", ["shortcut", "plain"])
    def test_float_kernels_match_scalar(self, arithmetic, decision):
        rng = np.random.default_rng(5)
        kernel = DecoderKernel(arithmetic, decision)
        for n in (2, 4, 16, 64):
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            llrs = rng.normal(scale=3.0, size=(12, n))
            batch = decode_batch(llrs, mask, kernel)
            for row in range(len(llrs)):
                assert np.array_equal(batch[row], reference_decode(llrs[row], mask, kernel)[0])

    def test_integer_llrs_exercise_ties(self):
        # equal magnitudes hit the shortcut's tie branch; zero hits sign rules
        rng = np.random.default_rng(6)
        for n in (4, 16, 64):
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            llrs = rng.integers(-3, 4, (64, n)).astype(float)
            batch = decode_batch(llrs, mask)
            for row in range(len(llrs)):
                assert np.array_equal(batch[row], reference_decode(llrs[row], mask)[0])

    def test_quantized_kernel_matches_scalar(self):
        rng = np.random.default_rng(7)
        kernel = DecoderKernel.quantized(Q5)
        for n in (4, 16, 64):
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            llrs = rng.normal(scale=6.0, size=(16, n))
            batch = decode_batch(quantize_batch(llrs, Q5), mask, kernel)
            for row in range(len(llrs)):
                assert np.array_equal(batch[row], _scalar_quantized(llrs[row], mask, kernel))

    def test_quantized_plain_decision(self):
        rng = np.random.default_rng(8)
        kernel = DecoderKernel.quantized(Q5, decision="plain")
        mask = rng.integers(0, 2, 32, dtype=np.uint8)
        llrs = rng.normal(scale=6.0, size=(16, 32))
        batch = decode_batch(quantize_batch(llrs, Q5), mask, kernel)
        for row in range(len(llrs)):
            assert np.array_equal(batch[row], _scalar_quantized(llrs[row], mask, kernel))

    def test_quantized_wants_integers(self):
        with pytest.raises(ValueError):
            decode_batch(np.zeros((2, 4)), [1, 1, 1, 1], DecoderKernel.quantized(Q5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_llrs(self, bad):
        llrs = np.ones((3, 4))
        llrs[1, 2] = bad
        for kernel in (DecoderKernel.min_sum(), DecoderKernel.exact()):
            with pytest.raises(ValueError):
                decode_batch(llrs, [0, 1, 1, 1], kernel)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_rejects_non_bit_mask(self, bad):
        with pytest.raises(ValueError):
            decode_batch(np.ones((2, 4)), [0, 1, bad, 1])

    @pytest.mark.parametrize("bad", [16, -16, 2**15])
    def test_rejects_words_out_of_range(self, bad):
        words = np.ones((2, 4), dtype=np.int32)
        words[0, 3] = bad
        with pytest.raises(ValueError):
            decode_batch(words, [0, 1, 1, 1], DecoderKernel.quantized(Q5))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            decode_batch(np.zeros((2, 3)), [1, 1, 1])
        with pytest.raises(ValueError):
            decode_batch(np.zeros((2, 4)), [1, 1])


KERNELS = [
    DecoderKernel(arithmetic, decision)
    for arithmetic in ("minsum", "exact")
    for decision in ("shortcut", "plain")
]


def _assert_rows_match_scalar(llrs, mask, kernel):
    batch = decode_batch(llrs, mask, kernel)
    assert batch.shape == llrs.shape and batch.dtype == np.uint8
    for row in range(len(llrs)):
        if kernel.arithmetic == "quantized":
            scalar_in = [QLlr.from_value(int(v), kernel.qformat.bits) for v in llrs[row]]
        else:
            scalar_in = llrs[row]
        assert np.array_equal(batch[row], reference_decode(scalar_in, mask, kernel)[0]), row


class TestScheduleEquivalence:
    """decode_batch against the reference decoder on inputs that stress each step."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    def test_tie_and_zero_heavy_integer_llrs(self, kernel):
        rng = np.random.default_rng(11)
        for n in (2, 8, 32, 128):
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            llrs = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.0], (48, n))
            _assert_rows_match_scalar(llrs, mask, kernel)

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    def test_products_that_underflow(self, kernel):
        # |a*b| falls below the smallest subnormal, so a*b is a signed zero
        rng = np.random.default_rng(12)
        mask = rng.integers(0, 2, 64, dtype=np.uint8)
        llrs = rng.normal(size=(32, 64)) * 1e-160 * rng.choice([1e-8, 1.0, 1e8], (32, 64))
        _assert_rows_match_scalar(llrs, mask, kernel)

    @pytest.mark.parametrize("decision", ["shortcut", "plain"])
    def test_exact_arithmetic_at_n256(self, decision):
        # the log-domain correction returns a tiny negative magnitude in a few
        # of these 128 rows; a sign-only rule (copysign) decides them wrongly
        rng = np.random.default_rng(0)
        mask = rng.integers(0, 2, 256, dtype=np.uint8)
        llrs = rng.normal(scale=3.0, size=(128, 256))
        _assert_rows_match_scalar(llrs, mask, DecoderKernel.exact(decision))

    @pytest.mark.parametrize("bits", range(2, 17))
    @pytest.mark.parametrize("decision", ["shortcut", "plain"])
    def test_word_widths_across_int16(self, bits, decision):
        # full-range words saturate g at every width, including 15 bits
        # (2*max_magnitude just fits int16) and 16 bits (it does not)
        kernel = DecoderKernel.quantized(QFormat(bits), decision)
        m = kernel.qformat.max_magnitude
        rng = np.random.default_rng(bits)
        mask = rng.integers(0, 2, 32, dtype=np.uint8)
        uniform = rng.integers(-m, m + 1, (16, 32))
        extremes = rng.choice([-m, -1, 0, 1, m], (16, 32))
        _assert_rows_match_scalar(np.vstack([uniform, extremes]), mask, kernel)

    @pytest.mark.parametrize("frames", [0, 1, BLOCK_FRAMES - 1, BLOCK_FRAMES + 1])
    def test_frame_counts_around_the_block(self, frames):
        rng = np.random.default_rng(frames)
        mask = np.array([0, 0, 1, 1, 0, 1, 1, 1], dtype=np.uint8)
        llrs = rng.normal(scale=2.0, size=(frames, 8))
        _assert_rows_match_scalar(llrs, mask, DecoderKernel.min_sum())
        words = quantize_batch(llrs, Q5)
        _assert_rows_match_scalar(words, mask, DecoderKernel.quantized(Q5, "plain"))

    @pytest.mark.parametrize("kernel", KERNELS + [DecoderKernel.quantized(Q5)], ids=str)
    def test_all_frozen_and_all_data_masks(self, kernel):
        rng = np.random.default_rng(14)
        llrs = rng.normal(scale=4.0, size=(16, 64))
        if kernel.arithmetic == "quantized":
            llrs = quantize_batch(llrs, Q5)
        frozen = np.zeros(64, dtype=np.uint8)
        assert not decode_batch(llrs, frozen, kernel).any()
        _assert_rows_match_scalar(llrs, frozen, kernel)
        _assert_rows_match_scalar(llrs, np.ones(64, dtype=np.uint8), kernel)
