"""Bit-exactness of the batched kernels against the scalar references."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (
    DecoderKernel,
    PipelinedDecoder,
    QFormat,
    QLlr,
    component_inputs,
    construct_frozen_mask,
    decode,
    decode_batch,
    encode,
    encode_batch,
    f_exact,
    f_minsum,
    g_fn,
    hybrid_decode,
    quantize,
    quantize_batch,
)
from polarsc.vectorized import (
    _F,
    _TILE,
    _ZERO,
    BLOCK_FRAMES,
    _compile,
    _components,
    _f_exact,
    _f_minsum,
    _schedule,
    _State,
    _subtrees,
)
from test_decoder import reference_decode

Q5 = QFormat(5)
# a kernel of each word type, and the frames of its block: the LLR bytes of a float block
WORD_BLOCKS = {
    "float": (DecoderKernel.min_sum(), BLOCK_FRAMES),
    "int8": (DecoderKernel.quantized(Q5, "plain"), 8 * BLOCK_FRAMES),
    "int16": (DecoderKernel.quantized(QFormat(8), "plain"), 4 * BLOCK_FRAMES),
}


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

    @pytest.mark.parametrize(
        "bits",
        [np.array([[256, 0]]), [[-1, 0]], [[0.5, 1]], [[1.5, 0]], [[0, 2]],
         np.full((2, 4), 2, dtype=np.uint8)],
        ids=["256", "-1", "0.5", "1.5", "2", "uint8-2"],
    )
    def test_rejects_non_bits(self, bits):
        with pytest.raises(ValueError):
            encode_batch(bits)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    @pytest.mark.parametrize("frames", [0, 3])
    def test_accepts_bits_of_any_integer_type(self, dtype, frames):
        u = np.random.default_rng(frames).integers(0, 2, (frames, 8)).astype(dtype)
        batch = encode_batch(u)
        assert batch.shape == (frames, 8) and batch.dtype == np.uint8
        for row in range(frames):
            assert np.array_equal(batch[row], encode(u[row].astype(np.uint8)))


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

    @pytest.mark.parametrize("bits", [2, 8, 9, 16, 32, 33, 40, 53, 54, 55, 63, 64])
    def test_wide_formats_saturate_like_scalar(self, bits):
        # from 55 bits float(max_magnitude) rounds up past max_magnitude
        fmt = QFormat(bits)
        top = float(fmt.max_magnitude)
        values = np.array([1e30, 1e12, top, np.nextafter(top, 0), top / 2, 2.5, 0.4, 0.0])
        values = np.concatenate([values, -values])
        batch = quantize_batch(values, fmt)
        for i, v in enumerate(values):
            assert batch[i] == quantize(float(v), fmt).value, v
        assert np.array_equal(quantize_batch(values.reshape(4, -1), fmt), batch.reshape(4, -1))
        assert quantize_batch(np.empty((0, 4)), fmt).shape == (0, 4)

    @pytest.mark.parametrize(
        "bits, dtype",
        [(2, np.int8), (8, np.int8), (9, np.int16), (16, np.int16),
         (17, np.int32), (32, np.int32), (33, np.int64), (64, np.int64)],
    )
    def test_words_take_the_narrowest_type_that_holds_the_format(self, bits, dtype):
        fmt = QFormat(bits)
        for values in (np.array([[1e30, -1e30, 0.4, -0.4]]), np.empty(0), np.float64(-1e30)):
            words = quantize_batch(values, fmt)
            assert words.dtype == dtype and words.shape == np.shape(values)
        assert words == -fmt.max_magnitude

    @pytest.mark.parametrize("bits", [5, 40, 64])
    def test_saturates_a_scaled_value_past_the_float_range_silently(self, bits):
        fmt = QFormat(bits, 1e308)
        values = np.array([10.0, -10.0, 1e-308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = quantize_batch(values, fmt)
        assert batch.tolist() == [quantize(float(v), fmt).value for v in values]
        assert batch[0] == fmt.max_magnitude

    def test_decode_batch_round_trip_at_40_bits(self):
        fmt = QFormat(40)
        rng = np.random.default_rng(40)
        mask = np.array([0, 0, 0, 1, 0, 1, 1, 1] * 2, dtype=np.uint8)
        u = rng.integers(0, 2, (16, 16), dtype=np.uint8) * mask
        llrs = 3e11 * (1.0 - 2.0 * encode_batch(u))
        words = quantize_batch(llrs, fmt)
        assert np.array_equal(decode_batch(words, mask, DecoderKernel.quantized(fmt)), u)


    @pytest.mark.parametrize("bits", [8, 9])
    def test_narrow_words_decode_like_int64_words(self, bits):
        # Q8 words are int8 while the decoder works in int16; Q9 words are int16 in both
        fmt = QFormat(bits, 4.0)
        kernel = DecoderKernel.quantized(fmt)
        mask = construct_frozen_mask(64, 32)
        llrs = np.random.default_rng(bits).normal(scale=24.0, size=(64, 64))
        words = quantize_batch(llrs, fmt)
        assert words.dtype == (np.int8 if bits == 8 else np.int16)
        assert np.abs(words).max() == fmt.max_magnitude  # some words saturate
        wide = decode_batch(words.astype(np.int64), mask, kernel)
        assert np.array_equal(decode_batch(words, mask, kernel), wide)


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
        for shape in ((4,), (2, 2, 4)):
            with pytest.raises(ValueError, match="matrix"):
                decode_batch(np.zeros(shape), [1, 1, 1, 1])

    def test_refuses_words_too_wide_for_int64(self):
        # quantize_batch makes 64-bit words, but a g sum of two would overflow int64
        fmt = QFormat(64)
        words = quantize_batch(np.ones((2, 4)), fmt)
        with pytest.raises(ValueError, match="too wide"):
            decode_batch(words, [0, 1, 1, 1], DecoderKernel.quantized(fmt))


NON_REAL_LLRS = {
    "str": ["1.5", "-2", "0.5", "3"],
    "complex": [1.5 + 1j, -2.0, 0.5, 3.0],
    "bool": [True, False, True, True],
}
LLR_ENTRY_POINTS = {
    "decode_batch": lambda llrs: decode_batch(np.array([llrs]), [0, 1, 1, 1]),
    "decode": lambda llrs: decode(llrs, [0, 1, 1, 1]),
    "quantize_batch": lambda llrs: quantize_batch(llrs, Q5),
    "pipeline_step": lambda llrs: PipelinedDecoder([0, 1, 1, 1]).step(llrs),
    "hybrid_decode": lambda llrs: hybrid_decode(llrs, [0, 1, 1, 1], 2),
}


@pytest.mark.parametrize("entry", LLR_ENTRY_POINTS.values(), ids=LLR_ENTRY_POINTS.keys())
@pytest.mark.parametrize("llrs", NON_REAL_LLRS.values(), ids=NON_REAL_LLRS.keys())
def test_llrs_must_be_integers_or_floats(entry, llrs):
    with pytest.raises(ValueError, match="integers or floats"):
        entry(llrs)


ONE_FRAME_ENTRY_POINTS = {
    "decode": lambda llrs, kernel: decode(llrs, [0, 1, 1, 1], kernel),
    "hybrid_decode": lambda llrs, kernel: hybrid_decode(llrs, [0, 1, 1, 1], 2, kernel),
    "component_inputs": lambda llrs, kernel: component_inputs(llrs, [], 2, kernel),
}
NOT_ONE_D_FRAMES = {
    "float": (3.0, DecoderKernel.min_sum()),
    "row": (np.zeros((1, 4)), DecoderKernel.min_sum()),
    "nested": ([[1.0, 2.0, 3.0, 4.0]], DecoderKernel.min_sum()),
    "word": (QLlr(0, 1, 5), DecoderKernel.quantized(Q5)),
    "nested_words": ([[QLlr(0, 1, 5)] * 4], DecoderKernel.quantized(Q5)),
}


@pytest.mark.parametrize("entry", ONE_FRAME_ENTRY_POINTS.values(), ids=ONE_FRAME_ENTRY_POINTS.keys())
@pytest.mark.parametrize("frame,kernel", NOT_ONE_D_FRAMES.values(), ids=NOT_ONE_D_FRAMES.keys())
def test_one_frame_entry_points_refuse_a_frame_that_is_not_1d(entry, frame, kernel):
    with pytest.raises(ValueError, match=re.escape(f"1-D frame of LLRs, got shape {np.shape(frame)}")):
        entry(frame, kernel)


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
        # full-range words saturate g at every width, including 7 and 15 bits
        # (2*max_magnitude just fits int8 and int16) and 8 and 16 bits (it does not)
        kernel = DecoderKernel.quantized(QFormat(bits), decision)
        m = kernel.qformat.max_magnitude
        rng = np.random.default_rng(bits)
        mask = rng.integers(0, 2, 32, dtype=np.uint8)
        uniform = rng.integers(-m, m + 1, (16, 32))
        extremes = rng.choice([-m, -1, 0, 1, m], (16, 32))
        _assert_rows_match_scalar(np.vstack([uniform, extremes]), mask, kernel)

    @pytest.mark.parametrize(
        "word,frames",
        [(word, k) for word, (_, width) in WORD_BLOCKS.items() for k in (0, 1, width - 1, width + 1, width + _TILE + 3)],
    )
    def test_frame_counts_around_the_block(self, word, frames):
        # rows are drawn from a pool that is checked against the reference, so
        # that the reference decodes each distinct row once
        kernel, _ = WORD_BLOCKS[word]
        rng = np.random.default_rng(frames)
        mask = np.array([0, 0, 1, 1, 0, 1, 1, 1], dtype=np.uint8)
        if kernel.qformat is None:
            spread = rng.normal(scale=2.0, size=(200, 8))
        else:
            m = kernel.qformat.max_magnitude
            spread = rng.integers(-m, m + 1, (200, 8))
        pool = np.vstack([spread, rng.integers(-2, 3, (57, 8))])
        _assert_rows_match_scalar(pool, mask, kernel)
        pick = rng.integers(0, len(pool), frames)
        batch = decode_batch(pool[pick], mask, kernel)
        assert batch.shape == (frames, 8) and batch.dtype == np.uint8 and batch.flags.c_contiguous
        assert np.array_equal(batch, decode_batch(pool, mask, kernel)[pick])

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


def test_a_block_holds_the_llr_bytes_of_a_float_block():
    for kernel, width in WORD_BLOCKS.values():
        assert _State(kernel, 8, 10**6).width == width
    assert _State(DecoderKernel.quantized(Q5), 8, 3).width == 3
    assert _State(DecoderKernel.min_sum(), 8, 0).width == 1


@pytest.mark.parametrize("word,per_position", [("float", 25), ("int8", 4)])
def test_a_block_state_is_the_datapath_alone(word, per_position):
    # per frame and position: 2 level LLRs, 1 multiplier and 1 decision; per
    # frame one flag. f borrows rows of these, so there is no scratch buffer
    kernel, width = WORD_BLOCKS[word]
    n = 64
    state = _State(kernel, n, 10**6)
    assert sum(a.nbytes for a in state.storage) == width * (per_position * n + 1)


def test_a_partial_block_allocates_no_block_sized_temporary():
    # the second block holds 989 of 1024 frames; a copy of its channel LLRs
    # would take 8 * n * 989 bytes more than two full blocks take
    n = 256
    llrs = np.random.default_rng(989).normal(scale=2.0, size=(2 * BLOCK_FRAMES, n))
    mask = construct_frozen_mask(n, n // 2)
    decode_batch(llrs[:1], mask)  # compile the schedule outside the traced calls

    def peak(frames):
        tracemalloc.start()
        try:
            decode_batch(llrs[:frames], mask)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2 * BLOCK_FRAMES - 35) <= peak(2 * BLOCK_FRAMES) + 8 * n * _TILE


# signed zeros, subnormals, and products that underflow to a signed zero
F_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e-160, 0.25, -0.25, 3.0, -3.0]


@pytest.mark.parametrize(
    "scalar,batched", [(f_minsum, _f_minsum), (f_exact, _f_exact)], ids=["minsum", "exact"]
)
def test_scalar_and_batched_f_agree_bit_for_bit(scalar, batched):
    a, b = (np.array(v) for v in zip(*itertools.product(F_EDGE_VALUES, repeat=2)))
    out, x, y = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    batched(a, b, out, x, y)
    want = np.array([scalar(float(p), float(q)) for p, q in zip(a, b)])
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


def _tie_heavy(rng, frames, n, kernel=None):
    """Small floats with signed zeros, or for a quantized kernel integer words that include +/-max."""
    if kernel is not None and kernel.arithmetic == "quantized":
        m = kernel.qformat.max_magnitude
        return rng.choice([-m, -2, -1, 0, 0, 1, 2, m], (frames, n))
    return rng.choice([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.0], (frames, n))


# 5-bit words are carried in int8 and 9-bit words in int16
WORD_KERNELS = [DecoderKernel.quantized(QFormat(bits), d) for bits in (5, 9) for d in ("shortcut", "plain")]


class TestPrunedSchedule:
    """Frozen subtrees compile to one zero step; decisions stay those of the full tree."""

    @pytest.mark.parametrize("kernel", KERNELS + WORD_KERNELS, ids=str)
    @pytest.mark.parametrize("n", [2**e for e in range(1, 9)])
    def test_structural_masks(self, kernel, n):
        rng = np.random.default_rng(n)
        half = np.r_[np.zeros(n // 2), np.ones(n // 2)].astype(np.uint8)
        llrs = _tie_heavy(rng, 8, n, kernel)
        for mask in (np.zeros(n), np.ones(n), half, 1 - half):
            _assert_rows_match_scalar(llrs, mask, kernel)

    @pytest.mark.parametrize("kernel", KERNELS + WORD_KERNELS, ids=str)
    def test_frozen_runs_at_every_alignment(self, kernel):
        rng = np.random.default_rng(15)
        n = 64
        llrs = _tie_heavy(rng, 3, n, kernel)
        for length in (2, 4, 8, 16, 32, 64):
            for start in range(n - length + 1):
                mask = np.ones(n, dtype=np.uint8)
                mask[start : start + length] = 0
                _assert_rows_match_scalar(llrs, mask, kernel)

    @pytest.mark.parametrize("n,k,ops", [(1024, 512, 1267), (1024, 853, 1894), (256, 128, 335)])
    def test_benchmark_code_op_counts(self, n, k, ops):
        mask = construct_frozen_mask(n, k)
        pruned = _compile(mask, n)
        assert len(pruned) == ops
        assert len(_schedule(b"\x01" * n)) == 2 * n - 3
        for kind, h, off, *_ in pruned:
            if kind == _F:  # the child it feeds is not frozen
                assert mask[off : off + h].any()
            if kind == _ZERO:
                assert not mask[off : off + 2 * h].any()

    def test_subtrees_of_a_pruned_schedule(self):
        rng = np.random.default_rng(16)
        masks = [construct_frozen_mask(256, 128), np.r_[np.zeros(160), np.ones(96)].astype(np.uint8)]
        masks += [(rng.random(256) < p).astype(np.uint8) for p in (0.1, 0.5, 0.9)]
        for mask in masks:
            ops = _compile(mask, 256)
            for m in (2, 4, 16, 64, 128, 256):
                # a length-m node is in the pruned tree unless a frozen ancestor
                # replaced it, in which case its parent is frozen too
                want = [o for o in range(0, 256, m) if m == 256 or mask[o - o % (2 * m) :][: 2 * m].any()]
                got = list(_subtrees(ops, m))
                assert [off for off, _, _ in got] == want
                for off, start, stop in got:
                    inside = [op for op in ops if off <= op[2] < off + m and 2 * op[1] <= m]
                    assert list(ops[start:stop]) == inside


def _reference_node_llrs(llrs, u, off, m):
    """Min-sum input LLRs of the length-m node at ``off``, from the decisions before it."""
    ll, start = list(llrs), 0
    while len(ll) > m:
        h = len(ll) // 2
        pairs = [(ll[2 * j], ll[2 * j + 1]) for j in range(h)]
        if off < start + h:
            ll = [f_minsum(a, b) for a, b in pairs]
        else:
            v = encode(u[start : start + h])
            ll = [g_fn(a, b, int(v[j])) for j, (a, b) in enumerate(pairs)]
            start += h
    return ll


@pytest.mark.parametrize("prefix", [20, 32])
def test_views_on_a_long_frozen_prefix(prefix):
    # the frozen prefix is longer than N/2 and than every N' < N, so the
    # pruned schedule starts with zero steps that span several components
    n = 32
    mask = np.r_[np.zeros(prefix), np.ones(n - prefix)].astype(np.uint8)
    rng = np.random.default_rng(prefix)
    frames = list(_tie_heavy(rng, 6, n)) + list(rng.normal(scale=2.0, size=(6, n)))
    want = [reference_decode(frame, mask)[0] for frame in frames]
    for stages in (0, 1, 2):
        pipe = PipelinedDecoder(mask, stages=stages)
        outputs = []
        for frame in frames:
            out = pipe.step(frame)
            if out is not None:
                outputs.append(out)
            for bank in pipe.banks:
                if bank is not None:
                    assert bank.partial_sums == list(encode(bank.first_half))
        outputs += pipe.drain()
        assert all(np.array_equal(a, b) for a, b in zip(outputs, want, strict=True))
    for frame, u in zip(frames, want):
        for n_prime in (2, 4, 8, 16, 32):
            assert np.array_equal(hybrid_decode(frame, mask, n_prime), u)
            for off in range(0, n, n_prime):
                got = component_inputs(frame, u[:off], n_prime)
                assert got == _reference_node_llrs(frame, u, off, n_prime)


@pytest.mark.parametrize("kernel", WORD_KERNELS, ids=str)
@pytest.mark.parametrize("n", [4, 8, 32])
def test_one_frame_models_on_tie_heavy_words(kernel, n):
    # words from {+/-max, +/-2, +/-1, 0}: magnitude ties, zero and saturated
    # sums, on masks with a frozen run of each length at many alignments
    rng = np.random.default_rng(n)
    frames = [[QLlr.from_value(int(v), kernel.qformat.bits) for v in row] for row in _tie_heavy(rng, 4, n, kernel)]
    masks = [construct_frozen_mask(n, n // 2)]
    for length in sorted({1, 2, n // 4, n // 2, n}):
        for start in range(0, n - length + 1, max(1, n // 8)):
            mask = np.ones(n, dtype=np.uint8)
            mask[start : start + length] = 0
            masks.append(mask)
    for mask in masks:
        want = [reference_decode(frame, mask, kernel)[0] for frame in frames]
        for frame, u in zip(frames, want):
            for n_prime in (2**e for e in range(1, n.bit_length())):
                assert np.array_equal(hybrid_decode(frame, mask, n_prime, kernel), u), (mask, n_prime)
        for stages in (0, 1, 2):
            pipe = PipelinedDecoder(mask, stages=stages, kernel=kernel)
            outputs = [out for out in map(pipe.step, frames) if out is not None] + pipe.drain()
            assert all(np.array_equal(a, b) for a, b in zip(outputs, want, strict=True)), (mask, stages)


def _poisoned(kernel, n, frames):
    """A state of ``frames`` frames whose every buffer holds NaN, the word type's minimum, or True."""
    state = _State(kernel, n, frames)
    for a in state.storage:
        a.fill(True if a.dtype == bool else np.nan if a.dtype.kind == "f" else np.iinfo(a.dtype).min)
    return state


@pytest.mark.parametrize("kernel", KERNELS + WORD_KERNELS, ids=str)
@pytest.mark.parametrize("n", [4, 32, 256])
def test_a_poisoned_state_decodes_as_a_clean_one(kernel, n):
    # no step reads a buffer row that no step of this decode wrote: f borrows
    # rows of mult and llr, a leaf reads a frozen decision as the False that
    # load left, and the front end's decide overwrites a component's rows whole
    rng = np.random.default_rng(n + 1)
    llrs = _tie_heavy(rng, 4, n, kernel)
    if kernel.arithmetic == "quantized":
        frames = [[QLlr.from_value(int(v), kernel.qformat.bits) for v in row] for row in llrs]
    else:
        llrs = np.vstack([llrs, rng.normal(scale=2.0, size=(4, n))])
        frames = list(llrs)
    masks = [construct_frozen_mask(n, n // 2), np.r_[np.zeros(3 * n // 4), np.ones(n // 4)].astype(np.uint8)]
    masks.append((rng.random(n) < 0.5).astype(np.uint8))
    for mask in masks:
        want = np.array([reference_decode(frame, mask, kernel)[0] for frame in frames])
        state = _poisoned(kernel, n, len(llrs))
        state.load(llrs)
        state.run(_compile(mask, n))
        assert np.array_equal(state.decisions(), want), mask
        for n_prime in sorted({2, max(2, n // 4), n}):
            state = _poisoned(kernel, n, len(llrs))
            state.load(llrs)
            for off, lam in _components(state, n_prime):
                state.decide(off, decode_batch(lam, mask[off : off + n_prime], kernel))
            assert np.array_equal(state.decisions(), want), (mask, n_prime)
        state = _poisoned(kernel, n, len(llrs))
        state.load(llrs)
        for half in PipelinedDecoder(mask, kernel=kernel)._halves:
            state.run(half)
        assert np.array_equal(state.decisions(), want), mask


# 17- and 33-bit words are carried in int32 and int64 states
WIDE_WORD_KERNELS = [DecoderKernel.quantized(QFormat(bits), d) for bits in (17, 33) for d in ("shortcut", "plain")]


@pytest.mark.parametrize("kernel", WIDE_WORD_KERNELS, ids=str)
def test_one_frame_models_and_a_poisoned_state_on_wide_words(kernel):
    # the decisions of run and of decide at the int32 and int64 word types
    for n in (4, 8):
        test_one_frame_models_on_tie_heavy_words(kernel, n)
    for n in (4, 32, 256):
        test_a_poisoned_state_decodes_as_a_clean_one(kernel, n)


@pytest.mark.parametrize("kernel", KERNELS[:1] + WORD_KERNELS + WIDE_WORD_KERNELS, ids=str)
def test_decide_writes_the_multipliers_of_the_re_encoded_bits(kernel):
    # a uint8 bit d would make 1 - 2d wrap to 255, which reads as a positive multiplier
    n, m, frames = 16, 8, 5
    bits = np.random.default_rng(m).integers(0, 2, (frames, m), dtype=np.uint8)
    state = _poisoned(kernel, n, frames)
    state.load(np.zeros((frames, n), dtype=np.float64 if kernel.qformat is None else np.int64))
    state.decide(m, bits)
    assert set(np.unique(state.mult[m : 2 * m])) == {-1, 1}
    assert np.array_equal(state.node_bits(m, m), encode_batch(bits))
    assert np.array_equal(state.decisions()[:, m:], bits)


@pytest.mark.parametrize("kernel", KERNELS + WORD_KERNELS, ids=str)
def test_a_run_allocates_less_than_two_rows(kernel):
    # every step writes into the state's rows; a row of a full block is 8 KB,
    # 1024 floats or 8192 int8 words, so one block-wide temporary takes as much
    n = 1024
    ops = _compile(construct_frozen_mask(n, n // 2), n)
    state = _State(kernel, n, 10**6)
    rng = np.random.default_rng(1024)
    if kernel.qformat is None:
        block = rng.normal(scale=2.0, size=(state.width, n))
    else:
        m = kernel.qformat.max_magnitude
        block = rng.integers(-m, m + 1, (state.width, n), dtype=state.storage[0].dtype)
    state.load(block)
    state.run(ops)  # numpy keeps a little memory the first time it runs a loop
    state.load(block)
    tracemalloc.start()
    try:
        state.run(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
