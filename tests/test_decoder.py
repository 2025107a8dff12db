"""Tests for scalar SC decoding against hand-unrolled forms and roundtrips."""

import itertools
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (
    DecoderKernel,
    QFormat,
    QLlr,
    construct_frozen_mask,
    decide_even_simplified,
    decide_odd,
    decode,
    encode,
    f_exact,
    f_minsum,
    g_fn,
    qf_minsum,
    qg_fn,
    quantize,
    sign_bit,
)

Q5 = QFormat(5)


def unrolled4(llrs, mask, shortcut):
    """Length-4 decisions written out longhand from the two-level trellis."""
    l0, l1, l2, l3 = llrs
    a0, a1, a2, a3 = mask

    def odd(lam1, lam2, u_even, a):
        if a == 0:
            return 0
        if shortcut:
            if abs(lam2) >= abs(lam1):
                return sign_bit(lam2)
            return sign_bit(lam1) ^ u_even
        return sign_bit(g_fn(lam1, lam2, u_even))

    u0 = sign_bit(f_minsum(f_minsum(l0, l1), f_minsum(l2, l3))) * a0
    u1 = odd(f_minsum(l0, l1), f_minsum(l2, l3), u0, a1)
    u2 = sign_bit(f_minsum(g_fn(l0, l1, u0 ^ u1), g_fn(l2, l3, u1))) * a2
    u3 = odd(g_fn(l0, l1, u0 ^ u1), g_fn(l2, l3, u1), u2, a3)
    return [u0, u1, u2, u3]


def reference_decode(llrs, mask, kernel=None, clip=None):
    """
    Independent loop-based SC decode on the scalar arithmetic of polarsc.llr.

    Takes floats for float kernels and QLlr words for the quantized kernel;
    partial sums come from ``encode``. Also reports the largest variable-node
    output magnitude seen, which is what a saturating fixed-point datapath
    would clip; ``clip`` saturates float variable-node outputs.
    """
    kernel = kernel or DecoderKernel.min_sum()
    if kernel.arithmetic == "quantized":
        f, g, sgn, mag = qf_minsum, qg_fn, attrgetter("sign"), attrgetter("magnitude")
    else:
        f = f_minsum if kernel.arithmetic == "minsum" else f_exact
        g, sgn, mag = g_fn, sign_bit, abs
    shortcut = kernel.decision == "shortcut"
    peak = 0.0

    def rec(ll, a):
        nonlocal peak
        if len(ll) == 2:
            lam1, lam2 = ll
            u0 = sgn(f(lam1, lam2)) & a[0]
            if a[1] == 0:
                u1 = 0
            elif not shortcut:
                u1 = sgn(g(lam1, lam2, u0))
            elif mag(lam2) >= mag(lam1):
                u1 = sgn(lam2)
            else:
                u1 = sgn(lam1) ^ u0
            return [u0, u1]
        half = len(ll) // 2
        left = rec([f(ll[2 * j], ll[2 * j + 1]) for j in range(half)], a[:half])
        v = encode(left)
        right_in = []
        for j in range(half):
            value = g(ll[2 * j], ll[2 * j + 1], int(v[j]))
            peak = max(peak, mag(value))
            if clip is not None:
                value = max(-clip, min(clip, value))
            right_in.append(value)
        return left + rec(right_in, a[half:])

    out = rec(list(llrs), [int(b) for b in mask])
    return np.array(out, dtype=np.uint8), peak


def to_words(llrs, fmt=Q5):
    return [quantize(float(v), fmt) for v in llrs]


class TestBaseCase:
    def test_two_confident_positives(self):
        assert np.array_equal(decode([5.0, 5.0], [1, 1]), [0, 0])

    def test_all_frozen_forces_zeros(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 16, 128, 1024):
            llrs = rng.normal(size=n)
            assert not decode(llrs, [0] * n).any()

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            decode([1.0, -1.0], [1])

    def test_rejects_non_bit_mask(self):
        with pytest.raises(ValueError):
            decode([1.0, -1.0], [0.5, 1])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            decode([1.0, -1.0, 2.0], [1, 1, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decode([np.inf, 1.0], [1, 1])

    def test_quantized_requires_matching_words(self):
        with pytest.raises(ValueError):
            decode([1.0, 2.0], [1, 1], DecoderKernel.quantized(Q5))


class TestKernelValidation:
    def test_unknown_arithmetic(self):
        with pytest.raises(ValueError):
            DecoderKernel("fancy")

    def test_unknown_decision(self):
        with pytest.raises(ValueError):
            DecoderKernel("minsum", "sloppy")

    def test_quantized_needs_format(self):
        with pytest.raises(ValueError):
            DecoderKernel("quantized")

    @pytest.mark.parametrize("arithmetic", ["minsum", "exact"])
    def test_float_arithmetic_takes_no_format(self, arithmetic):
        # a format the float kernels would ignore is refused, not dropped
        with pytest.raises(ValueError, match="QFormat"):
            DecoderKernel(arithmetic, "shortcut", QFormat(5))


    @pytest.mark.parametrize("decision", ["shortcut", "plain"])
    def test_refuses_words_too_wide_for_the_decode_state(self, decision):
        # a g sum of two 64-bit words overflows int64; one of two 63-bit words does not
        with pytest.raises(ValueError, match="too wide for int64"):
            DecoderKernel.quantized(QFormat(64), decision)
        assert DecoderKernel.quantized(QFormat(63), decision).qformat.bits == 63


class TestUnrolledOracle:
    def test_spec_example_instance(self):
        llrs = [-3.0, 1.0, 2.0, -4.0]
        got = decode(llrs, [1, 1, 1, 1])
        assert np.array_equal(got, unrolled4(llrs, [1, 1, 1, 1], shortcut=True))

    def test_shortcut_matches_everywhere_on_subgrid(self):
        # full 9^4 x 16 sweep lives in the acceptance suite
        kernel = DecoderKernel.min_sum()
        grid = [-4, -2, -1, 0, 1, 3]
        for llrs in itertools.product(grid, repeat=4):
            llrs = [float(v) for v in llrs]
            for mask in ([1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]):
                want = unrolled4(llrs, mask, shortcut=True)
                assert np.array_equal(decode(llrs, mask, kernel), want)

    def test_plain_matches_plain_everywhere_on_subgrid(self):
        kernel = DecoderKernel.min_sum(decision="plain")
        grid = [-3, -1, 0, 2, 4]
        for llrs in itertools.product(grid, repeat=4):
            llrs = [float(v) for v in llrs]
            want = unrolled4(llrs, [1, 1, 1, 1], shortcut=False)
            assert np.array_equal(decode(llrs, [1, 1, 1, 1], kernel), want)

    def test_shortcut_vs_plain_differ_only_on_magnitude_ties(self):
        kernel = DecoderKernel.min_sum()
        grid = [-2, -1, 0, 1, 2]
        for llrs in itertools.product(grid, repeat=4):
            llrs = [float(v) for v in llrs]
            la, lb = f_minsum(llrs[0], llrs[1]), f_minsum(llrs[2], llrs[3])
            got = decode(llrs, [1, 1, 1, 1], kernel)
            u0, u1 = got[0], got[1]
            ma = g_fn(llrs[0], llrs[1], int(u0 ^ u1))
            mb = g_fn(llrs[2], llrs[3], int(u1))
            if abs(la) != abs(lb) and abs(ma) != abs(mb):
                want = unrolled4(llrs, [1, 1, 1, 1], shortcut=False)
                assert np.array_equal(got, want)


class TestDecideOdd:
    def test_second_branch_takes_lam2_sign(self):
        assert decide_odd(-3.0, 7.0, 1, 1) == 0

    def test_frozen_wins(self):
        assert decide_odd(-3.0, 7.0, 1, 0) == 0
        assert decide_odd(QLlr(1, 3, 5), QLlr(0, 7, 5), 1, 0) == 0

    def test_third_branch_xors_even_decision(self):
        assert decide_odd(-5.0, 2.0, 0, 1) == 1

    def test_shortcut_equivalence_exhaustive_q5(self):
        from polarsc import qg_fn

        words = [QLlr.from_value(v, 5) for v in range(-15, 16)]
        checked = 0
        for lam1, lam2 in itertools.product(words, words):
            if lam1.magnitude == lam2.magnitude:
                continue
            for u_even in (0, 1):
                want = qg_fn(lam1, lam2, u_even).sign
                assert decide_odd(lam1, lam2, u_even, 1) == want
                checked += 1
        assert checked == 2 * (31 * 31 - (15 * 4 + 1))

    def test_tie_semantics_differ_from_plain(self):
        # |lam1| == |lam2| with cancelling g: shortcut reads the lam2 sign,
        # the plain rule reads sign(0) = 0
        assert decide_odd(5.0, -5.0, 0, 1) == 1
        assert sign_bit(g_fn(5.0, -5.0, 0)) == 0


class TestDecideEvenSimplified:
    def test_all_positive(self):
        assert decide_even_simplified(1.0, 1.0, 1.0, 1.0, 1) == 0

    def test_one_negative(self):
        assert decide_even_simplified(-1.0, 1.0, 1.0, 1.0, 1) == 1

    def test_frozen(self):
        assert decide_even_simplified(-1.0, -1.0, 1.0, 1.0, 0) == 0

    def test_quantized_words(self):
        w = [QLlr.from_value(v, 5) for v in (-3, 2, 1, -1)]
        assert decide_even_simplified(*w, 1) == 0

    def test_matches_nested_form_when_magnitudes_nonzero(self):
        grid = [-4, -3, -2, -1, 1, 2, 3, 4]
        for llrs in itertools.product(grid, repeat=4):
            want = sign_bit(
                f_minsum(f_minsum(llrs[0], llrs[1]), f_minsum(llrs[2], llrs[3]))
            )
            assert decide_even_simplified(*llrs, 1) == want

    def test_zero_magnitude_caveat(self):
        # sign XOR sees the negative input; the normalized zero value does not
        llrs = (0.0, -2.0, 3.0, 4.0)
        assert decide_even_simplified(*llrs, 1) == 1
        nested = sign_bit(f_minsum(f_minsum(0.0, -2.0), f_minsum(3.0, 4.0)))
        assert nested == 0


def _random_instance(rng, n_exp_max=10):
    n = 2 ** int(rng.integers(1, n_exp_max + 1))
    k = int(rng.integers(0, n + 1))
    mask = construct_frozen_mask(n, k)
    u = rng.integers(0, 2, n, dtype=np.uint8) * mask
    return mask, u


class TestNoiselessRoundtrip:
    @pytest.mark.parametrize("arithmetic", ["minsum", "exact"])
    @pytest.mark.parametrize("decision", ["shortcut", "plain"])
    def test_float_kernels(self, arithmetic, decision):
        rng = np.random.default_rng(11)
        kernel = DecoderKernel(arithmetic, decision)
        for _ in range(60):
            mask, u = _random_instance(rng, n_exp_max=7)
            scale = float(rng.uniform(1.0, 20.0))
            llrs = scale * (1.0 - 2.0 * encode(u).astype(float))
            assert np.array_equal(decode(llrs, mask, kernel), u)

    def test_quantized_kernel(self):
        rng = np.random.default_rng(12)
        kernel = DecoderKernel.quantized(Q5)
        for _ in range(40):
            mask, u = _random_instance(rng, n_exp_max=6)
            magnitude = int(rng.integers(1, 16))
            llrs = magnitude * (1.0 - 2.0 * encode(u).astype(float))
            assert np.array_equal(decode(to_words(llrs), mask, kernel), u)

    def test_largest_block(self):
        rng = np.random.default_rng(13)
        mask = construct_frozen_mask(1024, 512)
        u = rng.integers(0, 2, 1024, dtype=np.uint8) * mask
        llrs = 4.0 * (1.0 - 2.0 * encode(u).astype(float))
        assert np.array_equal(decode(llrs, mask), u)


class TestFrozenZero:
    @given(
        n_exp=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_zero_wherever_frozen(self, n_exp, seed):
        rng = np.random.default_rng(seed)
        n = 2**n_exp
        mask = rng.integers(0, 2, n, dtype=np.uint8)
        llrs = rng.normal(scale=4.0, size=n)
        out = decode(llrs, mask)
        assert not out[mask == 0].any()

    @pytest.mark.parametrize("n", [512, 1024])
    def test_large_blocks(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            out = decode(rng.normal(scale=4.0, size=n), mask)
            assert not out[mask == 0].any()


ORACLE_KERNELS = {
    f"{arithmetic}-{decision}": DecoderKernel(arithmetic, decision)
    for arithmetic in ("minsum", "exact")
    for decision in ("shortcut", "plain")
}
ORACLE_KERNELS.update(
    {f"q5-{decision}": DecoderKernel.quantized(Q5, decision) for decision in ("shortcut", "plain")}
)


class TestAgainstReferenceDecoder:
    @pytest.mark.parametrize("kernel", ORACLE_KERNELS.values(), ids=ORACLE_KERNELS.keys())
    @given(n_exp=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_independent_recursion(self, kernel, n_exp, seed):
        rng = np.random.default_rng(seed)
        n = 2**n_exp
        mask = rng.integers(0, 2, n, dtype=np.uint8)
        llrs = rng.normal(scale=3.0, size=n)
        if kernel.arithmetic == "quantized":
            llrs = to_words(llrs)
        want, _ = reference_decode(llrs, mask, kernel)
        assert np.array_equal(decode(llrs, mask, kernel), want)


class TestArithmeticModeAgreement:
    def test_quantized_equals_float_without_saturation(self):
        # integer-valued floats; keep only instances whose variable-node
        # outputs never exceed the 5-bit magnitude bound
        rng = np.random.default_rng(21)
        kernel_q = DecoderKernel.quantized(Q5)
        agreeing = 0
        for _ in range(400):
            n = 2 ** int(rng.integers(1, 7))
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            llrs = rng.integers(-3, 4, n).astype(float)
            want, peak = reference_decode(llrs, mask)
            if peak > Q5.max_magnitude:
                continue
            f_out = decode(llrs, mask)
            q_out = decode(to_words(llrs), mask, kernel_q)
            assert np.array_equal(f_out, want)
            assert np.array_equal(q_out, want)
            agreeing += 1
        assert agreeing >= 50

    def test_saturation_instances_exist(self):
        # the filter above must be doing real work
        rng = np.random.default_rng(22)
        peaks = []
        for _ in range(50):
            llrs = rng.integers(-3, 4, 64).astype(float)
            _, peak = reference_decode(llrs, np.ones(64, dtype=np.uint8))
            peaks.append(peak)
        assert max(peaks) > Q5.max_magnitude


class TestStructuralCounts:
    def test_recursion_anchors(self):
        from polarsc import ComplexityCounts, structural_unit_counts

        counts = structural_unit_counts(4)
        assert isinstance(counts, ComplexityCounts)
        assert (counts.check_comparators, counts.decision_comparators, counts.adders) == (2, 2, 4)
        assert structural_unit_counts(8).total == 28

    def test_rejects_small(self):
        from polarsc import structural_unit_counts

        with pytest.raises(ValueError):
            structural_unit_counts(2)

    def test_one_counts_type(self):
        import polarsc

        assert not hasattr(polarsc, "UnitCounts")
