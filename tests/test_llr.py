"""Tests for float and sign-magnitude LLR arithmetic."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarsc import (
    QFormat,
    QLlr,
    f_exact,
    f_minsum,
    g_fn,
    qf_minsum,
    qg_fn,
    qg_saturates,
    quantize,
    sign_bit,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
moderate = st.floats(min_value=-50, max_value=50, allow_nan=False)

Q5 = QFormat(5)
Q5_WORDS = [QLlr.from_value(v, 5) for v in range(-15, 16)]


def exact_oracle(l1, l2):
    """Direct tanh-domain evaluation; valid while tanh stays below 1.0."""
    return 2.0 * math.atanh(math.tanh(l1 / 2.0) * math.tanh(l2 / 2.0))


class TestSignBit:
    def test_zero_counts_as_nonnegative(self):
        assert sign_bit(0.0) == 0
        assert sign_bit(-0.0) == 0

    def test_positive(self):
        assert sign_bit(3.2) == 0

    def test_negative(self):
        assert sign_bit(-1.0) == 1


class TestFMinsum:
    def test_mixed_signs(self):
        assert f_minsum(2, -3) == -2

    def test_zero_magnitude_dominates(self):
        for x in (-7.0, 0.0, 3.5):
            assert f_minsum(0, x) == 0

    def test_both_negative(self):
        assert f_minsum(-1, -4) == 1

    @given(a=finite, b=finite)
    def test_magnitude_is_min(self, a, b):
        assert abs(f_minsum(a, b)) == min(abs(a), abs(b))

    @given(a=finite, b=finite)
    def test_symmetry(self, a, b):
        assert f_minsum(a, b) == f_minsum(b, a)


class TestFExact:
    def test_zero_annihilates(self):
        assert f_exact(0, 5) == 0

    def test_frozen_value(self):
        # scalar math oracle: 2*atanh(tanh(1)^2)
        assert f_exact(2, 2) == pytest.approx(1.3250027473578643, abs=1e-12)

    def test_sign_antisymmetry(self):
        assert f_exact(-2, 2) == pytest.approx(-f_exact(2, 2), abs=1e-15)

    @given(
        a=st.floats(min_value=-8, max_value=8, allow_nan=False),
        b=st.floats(min_value=-8, max_value=8, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_matches_tanh_oracle(self, a, b):
        assert f_exact(a, b) == pytest.approx(exact_oracle(a, b), abs=1e-12)

    @pytest.mark.parametrize(
        "a,b", [(25.0, 27.0), (18.0, 19.0), (-40.0, 55.0), (700.0, 710.0), (0.01, 90.0)]
    )
    def test_matches_high_precision_oracle_for_large_args(self, a, b):
        # double-precision tanh saturates here; use an arbitrary-precision oracle
        mp = pytest.importorskip("mpmath")
        # tanh(x) sits within 10^(-0.87x) of 1, so give the oracle enough digits
        with mp.workdps(60 + int(0.45 * (abs(a) + abs(b)))):
            want = float(2 * mp.atanh(mp.tanh(mp.mpf(a) / 2) * mp.tanh(mp.mpf(b) / 2)))
        assert f_exact(a, b) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(a=finite, b=finite)
    @example(a=0.25, b=6.789995878175484e-17)
    def test_never_overestimates_minsum(self, a, b):
        assert abs(f_exact(a, b)) <= abs(f_minsum(a, b))

    @given(a=finite, b=finite)
    def test_symmetry(self, a, b):
        assert f_exact(a, b) == f_exact(b, a)

    def test_finite_for_huge_inputs(self):
        assert math.isfinite(f_exact(800.0, -900.0))

    @given(
        a=st.floats(min_value=1e-3, max_value=1e6),
        b=st.floats(min_value=1e-3, max_value=1e6),
        sa=st.booleans(),
        sb=st.booleans(),
    )
    def test_sign_consistency(self, a, b, sa, sb):
        l1 = -a if sa else a
        l2 = -b if sb else b
        expected = sign_bit(l1) ^ sign_bit(l2)
        assert sign_bit(f_minsum(l1, l2)) == expected
        assert sign_bit(f_exact(l1, l2)) == expected


@pytest.mark.parametrize("f", [f_minsum, f_exact])
@pytest.mark.parametrize("a, b", [(1e200, 1e200), (1e200, -1e200), (-1.7e308, -1.7e308), (1e-200, -0.0)])
def test_numpy_scalars_give_the_python_float_result_without_a_warning(f, a, b):
    # the sign product overflows or underflows; on numpy scalars it warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(np.float64(a), np.float64(b))
    assert type(got) is float
    assert math.copysign(1.0, got) == math.copysign(1.0, f(a, b)) and got == f(a, b)


class TestG:
    def test_add(self):
        assert g_fn(1, 2, 0) == 3

    def test_subtract(self):
        assert g_fn(1, 2, 1) == 1

    def test_negative_first_operand(self):
        assert g_fn(-2, 5, 1) == 7

    def test_rejects_non_bit(self):
        with pytest.raises(ValueError):
            g_fn(1, 2, 2)

    @pytest.mark.parametrize("bit_type", [np.uint8, np.int64, np.bool_])
    def test_numpy_bits(self, bit_type):
        # 1 - 2*np.uint8(1) wraps to 255 unless the bit is taken as an int
        assert g_fn(2.0, 3.0, bit_type(1)) == 1.0
        assert g_fn(2.0, 3.0, bit_type(0)) == 5.0


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, QFormat(5, 1)) == QLlr(0, 0, 5)

    def test_saturates(self):
        assert quantize(-100.0, QFormat(5, 1)) == QLlr(1, 15, 5)

    @pytest.mark.parametrize("bits", [5, 64])
    def test_saturates_a_scaled_value_past_the_float_range(self, bits):
        # 10 * 1e308 overflows to inf
        fmt = QFormat(bits, 1e308)
        assert quantize(10.0, fmt) == QLlr(0, fmt.max_magnitude, bits)
        assert quantize(-10.0, fmt) == QLlr(1, fmt.max_magnitude, bits)

    def test_scale_then_round(self):
        assert quantize(3.4, QFormat(5, 2)) == QLlr(0, 7, 5)

    def test_rounds_half_away_from_zero(self):
        assert quantize(2.5, Q5).magnitude == 3
        assert quantize(-2.5, Q5) == QLlr(1, 3, 5)
        assert quantize(3.5, Q5).magnitude == 4

    def test_negative_zero_normalizes(self):
        assert quantize(-0.0, Q5) == QLlr(0, 0, 5)

    def test_tiny_negative_rounds_to_clean_zero(self):
        assert quantize(-0.2, Q5) == QLlr(0, 0, 5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(float("inf"), Q5)
        with pytest.raises(ValueError):  # an integer too large for a float
            quantize(10**400, Q5)


class TestQFormat:
    def test_max_magnitude(self):
        assert QFormat(5).max_magnitude == 15
        assert QFormat(4).max_magnitude == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            QFormat(1)
        with pytest.raises(ValueError):
            QFormat(5, 0.0)

    @pytest.mark.parametrize("bits, scale", [(5, math.inf), (math.nan, 1.0), (5.0, 1.0)])
    def test_rejects_infinite_scale_and_non_integer_width(self, bits, scale):
        with pytest.raises(ValueError):
            QFormat(bits, scale)


class TestQLlr:
    def test_rejects_denormalized_zero(self):
        with pytest.raises(ValueError):
            QLlr(1, 0, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QLlr(0, 16, 5)

    def test_rejects_non_bit_sign(self):
        with pytest.raises(ValueError, match="sign"):
            QLlr(2, 1, 5)

    @pytest.mark.parametrize("bits", [0, 1])
    def test_rejects_words_narrower_than_two_bits(self, bits):
        # QFormat refuses these widths; the words must too, with the same message
        with pytest.raises(ValueError, match="at least 2 bits"):
            QLlr(0, 0, bits)
        with pytest.raises(ValueError, match="at least 2 bits"):
            QLlr.from_value(3, bits)

    def test_value_roundtrip(self):
        for word in Q5_WORDS:
            assert QLlr.from_value(word.value, 5) == word

    @pytest.mark.parametrize(
        "fields",
        [(0, 1.5, 5), (True, 1, 5), (0, 1, 5.0), (0.0, 1, 5), (0, np.float64(1), 5)],
        ids=["float_magnitude", "bool_sign", "float_width", "float_sign", "numpy_float_magnitude"],
    )
    def test_rejects_non_integer_fields(self, fields):
        with pytest.raises(ValueError, match="integer"):
            QLlr(*fields)

    @pytest.mark.parametrize("value", [2.7, 3.0, "3", True, np.float64(2)], ids=repr)
    def test_from_value_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="integer"):
            QLlr.from_value(value, 5)
        # numpy integers, as decoders hand them out, are words
        assert QLlr.from_value(np.int8(-3), 5) == QLlr(1, 3, 5)


class TestQuantizedOps:
    def test_qf_example(self):
        assert qf_minsum(QLlr(0, 2, 5), QLlr(1, 3, 5)) == QLlr(1, 2, 5)

    def test_qg_saturates_at_max(self):
        assert qg_fn(QLlr(0, 15, 5), QLlr(0, 15, 5), 0) == QLlr(0, 15, 5)

    def test_qg_subtract(self):
        assert qg_fn(QLlr(0, 1, 5), QLlr(0, 2, 5), 1) == QLlr(0, 1, 5)

    def test_qg_rejects_non_bit_partial_sum(self):
        with pytest.raises(ValueError, match="partial-sum bit"):
            qg_fn(QLlr(0, 1, 5), QLlr(0, 2, 5), 2)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            qf_minsum(QLlr(0, 1, 5), QLlr(0, 1, 6))
        with pytest.raises(ValueError):
            qg_fn(QLlr(0, 1, 5), QLlr(0, 1, 6), 0)

    def test_saturation_detector(self):
        assert qg_saturates(QLlr(0, 15, 5), QLlr(0, 1, 5), 0)
        assert not qg_saturates(QLlr(0, 15, 5), QLlr(1, 1, 5), 0)

    @pytest.mark.parametrize("bit_type", [np.uint8, np.int64, np.bool_])
    def test_numpy_bits(self, bit_type):
        a, b = QLlr(1, 2, 5), QLlr(0, 3, 5)
        assert qg_fn(a, b, bit_type(1)) == QLlr(0, 5, 5)
        assert qg_fn(a, b, bit_type(0)) == QLlr(0, 1, 5)
        assert not qg_saturates(a, b, bit_type(1))
        assert qg_saturates(QLlr(1, 15, 5), QLlr(0, 1, 5), bit_type(1))

    def test_normalization_invariant_exhaustive(self):
        for a, b in itertools.product(Q5_WORDS, Q5_WORDS):
            for word in (qf_minsum(a, b), qg_fn(a, b, 0), qg_fn(a, b, 1)):
                if word.magnitude == 0:
                    assert word.sign == 0

    def test_qf_agrees_with_float_minsum_exhaustive(self):
        # scale 1, integer inputs: the quantized path is exact
        for a, b in itertools.product(Q5_WORDS, Q5_WORDS):
            expected = quantize(f_minsum(a.value, b.value), Q5)
            assert qf_minsum(a, b) == expected

    def test_qg_agrees_with_float_g_when_unsaturated_exhaustive(self):
        for a, b in itertools.product(Q5_WORDS, Q5_WORDS):
            for v in (0, 1):
                if qg_saturates(a, b, v):
                    continue
                expected = quantize(g_fn(a.value, b.value, v), Q5)
                assert qg_fn(a, b, v) == expected
