"""Tests for the complexity, delay, and efficiency formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (
    GateDelays,
    base_block_delay,
    complexity,
    delay_closed,
    delay_recursive,
    dynamic_power,
    metrics,
    structural_unit_counts,
)

delay_values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

# published 90nm synthesis columns: N -> (freq Hz, power W, area m^2,
# throughput Gb/s, energy pJ/b, efficiency Mb/s/mm^2)
SYNTHESIS_COLUMNS = {
    2**6: (45.5e6, 0.0998, 0.153e-6, 2.92, 34.1, 19084.0),
    2**7: (22.2e6, 0.1388, 0.338e-6, 2.83, 49.0, 8372.0),
    2**8: (11.0e6, 0.1587, 0.759e-6, 2.81, 56.4, 3700.0),
    2**9: (5.2e6, 0.1814, 1.514e-6, 2.69, 67.4, 1776.0),
    2**10: (2.5e6, 0.1907, 3.213e-6, 2.56, 74.5, 796.0),
}


def sane_delays(comparator, mux, xor, and_gate):
    """Gate delays satisfying the base-block dominance assumption."""
    return GateDelays(3 * xor + and_gate + comparator, mux, xor, and_gate)


class TestComplexity:
    def test_length4_anchors(self):
        c = complexity(4)
        assert (c.check_comparators, c.decision_comparators, c.adders, c.total) == (
            2, 2, 4, 8,
        )

    def test_length8_from_recursion(self):
        c = complexity(8)
        assert (c.check_comparators, c.decision_comparators, c.adders) == (8, 4, 16)
        assert c.total == 28

    def test_length1024(self):
        c = complexity(1024)
        assert (c.check_comparators, c.decision_comparators, c.adders) == (
            4608, 512, 9216,
        )
        assert c.total == 14336 == 1024 * (3 * 10 // 2 - 1)

    def test_recursion_identities_up_to_2_20(self):
        n = 8
        while n <= 2**20:
            c, prev = complexity(n), complexity(n // 2)
            assert c.check_comparators == 2 * prev.check_comparators + n // 2
            assert c.decision_comparators == 2 * prev.decision_comparators
            assert c.adders == 2 * c.check_comparators
            n *= 2

    def test_total_doubling_law(self):
        n = 64
        while n <= 2**16:
            ratio = complexity(2 * n).total / complexity(n).total
            assert 2.0 < ratio <= 2.5
            n *= 2

    def test_structural_walk_matches_closed_forms(self):
        for n in (4, 8, 16, 32):
            walk = structural_unit_counts(n)
            closed = complexity(n)
            assert walk.check_comparators == closed.check_comparators
            assert walk.decision_comparators == closed.decision_comparators
            assert walk.adders == closed.adders

    def test_rejects_small_or_odd(self):
        for bad in (2, 3, 12, 64.0):
            with pytest.raises(ValueError):
                complexity(bad)


class TestDelayModel:
    def test_unit_delays_length8(self):
        d = GateDelays(1, 1, 1, 1)
        with pytest.warns(UserWarning):
            assert delay_recursive(8, d) == 25
        with pytest.warns(UserWarning):
            assert delay_closed(8, d) == 25

    def test_all_zero_delays(self):
        d = GateDelays(0, 0, 0, 0)
        assert delay_recursive(32, d) == 0
        assert delay_closed(32, d) == 0

    def test_base_block(self):
        d = sane_delays(1.0, 0.5, 0.25, 0.125)
        assert base_block_delay(d) == 3 * d.comparator + 4 * d.mux + d.xor + 2 * d.and_gate

    @given(
        comparator=delay_values,
        mux=delay_values,
        xor=delay_values,
        and_gate=delay_values,
        n_exp=st.integers(3, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_recursive_equals_closed(self, comparator, mux, xor, and_gate, n_exp):
        d = sane_delays(comparator, mux, xor, and_gate)
        n = 2**n_exp
        rec = delay_recursive(n, d)
        closed = delay_closed(n, d)
        assert closed == pytest.approx(rec, rel=1e-12, abs=1e-12)

    def test_interconnect_is_additive_in_closed_form(self):
        d = sane_delays(1.0, 0.5, 0.25, 0.125)
        with_t = GateDelays(d.comparator, d.mux, d.xor, d.and_gate, 7.5)
        assert delay_closed(64, with_t) == pytest.approx(delay_closed(64, d) + 7.5)
        assert delay_recursive(64, with_t) == delay_recursive(64, d)

    def test_delay_doubling_law(self):
        d = sane_delays(0.9, 0.6, 0.2, 0.1)
        previous = None
        n = 64
        while n <= 2**15:
            ratio = delay_closed(2 * n, d) / delay_closed(n, d)
            assert 2.0 < ratio < 2.1  # approaches 2 from above
            if previous is not None:
                assert abs(ratio - 2.0) < abs(previous - 2.0)
            previous = ratio
            n *= 2
        assert abs(previous - 2.0) < 5e-3

    def test_assumption_warning(self):
        bad = GateDelays(1.0, 1.0, 1.0, 1.0)  # comparator < 3*xor + and
        with pytest.warns(UserWarning, match="base-block assumption"):
            delay_closed(16, bad)

    @pytest.mark.parametrize(
        "model",
        [base_block_delay, lambda d: delay_recursive(16, d), lambda d: delay_closed(16, d)],
        ids=["base_block_delay", "delay_recursive", "delay_closed"],
    )
    def test_assumption_warning_names_the_calling_line(self, model):
        bad = GateDelays(1.0, 1.0, 1.0, 1.0)
        with pytest.warns(UserWarning, match="base-block assumption") as record:
            model(bad)
        assert [w.filename for w in record] == [__file__]

    def test_rejects_small_blocks(self):
        d = sane_delays(1.0, 0.5, 0.25, 0.125)
        with pytest.raises(ValueError):
            delay_recursive(4, d)
        with pytest.raises(ValueError):
            delay_closed(4, d)
        with pytest.raises(ValueError, match="block length"):
            delay_closed(64.0, d)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            GateDelays(-1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", range(5))
    def test_rejects_non_finite_delay(self, field, bad):
        values = [0.0] * 5
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            GateDelays(*values)

    def test_delay_beyond_float_range_fails(self):
        d = GateDelays(1e307, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            delay_recursive(64, d)
        with pytest.raises(ValueError, match="finite"):
            delay_closed(64, d)


class TestMetrics:
    def test_largest_block_column(self):
        freq, power, area, tp, epb, he = SYNTHESIS_COLUMNS[2**10]
        m = metrics(2**10, 1.0 / freq, power, area)
        assert m.throughput_bps / 1e9 == pytest.approx(tp, rel=0.01)
        assert m.energy_per_bit_j * 1e12 == pytest.approx(epb, rel=0.01)
        assert m.hw_efficiency_bps_per_m2 / 1e12 == pytest.approx(he, rel=0.01)

    @pytest.mark.parametrize("n", [2**6, 2**7, 2**8, 2**9])
    def test_smaller_block_columns(self, n):
        freq, power, area, tp, epb, he = SYNTHESIS_COLUMNS[n]
        m = metrics(n, 1.0 / freq, power, area)
        assert m.throughput_bps / 1e9 == pytest.approx(tp, rel=0.015)
        assert m.energy_per_bit_j * 1e12 == pytest.approx(epb, rel=0.015)
        assert m.hw_efficiency_bps_per_m2 / 1e12 == pytest.approx(he, rel=0.015)

    def test_energy_vanishes_with_power(self):
        m = metrics(1024, 1e-6, 1e-12, 1e-6)
        assert m.energy_per_bit_j == pytest.approx(0.0, abs=1e-18)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            metrics(1024, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            metrics(1024, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize(
        "args",
        [
            (np.nan, 1.0, 1.0, 1.0),
            (1024, np.nan, 1.0, 1.0),
            (1024, 1.0, np.inf, 1.0),
            (1024, 1.0, 1.0, np.nan),
            (1024, 1e-320, 1.0, 1.0),  # throughput overflows
            (1024, 1.0, 1.0, 1e-320),  # efficiency overflows
        ],
    )
    def test_rejects_non_finite_inputs_and_results(self, args):
        with pytest.raises(ValueError, match="finite"):
            metrics(*args)


class TestDynamicPower:
    def test_unit_inputs(self):
        assert dynamic_power(1, 1, 1, 1) == 1

    def test_arithmetic_case(self):
        assert dynamic_power(0.5, 2e-9, 1.3, 2.5e6) == pytest.approx(4.225e-3)

    def test_linear_in_frequency(self):
        assert dynamic_power(0.3, 1e-9, 1.2, 2e6) == pytest.approx(
            2 * dynamic_power(0.3, 1e-9, 1.2, 1e6)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dynamic_power(-0.1, 1, 1, 1)

    @pytest.mark.parametrize(
        "args",
        [(np.nan, -1, 1, 1), (1, np.inf, 1, 1), (1, 1, np.nan, 1), (1, 1, 1, np.inf), (1e300, 1e300, 1, 1)],
    )
    def test_rejects_non_finite(self, args):
        with pytest.raises(ValueError, match="finite"):
            dynamic_power(*args)

    def test_zero_input_gives_zero(self):
        assert dynamic_power(0, 2e-9, 1.3, 2.5e6) == 0
