"""Analytical complexity, delay, and efficiency models for the combinational decoder."""

import math
import warnings
from dataclasses import dataclass

from .code import _finite, _require_power_of_two


@dataclass(frozen=True)
class GateDelays:
    """
    Propagation delays of the elementary blocks, in seconds, each finite and >= 0.

    ``interconnect`` is an additive routing term applied to the closed-form
    delay only; it cannot be derived from the gate model and defaults to 0.
    """

    comparator: float
    mux: float
    xor: float
    and_gate: float
    interconnect: float = 0.0

    def __post_init__(self):
        for name in ("comparator", "mux", "xor", "and_gate", "interconnect"):
            _finite(getattr(self, name), f"{name} delay", at_least=0)

    @property
    def meets_base_assumption(self):
        """Base-block model assumes the comparator dominates three XORs plus an AND."""
        return self.comparator >= 3 * self.xor + self.and_gate


@dataclass(frozen=True)
class ComplexityCounts:
    """Hardware blocks of a combinational decoder, by kind."""

    check_comparators: int
    decision_comparators: int
    adders: int

    @property
    def total(self):
        return self.check_comparators + self.decision_comparators + self.adders


def complexity(n):
    """
    Closed-form block counts of a combinational decoder.

    check comparators (N/2)log2(N/2), decision comparators N/2, and
    adders/subtractors N*log2(N/2); the total equals N*(1.5*log2(N) - 1).
    The counts are anchored at the length-4 base block (2 check comparators).
    """
    _require_power_of_two(n, 4, "block length")
    stages = int(math.log2(n)) - 1
    return ComplexityCounts(n // 2 * stages, n // 2, n * stages)


def structural_unit_counts(n):
    """
    Walk the decode recursion and tally its hardware building blocks.

    The length-4 base block carries 2 check-node comparators, 2 decision
    comparators (odd bits only; even decisions reduce to sign XORs) and 4
    adders/subtractors (each variable-node unit precomputes both the sum and
    the difference). Each larger level adds N/2 check units and N/2
    variable-node units of glue.
    """
    _require_power_of_two(n, 4, "block length")
    if n == 4:
        return ComplexityCounts(2, 2, 4)
    sub = structural_unit_counts(n // 2)
    return ComplexityCounts(
        2 * sub.check_comparators + n // 2,
        2 * sub.decision_comparators,
        2 * sub.adders + n,
    )


def _warn_if_optimistic(d):
    if not d.meets_base_assumption:
        warnings.warn(
            "gate delays violate the base-block assumption "
            "(comparator < 3*xor + and); the delay model may be optimistic",
            stacklevel=3,  # the line that called the public delay function
        )


def _base_block(d):
    return 3 * d.comparator + 4 * d.mux + d.xor + 2 * d.and_gate


def base_block_delay(d):
    """Critical path of the length-4 base block: 3 comparators, 4 muxes, 1 XOR, 2 ANDs."""
    _warn_if_optimistic(d)
    return _base_block(d)


def delay_recursive(n, d):
    """
    Decoder delay by unrolling the level recursion down to the length-4 base.

    Each level above the base adds a comparator stage, two mux stages, and the
    partial-sum encoder path of log2(N/2) XORs. Excludes interconnect.
    """
    _require_power_of_two(n, 8, "block length")
    _warn_if_optimistic(d)
    delay = _base_block(d)
    m = 8
    while m <= n:
        delay = 2 * delay + d.comparator + 2 * d.mux + math.log2(m // 2) * d.xor
        m *= 2
    return _finite(delay, "decoder delay")


def delay_closed(n, d):
    """
    Closed-form decoder delay, including the additive interconnect term.

    N*(1.5*mux + comparator + xor + 0.5*and) minus a logarithmic correction;
    agrees exactly with :func:`delay_recursive` when interconnect is zero.
    """
    _require_power_of_two(n, 8, "block length")
    _warn_if_optimistic(d)
    linear = n * (1.5 * d.mux + d.comparator + d.xor + 0.5 * d.and_gate)
    correction = d.comparator + 2 * d.mux + (math.log2(n) + 1) * d.xor
    return _finite(linear - correction + d.interconnect, "decoder delay")


@dataclass(frozen=True)
class Metrics:
    throughput_bps: float
    energy_per_bit_j: float
    hw_efficiency_bps_per_m2: float


def metrics(n, delay_s, power_w, area_m2):
    """
    Implementation figures of merit from measured delay, power, and area.

    Throughput is N/delay, energy-per-bit is power/throughput, and hardware
    efficiency is throughput/area. Inputs are finite and > 0; a result that overflows is an error.
    """
    tp = _finite(n / _finite(delay_s, "delay", above=0), "throughput", above=0)  # refuses an N <= 0 too
    power_w, area_m2 = _finite(power_w, "power", above=0), _finite(area_m2, "area", above=0)
    return Metrics(tp, power_w / tp, _finite(tp / area_m2, "hardware efficiency"))


def dynamic_power(alpha, capacitance_f, v_dd, f_c_hz):
    """Switching power alpha * C * Vdd^2 * f of a CMOS block, from finite inputs >= 0."""
    for value in (alpha, capacitance_f, v_dd, f_c_hz):
        _finite(value, "each dynamic power input", at_least=0)
    return _finite(alpha * capacitance_f * v_dd * v_dd * f_c_hz, "dynamic power")
