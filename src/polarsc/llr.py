"""LLR arithmetic: check/variable-node updates in float and Q-bit sign-magnitude form."""

import math
from dataclasses import dataclass

import numpy as np

from .code import _count, _finite


def sign_bit(llr):
    """Hard-decision bit of an LLR: 0 for llr >= 0, 1 otherwise."""
    return 0 if llr >= 0 else 1


def decide_odd(lam1, lam2, u_even, a_odd):
    """
    Odd-bit decision shortcut.

    Returns 0 for a frozen position; the sign of lam2 when |lam2| >= |lam1|;
    otherwise the sign of lam1 XORed with the preceding even decision. Agrees
    with the sign of the variable-node update wherever that sum is not 0: a
    zero sum is a magnitude tie, where this takes the sign of lam2.
    """
    if a_odd == 0:
        return 0
    if isinstance(lam1, QLlr):
        if lam2.magnitude >= lam1.magnitude:
            return lam2.sign
        return lam1.sign ^ u_even
    if abs(lam2) >= abs(lam1):
        return sign_bit(lam2)
    return sign_bit(lam1) ^ u_even


def decide_even_simplified(l0, l1, l2, l3, a_even):
    """
    Even-bit decision as the XOR of four sign bits, gated by the mask bit.

    Matches the nested check-node form whenever no intermediate magnitude is
    exactly zero; a zero magnitude normalizes its sign to 0, which the pure
    sign XOR cannot see.
    """
    if isinstance(l0, QLlr):
        signs = l0.sign ^ l1.sign ^ l2.sign ^ l3.sign
    else:
        signs = sign_bit(l0) ^ sign_bit(l1) ^ sign_bit(l2) ^ sign_bit(l3)
    return signs & a_even


def f_minsum(l1, l2):
    """
    Min-sum check-node update sign(l1) sign(l2) min(|l1|, |l2|), as one
    compare and select: max(min(l1, l2), -max(l1, l2)).

    Of equal operands it picks as numpy's ``minimum`` and ``maximum`` do, so
    that the result, also the sign of a zero, is the batched kernel's.
    """
    l1, l2 = float(l1), float(l2)
    # Python's min and max return their first operand on a tie, numpy's their second
    return max(-max(l2, l1), min(l2, l1))


def f_exact(l1, l2):
    """
    Exact check-node update 2*atanh(tanh(l1/2)*tanh(l2/2)).

    Evaluated in the log domain (min-sum term plus two correction terms) so
    the result stays finite even where tanh saturates in double precision.
    """
    # a product of Python floats overflows to inf, which keeps its sign, without
    # the warning that one of numpy scalars gives
    l1, l2 = float(l1), float(l2)
    a, b = abs(l1), abs(l2)
    lo, hi = (a, b) if a <= b else (b, a)
    # numpy's exp and log1p, not math's: they can differ in the last place, and
    # the batched kernel in polarsc.vectorized must agree bit for bit
    mag = lo + float(np.log1p(np.exp(-(lo + hi)))) - float(np.log1p(np.exp(-(hi - lo))))
    # the exact magnitude lies in [0, lo]; when lo is tiny the two corrections
    # cancel to a rounding error that can leave it outside (NaN passes through)
    mag = min(max(mag, 0.0), lo)
    # the sign of the product, also for a zero result, as the batched kernel
    return math.copysign(1.0, l1 * l2) * mag


def g_fn(l1, l2, v):
    """Variable-node update: l2 + l1 for partial sum v=0, l2 - l1 for v=1."""
    if v not in (0, 1):
        raise ValueError(f"partial-sum bit must be 0 or 1, got {v}")
    # a numpy unsigned bit would wrap 1 - 2*v to 255
    return l2 + (1 - 2 * int(v)) * l1


def _max_magnitude(bits):
    """Largest magnitude of a sign-magnitude word of ``bits`` bits, sign included; ``bits`` is an int >= 2."""
    if _count(bits, "word width") < 2:
        raise ValueError(f"need at least 2 bits (sign + magnitude), got {bits}")
    return (1 << (bits - 1)) - 1


@dataclass(frozen=True)
class QFormat:
    """
    Sign-magnitude fixed-point format: total width in bits and an input scale.

    ``bits`` includes the sign, so magnitudes span [0, 2**(bits-1) - 1].
    ``scale``, a finite number > 0, multiplies channel LLRs before rounding.
    """

    bits: int
    scale: float = 1.0

    def __post_init__(self):
        _max_magnitude(self.bits)
        _finite(self.scale, "scale", above=0)

    @property
    def max_magnitude(self):
        return _max_magnitude(self.bits)


@dataclass(frozen=True)
class QLlr:
    """One sign-magnitude LLR word of integer fields. Zero is normalized: magnitude 0 forces sign 0."""

    sign: int
    magnitude: int
    bits: int

    def __post_init__(self):
        if _count(self.sign, "sign") > 1:
            raise ValueError(f"sign must be 0 or 1, got {self.sign}")
        max_mag = _max_magnitude(self.bits)
        if _count(self.magnitude, "magnitude") > max_mag:
            raise ValueError(f"magnitude {self.magnitude} out of range [0, {max_mag}] for {self.bits} bits")
        if self.magnitude == 0 and self.sign != 0:
            raise ValueError("zero magnitude must carry sign 0")

    @property
    def value(self):
        """Signed integer value."""
        return -self.magnitude if self.sign else self.magnitude

    @classmethod
    def from_value(cls, value, bits):
        """Build a word from a signed integer (a float or bool is refused), saturating the magnitude."""
        mag = min(abs(_count(value, "value", -math.inf)), _max_magnitude(bits))
        return cls(0 if mag == 0 else (1 if value < 0 else 0), mag, bits)


def quantize(llr, fmt):
    """
    Quantize a float LLR to a sign-magnitude word.

    Magnitude is |llr|*scale rounded half away from zero and saturated at the
    format's maximum; the sign follows :func:`sign_bit` unless the magnitude
    rounds to zero.
    """
    _finite(llr, "LLR")
    scaled = abs(llr) * fmt.scale + 0.5
    # an exact comparison, which also saturates a product that overflowed to inf
    mag = fmt.max_magnitude if scaled >= fmt.max_magnitude else math.floor(scaled)
    return QLlr(0 if mag == 0 else sign_bit(llr), mag, fmt.bits)


def _check_widths(a, b):
    if a.bits != b.bits:
        raise ValueError(f"mixed word widths: {a.bits} vs {b.bits} bits")


def qf_minsum(a, b):
    """Min-sum check-node update on sign-magnitude words: XOR signs, min magnitudes."""
    _check_widths(a, b)
    mag = min(a.magnitude, b.magnitude)
    return QLlr(0 if mag == 0 else a.sign ^ b.sign, mag, a.bits)


def qg_fn(a, b, v):
    """
    Variable-node update on sign-magnitude words.

    Exact integer evaluation of b + (1-2v)*a, then the magnitude saturates at
    the format maximum (never wraps) and zero is normalized.
    """
    _check_widths(a, b)
    if v not in (0, 1):
        raise ValueError(f"partial-sum bit must be 0 or 1, got {v}")
    return QLlr.from_value(b.value + (1 - 2 * int(v)) * a.value, a.bits)


def qg_saturates(a, b, v):
    """True when :func:`qg_fn` on the same operands would clip its magnitude."""
    _check_widths(a, b)
    raw = b.value + (1 - 2 * int(v)) * a.value
    return abs(raw) > _max_magnitude(a.bits)
