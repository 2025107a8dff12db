"""Successive-cancellation decoding, generic over float and sign-magnitude arithmetic."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hardware import ComplexityCounts
from .llr import QFormat, QLlr, sign_bit
from .vectorized import decode_batch

_ARITHMETICS = ("minsum", "exact", "quantized")
_DECISIONS = ("shortcut", "plain")


@dataclass(frozen=True)
class DecoderKernel:
    """
    Arithmetic and decision-rule selection for the SC decoder.

    ``arithmetic`` picks the check-node update: "minsum" (float sign/min),
    "exact" (float tanh-domain), or "quantized" (sign-magnitude words, needs
    a :class:`QFormat`). ``decision`` picks how odd-indexed bits are sliced:
    "shortcut" uses the magnitude comparison that hardware implements,
    "plain" takes the sign of the full variable-node update.
    """

    arithmetic: str = "minsum"
    decision: str = "shortcut"
    qformat: Optional[QFormat] = None

    def __post_init__(self):
        if self.arithmetic not in _ARITHMETICS:
            raise ValueError(f"unknown arithmetic {self.arithmetic!r}")
        if self.decision not in _DECISIONS:
            raise ValueError(f"unknown decision mode {self.decision!r}")
        if self.arithmetic == "quantized" and self.qformat is None:
            raise ValueError("quantized arithmetic requires a QFormat")

    @classmethod
    def min_sum(cls, decision="shortcut"):
        return cls("minsum", decision)

    @classmethod
    def exact(cls, decision="shortcut"):
        return cls("exact", decision)

    @classmethod
    def quantized(cls, qformat, decision="shortcut"):
        return cls("quantized", decision, qformat)


def decide_odd(lam1, lam2, u_even, a_odd):
    """
    Odd-bit decision shortcut.

    Returns 0 for a frozen position; the sign of lam2 when |lam2| >= |lam1|;
    otherwise the sign of lam1 XORed with the preceding even decision. Agrees
    with the sign of the variable-node update whenever |lam1| != |lam2|.
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


def _as_row(llrs, kernel):
    """
    One frame of channel LLRs as a numpy row: floats for float kernels, the
    integer values of QLlr words of the kernel's width for the quantized one.
    """
    if kernel.arithmetic == "quantized":
        width = kernel.qformat.bits
        if any(not isinstance(x, QLlr) or x.bits != width for x in llrs):
            raise ValueError(f"quantized decode expects QLlr words of width {width}")
        return np.array([x.value for x in llrs], dtype=np.int64)
    return np.asarray(llrs, dtype=np.float64)


def decode(llrs, mask, kernel=None):
    """
    Decode one LLR vector by successive cancellation: a batch of one on
    :func:`polarsc.vectorized.decode_batch`.

    Parameters
    ----------
    llrs : sequence
        Channel LLRs, floats for float kernels or :class:`QLlr` words for the
        quantized kernel. Length must be a power of two >= 2.
    mask : array-like of {0,1}
        Frozen-bit indicator vector (1 marks a data position).
    kernel : DecoderKernel, optional
        Arithmetic/decision selection; defaults to float min-sum with the
        hardware decision shortcut.

    Returns
    -------
    ndarray
        Estimated input vector of length N; frozen positions are 0.
    """
    if kernel is None:
        kernel = DecoderKernel.min_sum()
    return decode_batch(_as_row(llrs, kernel)[None], mask, kernel)[0]


def structural_unit_counts(n):
    """
    Walk the decode recursion and tally its hardware building blocks.

    The length-4 base block carries 2 check-node comparators, 2 decision
    comparators (odd bits only; even decisions reduce to sign XORs) and 4
    adders/subtractors (each variable-node unit precomputes both the sum and
    the difference). Each larger level adds N/2 check units and N/2
    variable-node units of glue.
    """
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"block length must be a power of two >= 4, got {n}")
    if n == 4:
        return ComplexityCounts(2, 2, 4)
    sub = structural_unit_counts(n // 2)
    return ComplexityCounts(
        2 * sub.check_comparators + n // 2,
        2 * sub.decision_comparators,
        2 * sub.adders + n,
    )
