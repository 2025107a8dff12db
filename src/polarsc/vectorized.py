"""The SC decode engine, and batched numpy encode and quantize, one row per frame.

:class:`DecoderKernel` selects the arithmetic and the odd-bit decision rule.
:func:`decode_batch` runs the SC recursion as a flat schedule compiled once
per frozen mask. Frames sit in the last axis of an (N, frames) block, the
channel LLRs are bit-reversed on entry so that every node reads its two
halves as contiguous row ranges, and each node hands its re-encoded bits up
as +/-1 multipliers, so the variable-node update is one multiply and one add.
A fully frozen subtree is one step that sets its multipliers to +1, and
quantized words are carried in the narrowest integer type that holds a g sum
(int8 up to 7-bit words).

This module alone knows the schedule's steps and the buffer layout, and
``_State.run`` alone interprets them; a leaf reads a frozen decision as the
False that loading left. Scalar :func:`decode` is a batch of one. The
pipeline model and the hybrid decoder run slices of the schedule on a
one-frame ``_State``: they find their cuts with ``_subtrees`` (the op range
of each subtree of a given length) and read and write node LLRs, re-encoded
bits and decisions through the state's accessors, in natural order. The
hybrid front end reads frozen components' input LLRs too, so it runs the
full tree's schedule.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .code import _as_bits, _bit_reversal, _polar_transform, _require_power_of_two
from .llr import QFormat, QLlr

# Frames decoded together. The buffers take 29 bytes per frame and position for
# float LLRs, so this bounds the working set of a large batch (about 30 MB at N=1024).
BLOCK_FRAMES = 1024

_F, _G, _COMBINE, _LEAF, _ZERO = range(5)

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


def encode_batch(u):
    """Polar-transform each row of a (frames, N) bit matrix."""
    u = _as_bits(u, 2, "bit matrix")
    _require_power_of_two(u.shape[1], 1, "row length")
    return _polar_transform(u)


def _floats(llrs):
    """Integer or float LLRs as float64; strings, bools, complex and non-finite values are refused."""
    llrs = np.asarray(llrs)
    if llrs.dtype.kind not in "iuf":
        raise ValueError(f"LLRs must be integers or floats, got dtype {llrs.dtype}")
    llrs = llrs.astype(np.float64, copy=False)
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    return llrs


def quantize_batch(llrs, fmt):
    """Quantize float LLRs to signed integer words (sign-magnitude semantics)."""
    llrs = _floats(llrs)
    mag = np.floor(np.abs(llrs) * fmt.scale + 0.5)
    if fmt.bits <= 32:
        mag = np.minimum(mag, fmt.max_magnitude).astype(np.int32)
    else:
        # from 54 bits float(max_magnitude) rounds up, and at 64 bits past
        # int64, so saturate in integers
        over = mag >= fmt.max_magnitude
        mag = np.where(over, 0.0, mag).astype(np.int64)
        mag[over] = fmt.max_magnitude
    return np.where(llrs < 0, -mag, mag)


@lru_cache(maxsize=64)
def _schedule(mask_bytes):
    """
    The SC recursion over a mask, flattened into node operations.

    A node of length 2h at offset ``off`` keeps its LLRs in rows [2h, 4h) of
    the level buffer and its child's in rows [h, 2h). It runs f into the
    child, the first child, g into the child, the second child, then the
    partial-sum combine of rows [off, off + 2h) of the multiplier buffer.
    A length-2 node is one leaf step on rows 2 and 3, which also carries the
    node's two mask bits. A frozen node (all its mask bits 0) reads no LLR
    and decides all zeros, so it is one zero step that sets its multipliers
    to +1, and its parent runs no f into it. Every step starts with
    (kind, h, off).
    """
    mask = np.frombuffer(mask_bytes, dtype=np.uint8)
    ops = []

    def visit(off, n):
        h = n // 2
        if not mask[off : off + n].any():
            ops.append((_ZERO, h, off))
            return
        if n == 2:
            ops.append((_LEAF, 1, off, bool(mask[off]), bool(mask[off + 1])))
            return
        if mask[off : off + h].any():
            ops.append((_F, h, off))
        visit(off, h)
        ops.append((_G, h, off))
        visit(off + h, h)
        ops.append((_COMBINE, h, off))

    visit(0, len(mask))
    return tuple(ops)


def _subtrees(ops, m):
    """
    The length-m subtrees of a schedule in decode order, as (offset, start,
    stop): ops[start:stop] decode the subtree at that offset, and the ops
    before ``start`` leave its input LLRs in place (a zero step reads none,
    and gets no f). A subtree starts after the last op of a longer node and
    ends with its combine, leaf or zero step.
    """
    start = 0
    for i, (kind, h, off, *_) in enumerate(ops):
        if 2 * h > m:
            start = i + 1
        elif 2 * h == m and kind not in (_F, _G):
            yield off, start, i + 1


def _f_minsum(a, b, out, x, y):
    np.minimum(np.abs(a, out=x), np.abs(b, out=y), out=out)
    # the sign of a product is the XOR of the signs even when it underflows
    np.copysign(out, np.multiply(a, b, out=x), out=out)


def _f_exact(a, b, out, x, y):
    np.abs(a, out=x)
    np.abs(b, out=y)
    lo = np.minimum(x, y, out=out)
    hi = np.maximum(x, y, out=x)
    # lo + log1p(exp(-(lo + hi))) - log1p(exp(-(hi - lo))), as the scalar kernel
    near = np.log1p(np.exp(np.negative(np.add(lo, hi, out=y), out=y), out=y), out=y)
    far = np.log1p(np.exp(np.negative(np.subtract(hi, lo, out=x), out=x), out=x), out=x)
    mag = np.subtract(np.add(near, lo, out=y), far, out=y)
    # clamp to [0, lo] as the scalar kernel does; lo stays in out
    np.maximum(np.minimum(mag, lo, out=out), 0.0, out=out)
    # the sign of a * b, also for a zero result, as in the scalar kernel
    np.multiply(np.copysign(1.0, np.multiply(a, b, out=x), out=x), out, out=out)


def _f_words(a, b, out, x, y):
    """Min-sum f on integer words; the sign is the top bit of a ^ b."""
    np.minimum(np.abs(a, out=x), np.abs(b, out=y), out=out)
    sign = np.right_shift(np.bitwise_xor(a, b, out=x), 8 * a.itemsize - 1, out=x)
    sign |= 1  # -1 where the signs differ, 1 where they agree
    out *= sign


def _word_dtype(max_magnitude):
    """Smallest signed integer type that holds every g sum, +/-2*max_magnitude."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if 2 * max_magnitude <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"words of magnitude {max_magnitude} are too wide for int64")


def _compile(mask, n):
    """Check a frozen mask for rows of length ``n``; returns its schedule."""
    mask = _as_bits(mask, noun="mask")
    if len(mask) != n:
        raise ValueError(f"mask length {len(mask)} does not match row length {n}")
    return _schedule(mask.tobytes())


def _checked(llrs, kernel):
    """Check a (frames, N) LLR matrix: float64 for float kernels, integer words in range otherwise."""
    llrs = np.asarray(llrs)
    if llrs.ndim != 2:
        raise ValueError(f"expected a (frames, N) matrix, got shape {llrs.shape}")
    _require_power_of_two(llrs.shape[1], 2, "row length")
    if kernel.arithmetic == "quantized":
        if not np.issubdtype(llrs.dtype, np.integer):
            raise ValueError("quantized decode expects integer words; see quantize_batch")
        clip = kernel.qformat.max_magnitude
        if llrs.size and (llrs.min() < -clip or llrs.max() > clip):
            raise ValueError(f"quantized words must lie in [-{clip}, {clip}]")
        return llrs
    return _floats(llrs)


def _as_row(llrs, kernel):
    """
    One frame of channel LLRs as a numpy row, unchecked: the raw values for float
    kernels, the integer values of QLlr words of the kernel's width for the quantized one.
    """
    if kernel.arithmetic == "quantized":
        width = kernel.qformat.bits
        if any(not isinstance(x, QLlr) or x.bits != width for x in llrs):
            raise ValueError(f"quantized decode expects QLlr words of width {width}")
        return np.array([x.value for x in llrs], dtype=np.int64)
    return np.asarray(llrs)


class _State:
    """
    The buffers of up to ``width`` frames of length ``n`` and the kernel's
    arithmetic; :meth:`run` interprets any contiguous slice of a schedule.

    Rows [m, 2m) of the level buffer ``llr`` hold the LLRs of the current
    length-m node, so the channel LLRs stay in rows [n, 2n). ``mult`` holds
    each finished node's re-encoded bits as +/-1 multipliers, in bit-reversed
    order within the node, and ``u`` the decisions. The accessors below give
    and take one row per loaded frame, in natural order.
    """

    def __init__(self, kernel, n, width):
        if kernel.arithmetic == "quantized":
            self.clip = kernel.qformat.max_magnitude
            dtype, self.f = _word_dtype(self.clip), _f_words
        else:
            self.clip, dtype = None, np.float64
            self.f = _f_minsum if kernel.arithmetic == "minsum" else _f_exact
        self.shortcut = kernel.decision == "shortcut"
        self.n = n
        self.llr = np.empty((2 * n, width), dtype=dtype)
        self.mult = np.empty((n, width), dtype=dtype)
        self.scratch = np.empty((n // 2, width), dtype=dtype)
        self.u = np.empty((n, width), dtype=bool)
        self.flag = np.empty(width, dtype=bool)
        self.signs = np.array([1, -1], dtype=dtype)  # decision bit -> multiplier

    @classmethod
    def one_frame(cls, llrs, kernel):
        """A state loaded with one frame of channel LLRs (floats, or QLlr words for the quantized kernel)."""
        row = _checked(_as_row(llrs, kernel)[None], kernel)
        state = cls(kernel, row.shape[1], 1)
        state.load(row)
        return state

    def load(self, block):
        """Bit-reverse a checked (frames, n) block into the level buffer and clear ``u``."""
        self.frames, n = block.shape
        llr = self.llr[:, : self.frames]
        # transpose into the free lower levels, then gather the bit-reversed rows
        llr[:n] = block.T
        np.take(llr[:n], _bit_reversal(n), axis=0, out=llr[n:], mode="wrap")
        self.u[:, : self.frames].fill(False)

    def run(self, ops):
        """
        Run a slice of a schedule on the loaded frames. A leaf reads a frozen
        decision, never written, as the False that ``load`` left: multiplier
        +1. Rows [0, h) of ``llr`` belong to finished subtrees when a node of
        length 2h runs, so they serve as f's second scratch buffer.
        """
        k = self.frames
        llr, mult, u, scratch = self.llr[:, :k], self.mult[:, :k], self.u[:, :k], self.scratch[:, :k]
        f, clip, shortcut, signs, flag = self.f, self.clip, self.shortcut, self.signs, self.flag[:k]
        a, b = llr[2], llr[3]
        fv, x, y = llr[1], scratch[0], llr[0]
        for op in ops:
            kind = op[0]
            if kind == _LEAF:
                _, _, off, a_even, a_odd = op
                u0, u1 = u[off], u[off + 1]
                if a_even:
                    f(a, b, fv, x, y)
                    np.less(fv, 0, out=u0)
                if a_odd and shortcut:
                    # |a| > |b|: the sign of a XOR the even decision; else the sign of b
                    np.greater(np.abs(a, out=x), np.abs(b, out=y), out=flag)
                    np.less(np.where(flag, a, b), 0, out=u1)
                    u1 ^= np.logical_and(u0, flag, out=flag)
                elif a_odd:
                    # saturation keeps the sign, so the unclipped sum decides
                    np.less(np.where(u0, b - a, b + a), 0, out=u1)
                np.take(signs, u1.view(np.uint8), out=mult[off + 1], mode="wrap")
                np.take(signs, np.logical_xor(u0, u1, out=flag).view(np.uint8), out=mult[off], mode="wrap")
                continue
            _, h, off = op
            if kind == _F:
                f(llr[2 * h : 3 * h], llr[3 * h : 4 * h], llr[h : 2 * h], scratch[:h], llr[:h])
            elif kind == _G:
                child = llr[h : 2 * h]
                np.multiply(mult[off : off + h], llr[2 * h : 3 * h], out=child)
                child += llr[3 * h : 4 * h]
                if clip is not None:
                    np.clip(child, -clip, clip, out=child)
            elif kind == _COMBINE:
                mult[off : off + h] *= mult[off + h : off + 2 * h]
            else:
                mult[off : off + 2 * h].fill(1)

    def node_llrs(self, m):
        """The input LLRs of the running length-m node, (frames, m)."""
        return self.llr[m : 2 * m, : self.frames][_bit_reversal(m)].T

    def node_bits(self, off, m):
        """The re-encoded bits of the finished length-m node at ``off``, (frames, m)."""
        return (self.mult[off : off + m, : self.frames] < 0)[_bit_reversal(m)].T.astype(np.uint8)

    def decide(self, off, bits):
        """Write a (frames, m) bit matrix as the decisions of the length-m node at ``off``."""
        bits = _as_bits(bits, 2, "bit matrix")
        m = bits.shape[1]
        enc = _polar_transform(bits)
        self.mult[off : off + m, : self.frames] = np.where(enc[:, _bit_reversal(m)].T, -1, 1)
        self.u[off : off + m, : self.frames] = bits.T

    def decisions(self):
        """The decisions of the loaded frames, (frames, n) bits."""
        return self.u[:, : self.frames].T.astype(np.uint8)


def decode_batch(llrs, mask, kernel=None):
    """
    SC-decode each row of an LLR matrix.

    Parameters
    ----------
    llrs : ndarray, shape (frames, N)
        Float LLRs for float kernels; signed integer words (as produced by
        :func:`quantize_batch`) for the quantized kernel.
    mask : array-like of {0,1}
        Frozen-bit indicator vector of length N.
    kernel : DecoderKernel, optional
        Same selection semantics as scalar decode; defaults to float min-sum
        with the hardware decision shortcut.

    Returns
    -------
    ndarray, shape (frames, N)
        Decisions per frame, frozen positions zero.
    """
    if kernel is None:
        kernel = DecoderKernel.min_sum()
    llrs = _checked(llrs, kernel)
    ops = _compile(mask, llrs.shape[1])
    out = np.empty(llrs.shape, dtype=np.uint8)
    state = _State(kernel, llrs.shape[1], min(len(llrs), BLOCK_FRAMES))
    for start in range(0, len(llrs), BLOCK_FRAMES):
        state.load(llrs[start : start + BLOCK_FRAMES])
        state.run(ops)
        out[start : start + state.frames] = state.u[:, : state.frames].T
    return out


def decode(llrs, mask, kernel=None):
    """
    Decode one LLR vector by successive cancellation: a batch of one on
    :func:`decode_batch`.

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
