"""The SC decode engine, and batched numpy encode and quantize, one row per frame.

:class:`DecoderKernel` selects the arithmetic and the odd-bit decision rule.
:func:`decode_batch` runs the SC recursion as a flat schedule compiled once
per frozen mask. Frames sit in the last axis of an (N, frames) block, the
channel LLRs are bit-reversed on entry so that every node reads its two
halves as contiguous row ranges, and each node hands its re-encoded bits up
as +/-1 multipliers, so the variable-node update is one multiply and one add.
A fully frozen subtree is one step that sets its multipliers to +1, and
quantized words are carried in the narrowest integer type that holds a g sum
(int8 up to 7-bit words). A block holds the LLR bytes of ``BLOCK_FRAMES``
float frames, so narrower words decode more frames per numpy call, and it is
filled and emptied ``_TILE`` frames at a time.

This module alone builds schedules and knows their steps and the buffer
layout, and ``_State.run`` alone interprets them; a leaf reads a frozen
decision as the False that loading left. The one-frame decoders, scalar
:func:`decode`, the pipeline model and the hybrid decoder, load their frame
only through ``_State.one_frame`` and run the schedule, or slices of it cut
by ``_subtrees`` (the op range of each subtree of a given length), on that
state. The hybrid decoder's front end is ``_components``, a walk of the full
tree's schedule that stops at each component, since it reads frozen
components' input LLRs too.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .code import _as_bits, _bit_reversal, _butterfly, _polar_transform, _require_power_of_two
from .llr import QFormat, QLlr

# Float frames decoded together. A block of words holds as many bytes of LLRs,
# 8192 int8 or 4096 int16 frames, so numpy's cost per call is spread over more
# frames of a narrower word. The buffers take 25 bytes per frame and position for
# floats and 4 for int8 words, so this bounds the working set of a large batch
# (about 26 MB at N=1024 for floats, 34 MB for int8 words).
BLOCK_FRAMES = 1024

# Frames copied into or out of a block at a time: a (_TILE, N) slice stays in
# cache while it is transposed, where a whole block's transpose does not.
_TILE = 64

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
        if (self.arithmetic == "quantized") != (self.qformat is not None):
            raise ValueError("quantized arithmetic requires a QFormat, and no other arithmetic takes one")
        if self.qformat is not None:
            # refused here, not at the first decode: the decode state must hold a g sum
            _word_dtype(2 * self.qformat.max_magnitude)

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
    """
    Quantize float LLRs to sign-magnitude words, as signed integers of the narrowest
    type that holds the format's maximum magnitude: int8 up to 8 bits, int16 up to 16,
    int32 up to 32, int64 above.
    """
    llrs = _floats(llrs)
    top = fmt.max_magnitude
    mag = np.abs(llrs, out=np.empty_like(llrs))  # an array, also for a 0-d input
    with np.errstate(over="ignore"):  # a product that overflows to inf saturates below
        mag *= fmt.scale
    mag += 0.5
    np.floor(mag, out=mag)
    # exact at every width: from 55 bits float(top) rounds up past top, and no
    # float below float(top) exceeds top; a negative that rounds to 0 is -0.0, the word 0
    over = mag >= top
    mag[over] = 0.0
    words = np.copysign(mag, llrs, out=mag).astype(_word_dtype(top))
    words[over] = top
    words[over & (llrs < 0)] = -top
    return words


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


def _components(state, n_prime):
    """
    The hybrid decoder's synchronous front end: the full tree's schedule run on
    a state its caller loaded, of any width, up to each length-N' subtree in
    turn. It yields the subtree's offset and input LLRs, (frames, N') in natural
    order; the caller writes its N' decisions with ``state.decide`` before the walk goes on.
    """
    # it runs no leaf, and every component needs its input LLRs, so it
    # walks the unpruned tree: the schedule of the all-data mask
    ops = _schedule(b"\x01" * state.n)
    pos = 0
    for off, start, stop in _subtrees(ops, n_prime):
        state.run(ops[pos:start])
        # rows [N', 2N') of the level buffer hold the node's LLRs, bit-reversed
        yield off, state.llr[n_prime : 2 * n_prime][_bit_reversal(n_prime)].T
        pos = stop


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


def _word_dtype(bound):
    """Smallest signed integer type that holds [-bound, bound]; the decoder passes the bound of a g sum, 2 * max_magnitude."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"a magnitude of {bound} is too wide for int64")


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


class _State:
    """
    The buffers of up to ``width`` frames of length ``n`` (a block, or fewer
    when the batch has fewer ``frames``) and the kernel's arithmetic;
    :meth:`run` interprets any contiguous slice of a schedule.

    Rows [m, 2m) of the level buffer ``llr`` hold the LLRs of the current
    length-m node, so the channel LLRs stay in rows [n, 2n). ``mult`` holds
    each finished node's re-encoded bits as +/-1 multipliers, in bit-reversed
    order within the node, ``u`` the decisions and ``flag`` a bool per frame:
    the whole datapath, as f borrows rows that no finished step needs. The
    accessors below give and take one row per loaded frame, in natural order.
    """

    def __init__(self, kernel, n, frames):
        if kernel.arithmetic == "quantized":
            dtype, self.f = _word_dtype(2 * kernel.qformat.max_magnitude), _f_words
            # a bound in the word type spares np.clip an np.iinfo per call
            self.clip = dtype(kernel.qformat.max_magnitude)
        else:
            self.clip, dtype = None, np.float64
            self.f = _f_minsum if kernel.arithmetic == "minsum" else _f_exact
        self.shortcut = kernel.decision == "shortcut"
        self.n = n
        # the LLR bytes of a float block; at least one frame, since
        # decode_batch steps through a batch, even an empty one, by this width
        self.width = width = max(1, min(frames, BLOCK_FRAMES * 8 // np.dtype(dtype).itemsize))
        rows = ((2 * n, dtype), (n, dtype), (n, bool), (1, bool))
        self.storage = [np.empty((r, width), dtype=t) for r, t in rows]

    @classmethod
    def one_frame(cls, llrs, kernel, n=None):
        """
        A state loaded with one frame of channel LLRs: floats, or QLlr words of
        the quantized kernel's width. A frame whose length is not ``n``, when
        given, is refused before its words are checked.
        """
        width = kernel.qformat.bits if kernel.arithmetic == "quantized" else None
        # a list of words of the kernel's width is read as it is, where numpy
        # would build an object array of it, probing each word
        words = (
            width is not None
            and isinstance(llrs, (list, tuple))
            and all(isinstance(x, QLlr) and x.bits == width for x in llrs)
        )
        if not words:
            llrs = np.asarray(llrs)
            if llrs.ndim != 1:
                raise ValueError(f"expected a 1-D frame of LLRs, got shape {llrs.shape}")
        if n is not None and len(llrs) != n:
            raise ValueError(f"expected {n} LLRs, got {len(llrs)}")
        if width is not None:
            if not words and any(not isinstance(x, QLlr) or x.bits != width for x in llrs):
                raise ValueError(f"quantized decode expects QLlr words of width {width}")
            llrs = np.array([x.value for x in llrs], dtype=np.int64)
        row = _checked(llrs[None], kernel)
        state = cls(kernel, row.shape[1], 1)
        state.load(row)
        return state

    def load(self, block):
        """Cut the buffers of a checked (frames, n) block, bit-reverse it into the level buffer and clear ``u``."""
        k, n = block.shape
        # a block runs on the start of each buffer, so that its rows are
        # contiguous at any width and no numpy call copies them
        self.frames = k
        self.llr, self.mult, self.u, (self.flag,) = (
            a.ravel()[: len(a) * k].reshape(-1, k) for a in self.storage
        )
        # transpose into the free lower levels, then gather the bit-reversed rows
        lower = self.llr[:n]
        for i in range(0, k, _TILE):
            lower[:, i : i + _TILE] = block[i : i + _TILE].T
        np.take(lower, _bit_reversal(n), axis=0, out=self.llr[n:], mode="wrap")
        self.u.fill(False)

    def run(self, ops):
        """
        Run a slice of a schedule on the loaded frames. A leaf reads a frozen
        decision, never written, as the False that ``load`` left: multiplier
        +1. It writes a decision d as the multiplier 1 - 2d in the word type,
        and its first row as the product of its two, and under either rule the
        odd bit is the sign of one value: the g sum b + (1 - 2 u0) a (plain),
        or that product where |a| > |b| and b elsewhere (shortcut, the
        hardware's compare and select). The f of a length-2h node at ``off``
        borrows rows [0, h) of ``llr`` from finished subtrees, and rows
        [off, off + h) of ``mult`` (a leaf's row ``off``) from its first
        child, whose leaf and zero steps write each of them before any step
        reads it.
        """
        llr, mult, u, flag = self.llr, self.mult, self.u, self.flag
        f, clip, shortcut = self.f, self.clip, self.shortcut
        a, b = llr[2], llr[3]
        fv, y = llr[1], llr[0]
        for op in ops:
            kind = op[0]
            if kind == _LEAF:
                _, _, off, a_even, a_odd = op
                u0, u1, x0, x1 = u[off], u[off + 1], mult[off], mult[off + 1]
                if a_even:
                    f(a, b, fv, x0, y)
                    np.less(fv, 0, out=u0)
                # a decision d is the multiplier 1 - 2d, computed in the word type
                np.multiply(u0, -2, out=x0, dtype=x0.dtype)
                x0 += 1
                if a_odd:
                    # the odd bit is the sign of y = (1 - 2 u0) a, where shortcut
                    # replaces y by b wherever |a| <= |b| (ties included), and
                    # plain adds b: the unclipped g sum, whose sign saturation keeps
                    np.multiply(x0, a, out=y)
                    if shortcut:
                        np.copyto(y, b, where=np.less_equal(np.abs(a, out=fv), np.abs(b, out=x1), out=flag))
                    else:
                        y += b
                    np.less(y, 0, out=u1)
                np.multiply(u1, -2, out=x1, dtype=x1.dtype)
                x1 += 1
                x0 *= x1
                continue
            _, h, off = op
            if kind == _F:
                f(llr[2 * h : 3 * h], llr[3 * h : 4 * h], llr[h : 2 * h], mult[off : off + h], llr[:h])
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

    def node_bits(self, off, m):
        """The re-encoded bits of the finished length-m node at ``off``, (frames, m)."""
        return (self.mult[off : off + m] < 0)[_bit_reversal(m)].T.astype(np.uint8)

    def decide(self, off, bits):
        """Write a checked (frames, m) uint8 bit matrix as the decisions of the length-m node at ``off``."""
        # the node keeps its re-encoded bits bit-reversed, and the butterfly
        # commutes with bit reversal, so the transform's reversal cancels it
        m, enc = bits.shape[1], bits.copy()
        _butterfly(enc)
        mult = self.mult[off : off + m]
        # 1 - 2d in the word type: on the uint8 bits themselves it would wrap to 255
        np.multiply(enc.T, -2, out=mult, dtype=mult.dtype)
        mult += 1
        self.u[off : off + m] = bits.T

    def decisions(self, out=None):
        """The decisions of the loaded frames as (frames, n) bits, written into ``out`` if given."""
        if out is None:
            out = np.empty((self.frames, self.n), dtype=np.uint8)
        for i in range(0, self.frames, _TILE):
            # compact the tile first: its transpose then reads cached rows
            out[i : i + _TILE] = np.ascontiguousarray(self.u[:, i : i + _TILE]).T
        return out


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
    state = _State(kernel, llrs.shape[1], len(llrs))
    for start in range(0, len(llrs), state.width):
        state.load(llrs[start : start + state.width])
        state.run(ops)
        state.decisions(out[start : start + state.frames])
    return out


def decode(llrs, mask, kernel=None):
    """
    Decode one LLR vector by successive cancellation: the mask's schedule
    run on a one-frame state.

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
    state = _State.one_frame(llrs, kernel)
    state.run(_compile(mask, state.n))
    return state.decisions()[0]
