"""Polar code definition: GF(2) transform, frozen-set construction, data extraction."""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _require_power_of_two(n, minimum=1, noun="length"):
    if n < minimum or (n & (n - 1)) != 0:
        raise ValueError(f"{noun} must be a power of two >= {minimum}, got {n}")


def _as_bits(u, ndim=1, noun="bit vector"):
    """``u`` as a uint8 array of ``ndim`` axes, checked for 0/1 before the cast (no copy from uint8)."""
    raw = np.asarray(u)
    if raw.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D {noun}, got shape {raw.shape}")
    if not np.all((raw == 0) | (raw == 1)):
        raise ValueError(f"{noun} entries must be 0 or 1")
    return raw.astype(np.uint8, copy=False)


def encode(u):
    """
    Apply the polar transform to an input bit vector.

    The transform combines the two recursively-encoded halves pairwise:
    even outputs carry p ⊕ q, odd outputs carry q, where p and q are the
    encoded first and second halves. It is its own inverse over GF(2) and
    is reused inside the decoder to form partial sums from prior decisions.

    Parameters
    ----------
    u : array-like of {0,1}
        Input vector; length must be a power of two.

    Returns
    -------
    ndarray
        Codeword of the same length.
    """
    bits = _as_bits(u)
    _require_power_of_two(len(bits))
    return _polar_transform(bits)


@lru_cache(maxsize=None)
def _bit_reversal(n):
    """Permutation of range(n) that reverses the log2(n) bits of each index (read-only, shared)."""
    width = n.bit_length() - 1
    idx = np.arange(n)
    perm = np.zeros(n, dtype=np.intp)
    for b in range(width):
        perm |= ((idx >> b) & 1) << (width - 1 - b)
    perm.flags.writeable = False
    return perm


def _polar_transform(bits):
    """
    Polar transform along the last axis of a bit array (unchecked).

    The pair-combining recursion equals x = u·B_N·F^{⊗n}: one bit-reversal
    of the input, then the natural-order butterfly (first half ^= second
    half at every scale), done in place on the reversed copy.
    """
    n = bits.shape[-1]
    x = np.take(bits, _bit_reversal(n), axis=-1)
    h = 1
    while h < n:
        pairs = x.reshape(-1, n // (2 * h), 2, h)
        pairs[:, :, 0] ^= pairs[:, :, 1]
        h *= 2
    return x


def bec_reliabilities(n, design_erasure=0.5):
    """
    Erasure-probability proxies for the n synthetic bit channels.

    Starts from the design erasure probability and applies the recursion
    z -> {2z - z^2, z^2} once per tree level, so index i collects its
    transforms most-significant bit first (matching the decoder's
    first-half/second-half traversal). Lower value means more reliable.
    """
    _require_power_of_two(n)
    z = np.array([design_erasure], dtype=np.float64)
    while len(z) < n:
        nxt = np.empty(2 * len(z), dtype=np.float64)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


def construct_frozen_mask(n, k, design_erasure=0.5):
    """
    Build a frozen-bit indicator mask with k data positions.

    The k indices with the smallest erasure proxy become data (mask 1);
    the rest are frozen (mask 0). Ties freeze the lower index first.

    Parameters
    ----------
    n : int
        Block length, a power of two >= 2.
    k : int
        Number of data positions, 0 <= k <= n.
    design_erasure : float
        Design-channel erasure probability in (0, 1).

    Returns
    -------
    ndarray
        uint8 mask of length n with exactly k ones.
    """
    _require_power_of_two(n, 2, "block length")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if not 0.0 < design_erasure < 1.0:
        raise ValueError(f"design erasure must be in (0, 1), got {design_erasure}")
    z = bec_reliabilities(n, design_erasure)
    # stable sort on (z, -index): equal z prefers the higher index as data
    order = sorted(range(n), key=lambda i: (z[i], -i))
    mask = np.zeros(n, dtype=np.uint8)
    mask[order[:k]] = 1
    return mask


def extract_data(u_hat, mask):
    """Pick the entries of ``u_hat`` at data positions (mask 1), in index order."""
    u_hat = _as_bits(u_hat)
    mask = _as_bits(mask, noun="mask")
    if len(u_hat) != len(mask):
        raise ValueError(
            f"length mismatch: vector has {len(u_hat)}, mask has {len(mask)}"
        )
    return u_hat[mask == 1]


@dataclass
class CodeSpec:
    """A concrete polar code: block length and frozen-bit indicator mask."""

    n: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_power_of_two(self.n)
        self.mask = _as_bits(self.mask, noun="mask")
        if len(self.mask) != self.n:
            raise ValueError(f"mask length {len(self.mask)} != n {self.n}")
        self.mask.setflags(write=False)

    @classmethod
    def construct(cls, n, k, design_erasure=0.5):
        return cls(n, construct_frozen_mask(n, k, design_erasure))

    @property
    def k(self):
        return int(self.mask.sum())

    @property
    def rate(self):
        return self.k / self.n

    @property
    def data_indices(self):
        return np.flatnonzero(self.mask)


def save_mask(mask, path):
    """Write a mask file: line 1 is N, line 2 the N space-separated 0/1 values."""
    mask = _as_bits(mask, noun="mask")
    with open(path, "w") as fh:
        fh.write(f"{len(mask)}\n")
        fh.write(" ".join(str(int(b)) for b in mask) + "\n")


def load_mask(path):
    """Read a mask file written by :func:`save_mask`."""
    with open(path) as fh:
        header = fh.readline()
        try:
            n = int(header.strip())
        except ValueError:
            raise ValueError(f"{path}: first line must be the block length") from None
        values = fh.readline().split()
    if len(values) != n:
        raise ValueError(f"{path}: expected {n} mask values, found {len(values)}")
    try:
        mask = _as_bits([int(v) for v in values], noun="mask")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _require_power_of_two(n)
    return mask
