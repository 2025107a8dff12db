"""BPSK/AWGN channel model and a deterministic, parallelizable FER/BER harness.

A Monte Carlo chunk runs its stages in this order: data bits drawn from the
chunk's stream and gathered into the data positions of ``u``; encode; the
channel, worked in place on a noise draw from the same stream, a cached
tile at a time (scaled, shifted by the +/-1 symbols and turned into LLRs);
quantize, for a quantized kernel; decode; and a compare of whole rows, as
frozen positions are 0 in ``u`` and in the decisions. Only ``u`` and the
LLRs live on into the decoder.
"""

import io
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from .code import CodeSpec, _as_bits, _count, _finite, _polar_transform
from .vectorized import DecoderKernel, decode_batch, quantize_batch

CSV_HEADER = "snr_db,trials,frame_errors,bit_errors,fer,ber,ci95"


@dataclass(frozen=True)
class AwgnChannel:
    """Binary-input AWGN channel for unit-energy BPSK, at a finite Eb/N0 with a finite noise variance > 0."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        try:  # 10**(Eb/N0 / 10) overflows, or underflows to a zero divisor
            _finite(self.noise_variance, f"noise variance at {self.ebn0_db} dB", above=0)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"noise variance at {self.ebn0_db} dB is beyond the float range") from None

    @property
    def noise_variance(self):
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


# Channel values worked at a time: a 256 KB tile of floats stays in cache
# through every pass of the channel, where passes over a whole chunk go to memory.
_CHANNEL_TILE = 1 << 15


def _awgn(x, chan, rng, llrs):
    """
    Noisy BPSK observations of ``x``, or their LLRs when ``llrs``, worked in
    place on the noise draw a tile at a time: the float operations of
    ``symbols + sqrt(var) * noise`` and then ``2 * y / var``, in that order.
    ``x`` is checked for 0/1 entries at its own number of axes.
    """
    x = _as_bits(x, np.ndim(x), "codeword")
    var = chan.noise_variance
    sigma = math.sqrt(var)
    y = rng.standard_normal(x.shape)
    flat, bits = y.reshape(-1), x.reshape(-1)
    symbols = np.empty(min(_CHANNEL_TILE, flat.size))
    for i in range(0, flat.size, _CHANNEL_TILE):
        tile = flat[i : i + _CHANNEL_TILE]
        sym = symbols[: len(tile)]
        tile *= sigma
        # 1 - 2x as -2x + 1: the same floats
        np.multiply(bits[i : i + _CHANNEL_TILE], -2.0, out=sym, dtype=np.float64)
        sym += 1.0
        tile += sym
        if llrs:
            tile *= 2.0
            tile /= var
    return y


def bpsk_observations(x, chan, rng):
    """Map bits to +/-1 symbols and add Gaussian noise of the channel's variance."""
    return _awgn(x, chan, rng, llrs=False)


def observation_llrs(y, noise_variance):
    """Channel LLRs of noisy BPSK observations: 2y/sigma^2."""
    return 2.0 * np.asarray(y, dtype=np.float64) / noise_variance


def channel_llrs(x, chan, rng):
    """Transmit a codeword over the AWGN channel and return its LLR vector (``observation_llrs`` of ``bpsk_observations``)."""
    return _awgn(x, chan, rng, llrs=True)


@dataclass(frozen=True)
class SimConfig:
    """
    One Monte Carlo experiment: code, decoder, SNR grid, stop rule, seed.

    Trials are partitioned into fixed-size chunks; chunk c of SNR point p
    draws its bits and noise from a stream keyed by (seed, p, c), so results
    are bit-identical for any worker count or execution order.
    """

    code: CodeSpec
    kernel: DecoderKernel = DecoderKernel.min_sum()
    snr_db: Tuple[float, ...] = ()
    max_trials: int = 10**6
    min_frame_errors: int = 200
    seed: int = 0
    chunk_trials: int = 2048

    def __post_init__(self):
        for name in ("max_trials", "min_frame_errors", "chunk_trials"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))


@dataclass(frozen=True)
class FerPoint:
    """Monte Carlo result for one SNR point."""

    snr_db: float
    trials: int
    frame_errors: int
    bit_errors: int

    @property
    def fer(self):
        return self.frame_errors / self.trials

    @property
    def ber(self):
        total = self.trials * self.k
        return self.bit_errors / total if total else 0.0

    @property
    def ci95(self):
        p = self.fer
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)

    # data-bit count, the BER denominator
    k: int = 0


def _chunk_counts(config, chan, point_index, chunk_index):
    """Simulate chunk ``chunk_index`` of a point, trials counted from its number; pure function of its arguments."""
    trials = min(config.chunk_trials, config.max_trials - chunk_index * config.chunk_trials)
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(point_index, chunk_index))
    rng = np.random.Generator(np.random.Philox(ss))
    mask, kernel, k = config.code.mask, config.kernel, config.code.k
    data = rng.integers(0, 2, size=(trials, k), dtype=np.uint8)
    if k:
        # column j takes data column (data positions up to j) - 1; frozen columns are then cleared
        u = np.take(data, np.maximum(np.cumsum(mask, dtype=np.intp) - 1, 0), axis=1)
        u &= mask
    else:
        u = np.zeros((trials, len(mask)), dtype=np.uint8)
    del data  # only u lives on through decode
    # u is 0/1 uint8 by construction; the codeword is not kept past the channel
    llrs = channel_llrs(_polar_transform(u), chan, rng)
    if kernel.arithmetic == "quantized":
        llrs = quantize_batch(llrs, kernel.qformat)
    u_hat = decode_batch(llrs, mask, kernel)
    # frozen positions are 0 in both, so whole rows compare as the data columns
    diff = u_hat != u
    frame_errors = int(np.count_nonzero(diff.any(axis=1)))
    bit_errors = int(np.count_nonzero(diff))
    return trials, frame_errors, bit_errors


def run_point(config, snr_db, point_index=None, jobs=1):
    """
    Run the stop-ruled Monte Carlo loop for a single SNR point.

    Chunk n draws from the stream keyed by (seed, point, n); chunks run in
    waves of ``2 * jobs`` numbers (pooled when ``jobs > 1``), so the budget
    is never listed. They are folded in order up to the first chunk boundary
    where the frame-error target is met or the budget is spent, so the
    returned counts do not depend on ``jobs``.

    Parameters
    ----------
    config : SimConfig
        Experiment description.
    snr_db : float
        Eb/N0 of this point, in dB.
    point_index : int, optional
        Position of this point in the experiment's grid (selects the random
        streams). Defaults to its index in ``config.snr_db``; an SNR off the
        grid needs an explicit index, so that no two points share streams.
    jobs : int
        Worker processes for chunk evaluation, >= 1.

    Returns
    -------
    FerPoint
    """
    jobs = _count(jobs, "worker count", 1)
    if point_index is None:
        if float(snr_db) not in config.snr_db:
            raise ValueError(f"SNR {snr_db} dB is not on the grid; pass point_index")
        point_index = config.snr_db.index(float(snr_db))
    point_index = _count(point_index, "point index")
    chan = AwgnChannel(snr_db, config.code.rate if config.code.k else 1.0)
    counts = partial(_chunk_counts, config, chan, point_index)
    chunks = -(-config.max_trials // config.chunk_trials)
    trials = frame_errors = bit_errors = 0
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        while trials < config.max_trials and frame_errors < config.min_frame_errors:
            start = trials // config.chunk_trials  # every chunk folded so far was full
            wave = range(start, min(start + 2 * jobs, chunks))
            for chunk_trials, chunk_frame_errors, chunk_bit_errors in run(counts, wave):
                trials += chunk_trials
                frame_errors += chunk_frame_errors
                bit_errors += chunk_bit_errors
                if frame_errors >= config.min_frame_errors:
                    break
    return FerPoint(float(snr_db), trials, frame_errors, bit_errors, k=config.code.k)


def run_sweep(config, jobs=1):
    """Run every SNR point of the experiment grid; returns a list of FerPoint."""
    return [
        run_point(config, snr, point_index=i, jobs=jobs)
        for i, snr in enumerate(config.snr_db)
    ]


def write_csv(points, fh):
    """Write a FER curve as CSV (plain decimal numbers, one row per SNR point)."""
    fh.write(CSV_HEADER + "\n")
    for p in points:
        fh.write(
            f"{p.snr_db:g},{p.trials},{p.frame_errors},{p.bit_errors},"
            f"{p.fer:.8e},{p.ber:.8e},{p.ci95:.8e}\n"
        )


def csv_text(points):
    """The CSV document for a FER curve, as a string."""
    buf = io.StringIO()
    write_csv(points, buf)
    return buf.getvalue()
