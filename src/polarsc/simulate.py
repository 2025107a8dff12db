"""BPSK/AWGN channel model and a deterministic, parallelizable FER/BER harness."""

import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .code import CodeSpec
from .vectorized import DecoderKernel, decode_batch, encode_batch, quantize_batch

CSV_HEADER = "snr_db,trials,frame_errors,bit_errors,fer,ber,ci95"


@dataclass(frozen=True)
class AwgnChannel:
    """Binary-input AWGN channel at a given Eb/N0, for unit-energy BPSK."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    @property
    def noise_variance(self):
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


def bpsk_observations(x, chan, rng):
    """Map bits to +/-1 symbols and add Gaussian noise of the channel's variance."""
    x = np.asarray(x)
    symbols = 1.0 - 2.0 * x.astype(np.float64)
    return symbols + math.sqrt(chan.noise_variance) * rng.standard_normal(x.shape)


def observation_llrs(y, noise_variance):
    """Channel LLRs of noisy BPSK observations: 2y/sigma^2."""
    return 2.0 * np.asarray(y, dtype=np.float64) / noise_variance


def channel_llrs(x, chan, rng):
    """Transmit a codeword over the AWGN channel and return its LLR vector."""
    return observation_llrs(bpsk_observations(x, chan, rng), chan.noise_variance)


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
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be >= 1")
        if self.chunk_trials < 1:
            raise ValueError("chunk_trials must be >= 1")
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


def _chunk_counts(args):
    """Simulate one chunk of trials; pure function of its arguments."""
    mask, kernel, chan, seed, point_index, chunk_index, trials = args
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point_index, chunk_index))
    rng = np.random.Generator(np.random.Philox(ss))
    data_idx = np.flatnonzero(mask)
    u = np.zeros((trials, len(mask)), dtype=np.uint8)
    data = rng.integers(0, 2, size=(trials, len(data_idx)), dtype=np.uint8)
    u[:, data_idx] = data
    llrs = channel_llrs(encode_batch(u), chan, rng)
    if kernel.arithmetic == "quantized":
        llrs = quantize_batch(llrs, kernel.qformat)
    u_hat = decode_batch(llrs, mask, kernel)
    diff = u_hat[:, data_idx] != data
    frame_errors = int(np.count_nonzero(diff.any(axis=1)))
    bit_errors = int(np.count_nonzero(diff))
    return trials, frame_errors, bit_errors


def _chunk_args(config, chan, point_index):
    step = config.chunk_trials
    for chunk_index, start in enumerate(range(0, config.max_trials, step)):
        trials = min(step, config.max_trials - start)
        yield config.code.mask, config.kernel, chan, config.seed, point_index, chunk_index, trials


def _chunk_results(args, jobs):
    """Chunk counts in index order; with ``jobs > 1`` a pool runs waves of ``2 * jobs`` chunks."""
    if jobs <= 1:
        yield from map(_chunk_counts, args)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        wave = 2 * jobs
        for start in range(0, len(args), wave):
            yield from pool.map(_chunk_counts, args[start : start + wave])


def run_point(config, snr_db, point_index=None, jobs=1):
    """
    Run the stop-ruled Monte Carlo loop for a single SNR point.

    Chunks are folded in index order and the run stops at the first chunk
    boundary where the frame-error target is met or the trial budget is
    spent, so the returned counts do not depend on ``jobs``.

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
        Worker processes for chunk evaluation.

    Returns
    -------
    FerPoint
    """
    if point_index is None:
        if float(snr_db) not in config.snr_db:
            raise ValueError(f"SNR {snr_db} dB is not on the grid; pass point_index")
        point_index = config.snr_db.index(float(snr_db))
    chan = AwgnChannel(snr_db, config.code.rate if config.code.k else 1.0)
    trials = frame_errors = bit_errors = 0
    results = _chunk_results(list(_chunk_args(config, chan, point_index)), jobs)
    for chunk_trials, chunk_frame_errors, chunk_bit_errors in results:
        trials += chunk_trials
        frame_errors += chunk_frame_errors
        bit_errors += chunk_bit_errors
        if frame_errors >= config.min_frame_errors:
            break
    results.close()  # shuts the pool down before the counts are returned
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
