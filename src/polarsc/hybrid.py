"""Hybrid decoding: a synchronous LLR front end delegating component codes to the
combinational decoder, plus the analytical latency/throughput calculator."""

import math
from dataclasses import dataclass

import numpy as np

from .code import _as_bits, _require_power_of_two
from .llr import QLlr
from .vectorized import DecoderKernel, _compile, _schedule, _State, _subtrees, decode_batch

# Measured throughputs (b/s) of the combinational core on a mid-range FPGA,
# used to derive default component-decoder delays D = N'/TP.
DEFAULT_COMB_THROUGHPUT_BPS = {16: 1.05e9, 32: 0.88e9, 64: 0.85e9}


class _FrontEnd:
    """
    The synchronous front end: the full tree's schedule, run on one frame,
    with every length-N' subtree cut out.

    Iterating runs the schedule up to each component in turn and yields the
    component's offset and input LLRs (a one-row matrix); the caller writes
    its N' decisions with ``state.decide`` before the walk goes on.
    """

    def __init__(self, llrs, n_prime, kernel):
        self.state = _State.one_frame(llrs, kernel)
        n = self.state.n
        # a divisor >= 2 of a power of two is one
        if n_prime < 2 or n % n_prime != 0:
            raise ValueError(f"component length {n_prime} must be a power of two dividing {n}")
        self.n_prime = n_prime
        # it runs no leaf, and every component needs its input LLRs, so it
        # walks the unpruned tree: the schedule of the all-data mask
        self.ops = _schedule(b"\x01" * n)

    def __iter__(self):
        pos = 0
        for off, start, stop in _subtrees(self.ops, self.n_prime):
            self.state.run(self.ops[pos:start])
            yield off, self.state.node_llrs(self.n_prime)
            pos = stop


def component_inputs(llrs, decided, n_prime, kernel=None):
    """
    LLR vector handed to the component decoder for the next repetition.

    Runs the check/variable-node tree from the channel level down to the
    component-code level, consuming the ``decided`` bits (all component
    outputs so far; a trailing partial component is checked, then ignored)
    to form partial sums on the variable-node branches. This is the
    synchronous decoder's share of the work.
    """
    if kernel is None:
        kernel = DecoderKernel.min_sum()
    decided = _as_bits(decided, noun="decided bit vector")
    front = _FrontEnd(llrs, n_prime, kernel)
    target = len(decided) // n_prime * n_prime
    if target >= front.state.n:
        raise ValueError(f"{len(decided)} decided bits leave no component of a length-{front.state.n} code")
    for off, lam in front:
        if off == target:
            if kernel.arithmetic == "quantized":
                return [QLlr.from_value(int(v), kernel.qformat.bits) for v in lam[0]]
            return lam[0].tolist()
        front.state.decide(off, decided[None, off : off + n_prime])


def hybrid_decode(llrs, mask, n_prime, kernel=None):
    """
    Decode by alternating the synchronous front end and the component decoder.

    Runs N/N' repetitions; repetition i receives the intermediate LLRs for
    component i (which depend on all earlier component decisions through
    partial sums) and decodes them against the i-th slice of the mask. The
    result is bit-identical to a single full decode.

    Parameters
    ----------
    llrs : sequence
        Channel LLRs (floats or QLlr words, matching the kernel).
    mask : array-like of {0,1}
        Frozen-bit indicator for the full code.
    n_prime : int
        Component block length; must be a power of two dividing N.
    kernel : DecoderKernel, optional
        Arithmetic/decision selection shared by both decoder halves.
    """
    if kernel is None:
        kernel = DecoderKernel.min_sum()
    front = _FrontEnd(llrs, n_prime, kernel)
    # checked whole here; each component decodes its own slice
    _compile(mask, front.state.n)
    mask = np.asarray(mask)
    for off, lam in front:
        front.state.decide(off, decode_batch(lam, mask[off : off + n_prime], kernel))
    return front.state.decisions()[0]


def semi_parallel_latency(n, p):
    """
    Decode latency, in cycles, of a semi-parallel SC decoder with p shared PEs.

    Evaluates 2N + (N/P)*log2(N/(4P)). Only defined for P <= N/4, where the
    logarithm is nonnegative.
    """
    _require_power_of_two(n, 4, "block length")
    if p < 1:
        raise ValueError(f"processing-element count must be >= 1, got {p}")
    if p > n / 4:
        raise ValueError(
            f"latency model not defined for P > N/4 (got P={p}, N={n})"
        )
    return 2 * n + (n / p) * math.log2(n / (4 * p))


@dataclass(frozen=True)
class HybridConfig:
    """Hybrid-decoder sizing: code length, component length, synchronous PEs and
    clock, and the component decoder's combinational delay."""

    n: int
    n_prime: int
    p: int
    f_c_hz: float
    comb_delay_s: float

    def __post_init__(self):
        _require_power_of_two(self.n_prime, 2, "component length")
        if self.n % self.n_prime != 0:
            raise ValueError(f"component length {self.n_prime} must divide {self.n}")
        if self.f_c_hz <= 0 or self.comb_delay_s <= 0:
            raise ValueError("clock frequency and combinational delay must be positive")

    @classmethod
    def from_comb_throughput(cls, n, n_prime, p, f_c_hz, comb_tp_bps):
        """Derive the component delay from a measured combinational throughput."""
        if comb_tp_bps <= 0:
            raise ValueError("combinational throughput must be positive")
        return cls(n, n_prime, p, f_c_hz, n_prime / comb_tp_bps)


@dataclass(frozen=True)
class HybridReport:
    latency_cycles: float          # synchronous decode latency for the full code
    reduction_cycles: int          # cycles saved per repetition by the component decoder
    gain: float                    # throughput multiplier over the synchronous decoder
    synchronous_tp_bps: float
    hybrid_tp_bps: float


def latency_gain(cfg):
    """
    Throughput gain of the hybrid decoder over its synchronous baseline.

    The synchronous decoder would spend 2N'-2 cycles per component; the
    component decoder replaces those with ceil(D_N' * f_c) wait cycles, saving
    reduction_cycles per repetition. The gain divides the full synchronous
    latency by what remains after N/N' repetitions of that saving.
    """
    l_full = semi_parallel_latency(cfg.n, cfg.p)
    wait = math.ceil(cfg.comb_delay_s * cfg.f_c_hz)
    reduction = (2 * cfg.n_prime - 2) - wait
    remaining = l_full - (cfg.n // cfg.n_prime) * reduction
    if remaining <= 0:
        raise ValueError(
            "latency model breakdown: repetition savings exceed the total latency"
        )
    gain = l_full / remaining
    tp_sync = cfg.f_c_hz * cfg.n / l_full
    return HybridReport(l_full, reduction, gain, tp_sync, gain * tp_sync)
