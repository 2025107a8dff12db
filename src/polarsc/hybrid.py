"""Hybrid decoding: component codes decoded behind the engine's synchronous front end
(``vectorized._components``), plus the analytical latency/throughput calculator."""

import math
from dataclasses import dataclass

import numpy as np

from .code import _as_bits, _count, _finite, _require_power_of_two
from .llr import QLlr
from .vectorized import DecoderKernel, _compile, _components, _State, decode_batch

# Measured throughputs (b/s) of the combinational core on a mid-range FPGA,
# used to derive default component-decoder delays D = N'/TP.
DEFAULT_COMB_THROUGHPUT_BPS = {16: 1.05e9, 32: 0.88e9, 64: 0.85e9}


def _component_length(n_prime, n):
    """``n_prime`` as an int, refused unless it is a power of two >= 2 that divides the code length ``n``."""
    n_prime = _require_power_of_two(n_prime, 2, "component length")
    if n % n_prime != 0:
        raise ValueError(f"component length {n_prime} must divide {n}")
    return n_prime


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
    state = _State.one_frame(llrs, kernel)
    n_prime = _component_length(n_prime, state.n)
    target = len(decided) // n_prime * n_prime
    if target >= state.n:
        raise ValueError(f"{len(decided)} decided bits leave no component of a length-{state.n} code")
    for off, lam in _components(state, n_prime):
        if off == target:
            if kernel.arithmetic == "quantized":
                return [QLlr.from_value(int(v), kernel.qformat.bits) for v in lam[0]]
            return lam[0].tolist()
        state.decide(off, decided[None, off : off + n_prime])


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
        Component block length; must be an integer power of two dividing N.
    kernel : DecoderKernel, optional
        Arithmetic/decision selection shared by both decoder halves.
    """
    if kernel is None:
        kernel = DecoderKernel.min_sum()
    state = _State.one_frame(llrs, kernel)
    n_prime = _component_length(n_prime, state.n)
    # checked whole here; each component decodes its own slice
    _compile(mask, state.n)
    mask = np.asarray(mask)
    for off, lam in _components(state, n_prime):
        state.decide(off, decode_batch(lam, mask[off : off + n_prime], kernel))
    return state.decisions()[0]


def semi_parallel_latency(n, p):
    """
    Decode latency, in cycles, of a semi-parallel SC decoder with p shared PEs.

    Evaluates 2N + (N/P)*log2(N/(4P)). Only defined for P <= N/4, where the
    logarithm is nonnegative.
    """
    _require_power_of_two(n, 4, "block length")
    nf = _finite(n, "block length")  # so that no int-to-float conversion below can overflow
    if _count(p, "processing-element count", 1) > nf / 4:
        raise ValueError(f"latency model not defined for P > N/4 (got P={p}, N={n})")
    return _finite(2 * nf + (nf / p) * math.log2(nf / (4 * p)), "semi-parallel latency")


@dataclass(frozen=True)
class HybridConfig:
    """Hybrid-decoder sizing: code length and synchronous PEs as ``semi_parallel_latency``
    takes them, component length, and the finite, positive clock and component delay."""

    n: int
    n_prime: int
    p: int
    f_c_hz: float
    comb_delay_s: float

    def __post_init__(self):
        _component_length(self.n_prime, self.n)
        semi_parallel_latency(self.n, self.p)  # refuses the N and P that latency_gain would
        _finite(self.f_c_hz, "clock frequency", above=0)
        _finite(self.comb_delay_s, "combinational delay", above=0)

    @classmethod
    def from_comb_throughput(cls, n, n_prime, p, f_c_hz, comb_tp_bps):
        """Derive the component delay from a measured combinational throughput (finite, > 0)."""
        return cls(n, n_prime, p, f_c_hz, n_prime / _finite(comb_tp_bps, "combinational throughput", above=0))


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
    latency by what remains after N/N' repetitions of that saving; an overflow is an error.
    """
    l_full = semi_parallel_latency(cfg.n, cfg.p)
    wait = math.ceil(_finite(cfg.comb_delay_s * cfg.f_c_hz, "component wait in cycles"))
    reduction = (2 * cfg.n_prime - 2) - wait
    # what remains, (N/P)*log2(N/(4P)) + (N/N')*(2 + wait), is > 0 since P <= N/4; in floats it can reach inf
    gain = _finite(l_full / (l_full - cfg.n // cfg.n_prime * float(reduction)), "latency gain", above=0)
    tp_sync = _finite(cfg.f_c_hz * cfg.n / l_full, "synchronous throughput")
    return HybridReport(l_full, reduction, gain, tp_sync, _finite(gain * tp_sync, "hybrid throughput"))
