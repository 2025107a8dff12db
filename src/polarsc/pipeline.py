"""Cycle-accurate functional model of the pipelined combinational decoder."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .code import _as_bits, _count, _finite, _require_power_of_two
from .vectorized import DecoderKernel, _compile, _State, _subtrees


@dataclass
class StageRegisters:
    """Register bank between decoder halves: one codeword's decoder state after
    the first half. It keeps the channel LLRs, the first-half decisions and
    their partial sums (re-encoded as +/-1 multipliers)."""

    state: _State

    @property
    def first_half(self):
        return self.state.decisions()[0, : self.state.n // 2].tolist()

    @property
    def partial_sums(self):
        return self.state.node_bits(0, self.state.n // 2)[0].tolist()


class PipelinedDecoder:
    """
    Pipelined combinational decoder with S register banks.

    Each :meth:`step` call is one clock cycle. A codeword presented at cycle
    t emerges at cycle t+S+1: the first-half decoder works on the fresh input
    while the bank contents move one stage forward, and the second-half
    decoder drains the last bank into the output register. At most S+1
    codewords are in flight. Missing inputs are bubbles and propagate.

    Parameters
    ----------
    mask : array-like of {0,1}
        Frozen-bit indicator for the code (length N, a power of two >= 4).
    stages : int
        Number of register banks, >= 0 (0 degenerates to an input/output
        registered combinational decoder with latency 1).
    kernel : DecoderKernel, optional
        Arithmetic/decision selection, as for plain decoding.
    """

    def __init__(self, mask, stages=1, kernel=None):
        n = len(_as_bits(mask, noun="mask"))  # a scalar mask has no length
        _require_power_of_two(n, 4, "mask length")
        self.stages = _count(stages, "stage count")
        ops = _compile(mask, n)
        self.n = n
        self.kernel = kernel if kernel is not None else DecoderKernel.min_sum()
        # the first half decodes the root's first child; an all-frozen mask
        # compiles to one zero step, which the first half runs
        cut = next((stop for _, _, stop in _subtrees(ops, n // 2)), len(ops))
        self._halves = ops[:cut], ops[cut:]
        self.banks: list[Optional[StageRegisters]] = [None] * self.stages
        self._out_reg: Optional[np.ndarray] = None
        self.cycle = 0

    @property
    def in_flight(self):
        """Codewords accepted but not yet presented at the output."""
        pending = sum(1 for b in self.banks if b is not None)
        return pending + (1 if self._out_reg is not None else 0)

    def step(self, llrs=None):
        """
        Advance one clock cycle.

        Parameters
        ----------
        llrs : sequence or None
            Channel LLR vector accepted this cycle, or None for a bubble.

        Returns
        -------
        ndarray or None
            The decision vector visible at the output registers during this
            cycle (the codeword accepted S+1 cycles earlier), or None.
        """
        bank = None
        if llrs is not None:
            # a rejected input raises here, before any register changes (one_frame refuses a frame that is not 1-D)
            if np.ndim(llrs) == 1 and len(llrs) != self.n:
                raise ValueError(f"expected {self.n} LLRs, got {len(llrs)}")
            bank = StageRegisters(_State.one_frame(llrs, self.kernel))
            bank.state.run(self._halves[0])
        visible, self._out_reg = self._out_reg, None
        # the banks shift one stage; the one that falls off the end (the new
        # one when S = 0) drains through the second half into the output register
        self.banks.insert(0, bank)
        last = self.banks.pop()
        if last is not None:
            last.state.run(self._halves[1])
            self._out_reg = last.state.decisions()[0]
        self.cycle += 1
        return visible

    def drain(self):
        """Step with bubbles until every accepted codeword has been emitted."""
        out = []
        for _ in range(self.stages + 1):
            result = self.step(None)
            if result is not None:
                out.append(result)
        return out


@dataclass(frozen=True)
class PipelineTimingModel:
    """Throughput model inputs: block length, unpipelined combinational delay
    (a finite number > 0), and the number of pipeline stages."""

    n: int
    base_delay_s: float
    stages: int = 0

    def __post_init__(self):
        _require_power_of_two(self.n, 4, "block length")
        _finite(self.base_delay_s, "base combinational delay", above=0)
        _count(self.stages, "stage count")


def pipeline_throughput(model):
    """
    Modeled throughput in bits/second: N / (D_N / 2**S).

    Assumes every added stage halves the critical path, the idealization that
    measured single-stage gains of 1.97-2.23 validate with tolerance. S=0
    reduces to the combinational throughput N/D_N; an overflow is an error.
    """
    try:  # 2.0**S raises past the float range; N / D itself may be inf
        return _finite(model.n / model.base_delay_s * 2.0**model.stages, "pipeline throughput")
    except OverflowError:
        raise ValueError(f"pipeline throughput overflows at {model.stages} stages") from None
