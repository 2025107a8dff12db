"""Cycle-accurate functional model of the pipelined combinational decoder."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .code import _bit_reversal
from .decoder import DecoderKernel, _as_row
from .vectorized import _G, _checked, _compile, _State


@dataclass
class StageRegisters:
    """Register bank between decoder halves: one codeword's decoder state after
    the first half. It keeps the channel LLRs, the first-half decisions and
    their partial sums (re-encoded as +/-1 multipliers)."""

    state: _State

    @property
    def first_half(self):
        half = len(self.state.u) // 2
        return [int(b) for b in self.state.u[:half, 0]]

    @property
    def partial_sums(self):
        half = len(self.state.u) // 2
        return [int(m < 0) for m in self.state.mult[_bit_reversal(half), 0]]


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
        self.mask = [int(b) for b in mask]
        n = len(self.mask)
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"mask length must be a power of two >= 4, got {n}")
        if stages < 0:
            raise ValueError(f"stage count must be >= 0, got {stages}")
        self.n = n
        self.stages = stages
        self.kernel = kernel if kernel is not None else DecoderKernel.min_sum()
        ops = _compile(mask, n)
        # the first half ends where the root's g starts
        cut = ops.index((_G, n // 2, 0))
        self._halves = ops[:cut], ops[cut:]
        self.banks: list[Optional[StageRegisters]] = [None] * stages
        self._out_reg: Optional[np.ndarray] = None
        self.cycle = 0

    @property
    def in_flight(self):
        """Codewords accepted but not yet presented at the output."""
        pending = sum(1 for b in self.banks if b is not None)
        return pending + (1 if self._out_reg is not None else 0)

    def _first_half(self, llrs):
        state = _State(self.kernel, self.n, 1)
        state.load(_checked(_as_row(llrs, self.kernel)[None], self.kernel))
        state.run(self._halves[0])
        return StageRegisters(state)

    def _second_half(self, bank):
        bank.state.run(self._halves[1])
        return bank.state.u[:, 0].astype(np.uint8)

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
        visible = self._out_reg
        last = self.banks[-1] if self.stages else None
        if self.stages:
            # drain the last bank into the output register, shift the rest
            self._out_reg = self._second_half(last) if last is not None else None
            for i in range(self.stages - 1, 0, -1):
                self.banks[i] = self.banks[i - 1]
            if llrs is not None:
                if len(llrs) != self.n:
                    raise ValueError(f"expected {self.n} LLRs, got {len(llrs)}")
                self.banks[0] = self._first_half(llrs)
            else:
                self.banks[0] = None
        else:
            if llrs is not None:
                if len(llrs) != self.n:
                    raise ValueError(f"expected {self.n} LLRs, got {len(llrs)}")
                bank = self._first_half(llrs)
                self._out_reg = self._second_half(bank)
            else:
                self._out_reg = None
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
    """Throughput model inputs: block length, unpipelined combinational delay,
    and the number of pipeline stages."""

    n: int
    base_delay_s: float
    stages: int = 0

    def __post_init__(self):
        if self.base_delay_s <= 0:
            raise ValueError("base combinational delay must be positive")
        if self.stages < 0:
            raise ValueError("stage count must be >= 0")


def pipeline_throughput(model):
    """
    Modeled throughput in bits/second: N / (D_N / 2**S).

    Assumes every added stage halves the critical path, the idealization that
    measured single-stage gains of 1.97-2.23 validate with tolerance. S=0
    reduces to the combinational throughput N/D_N.
    """
    return model.n * (2**model.stages) / model.base_delay_s
