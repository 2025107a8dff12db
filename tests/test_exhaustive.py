"""Every input of the length-2 leaf and of the length-4 block in quantized words, against the reference decoder."""

import itertools

import numpy as np
import pytest

from polarsc import DecoderKernel, PipelinedDecoder, QFormat, QLlr, decode, decode_batch, hybrid_decode
from test_decoder import reference_decode

DECISIONS = ("shortcut", "plain")
# every mask of a length-4 block
BLOCK_MASKS = list(itertools.product((0, 1), repeat=4))


def _every_input(bits, n):
    """Every frame of n words of ``bits`` bits, one per row: (2^bits - 1)^n rows."""
    m = QFormat(bits).max_magnitude
    axes = np.meshgrid(*[np.arange(-m, m + 1)] * n, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, n)


def _words(rows, bits):
    """The rows as lists of QLlr words, one word object per value."""
    m = QFormat(bits).max_magnitude
    words = [QLlr.from_value(v, bits) for v in range(-m, m + 1)]
    return [[words[v + m] for v in row] for row in rows.tolist()]


def _reference(frames, mask, kernel):
    return np.array([reference_decode(frame, mask, kernel)[0] for frame in frames])


@pytest.mark.parametrize("decision", DECISIONS)
@pytest.mark.parametrize("mask", [(0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("bits", range(2, 9))
def test_every_leaf_input(bits, mask, decision):
    # 7 bits is the widest word of an int8 state and 8 bits the narrowest of an int16 one
    kernel = DecoderKernel.quantized(QFormat(bits), decision)
    rows = _every_input(bits, 2)
    want = _reference(_words(rows, bits), mask, kernel)
    assert np.array_equal(decode_batch(rows, mask, kernel), want)


def _check_block(rows, bits, decision, sample, seed):
    """
    Every row through one decode_batch call per mask; a seeded sample of
    ``sample`` rows also through scalar decode, hybrid decode at N' = 2 and
    the pipeline at S = 0 and 1.
    """
    kernel = DecoderKernel.quantized(QFormat(bits), decision)
    frames = _words(rows, bits)
    rng = np.random.default_rng(seed)
    for mask in BLOCK_MASKS:
        want = _reference(frames, mask, kernel)
        assert np.array_equal(decode_batch(rows, mask, kernel), want), mask
        picks = rng.choice(len(frames), min(sample, len(frames)), replace=False)
        for i in picks:
            assert np.array_equal(decode(frames[i], mask, kernel), want[i]), (mask, rows[i])
            assert np.array_equal(hybrid_decode(frames[i], mask, 2, kernel), want[i]), (mask, rows[i])
        for stages in (0, 1):
            pipe = PipelinedDecoder(mask, stages=stages, kernel=kernel)
            outputs = [out for out in (pipe.step(frames[i]) for i in picks) if out is not None] + pipe.drain()
            assert np.array_equal(np.array(outputs), want[picks]), (mask, stages)


@pytest.mark.parametrize("decision", DECISIONS)
@pytest.mark.parametrize("bits", [2, 3])
def test_every_block_input(bits, decision):
    # 81 and 2401 inputs, with every magnitude tie, zero f output and clipped g sum
    _check_block(_every_input(bits, 4), bits, decision, sample=16, seed=bits)


@pytest.mark.parametrize("decision", DECISIONS)
def test_a_sample_of_block_inputs_of_4_bit_words(decision):
    rows = _every_input(4, 4)
    picks = np.random.default_rng(4).choice(len(rows), 256, replace=False)
    _check_block(rows[picks], 4, decision, sample=16, seed=4)


@pytest.mark.slow
@pytest.mark.parametrize("decision", DECISIONS)
def test_every_block_input_of_4_bit_words(decision):
    # 50625 inputs, about 40 s per rule
    _check_block(_every_input(4, 4), 4, decision, sample=64, seed=4)
