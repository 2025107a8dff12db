"""Tests for the pipelined-decoder schedule, state invariants, and timing model."""

import re

import numpy as np
import pytest

from polarsc import (
    DecoderKernel,
    PipelinedDecoder,
    PipelineTimingModel,
    QFormat,
    QLlr,
    construct_frozen_mask,
    encode,
    pipeline_throughput,
)
from test_decoder import reference_decode

# measured FPGA throughput gains of one pipelining stage, per block length
MEASURED_STAGE_GAINS = {
    16: 2.23,
    32: 2.18,
    64: 2.11,
    128: 1.97,
    256: 2.10,
    512: 2.04,
    1024: 2.06,
}


def _frames(rng, n, count):
    return [rng.normal(scale=3.0, size=n) for _ in range(count)]


class TestSchedule:
    def test_six_codewords_single_stage(self):
        # inputs on cycles 1..6 produce outputs on cycles 3..8
        rng = np.random.default_rng(0)
        mask = construct_frozen_mask(8, 5)
        frames = _frames(rng, 8, 6)
        pipe = PipelinedDecoder(mask, stages=1)
        emitted = {}
        for cycle in range(1, 9):
            llrs = frames[cycle - 1] if cycle <= 6 else None
            out = pipe.step(llrs)
            if out is not None:
                emitted[cycle] = out
        assert sorted(emitted) == [3, 4, 5, 6, 7, 8]
        for cycle, out in emitted.items():
            assert np.array_equal(out, reference_decode(frames[cycle - 3], mask)[0])

    def test_empty_pipeline_is_silent(self):
        pipe = PipelinedDecoder(construct_frozen_mask(8, 4), stages=1)
        for cycle in range(1, 5):
            assert pipe.step(None) is None
            assert pipe.cycle == cycle

    def test_single_codeword_then_drain(self):
        rng = np.random.default_rng(1)
        mask = construct_frozen_mask(16, 9)
        frame = rng.normal(size=16)
        pipe = PipelinedDecoder(mask, stages=1)
        assert pipe.step(frame) is None
        outs = pipe.drain()
        assert len(outs) == 1
        assert np.array_equal(outs[0], reference_decode(frame, mask)[0])
        assert pipe.in_flight == 0

    @pytest.mark.parametrize("stages", [0, 1, 2, 3])
    def test_latency_is_stages_plus_one(self, stages):
        rng = np.random.default_rng(2)
        mask = construct_frozen_mask(4, 2)
        frame = rng.normal(size=4)
        pipe = PipelinedDecoder(mask, stages=stages)
        out_cycle = None
        result = pipe.step(frame)
        if result is not None:
            out_cycle = pipe.cycle
        for _ in range(stages + 4):
            result = pipe.step(None)
            if result is not None:
                out_cycle = pipe.cycle
                break
        assert out_cycle == stages + 2  # accepted during cycle 1, visible at 1+(S+1)


class TestStreamEquivalence:
    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("stages", [1, 2])
    def test_bubbled_streams(self, n, stages):
        rng = np.random.default_rng(100 * n + stages)
        mask = construct_frozen_mask(n, n // 2)
        kernel = DecoderKernel.min_sum()
        for _ in range(6):
            count = int(rng.integers(1, 21))
            frames = _frames(rng, n, count)
            pipe = PipelinedDecoder(mask, stages=stages, kernel=kernel)
            outputs = []
            queue = list(frames)
            while queue or pipe.in_flight:
                feed = queue.pop(0) if queue and rng.random() < 0.7 else None
                out = pipe.step(feed)
                if out is not None:
                    outputs.append(out)
            assert len(outputs) == count
            for frame, out in zip(frames, outputs):
                assert np.array_equal(out, reference_decode(frame, mask, kernel)[0])

    def test_quantized_kernel_stream(self):
        from polarsc import QFormat, quantize

        rng = np.random.default_rng(9)
        mask = construct_frozen_mask(8, 4)
        kernel = DecoderKernel.quantized(QFormat(5))
        frames = [
            [quantize(v, kernel.qformat) for v in rng.normal(scale=5.0, size=8)]
            for _ in range(5)
        ]
        pipe = PipelinedDecoder(mask, stages=1, kernel=kernel)
        outputs = []
        for frame in frames:
            out = pipe.step(frame)
            if out is not None:
                outputs.append(out)
        outputs.extend(pipe.drain())
        for frame, out in zip(frames, outputs):
            assert np.array_equal(out, reference_decode(frame, mask, kernel)[0])


class TestStateInvariants:
    def test_partial_sum_registers_hold_reencoded_decisions(self):
        rng = np.random.default_rng(4)
        mask = construct_frozen_mask(16, 11)
        pipe = PipelinedDecoder(mask, stages=2)
        for cycle in range(30):
            feed = rng.normal(size=16) if rng.random() < 0.8 else None
            pipe.step(feed)
            for bank in pipe.banks:
                if bank is not None:
                    assert bank.partial_sums == list(encode(bank.first_half))

    @pytest.mark.parametrize("stages", [0, 1, 2, 3])
    def test_in_flight_bound(self, stages):
        rng = np.random.default_rng(5)
        mask = construct_frozen_mask(4, 3)
        pipe = PipelinedDecoder(mask, stages=stages)
        for _ in range(4 * (stages + 2)):
            pipe.step(rng.normal(size=4))
            assert pipe.in_flight <= stages + 1

    @pytest.mark.parametrize("stages", [0, 1, 2])
    def test_rejected_input_changes_nothing(self, stages):
        rng = np.random.default_rng(6)
        mask = construct_frozen_mask(16, 9)
        frames = _frames(rng, 16, 3)
        # a short row and a NaN row between the frames
        stream = [frames[0], np.zeros(8), frames[1], np.full(16, np.nan), frames[2]]
        pipe = PipelinedDecoder(mask, stages=stages)
        outputs = []
        for i, feed in enumerate(stream):
            if i % 2:
                before = (pipe.cycle, pipe.in_flight)
                with pytest.raises(ValueError):
                    pipe.step(feed)
                assert (pipe.cycle, pipe.in_flight) == before
            else:
                out = pipe.step(feed)
                if out is not None:
                    outputs.append(out)
        outputs.extend(pipe.drain())
        assert len(outputs) == len(frames)
        for frame, out in zip(frames, outputs):
            assert np.array_equal(out, reference_decode(frame, mask)[0])

    def test_rejects_wrong_length_input(self):
        pipe = PipelinedDecoder(construct_frozen_mask(8, 4), stages=1)
        with pytest.raises(ValueError):
            pipe.step([1.0, 2.0])
        for frame in (3.0, np.zeros((1, 8))):  # not 1-D: refused with the frame's own shape
            with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(frame)}")):
                pipe.step(frame)
        assert (pipe.cycle, pipe.in_flight) == (0, 0)

    def test_checks_a_list_of_words_for_length_then_width(self):
        kernel, mask = DecoderKernel.quantized(QFormat(5)), construct_frozen_mask(8, 4)
        pipe = PipelinedDecoder(mask, stages=1, kernel=kernel)
        q5, q4 = QLlr.from_value(-3, 5), QLlr.from_value(2, 4)
        for frame, message in [
            ([q5] * 2, "expected 8 LLRs, got 2"),
            ([q4] * 2, "expected 8 LLRs, got 2"),
            ([q5] * 7 + [q4], "QLlr words of width 5"),
            ([[q5] * 8], "got shape (1, 8)"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                pipe.step(frame)
        assert (pipe.cycle, pipe.in_flight) == (0, 0)
        frame = [QLlr.from_value(v, 5) for v in (3, -1, 4, -1, 5, -9, 2, 6)]
        pipe.step(frame)
        assert np.array_equal(pipe.drain()[0], reference_decode(frame, mask, kernel)[0])

    @pytest.mark.parametrize("stages", [np.nan, 1.5])
    def test_rejects_non_integer_stages(self, stages):
        with pytest.raises(ValueError, match="stage count"):
            PipelinedDecoder(construct_frozen_mask(8, 4), stages=stages)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            PipelinedDecoder(construct_frozen_mask(8, 4), stages=-1)
        with pytest.raises(ValueError):
            PipelinedDecoder([1, 0, 1])
        with pytest.raises(ValueError):
            PipelinedDecoder([0.5, 1, 1, 1])
        with pytest.raises(ValueError):
            PipelinedDecoder([[0, 1, 1, 1]] * 4)
        for scalar in (5, None):  # refused as masks before their length is taken
            with pytest.raises(ValueError, match="1-D mask"):
                PipelinedDecoder(scalar)


class TestThroughputModel:
    def test_combinational_reference_point(self):
        # 2.56 Gb/s at N=1024 for a 400 ns critical path
        model = PipelineTimingModel(1024, 400e-9, 0)
        assert pipeline_throughput(model) == pytest.approx(2.56e9)

    def test_one_stage_doubles(self):
        model = PipelineTimingModel(1024, 400e-9, 1)
        assert pipeline_throughput(model) == pytest.approx(5.12e9)

    def test_small_block_against_measured_gain(self):
        base = PipelineTimingModel(16, 16 / 1.05e9, 0)
        staged = PipelineTimingModel(16, 16 / 1.05e9, 1)
        tp0, tp1 = pipeline_throughput(base), pipeline_throughput(staged)
        assert tp1 == pytest.approx(2.0997e9, rel=1e-3)
        assert tp1 / tp0 == pytest.approx(2.0)
        # the idealized doubling sits within tolerance of the measured 2.23
        assert abs(MEASURED_STAGE_GAINS[16] - 2.0) <= 0.25

    def test_measured_gains_bracket_the_model(self):
        for gain in MEASURED_STAGE_GAINS.values():
            assert abs(gain - 2.0) <= 0.25

    def test_validation(self):
        for n in (0, 2, 1000, 64.0):
            with pytest.raises(ValueError, match="block length"):
                PipelineTimingModel(n, 1e-9, 1)
        with pytest.raises(ValueError):
            PipelineTimingModel(16, 0.0, 1)
        with pytest.raises(ValueError):
            PipelineTimingModel(16, 1e-9, -1)

    @pytest.mark.parametrize("delay, stages", [(np.nan, 1), (np.inf, 1), (4e-7, np.nan), (4e-7, 1.5)])
    def test_rejects_non_finite_delay_and_fractional_stages(self, delay, stages):
        with pytest.raises(ValueError):
            PipelineTimingModel(1024, delay, stages)

    @pytest.mark.parametrize("delay, stages", [(1e-320, 0), (4e-7, 1014), (4e-7, 2000)])
    def test_throughput_beyond_float_range_fails(self, delay, stages):
        with pytest.raises(ValueError, match="pipeline throughput"):
            pipeline_throughput(PipelineTimingModel(1024, delay, stages))
