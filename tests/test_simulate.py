"""Tests for the channel model and the Monte Carlo harness contracts."""

import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from polarsc import (
    AwgnChannel,
    CodeSpec,
    DecoderKernel,
    QFormat,
    SimConfig,
    channel_llrs,
    csv_text,
    decode_batch,
    encode_batch,
    quantize_batch,
    run_point,
    run_sweep,
)
from polarsc.simulate import CSV_HEADER, _awgn, _chunk_counts, bpsk_observations, observation_llrs
from polarsc.vectorized import _FLAT_TILE, _State


def two_step_observations(x, noise_variance, rng):
    """Noisy BPSK observations from whole-array temporaries, for a seeded generator or a seed."""
    noise = np.random.default_rng(rng).standard_normal(np.shape(x))
    return (1.0 - 2.0 * np.asarray(x).astype(np.float64)) + math.sqrt(noise_variance) * noise


class TestChannel:
    def test_noise_variance_formula(self):
        # R=1/2 at 0 dB gives sigma^2 = 1
        assert AwgnChannel(0.0, 0.5).noise_variance == pytest.approx(1.0)
        assert AwgnChannel(3.0, 0.5).noise_variance == pytest.approx(
            1.0 / 10.0 ** 0.3
        )

    def test_llr_mapping(self):
        # bit 0 observed at +1 with unit variance maps to LLR 2
        assert observation_llrs(1.0, 1.0) == pytest.approx(2.0)

    def test_noiseless_limit_signs(self):
        rng = np.random.default_rng(0)
        chan = AwgnChannel(40.0, 0.5)  # essentially noise-free
        x = rng.integers(0, 2, 64, dtype=np.uint8)
        llrs = channel_llrs(x, chan, rng)
        assert np.array_equal(llrs < 0, x == 1)

    def test_symmetry_under_bit_flip(self):
        chan = AwgnChannel(2.0, 0.5)
        x = np.array([0, 1, 0, 0], dtype=np.uint8)
        noise = np.array([0.3, -0.2, 0.05, -0.4])
        y = (1.0 - 2.0 * x) + noise
        y_flipped = (1.0 - 2.0 * (1 - x)) - noise
        assert np.allclose(
            observation_llrs(y, chan.noise_variance),
            -observation_llrs(y_flipped, chan.noise_variance),
        )

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AwgnChannel(1.0, 0.0)

    @pytest.mark.parametrize("ebn0_db", [np.nan, np.inf, -np.inf, 4000.0, -4000.0])
    def test_rejects_eb_n0_without_a_finite_positive_variance(self, ebn0_db):
        with pytest.raises(ValueError, match="noise variance"):
            AwgnChannel(ebn0_db, 0.5)

    # within one tile of the in-place channel, and over several with a partial last one
    @pytest.mark.parametrize("shape", [(64,), (16, 32), (100_000,), (5, 20_000)])
    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
    def test_channel_llrs_equal_the_two_step_channel_bit_for_bit(self, shape, dtype):
        x = np.random.default_rng(9).integers(0, 2, shape[::-1]).astype(dtype).T  # strided when 2-D
        chan = AwgnChannel(1.5, 0.5)
        var = chan.noise_variance
        llrs = channel_llrs(x, chan, np.random.default_rng(4))
        assert llrs.shape == shape and llrs.dtype == np.float64
        for y in (bpsk_observations(x, chan, np.random.default_rng(4)), two_step_observations(x, var, 4)):
            assert np.array_equal(llrs.view(np.uint64), observation_llrs(y, var).view(np.uint64))

    # one value, a tile less one, a tile and one, and several tiles with a partial last one
    @pytest.mark.parametrize("shape", [(1,), (_FLAT_TILE - 1,), (_FLAT_TILE + 1,), (3, 20_000)], ids=str)
    @pytest.mark.parametrize("fmt", [None, QFormat(5)], ids=["llrs", "q5"])
    def test_tile_wise_draws_equal_one_sized_draw_bit_for_bit(self, shape, fmt):
        x = np.random.default_rng(9).integers(0, 2, shape, dtype=np.uint8)
        chan = AwgnChannel(1.5, 0.5)
        var = chan.noise_variance
        rng = np.random.Generator(np.random.Philox(3))
        sized = copy.deepcopy(rng)
        want = observation_llrs(two_step_observations(x, var, sized), var)
        if fmt is not None:
            want = quantize_batch(want, fmt)
        into = np.empty_like(want)
        drawn = [copy.deepcopy(rng), copy.deepcopy(rng)]
        fresh = _awgn(x, chan, drawn[0], llrs=True, fmt=fmt)
        assert _awgn(x, chan, drawn[1], llrs=True, fmt=fmt, out=into) is into
        after = sized.bit_generator.random_raw(4)
        for got, gen in zip((fresh, into), drawn):
            assert got.shape == shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            # the tiles leave the stream where the sized draw leaves it
            assert np.array_equal(gen.bit_generator.random_raw(4), after)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    @pytest.mark.parametrize("channel", [channel_llrs, bpsk_observations])
    def test_refuses_codewords_that_are_not_bits(self, channel, shape, bad):
        x = np.array([0, 1, bad, 0]).reshape(shape)
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            channel(x, AwgnChannel(1.0, 0.5), np.random.default_rng(0))

    # one tile, and several with a partial last one; each width at a scale where it
    # saturates at an LLR of about 4, so both saturated and unsaturated words occur
    @pytest.mark.parametrize("shape", [(64,), (16, 32), (100_000,), (5, 20_000)])
    @pytest.mark.parametrize(
        "fmt",
        [QFormat(bits, 2.0 ** (bits - 3)) for bits in (2, 5, 8, 9, 16, 33, 55, 64)] + [QFormat(5, 1e308)],
        ids=str,
    )
    def test_channel_words_equal_quantize_batch_of_channel_llrs_bit_for_bit(self, shape, fmt):
        x = np.random.default_rng(9).integers(0, 2, shape[::-1]).astype(np.uint8).T  # strided when 2-D
        chan = AwgnChannel(1.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = _awgn(x, chan, np.random.default_rng(4), llrs=True, fmt=fmt)
        want = quantize_batch(channel_llrs(x, chan, np.random.default_rng(4)), fmt)
        assert words.shape == shape and words.dtype == want.dtype
        assert np.array_equal(words, want)
        assert np.abs(words).max() == fmt.max_magnitude  # some words saturate

    @pytest.mark.parametrize("fmt", [None, QFormat(5)], ids=["llrs", "q5"])
    def test_a_channel_whose_llrs_overflow_is_refused_without_a_warning(self, fmt):
        # at 3080 dB and rate 1/2 the noise variance is 1e-308, so 2y / var passes the float maximum
        chan = AwgnChannel(3080.0, 0.5)
        x = np.zeros((4, 8), dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Eb/N0 3080.0 dB"):
                _awgn(x, chan, np.random.default_rng(0), llrs=True, fmt=fmt)
            # observations stay finite
            assert np.all(bpsk_observations(x, chan, np.random.default_rng(0)) == 1.0)

    def test_observations_have_unit_signal(self):
        rng = np.random.default_rng(1)
        chan = AwgnChannel(100.0, 1.0)
        y = bpsk_observations(np.array([0, 1]), chan, rng)
        assert y == pytest.approx([1.0, -1.0], abs=1e-3)


def small_config(**overrides):
    defaults = dict(
        code=CodeSpec.construct(32, 16),
        snr_db=(1.0, 3.0),
        max_trials=2048,
        min_frame_errors=50,
        seed=42,
        chunk_trials=256,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestRunPoint:
    def test_all_frozen_code_never_errs(self):
        config = small_config(code=CodeSpec.construct(16, 0), snr_db=(-5.0,), max_trials=512)
        point = run_point(config, -5.0)
        assert point.frame_errors == 0
        assert point.fer == 0.0
        assert point.ber == 0.0

    def test_deterministic_across_runs(self):
        a = run_point(small_config(), 1.0, point_index=0)
        b = run_point(small_config(), 1.0, point_index=0)
        assert a == b

    def test_deterministic_across_worker_counts(self):
        serial = run_point(small_config(), 1.0, point_index=0, jobs=1)
        parallel = run_point(small_config(), 1.0, point_index=0, jobs=2)
        assert serial == parallel

    def test_ber_never_exceeds_fer(self):
        for snr in (0.0, 2.0, 4.0):
            config = small_config(snr_db=(snr,))
            point = run_point(config, snr)
            assert point.k == config.code.k
            assert point.ber <= point.fer + 1e-12

    def test_stop_rule_honors_trial_budget(self):
        point = run_point(small_config(max_trials=300, min_frame_errors=10**9), 1.0)
        assert point.trials == 300

    def test_stop_rule_stops_on_errors(self):
        # at 1 dB this code errs on a large fraction of frames
        config = small_config(max_trials=100_000, min_frame_errors=30)
        point = run_point(config, 1.0)
        assert point.frame_errors >= 30
        assert point.trials < 100_000

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, True])
    def test_rejects_a_worker_count_below_one(self, jobs):
        with pytest.raises(ValueError, match="worker count"):
            run_point(small_config(), 1.0, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("point_index", [-1, 1.5, np.nan])
    def test_rejects_a_point_index_that_is_not_a_count(self, point_index, jobs):
        with pytest.raises(ValueError, match="point index"):
            run_point(small_config(), 1.0, point_index=point_index, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_huge_budget_stops_after_one_chunk_without_listing_it(self, jobs):
        # at -5 dB the first chunk alone meets the target
        config = small_config(snr_db=(-5.0,), max_trials=256 * 10**6, min_frame_errors=10)
        tracemalloc.start()
        try:
            point = run_point(config, -5.0, jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert point.trials == config.chunk_trials
        assert point.frame_errors >= config.min_frame_errors
        assert peak < 4 * 2**20  # a list of the 10**6 chunks' arguments alone is ~130 MB

    def test_snr_point_streams_differ(self):
        config = small_config()
        a = run_point(config, 1.0, point_index=0)
        b = run_point(config, 1.0, point_index=1)
        assert (a.frame_errors, a.bit_errors) != (b.frame_errors, b.bit_errors)

    def test_off_grid_snr_needs_point_index(self):
        config = small_config(max_trials=256)
        with pytest.raises(ValueError):
            run_point(config, 2.0)
        assert run_point(config, 2.0, point_index=5).trials == 256

    def test_confidence_width_shrinks_with_trials(self):
        short = run_point(
            small_config(max_trials=256, min_frame_errors=10**9), 1.0
        )
        long = run_point(
            small_config(max_trials=4096, min_frame_errors=10**9), 1.0
        )
        assert long.ci95 < short.ci95
        assert long.ci95 == pytest.approx(
            1.96 * np.sqrt(long.fer * (1 - long.fer) / long.trials)
        )

    def test_quantized_kernel_runs(self):
        config = small_config(
            kernel=DecoderKernel.quantized(QFormat(5)), snr_db=(2.0,), max_trials=512
        )
        point = run_point(config, 2.0)
        assert point.trials == 512


def reference_chunk_counts(config, chan, point_index, chunk_index):
    """A chunk stage by stage: data columns scattered into zeros, encode_batch,
    a channel of whole-array temporaries, decode, and a compare of the data columns alone."""
    trials = min(config.chunk_trials, config.max_trials - chunk_index * config.chunk_trials)
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(point_index, chunk_index))
    rng = np.random.Generator(np.random.Philox(ss))
    mask = config.code.mask
    data_idx = np.flatnonzero(mask)
    u = np.zeros((trials, len(mask)), dtype=np.uint8)
    data = rng.integers(0, 2, size=(trials, len(data_idx)), dtype=np.uint8)
    u[:, data_idx] = data
    llrs = observation_llrs(two_step_observations(encode_batch(u), chan.noise_variance, rng), chan.noise_variance)
    if config.kernel.arithmetic == "quantized":
        llrs = quantize_batch(llrs, config.kernel.qformat)
    diff = decode_batch(llrs, mask, config.kernel)[:, data_idx] != data
    return trials, int(np.count_nonzero(diff.any(axis=1))), int(np.count_nonzero(diff))


CHUNK_MASKS = {
    "k=0": np.zeros(64, dtype=np.uint8),
    "k=N": np.ones(64, dtype=np.uint8),
    "rate-1/2": CodeSpec.construct(64, 32).mask,
    "random": np.random.default_rng(2).integers(0, 2, 64, dtype=np.uint8),
}


@pytest.mark.parametrize("kernel", [DecoderKernel.min_sum(), DecoderKernel.quantized(QFormat(5))], ids=["minsum", "q5"])
@pytest.mark.parametrize("mask", CHUNK_MASKS.values(), ids=CHUNK_MASKS.keys())
def test_chunk_counts_equal_the_stage_by_stage_chunk(kernel, mask):
    # 600 trials in chunks of 256: two full chunks and a partial last one
    config = small_config(code=CodeSpec(64, mask), kernel=kernel, max_trials=600, chunk_trials=256)
    chan = AwgnChannel(1.0, config.code.rate if config.code.k else 1.0)
    for point_index, chunk_index in [(0, 0), (1, 1), (0, 2)]:
        counts = _chunk_counts(config, chan, point_index, chunk_index)
        assert counts == reference_chunk_counts(config, chan, point_index, chunk_index)
        assert counts[0] == (88 if chunk_index == 2 else 256)
        assert (counts[1] > 0) == (config.code.k > 0)  # errors at 1 dB, none with nothing sent


@pytest.mark.parametrize("kernel", [DecoderKernel.min_sum(), DecoderKernel.quantized(QFormat(5))], ids=["minsum", "q5"])
def test_chunk_counts_spanning_several_channel_tiles_equal_the_stage_by_stage_chunk(kernel):
    # a full chunk of 2048 trials and a partial one of 1600, at N = 64: 4 and 3.125 channel tiles
    config = small_config(code=CodeSpec.construct(64, 32), kernel=kernel, max_trials=3648, chunk_trials=2048)
    chan = AwgnChannel(1.0, 0.5)
    for chunk_index, trials in [(0, 2048), (1, 1600)]:
        assert trials * 64 > 3 * _FLAT_TILE
        counts = _chunk_counts(config, chan, 0, chunk_index)
        assert counts == reference_chunk_counts(config, chan, 0, chunk_index)
        assert counts[0] == trials and counts[1] > 0


# 9000 trials: 8 full float blocks of 1024 frames and a partial one, or a full
# int8 block of 8192 frames and a partial one
@pytest.mark.parametrize(
    "kernel, blocks", [(DecoderKernel.min_sum(), 9), (DecoderKernel.quantized(QFormat(5)), 2)], ids=["minsum", "q5"]
)
def test_chunk_counts_over_several_decode_blocks_equal_the_stage_by_stage_chunk(kernel, blocks):
    config = small_config(code=CodeSpec.construct(64, 32), kernel=kernel, max_trials=9000, chunk_trials=9000)
    chan = AwgnChannel(1.0, 0.5)
    width = _State(kernel, 64, 9000).width
    assert -(-9000 // width) == blocks and 9000 % width
    counts = _chunk_counts(config, chan, 0, 0)
    assert counts == reference_chunk_counts(config, chan, 0, 0)
    assert counts[0] == 9000 and counts[1] > 0


@pytest.mark.parametrize(
    "k, kernel", [(853, DecoderKernel.min_sum()), (512, DecoderKernel.quantized(QFormat(5)))], ids=["minsum", "q5"]
)
def test_a_chunk_holds_its_decode_state_and_four_bytes_per_trial_and_position(k, kernel):
    # the chunk draws, decodes and compares one decode block at a time, into the
    # state's own buffers, so no array of LLRs or words the size of the chunk is held
    config = small_config(code=CodeSpec.construct(1024, k), kernel=kernel, max_trials=4096, chunk_trials=2048)
    chan = AwgnChannel(3.0, config.code.rate)
    _chunk_counts(config, chan, 0, 0)  # the schedule and the bit reversals are cached
    state_bytes = sum(a.nbytes for a in _State(kernel, 1024, 2048).storage)
    tracemalloc.start()
    try:
        counts = _chunk_counts(config, chan, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == 2048
    assert peak < state_bytes + 4 * 2048 * 1024


@pytest.mark.parametrize("kernel", [DecoderKernel.min_sum(), DecoderKernel.quantized(QFormat(5))], ids=["minsum", "q5"])
def test_a_point_whose_channel_llrs_overflow_is_refused_without_a_warning(kernel):
    config = small_config(kernel=kernel, snr_db=(3080.0,), max_trials=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"channel LLRs at Eb/N0 3080\.0 dB are beyond the float range"):
            run_point(config, 3080.0)


@pytest.mark.parametrize("kernel", [DecoderKernel.min_sum(), DecoderKernel.exact()], ids=["minsum", "exact"])
def test_a_point_whose_float_llrs_pass_the_decoder_bound_names_its_snr(kernel):
    # at 3075 dB and rate 1/2 the LLRs are finite, about 6e307, but above float max / N
    config = small_config(kernel=kernel, snr_db=(3075.0,), max_trials=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = r"^channel LLRs at Eb/N0 3075\.0 dB are out of the decoder's range: LLRs must be finite"
        with pytest.raises(ValueError, match=want):
            run_point(config, 3075.0)
    # words saturate, so the 5-bit decoder takes the same channel
    quantized = small_config(kernel=DecoderKernel.quantized(QFormat(5)), snr_db=(3075.0,), max_trials=64)
    assert run_point(quantized, 3075.0).frame_errors == 0


def test_a_pooled_point_whose_float_llrs_pass_the_decoder_bound_is_refused_as_a_serial_one():
    # the refusal is raised around the decoder's load in a pool worker, and reaches the caller as it is
    config = small_config(snr_db=(3075.0,), max_trials=64)
    messages = []
    for jobs in (1, 2):
        with pytest.raises(ValueError) as refused:
            run_point(config, 3075.0, jobs=jobs)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("channel LLRs at Eb/N0 3075.0 dB are out of the decoder's range: LLRs must be finite")


class TestSweepAndCsv:
    def test_sweep_covers_grid_in_order(self):
        config = small_config(max_trials=512, min_frame_errors=10**9)
        points = run_sweep(config)
        assert [p.snr_db for p in points] == [1.0, 3.0]

    def test_fer_improves_with_snr(self):
        config = small_config(
            snr_db=(0.0, 4.0), max_trials=4096, min_frame_errors=10**9
        )
        points = run_sweep(config)
        assert points[0].fer > points[1].fer

    def test_csv_layout_and_determinism(self):
        config = small_config(max_trials=512, min_frame_errors=10**9)
        text = csv_text(run_sweep(config))
        again = csv_text(run_sweep(config))
        assert text == again
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert fields[0] == "1"
        assert int(fields[1]) == 512
        float(fields[4]), float(fields[5]), float(fields[6])
        assert "," in text and ";" not in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(max_trials=0)
        with pytest.raises(ValueError):
            small_config(min_frame_errors=0)
        with pytest.raises(ValueError):
            small_config(chunk_trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_trials", np.nan),
            ("max_trials", 1.5),
            ("min_frame_errors", np.nan),
            ("chunk_trials", 2.0),
            ("chunk_trials", True),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})
