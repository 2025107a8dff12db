"""Tests for the channel model and the Monte Carlo harness contracts."""

import tracemalloc

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
    run_point,
    run_sweep,
)
from polarsc.simulate import CSV_HEADER, bpsk_observations, observation_llrs


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
