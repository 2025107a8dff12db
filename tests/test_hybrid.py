"""Tests for hybrid decoding transparency and the latency/throughput model."""

import math

import numpy as np
import pytest

from polarsc import (
    DecoderKernel,
    HybridConfig,
    QFormat,
    component_inputs,
    construct_frozen_mask,
    decode,
    encode,
    g_fn,
    hybrid_decode,
    latency_gain,
    quantize,
    semi_parallel_latency,
)
from test_decoder import reference_decode

# published reference rows: (N, P, f_c Hz, N', component TP b/s, gain, hybrid Mb/s)
REFERENCE_ROWS = [
    (2**10, 64, 173e6, 2**4, 1.05e9, 5.90, 501.0),
    (2**10, 64, 173e6, 2**5, 0.88e9, 6.50, 552.0),
    (2**10, 64, 173e6, 2**6, 0.85e9, 7.22, 613.0),
    (2**11, 64, 171e6, 2**4, 1.05e9, 5.70, 473.0),
    (2**11, 64, 171e6, 2**5, 0.88e9, 6.23, 517.0),
    (2**11, 64, 171e6, 2**6, 0.85e9, 7.27, 603.0),
]


class TestComponentSplit:
    def test_rate_half_length8_component_masks(self):
        mask = construct_frozen_mask(8, 4)
        assert np.array_equal(mask, [0, 0, 0, 1, 0, 1, 1, 1])
        assert list(mask[:4]) == [0, 0, 0, 1]
        assert list(mask[4:]) == [0, 1, 1, 1]

    def test_first_component_sees_checknode_tree(self):
        rng = np.random.default_rng(0)
        llrs = rng.normal(size=8)
        lam = component_inputs(llrs, [], 4)
        from polarsc import f_minsum

        level1 = [f_minsum(llrs[2 * j], llrs[2 * j + 1]) for j in range(4)]
        want = [f_minsum(level1[0], level1[1]), f_minsum(level1[2], level1[3])]
        # N'=4 stops one level down; N'=2 reaches the want values
        assert component_inputs(llrs, [], 2) == pytest.approx(want)
        assert lam == pytest.approx(level1)

    def test_second_component_from_decode_output(self):
        # decode returns uint8 bits; they must form partial sums as 0/1 ints
        rng = np.random.default_rng(2)
        mask = construct_frozen_mask(8, 4)
        u = np.array([0, 0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
        llrs = 3.0 * (1.0 - 2.0 * encode(u)) + rng.normal(scale=0.3, size=8)
        decided = decode(llrs, mask)[:4]
        assert decided.dtype == np.uint8 and decided[3] == 1
        v = encode(decided)
        want = [g_fn(llrs[2 * j], llrs[2 * j + 1], int(v[j])) for j in range(4)]
        assert component_inputs(llrs, decided, 4) == pytest.approx(want)


class TestTransparency:
    def test_degenerate_split_is_plain_decode(self):
        rng = np.random.default_rng(1)
        mask = construct_frozen_mask(16, 8)
        llrs = rng.normal(size=16)
        assert np.array_equal(hybrid_decode(llrs, mask, 16), reference_decode(llrs, mask)[0])

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_all_divisors_match_full_decode(self, n):
        rng = np.random.default_rng(n)
        for _ in range(8):
            mask = rng.integers(0, 2, n, dtype=np.uint8)
            llrs = rng.normal(scale=3.0, size=n)
            want, _ = reference_decode(llrs, mask)
            n_prime = 2
            while n_prime <= n:
                got = hybrid_decode(llrs, mask, n_prime)
                assert np.array_equal(got, want), (n, n_prime)
                n_prime *= 2

    def test_quantized_kernel_transparency(self):
        rng = np.random.default_rng(3)
        kernel = DecoderKernel.quantized(QFormat(5))
        mask = construct_frozen_mask(32, 20)
        words = [quantize(v, kernel.qformat) for v in rng.normal(scale=6.0, size=32)]
        want, _ = reference_decode(words, mask, kernel)
        for n_prime in (2, 4, 8, 16, 32):
            assert np.array_equal(hybrid_decode(words, mask, n_prime, kernel), want)

    def test_rejects_non_divisor(self):
        mask = construct_frozen_mask(16, 8)
        with pytest.raises(ValueError):
            hybrid_decode([1.0] * 16, mask, 3)
        with pytest.raises(ValueError):
            hybrid_decode([1.0] * 16, mask, 32)


class TestSemiParallelLatency:
    def test_reference_values(self):
        assert semi_parallel_latency(1024, 64) == pytest.approx(2080)
        assert semi_parallel_latency(2048, 64) == pytest.approx(4192)

    def test_log_term_vanishes_at_quarter(self):
        assert semi_parallel_latency(1024, 256) == pytest.approx(2048)

    def test_rejects_out_of_model_pe_count(self):
        with pytest.raises(ValueError):
            semi_parallel_latency(1024, 512)
        with pytest.raises(ValueError):
            semi_parallel_latency(1024, 0)


class TestLatencyGain:
    @pytest.mark.parametrize("n,p,fc,nprime,tp,gain_pub,tp_pub", REFERENCE_ROWS)
    def test_reference_rows(self, n, p, fc, nprime, tp, gain_pub, tp_pub):
        cfg = HybridConfig.from_comb_throughput(n, nprime, p, fc, tp)
        rep = latency_gain(cfg)
        assert rep.gain == pytest.approx(gain_pub, rel=0.015)
        assert rep.hybrid_tp_bps / 1e6 == pytest.approx(tp_pub, rel=0.015)

    def test_synchronous_throughput_reference(self):
        for n, fc, want in ((2**10, 173e6, 85.0), (2**11, 171e6, 83.0)):
            tp = fc * n / semi_parallel_latency(n, 64)
            assert tp / 1e6 == pytest.approx(want, rel=0.01)

    def test_gain_floor(self):
        # whenever the ceiled wait fits inside the conventional latency, gain >= 1
        for nprime in (8, 16, 64):
            for wait_cycles in (1, nprime, 2 * nprime - 2):
                cfg = HybridConfig(1024, nprime, 64, 1e8, (wait_cycles - 0.5) / 1e8)
                rep = latency_gain(cfg)
                assert math.ceil(cfg.comb_delay_s * cfg.f_c_hz) == wait_cycles
                assert rep.reduction_cycles >= 0
                assert rep.gain >= 1.0

    def test_gain_grows_with_component_size(self):
        gains = []
        for nprime, tp in ((16, 1.05e9), (32, 0.88e9), (64, 0.85e9)):
            cfg = HybridConfig.from_comb_throughput(1024, nprime, 64, 173e6, tp)
            gains.append(latency_gain(cfg).gain)
        assert gains == sorted(gains)

    def test_gain_below_one_for_slow_component(self):
        cfg = HybridConfig(1024, 16, 64, 1e8, 1e-6)  # 100-cycle wait per repetition
        rep = latency_gain(cfg)
        assert rep.reduction_cycles < 0
        assert rep.gain < 1.0

    def test_wait_cycles_are_ceiled(self):
        cfg = HybridConfig(1024, 16, 64, 173e6, 16 / 1.05e9)
        rep = latency_gain(cfg)
        assert rep.reduction_cycles == 30 - math.ceil((16 / 1.05e9) * 173e6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(1024, 3, 64, 1e8, 1e-8)
        with pytest.raises(ValueError):
            HybridConfig(1024, 2048, 64, 1e8, 1e-8)
        with pytest.raises(ValueError):
            HybridConfig(1024, 16, 64, 0.0, 1e-8)
        for tp in (0.0, -1.05e9):
            with pytest.raises(ValueError):
                HybridConfig.from_comb_throughput(1024, 16, 64, 1e8, tp)


def test_component_inputs_checks_a_trailing_partial_component():
    with pytest.raises(ValueError):
        component_inputs([1.0] * 8, [0, 0, 0, 0, 7], 4)
