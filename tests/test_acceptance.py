"""Acceptance suite: one test per criterion, each printing a PASS line.

The Monte Carlo criteria (9 and 10) run a few million decoded frames and take
minutes; everything else is seconds. Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import math
import os

import numpy as np
import pytest

from polarsc import (
    CodeSpec,
    DecoderKernel,
    GateDelays,
    HybridConfig,
    PipelinedDecoder,
    QFormat,
    SimConfig,
    complexity,
    construct_frozen_mask,
    decode,
    decode_batch,
    delay_closed,
    delay_recursive,
    encode_batch,
    hybrid_decode,
    latency_gain,
    metrics,
    quantize_batch,
    run_point,
    semi_parallel_latency,
    structural_unit_counts,
)
from test_decoder import reference_decode, unrolled4

JOBS = max(1, min(2, os.cpu_count() or 1))


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_c01_hybrid_gain_table_reproduction():
    rows = [
        (2**10, 64, 173e6, 2**4, 1.05e9, 5.90, 501.0, 85.0),
        (2**10, 64, 173e6, 2**5, 0.88e9, 6.50, 552.0, 85.0),
        (2**10, 64, 173e6, 2**6, 0.85e9, 7.22, 613.0, 85.0),
        (2**11, 64, 171e6, 2**4, 1.05e9, 5.70, 473.0, 83.0),
        (2**11, 64, 171e6, 2**5, 0.88e9, 6.23, 517.0, 83.0),
        (2**11, 64, 171e6, 2**6, 0.85e9, 7.27, 603.0, 83.0),
    ]
    for n, p, fc, nprime, comb_tp, gain_pub, tp_pub, tp_sp_pub in rows:
        cfg = HybridConfig.from_comb_throughput(n, nprime, p, fc, comb_tp)
        rep = latency_gain(cfg)
        assert rep.gain == pytest.approx(gain_pub, rel=0.015)
        assert rep.hybrid_tp_bps / 1e6 == pytest.approx(tp_pub, rel=0.015)
        tp_sp = fc * n / semi_parallel_latency(n, p)
        assert tp_sp / 1e6 == pytest.approx(tp_sp_pub, rel=0.01)
    report("1 hybrid gain/throughput table, six rows within 1.5%")


def test_c02_synthesis_metrics_reproduction():
    columns = {
        2**6: (45.5e6, 0.0998, 0.153e-6, 2.92e9, 34.1e-12, 19084e12, 0.015),
        2**7: (22.2e6, 0.1388, 0.338e-6, 2.83e9, 49.0e-12, 8372e12, 0.015),
        2**8: (11.0e6, 0.1587, 0.759e-6, 2.81e9, 56.4e-12, 3700e12, 0.015),
        2**9: (5.2e6, 0.1814, 1.514e-6, 2.69e9, 67.4e-12, 1776e12, 0.015),
        2**10: (2.5e6, 0.1907, 3.213e-6, 2.56e9, 74.5e-12, 796e12, 0.01),
    }
    for n, (freq, power, area, tp, epb, he, tol) in columns.items():
        m = metrics(n, 1.0 / freq, power, area)
        assert m.throughput_bps == pytest.approx(tp, rel=tol)
        assert m.energy_per_bit_j == pytest.approx(epb, rel=tol)
        assert m.hw_efficiency_bps_per_m2 == pytest.approx(he, rel=tol)
    report("2 published metric columns within 1%/1.5%")


def test_c03_delay_model_identity():
    rng = np.random.default_rng(1234)
    sizes = [2**e for e in range(3, 17)]
    for _ in range(1000):
        x, a, m = rng.uniform(0.0, 2.0, 3)
        c = 3 * x + a + rng.uniform(0.0, 2.0)  # keep the base-block assumption
        d = GateDelays(c, m, x, a)
        n = sizes[rng.integers(0, len(sizes))]
        rec = delay_recursive(n, d)
        closed = delay_closed(n, d)
        assert abs(closed - rec) <= 1e-12 * max(1.0, abs(rec))
    for n in sizes:  # every size at least once
        d = GateDelays(5.0, 1.0, 1.0, 1.0)
        assert delay_closed(n, d) == pytest.approx(delay_recursive(n, d), rel=1e-12)
    report("3 recursive and closed-form delays agree to 1e-12")


def test_c04_complexity_anchors_and_structure():
    c4 = complexity(4)
    assert (c4.check_comparators, c4.decision_comparators, c4.adders, c4.total) == (
        2, 2, 4, 8,
    )
    assert complexity(1024).total == 14336 == 1024 * (3 * 10 // 2 - 1)
    for n in (4, 8, 16, 32):
        walk = structural_unit_counts(n)
        closed = complexity(n)
        assert (walk.check_comparators, walk.decision_comparators, walk.adders) == (
            closed.check_comparators,
            closed.decision_comparators,
            closed.adders,
        )
    report("4 complexity anchors and structural walk")


def test_c05_unrolled_oracle_equivalence_exhaustive():
    kernel = DecoderKernel.min_sum()
    grid = range(-4, 5)
    masks = [bits for bits in itertools.product((0, 1), repeat=4)]
    cases = 0
    for llrs in itertools.product(grid, repeat=4):
        llrs = [float(v) for v in llrs]
        for mask in masks:
            want = unrolled4(llrs, mask, shortcut=True)
            got = decode(llrs, list(mask), kernel)
            assert np.array_equal(got, want), (llrs, mask)
            cases += 1
    assert cases == 9**4 * 16
    report(f"5 recursive decode equals unrolled forms on {cases} cases")


def test_c06_noiseless_roundtrip_10k_instances():
    rng = np.random.default_rng(77)
    q5 = QFormat(5)
    kernel_q = DecoderKernel.quantized(q5)
    groups, per_group = 200, 50
    for _ in range(groups):
        n = 2 ** int(rng.integers(1, 11))
        k = int(rng.integers(0, n + 1))
        mask = construct_frozen_mask(n, k)
        u = rng.integers(0, 2, (per_group, n), dtype=np.uint8) * mask
        magnitude = float(rng.integers(1, 16))
        llrs = magnitude * (1.0 - 2.0 * encode_batch(u).astype(np.float64))
        assert np.array_equal(decode_batch(llrs, mask), u)
        assert np.array_equal(
            decode_batch(quantize_batch(llrs, q5), mask, kernel_q), u
        )
    # scalar spot checks on top of the batched bulk
    from polarsc import encode, quantize

    for _ in range(20):
        n = 2 ** int(rng.integers(1, 9))
        mask = construct_frozen_mask(n, int(rng.integers(0, n + 1)))
        u = rng.integers(0, 2, n, dtype=np.uint8) * mask
        llrs = 9.0 * (1.0 - 2.0 * encode(u).astype(np.float64))
        assert np.array_equal(decode(llrs, mask), u)
        words = [quantize(v, q5) for v in llrs]
        assert np.array_equal(decode(words, mask, kernel_q), u)
    report("6 noiseless roundtrip, 10^4 instances, float and 5-bit")


def test_c07_hybrid_transparency_1000_instances():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = 2 ** int(rng.integers(1, 9))
        mask = rng.integers(0, 2, n, dtype=np.uint8)
        llrs = rng.normal(scale=3.0, size=n)
        want, _ = reference_decode(llrs, mask)
        n_prime = 2
        while n_prime <= n:
            assert np.array_equal(hybrid_decode(llrs, mask, n_prime), want)
            n_prime *= 2
    report("7 hybrid decode transparent for every component size")


def test_c08_pipeline_schedule_and_streams():
    rng = np.random.default_rng(13)
    mask = construct_frozen_mask(8, 4)
    frames = [rng.normal(scale=3.0, size=8) for _ in range(6)]
    pipe = PipelinedDecoder(mask, stages=1)
    seen = {}
    for cycle in range(1, 9):
        out = pipe.step(frames[cycle - 1] if cycle <= 6 else None)
        if out is not None:
            seen[cycle] = out
    assert sorted(seen) == [3, 4, 5, 6, 7, 8]
    for cycle, out in seen.items():
        assert np.array_equal(out, reference_decode(frames[cycle - 3], mask)[0])
    for n in (4, 8, 16):
        for stages in (1, 2):
            code_mask = construct_frozen_mask(n, n // 2)
            stream = [rng.normal(size=n) for _ in range(int(rng.integers(1, 21)))]
            pipe = PipelinedDecoder(code_mask, stages=stages)
            outputs, queue = [], list(stream)
            while queue or pipe.in_flight:
                feed = queue.pop(0) if queue and rng.random() < 0.7 else None
                out = pipe.step(feed)
                if out is not None:
                    outputs.append(out)
            assert len(outputs) == len(stream)
            for frame, out in zip(stream, outputs):
                assert np.array_equal(out, reference_decode(frame, code_mask)[0])
    report("8 pipeline schedule matches, streams equivalent with bubbles")


def _measure(spec, kernel, snr, max_trials, seed):
    config = SimConfig(
        code=spec,
        kernel=kernel,
        snr_db=(snr,),
        max_trials=max_trials,
        min_frame_errors=200,
        seed=seed,
    )
    return run_point(config, snr, point_index=0, jobs=JOBS)


def test_c09_quantization_fidelity():
    spec = CodeSpec.construct(1024, 512)
    snrs = (2.5, 3.0, 3.5)
    caps = (40_000, 120_000, 400_000)
    float_pts = {
        snr: _measure(spec, DecoderKernel.min_sum(), snr, cap, seed=501)
        for snr, cap in zip(snrs, caps)
    }
    window = [s for s in snrs if 1e-3 <= float_pts[s].fer <= 1e-1]
    assert len(window) >= 2, {s: float_pts[s].fer for s in snrs}
    q5 = DecoderKernel.quantized(QFormat(5, scale=1.0))
    q4 = DecoderKernel.quantized(QFormat(4, scale=1.0))
    ratios5 = {}
    for snr in window:
        cap = dict(zip(snrs, caps))[snr]
        pt5 = _measure(spec, q5, snr, cap, seed=502)
        assert float_pts[snr].frame_errors >= 200
        assert pt5.frame_errors >= 200
        ratios5[snr] = pt5.fer / float_pts[snr].fer
        assert 0.5 <= ratios5[snr] <= 2.0, (snr, ratios5[snr])
    top = max(window)
    pt4 = _measure(spec, q4, top, dict(zip(snrs, caps))[top], seed=503)
    assert pt4.frame_errors >= 200
    ratio4 = pt4.fer / float_pts[top].fer
    assert ratio4 > ratios5[top], (ratio4, ratios5[top])
    report(
        "9 five-bit FER within x2 of float "
        f"(worst ratio {max(ratios5.values()):.2f}), four-bit gap {ratio4:.2f} larger"
    )


def test_c10_waterfalls_have_no_floors():
    experiments = [
        (256, 128, (2.0, 3.0, 4.0, 4.85), 3_500_000),
        (1024, 512, (2.0, 2.5, 3.0, 3.5, 4.4), 2_500_000),
        (1024, 853, (4.0, 4.5, 5.0, 5.9), 2_500_000),
    ]
    for n, k, snrs, cap in experiments:
        spec = CodeSpec.construct(n, k)
        fers = []
        for snr in snrs:
            pt = _measure(spec, DecoderKernel.min_sum(), snr, cap, seed=601)
            assert pt.frame_errors >= 200, (n, k, snr, pt.frame_errors)
            fers.append(pt.fer)
        for left, right in zip(fers, fers[1:]):
            assert right < left, (n, k, fers)
        assert fers[-1] <= 2.5e-4, (n, k, fers[-1])
    report("10 FER strictly decreasing to the 1e-4 region, three codes")
