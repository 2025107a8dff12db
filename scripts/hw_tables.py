#!/usr/bin/env python3
"""Print the analyzer-side reproduction tables: complexity/metrics per block
length, and the hybrid-decoder gain table for both code sizes."""

import argparse

from polarsc import (
    DEFAULT_COMB_THROUGHPUT_BPS,
    HybridConfig,
    complexity,
    latency_gain,
    metrics,
)

# measured 90nm synthesis inputs per block length: frequency Hz, power W, area m^2
SYNTHESIS_INPUTS = {
    2**6: (45.5e6, 0.0998, 0.153e-6),
    2**7: (22.2e6, 0.1388, 0.338e-6),
    2**8: (11.0e6, 0.1587, 0.759e-6),
    2**9: (5.2e6, 0.1814, 1.514e-6),
    2**10: (2.5e6, 0.1907, 3.213e-6),
}


def print_metrics_table():
    print("Combinational decoder metrics from measured frequency/power/area")
    print(f"{'N':>6} {'blocks':>7} {'TP Gb/s':>8} {'pJ/b':>7} {'Mb/s/mm^2':>10}")
    for n, (freq, power, area) in SYNTHESIS_INPUTS.items():
        m = metrics(n, 1.0 / freq, power, area)
        c = complexity(n)
        print(
            f"{n:>6} {c.total:>7} {m.throughput_bps / 1e9:>8.2f} "
            f"{m.energy_per_bit_j * 1e12:>7.1f} "
            f"{m.hw_efficiency_bps_per_m2 / 1e12:>10.0f}"
        )


def print_hybrid_table():
    print()
    print("Hybrid decoder gains (P=64 semi-parallel synchronous baseline)")
    print(f"{'N':>6} {'f MHz':>6} {'TPsp':>6} {'Nprime':>7} {'gain':>6} {'TPhl':>7}")
    for n, fc in ((2**10, 173e6), (2**11, 171e6)):
        for nprime, comb_tp in DEFAULT_COMB_THROUGHPUT_BPS.items():
            rep = latency_gain(
                HybridConfig.from_comb_throughput(n, nprime, 64, fc, comb_tp)
            )
            print(
                f"{n:>6} {fc / 1e6:>6.0f} {rep.synchronous_tp_bps / 1e6:>6.1f} {nprime:>7} "
                f"{rep.gain:>6.2f} {rep.hybrid_tp_bps / 1e6:>7.1f}"
            )


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    print_metrics_table()
    print_hybrid_table()
