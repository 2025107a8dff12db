"""Command-line front end: construction, coding, simulation, and model evaluation."""

import argparse
import os
import sys
from itertools import islice

import numpy as np

from . import code as polar
from . import hardware, hybrid, simulate
from .llr import QFormat
from .pipeline import PipelineTimingModel, pipeline_throughput
from .vectorized import BLOCK_FRAMES, DecoderKernel, decode_batch, encode_batch, quantize_batch


def _kernel_from_flags(args):
    if getattr(args, "exact", False):
        if args.qbits:
            raise ValueError("--exact and --qbits > 0 are mutually exclusive")
        return DecoderKernel.exact(decision=args.decision)
    if args.qbits:
        return DecoderKernel.quantized(
            QFormat(args.qbits, args.scale), decision=args.decision
        )
    return DecoderKernel.min_sum(decision=args.decision)


def _parse_snr(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--snr wants START:STOP:STEP or a single value, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("--snr step must be positive")
        count = int((stop - start) / step + 1e-9) + 1
        if count < 1:
            raise ValueError(f"empty SNR grid from {text!r}")
        return [start + i * step for i in range(count)]
    return [float(text)]


def _read_frames(path, expected, what):
    fh = sys.stdin if path in (None, "-") else open(path)
    try:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != expected:
                raise ValueError(
                    f"line {lineno}: expected {expected} {what} per frame, got {len(fields)}"
                )
            yield fields
    finally:
        if fh is not sys.stdin:
            fh.close()


def _cmd_construct(args):
    mask = polar.construct_frozen_mask(args.n, args.k, args.design_erasure)
    if args.out:
        polar.save_mask(mask, args.out)
    else:
        print(args.n)
        print(" ".join(str(int(b)) for b in mask))
    print(f"N={args.n} K={args.k} rate={args.k / args.n:.4f}", file=sys.stderr)
    return 0


def _cmd_encode(args):
    mask = polar.load_mask(args.mask)
    spec = polar.CodeSpec(len(mask), mask)
    frames = _read_frames(args.infile, spec.k, "data bits")
    while block := list(islice(frames, BLOCK_FRAMES)):
        bits = np.array([[int(b) for b in fields] for fields in block])
        # checked before the uint8 array, where -1 or 256 would not fit
        if np.any((bits < 0) | (bits > 1)):
            raise ValueError("data bits must be 0 or 1")
        u = np.zeros((len(block), spec.n), dtype=np.uint8)
        u[:, spec.data_indices] = bits
        for x in encode_batch(u):
            print(" ".join(str(int(b)) for b in x))
    return 0


def _cmd_decode(args):
    mask = polar.load_mask(args.mask)
    spec = polar.CodeSpec(len(mask), mask)
    kernel = _kernel_from_flags(args)
    frames = _read_frames(args.infile, spec.n, "LLRs")
    while block := list(islice(frames, BLOCK_FRAMES)):
        llrs = np.array([[float(v) for v in fields] for fields in block])
        if kernel.arithmetic == "quantized":
            llrs = quantize_batch(llrs, kernel.qformat)
        for data in decode_batch(llrs, mask, kernel)[:, spec.data_indices]:
            print(" ".join(str(int(b)) for b in data))
    return 0


def _cmd_simulate(args):
    mask = polar.load_mask(args.mask)
    spec = polar.CodeSpec(len(mask), mask)
    kernel = _kernel_from_flags(args)
    config = simulate.SimConfig(
        code=spec,
        kernel=kernel,
        snr_db=tuple(_parse_snr(args.snr)),
        max_trials=args.max_trials,
        min_frame_errors=args.min_errors,
        seed=args.seed,
    )
    points = simulate.run_sweep(config, jobs=args.jobs)
    header = f"{'Eb/N0':>7} {'trials':>9} {'ferr':>6} {'berr':>9} {'FER':>11} {'BER':>11} {'ci95':>10}"
    print(header)
    for p in points:
        print(
            f"{p.snr_db:7.2f} {p.trials:9d} {p.frame_errors:6d} {p.bit_errors:9d} "
            f"{p.fer:11.4e} {p.ber:11.4e} {p.ci95:10.3e}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            simulate.write_csv(points, fh)
    return 0


def _cmd_pipeline(args):
    delay = args.comb_delay if args.comb_delay else args.n / args.comb_tp
    print(f"{'stages':>6} {'period':>12} {'throughput':>14}")
    for s in range(args.stages + 1):
        model = PipelineTimingModel(args.n, delay, s)
        tp = pipeline_throughput(model)
        print(f"{s:6d} {delay / 2**s:12.4e} {tp:14.4e}")
    return 0


def _cmd_hybrid(args):
    if args.comb_delay:
        cfg = hybrid.HybridConfig(args.n, args.nprime, args.p, args.fc, args.comb_delay)
    else:
        tp = args.comb_tp or hybrid.DEFAULT_COMB_THROUGHPUT_BPS.get(args.nprime)
        if tp is None:
            raise ValueError(
                f"no built-in combinational throughput for N'={args.nprime}; "
                "pass --comb-tp or --comb-delay"
            )
        cfg = hybrid.HybridConfig.from_comb_throughput(
            args.n, args.nprime, args.p, args.fc, tp
        )
    rep = hybrid.latency_gain(cfg)
    print(f"synchronous latency  {rep.latency_cycles:.0f} cycles")
    print(f"saved per repetition {rep.reduction_cycles} cycles")
    print(f"latency gain         {rep.gain:.3f}")
    print(f"synchronous TP       {rep.synchronous_tp_bps / 1e6:.2f} Mb/s")
    print(f"hybrid TP            {rep.hybrid_tp_bps / 1e6:.2f} Mb/s")
    return 0


def _cmd_analyze(args):
    gates = None
    if any(v > 0 for v in (args.delta_c, args.delta_m, args.delta_x, args.delta_a, args.t_n)):
        gates = hardware.GateDelays(args.delta_c, args.delta_m, args.delta_x, args.delta_a, args.t_n)
    delay = args.delay
    if delay is None and args.freq:
        delay = 1.0 / args.freq
    rep = hardware.report(args.n, gates, delay, args.power, args.area)
    c = rep.counts
    print(f"N={args.n}")
    print(f"check comparators    {c.check_comparators}")
    print(f"decision comparators {c.decision_comparators}")
    print(f"adders/subtractors   {c.adders}")
    print(f"total blocks         {c.total}")
    if gates is not None and args.n >= 8:
        print(f"delay (recursive)    {hardware.delay_recursive(args.n, gates):.6e} s")
        print(f"delay (closed form)  {hardware.delay_closed(args.n, gates):.6e} s")
    if rep.delay_s is not None:
        print(f"delay                {rep.delay_s:.6e} s")
    if rep.metrics is not None:
        m = rep.metrics
        print(f"throughput           {m.throughput_bps / 1e9:.3f} Gb/s")
        print(f"energy per bit       {m.energy_per_bit_j * 1e12:.2f} pJ/b")
        print(f"hardware efficiency  {m.hw_efficiency_bps_per_m2 / 1e12:.1f} Mb/s/mm^2")
    if args.alpha is not None:
        p_dyn = hardware.dynamic_power(args.alpha, args.cap, args.vdd, args.switch_freq)
        print(f"dynamic power        {p_dyn:.6e} W")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polarsc",
        description="Polar SC decoding toolkit: construction, coding, simulation, "
        "and hardware models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a frozen-bit mask file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--design-erasure", type=float, default=0.5)
    p.add_argument("--out", help="mask file path (default: print to stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="encode data-bit frames (K bits per line)")
    p.add_argument("--mask", required=True)
    p.add_argument("--in", dest="infile", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode LLR frames (N values per line)")
    p.add_argument("--mask", required=True)
    p.add_argument("--in", dest="infile", help="input file (default: stdin)")
    p.add_argument("--qbits", type=int, default=0, help="0 = float, else word width")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--exact", action="store_true", help="exact check-node rule")
    p.add_argument("--decision", choices=["shortcut", "plain"], default="shortcut")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo FER/BER over an SNR grid")
    p.add_argument("--mask", required=True)
    p.add_argument("--qbits", type=int, default=0, help="0 = float, else word width")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--decision", choices=["shortcut", "plain"], default="shortcut")
    p.add_argument("--snr", required=True, help="START:STOP:STEP in dB, or one value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=10**6)
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--out", help="CSV output path")
    p.add_argument(
        "--jobs",
        type=int,
        default=int(os.environ.get("POLAR_JOBS", "1")),
        help="worker processes (default: POLAR_JOBS or 1)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pipeline", help="pipelined-decoder throughput model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stages", type=int, default=1)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--comb-delay", type=float, help="unpipelined delay in seconds")
    group.add_argument("--comb-tp", type=float, help="unpipelined throughput in b/s")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("hybrid", help="hybrid-decoder latency gain and throughput")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nprime", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--fc", type=float, required=True, help="synchronous clock in Hz")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--comb-tp", type=float, help="component throughput in b/s")
    group.add_argument("--comb-delay", type=float, help="component delay in seconds")
    p.set_defaults(func=_cmd_hybrid)

    p = sub.add_parser("analyze", help="complexity/delay/metric analysis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta-c", type=float, default=0.0, help="comparator delay")
    p.add_argument("--delta-m", type=float, default=0.0, help="multiplexer delay")
    p.add_argument("--delta-x", type=float, default=0.0, help="XOR delay")
    p.add_argument("--delta-a", type=float, default=0.0, help="AND delay")
    p.add_argument("--t-n", type=float, default=0.0, help="interconnect delay")
    p.add_argument("--delay", type=float, help="measured decoder delay in seconds")
    p.add_argument("--freq", type=float, help="measured clock frequency in Hz")
    p.add_argument("--power", type=float, help="power in W (enables metrics)")
    p.add_argument("--area", type=float, help="area in m^2 (enables metrics)")
    p.add_argument("--alpha", type=float, help="switching activity factor")
    p.add_argument("--cap", type=float, default=0.0, help="load capacitance in F")
    p.add_argument("--vdd", type=float, default=0.0, help="supply voltage in V")
    p.add_argument("--switch-freq", type=float, default=0.0, help="clock for P_dyn in Hz")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"polarsc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
