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
    if args.exact:
        if args.qbits:
            raise ValueError("--exact and --qbits > 0 are mutually exclusive")
        return DecoderKernel.exact(decision=args.decision)
    if args.qbits:
        return DecoderKernel.quantized(QFormat(args.qbits, args.scale), decision=args.decision)
    return DecoderKernel.min_sum(decision=args.decision)


def _parse_snr(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"--snr wants START:STOP:STEP or a single value, got {text!r}")
        start, stop = (polar._finite(float(p), "--snr START and STOP") for p in parts[:2])
        step = polar._finite(float(parts[2]), "--snr STEP", above=0)
        count = int(polar._finite((stop - start) / step, "--snr step count", at_least=0) + 1e-9) + 1
        return [start + i * step for i in range(count)]
    return [polar._finite(float(text), "--snr")]


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
        bits = polar._as_bits([[int(b) for b in fields] for fields in block], 2, "data-bit matrix")
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
    tp = args.comb_tp
    delay = args.comb_delay if tp is None else args.n / polar._finite(tp, "--comb-tp", above=0)
    model = PipelineTimingModel(args.n, delay, args.stages)
    # every row is computed, and so checked, before the first is printed
    rows = [(s, pipeline_throughput(PipelineTimingModel(args.n, delay, s))) for s in range(model.stages + 1)]
    print(f"{'stages':>6} {'period':>12} {'throughput':>14}")
    for s, bps in rows:
        print(f"{s:6d} {delay * 0.5**s:12.4e} {bps:14.4e}")
    return 0


def _cmd_hybrid(args):
    if args.comb_delay is not None:
        cfg = hybrid.HybridConfig(args.n, args.nprime, args.p, args.fc, args.comb_delay)
    else:
        tp = args.comb_tp if args.comb_tp is not None else hybrid.DEFAULT_COMB_THROUGHPUT_BPS.get(args.nprime)
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


def _given_together(args, *flags):
    """The values of flags that go together, or None when none is given; some but not all is an error."""
    values = [getattr(args, flag[2:].replace("-", "_")) for flag in flags]
    if all(v is None for v in values):
        return None
    if any(v is None for v in values):
        raise ValueError(f"{', '.join(flags[:-1])} and {flags[-1]} must be given together")
    return values


def _cmd_analyze(args):
    delay = None if args.delay is None else polar._finite(args.delay, "--delay", above=0)
    if args.freq is not None:
        delay = polar._finite(1.0 / polar._finite(args.freq, "--freq", above=0), "delay 1/--freq")
    counts = hardware.complexity(args.n)
    deltas = (args.delta_c, args.delta_m, args.delta_x, args.delta_a, args.t_n)
    modeled = None
    if any(v is not None for v in deltas):
        gates = hardware.GateDelays(*(0.0 if v is None else v for v in deltas))
        modeled = hardware.delay_recursive(args.n, gates), hardware.delay_closed(args.n, gates)
    if delay is None and modeled is not None:
        delay = modeled[1]
    figures = p_dyn = None
    if measured := _given_together(args, "--power", "--area"):
        if delay is None:
            raise ValueError("--power and --area need a delay: --delay, --freq or gate delays")
        figures = hardware.metrics(args.n, delay, *measured)
    if switching := _given_together(args, "--alpha", "--cap", "--vdd", "--switch-freq"):
        p_dyn = hardware.dynamic_power(*switching)

    print(f"N={args.n}")
    print(f"check comparators    {counts.check_comparators}")
    print(f"decision comparators {counts.decision_comparators}")
    print(f"adders/subtractors   {counts.adders}")
    print(f"total blocks         {counts.total}")
    if modeled is not None:
        print(f"delay (recursive)    {modeled[0]:.6e} s")
        print(f"delay (closed form)  {modeled[1]:.6e} s")
    if delay is not None:
        print(f"delay                {delay:.6e} s")
    if figures is not None:
        print(f"throughput           {figures.throughput_bps / 1e9:.3f} Gb/s")
        print(f"energy per bit       {figures.energy_per_bit_j * 1e12:.2f} pJ/b")
        print(f"hardware efficiency  {figures.hw_efficiency_bps_per_m2 / 1e12:.1f} Mb/s/mm^2")
    if p_dyn is not None:
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

    kernel_flags = argparse.ArgumentParser(add_help=False)
    kernel_flags.add_argument("--qbits", type=int, default=0, help="0 = float, else word width")
    kernel_flags.add_argument("--scale", type=float, default=1.0)
    kernel_flags.add_argument("--exact", action="store_true", help="exact check-node rule")
    kernel_flags.add_argument("--decision", choices=["shortcut", "plain"], default="shortcut")

    p = sub.add_parser("decode", parents=[kernel_flags], help="decode LLR frames (N values per line)")
    p.add_argument("--mask", required=True)
    p.add_argument("--in", dest="infile", help="input file (default: stdin)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", parents=[kernel_flags], help="Monte Carlo FER/BER over an SNR grid")
    p.add_argument("--mask", required=True)
    p.add_argument("--snr", required=True, help="START:STOP:STEP in dB, or one value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=10**6)
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--out", help="CSV output path")
    p.add_argument(
        "--jobs",
        type=int,
        default=os.environ.get("POLAR_JOBS", "1"),
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
    p.add_argument("--delta-c", type=float, help="comparator delay")
    p.add_argument("--delta-m", type=float, help="multiplexer delay")
    p.add_argument("--delta-x", type=float, help="XOR delay")
    p.add_argument("--delta-a", type=float, help="AND delay")
    p.add_argument("--t-n", type=float, help="interconnect delay")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--delay", type=float, help="measured decoder delay in seconds")
    group.add_argument("--freq", type=float, help="measured clock frequency in Hz")
    p.add_argument("--power", type=float, help="power in W (enables metrics)")
    p.add_argument("--area", type=float, help="area in m^2 (enables metrics)")
    p.add_argument("--alpha", type=float, help="switching activity factor")
    p.add_argument("--cap", type=float, help="load capacitance in F")
    p.add_argument("--vdd", type=float, help="supply voltage in V")
    p.add_argument("--switch-freq", type=float, help="clock for P_dyn in Hz")
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
