"""Benchmark of polarsc: one seeded workload per process, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports polarsc from ./src and
nothing else. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics listed in BENCHMARK.json, with --trace 1 the per-layer
ones. Each run also writes a record (config, seed, machine, every metric,
sample counts) to .bench_out/, and a traced run writes its spans there.

    python3 bench/run.py --record-expected 0-15

recomputes the decision digests and Monte Carlo counts in
bench/expected.json; every run at one of those seeds compares against them.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")
MIN_ROUNDS = 3
SETUP_PROBES = 6
# throughputs are this percentile of the per-round rates (README, "Statistic")
RATE_PCT = 20
# per-layer metric suffix -> field of Tracer.layers()
SPAN_FIELDS = {"busy_s": "busy_s", "frames": "frames", "calls": "count", "points": "count"}


def import_polarsc():
    pkg = os.path.join(SRC, "polarsc")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"bench: no polarsc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import polarsc
    import polarsc.cli

    if os.path.dirname(os.path.abspath(polarsc.__file__)) != pkg:
        sys.exit(f"bench: imported polarsc from {polarsc.__file__}, not from {pkg}")
    return polarsc


def set_up(name, tr):
    """Import polarsc and set the workload up; returns it and its set-up seconds.

    Set-up runs from before ``import polarsc`` until every entry point has had
    one warm-up call; importing the benchmark's own modules is left out.
    """
    t0 = time.perf_counter()
    pc = import_polarsc()
    t1 = time.perf_counter()
    import workloads

    t2 = time.perf_counter()
    if name not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](pc, os.path.join(OUT, f"tmp-{name}-{os.getpid()}"))
    try:
        with tr.span("bench.setup"):
            wl.setup(tr)
    except Exception:
        wl.close()
        raise
    return wl, time.perf_counter() - t0 - (t2 - t1)


def probe_setup(name):
    """Set-up seconds of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_pass(wl, tr, seconds=None, rounds_wanted=None):
    """Closed loop of timed rounds: ``rounds_wanted`` of them, or else rounds
    until ``seconds`` would be passed, at least MIN_ROUNDS."""
    rounds = []
    start = time.perf_counter()
    while rounds_wanted is None or len(rounds) < rounds_wanted:
        t = time.perf_counter()
        try:
            with tr.span("bench.round"):
                rounds.append(wl.round(tr))
        except Exception as exc:  # a failed operation ends the pass; it is counted and reported
            wl.error(exc)
            break
        now = time.perf_counter()
        if rounds_wanted is None and len(rounds) >= MIN_ROUNDS and now - start + (now - t) > seconds:
            break
    return rounds


def tail(calls_ms):
    """Highest percentile with at least ten calls beyond it, and that percentile."""
    calls = sorted(calls_ms)
    n = len(calls)
    if n <= 10:
        return calls[-1], 100.0
    return calls[n - 11], 100.0 * (n - 10) / n


def low_rate(rates):
    """RATE_PCT-th percentile of per-round rates."""
    rates = list(rates)
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=100, method="inclusive")[RATE_PCT - 1]


def end_to_end(rounds):
    """Throughputs over the rounds, each the RATE_PCT-th percentile of per-round rates."""
    m = {
        "frames_per_s": low_rate(r.decoded / r.wall for r in rounds),
        "info_mbps": low_rate(r.info_bits / r.wall for r in rounds) / 1e6,
    }
    for arith in ("minsum", "exact", "q5"):
        rates = [r.frames[arith] / r.busy[arith] for r in rounds if r.busy.get(arith)]
        if rates:
            m[f"frames_per_s.{arith}"] = low_rate(rates)
    calls = [c for r in rounds for c in r.calls_ms]
    if calls:
        m["call_ms_p50"] = statistics.median(calls)
        m["call_ms_tail"], m["call_ms_tail_pct"] = tail(calls)
        m["calls"] = len(calls)
    return m


def per_layer(declared, layers, extras):
    """Every declared per-layer metric; a layer the workload never entered reads 0."""
    out = {}
    for name in declared:
        if name in extras:
            out[name] = extras[name]
            continue
        span, _, field = name.rpartition(".")
        out[name] = layers.get(span, {}).get(SPAN_FIELDS.get(field), 0)
    return out


def machine(np, pc):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": platform.python_version(), "numpy": np.__version__, "polarsc": pc.__version__,
        "platform": platform.platform(), "git_commit": commit,
    }


def load_expected(seed, key):
    with open(EXPECTED) as fh:
        return json.load(fh)["seeds"].get(str(seed), {}).get(key)


def record_expected(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    pc = import_polarsc()
    import workloads

    table = {}
    for seed in seeds:
        entry = table.setdefault(str(seed), {})
        for name in ("kernel_n1024", "mc_sweep", "per_frame_n256"):
            wl = workloads.WORKLOADS[name](pc, os.path.join(OUT, f"tmp-record-{os.getpid()}"))
            try:
                wl.setup(Tracer(False))
                wl.prepare(seed, None, None)
                entry[wl.expected_key] = wl.reference()
            finally:
                wl.close()
        print(f"seed {seed} recorded", file=sys.stderr)
    with open(EXPECTED, "w") as fh:
        json.dump({"seeds": table}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=("decision", "mc_count", "raise"),
                   help="corrupt one output before it is checked, or make decode_batch raise "
                        "(used by selftest.py)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-expected", metavar="SEEDS", help="rewrite expected.json for seeds A-B")
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.record_expected:
        return record_expected(args.record_expected)
    if not args.workload:
        p.error("--workload is required")

    tr = Tracer(bool(args.trace))
    try:
        wl, setup_s = set_up(args.workload, tr)
    except Exception as exc:  # polarsc raised while setting up: one failed operation
        return report_failure(1, 1, [f"set-up: {type(exc).__name__}: {exc}"])
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, tr, setup_s)
    finally:
        wl.close()


def report_failure(attempted, failed, errors):
    """Result line of a run that completed no round: incorrect, with no metrics."""
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0


def measure(args, wl, tr, setup_s):
    import numpy as np

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    setup_samples = [setup_s] + ([] if args.trace else probe_setup(args.workload))
    try:
        wl.prepare(args.seed, load_expected(args.seed, wl.expected_key), args.inject)
    except Exception as exc:  # polarsc raised while making the inputs
        wl.error(exc)
        return report_failure(wl.attempted, wl.failed, wl.errors)
    if args.inject == "raise":
        def broken(*_args, **_kwargs):
            raise RuntimeError("injected fault")
        wl.pc.decode_batch = broken

    layers, extras, base = {}, {}, []
    if args.trace:
        base = run_pass(wl, Tracer(False), args.seconds / 2)
        rounds = run_pass(wl, tr, rounds_wanted=wl.TRACE_ROUNDS)
    else:
        rounds = run_pass(wl, tr, args.seconds)
    try:
        if args.trace and rounds:
            extras.update(wl.trace_extras(tr, rounds))
        wl.finish(rounds)
    except Exception as exc:  # reported as a failed operation
        wl.error(exc)
    if not rounds:
        return report_failure(wl.attempted, wl.failed, wl.errors)

    measured = end_to_end(rounds)
    measured["setup_s"] = statistics.median(setup_samples)
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured["fail_frac"] = wl.failed / wl.attempted
    measured.update(wl.extra)
    extras.update(wl.extra)
    if args.trace:
        layers = tr.layers()
        base_fps = end_to_end(base)["frames_per_s"] if base else measured["frames_per_s"]
        extras["trace.overhead_frac"] = base_fps / measured["frames_per_s"] - 1
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        reported = per_layer(declared, layers, extras)
    else:
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        reported = {name: measured[name] for name in declared}

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inject": args.inject, "config": wl.config(), "machine": machine(np, wl.pc),
        "metrics": measured, "per_layer": reported if args.trace else {}, "layers": layers,
        "samples": {"rounds": len(rounds), "calls": measured.get("calls", 0),
                    "setup_runs": len(setup_samples), "untraced_rounds": len(base),
                    "setup_s": setup_samples,
                    "round_frames_per_s": [r.decoded / r.wall for r in rounds],
                    "round_busy_s": [r.busy for r in rounds]},
        "attempted": wl.attempted, "failed": wl.failed, "errors": wl.errors,
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tr.write(os.path.join(OUT, tag + ".spans.jsonl"), wl.name, args.seed)

    for name, value in sorted(measured.items()):
        print(f"{name:32s} {value:.6g}", file=sys.stderr)
    for name, agg in sorted(layers.items()):
        print(f"{name:40s} n={agg['count']:<6d} busy={agg['busy_s']:.4f}s self={agg['self_s']:.4f}s",
              file=sys.stderr)
    for err in wl.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
