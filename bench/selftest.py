"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs each workload briefly with one output corrupted before it is checked
(a flipped decision bit, an altered Monte Carlo count), or with
decode_batch raising, and requires the run to report failed operations,
that is fail_frac > 0 and correct false. It does so at seed 0,
whose results are stored in expected.json, and at a seed that is not stored,
where only the cross-checks between entry points and between repeats can
catch the fault. Clean runs of the short workloads must report no failure.
Exits 0 when every case behaves.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNSTORED_SEED = 1000

# (workload, fault, seed, failures expected)
CASES = (
    ("kernel_n1024", None, 0, False),
    ("per_frame_n256", None, UNSTORED_SEED, False),
    ("kernel_n1024", "decision", 0, True),
    ("kernel_n1024", "decision", UNSTORED_SEED, True),
    ("per_frame_n256", "decision", 0, True),
    ("per_frame_n256", "decision", UNSTORED_SEED, True),
    ("mc_sweep", "mc_count", 0, True),
    ("mc_sweep_jobs2", "mc_count", UNSTORED_SEED, True),
    ("kernel_n1024", "raise", 0, True),
)


def run(workload, fault, seed):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    if fault:
        argv += ["--inject", fault]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    bad = 0
    for workload, fault, seed, want_failures in CASES:
        result = run(workload, fault, seed)
        fail_frac = result["failed"] / result["attempted"]
        ok = (fail_frac > 0) == want_failures and result["correct"] == (not want_failures)
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload} fault={fault} seed={seed} "
              f"fail_frac={fail_frac:.4f} ({result['failed']}/{result['attempted']})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
