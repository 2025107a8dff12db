"""The benchmark's workloads: seeded inputs, timed rounds and output checks.

Each workload runs in its own process. ``setup`` builds masks, files and
decoder objects and warms every entry point up; ``prepare`` generates the
inputs from the seed; ``round`` is one timed unit of closed-loop work that
checks its outputs outside the timed calls; ``finish`` runs the checks that
need the whole run. Every timed call sits in a span (see spans.py), so the
traced pass runs the same code as the untraced one. A traced pass runs
``TRACE_ROUNDS`` rounds, a whole number of passes over the workload's
inputs, so its per-layer totals do not depend on the speed of the machine.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from spans import Tracer


class CountingPool(ProcessPoolExecutor):
    """The process pool of polarsc.simulate, counting chunks submitted to it."""

    submitted = 0

    def submit(self, *args, **kwargs):
        CountingPool.submitted += 1
        return super().submit(*args, **kwargs)


def digest(bits):
    """Short hash of a decision array, stable across runs and machines."""
    return hashlib.sha256(np.ascontiguousarray(bits, dtype=np.uint8).tobytes()).hexdigest()[:16]


class Round:
    """Work and time of one timed round.

    ``wall`` sums the timed calls only; checks and bookkeeping between
    calls are outside it. ``frames``/``busy`` split decoded frames and call
    time by arithmetic; work that decodes nothing (CLI encode) adds to
    ``wall`` alone.
    """

    def __init__(self):
        self.wall = 0.0
        self.frames = {}
        self.busy = {}
        self.info_bits = 0
        self.calls_ms = []
        self.chunks_submitted = 0  # chunks handed to the process pool

    def add(self, seconds, arith=None, frames=0, k=0):
        self.wall += seconds
        if arith is not None:
            self.frames[arith] = self.frames.get(arith, 0) + frames
            self.busy[arith] = self.busy.get(arith, 0.0) + seconds
            self.info_bits += frames * k

    @property
    def decoded(self):
        return sum(self.frames.values())


class Workload:
    name = ""
    TRACE_ROUNDS = 1

    def __init__(self, pc, workdir):
        self.pc = pc
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.extra = {}
        self.rounds_done = 0
        self.ms = pc.DecoderKernel.min_sum()
        self.q5fmt = pc.QFormat(5, 1.0)
        self.q5 = pc.DecoderKernel.quantized(self.q5fmt)

    @property
    def expected_key(self):
        """Key of this workload's stored results in expected.json."""
        return self.name

    def check(self, ok, what):
        """Count one operation; a False ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def error(self, exc):
        self.check(False, f"{type(exc).__name__}: {exc}")

    def mask(self, tr, n, k):
        with tr.span("code.construct_frozen_mask"):
            return self.pc.construct_frozen_mask(n, k)

    def prepare(self, seed, expected, inject):
        self.seed = seed
        self.expected = expected
        self.inject = inject

    def trace_extras(self, tr, rounds):
        """Traced-run-only decompositions; returns per-layer metrics."""
        return {}

    def finish(self, rounds):
        pass

    def close(self):
        pass

    def config(self):
        return {}


class KernelN1024(Workload):
    """decode_batch alone on pre-generated (1024, 512) LLRs at 2.5 dB."""

    name = "kernel_n1024"
    N, K, SNR_DB, FRAMES, BATCHES, SAMPLE_ROWS = 1024, 512, 2.5, 2048, 3, 2
    TRACE_ROUNDS = 3 * BATCHES

    def config(self):
        return {"n": self.N, "k": self.K, "snr_db": self.SNR_DB, "frames_per_call": self.FRAMES,
                "batches": self.BATCHES, "scalar_rows_per_call": self.SAMPLE_ROWS}

    def setup(self, tr):
        pc = self.pc
        self.code_mask = self.mask(tr, self.N, self.K)
        self.data_idx = np.flatnonzero(self.code_mask)
        self.kernels = {"minsum": self.ms, "exact": pc.DecoderKernel.exact(), "q5": self.q5}
        zeros = np.zeros((1, self.N))
        for arith, kernel in self.kernels.items():
            words = zeros.astype(np.int32) if arith == "q5" else zeros
            pc.decode_batch(words, self.code_mask, kernel)

    def prepare(self, seed, expected, inject):
        super().prepare(seed, expected, inject)
        pc = self.pc
        rng = np.random.default_rng(seed)
        chan = pc.AwgnChannel(self.SNR_DB, self.K / self.N)
        self.batches = []
        for _ in range(self.BATCHES):
            u = np.zeros((self.FRAMES, self.N), dtype=np.uint8)
            u[:, self.data_idx] = rng.integers(0, 2, (self.FRAMES, self.K), dtype=np.uint8)
            llrs = pc.channel_llrs(pc.encode_batch(u), chan, rng)
            self.batches.append({"minsum": llrs, "exact": llrs,
                                 "q5": pc.quantize_batch(llrs, self.q5fmt)})
        self.sample_rng = np.random.default_rng([seed, 1])
        self.seen = {}

    def reference(self):
        """Digest of every (batch, arithmetic) decode, for expected.json."""
        return {arith: [digest(self.pc.decode_batch(b[arith], self.code_mask, kernel))
                        for b in self.batches]
                for arith, kernel in self.kernels.items()}

    def round(self, tr):
        r = Round()
        b = self.rounds_done % self.BATCHES
        for arith, kernel in self.kernels.items():
            with tr.span(f"vectorized.decode_batch.{arith}", frames=self.FRAMES) as s:
                out = self.pc.decode_batch(self.batches[b][arith], self.code_mask, kernel)
            r.add(s.seconds, arith, self.FRAMES, self.K)
            r.calls_ms.append(s.seconds * 1e3)
            self._check_call(out, b, arith)
        self.rounds_done += 1
        return r

    def _check_call(self, out, b, arith):
        pc = self.pc
        rows = self.sample_rng.choice(self.FRAMES, self.SAMPLE_ROWS, replace=False)
        if self.inject == "decision" and not self.seen:
            out = out.copy()
            out[rows[0], self.data_idx[0]] ^= 1
        d = digest(out)
        ref = self.expected[arith][b] if self.expected is not None else self.seen.get((b, arith), d)
        self.seen[(b, arith)] = ref
        ok = d == ref
        for row in rows:
            inp = self.batches[b][arith][row]
            if arith == "q5":
                inp = [pc.QLlr.from_value(int(v), self.q5fmt.bits) for v in inp]
            ok &= bool(np.array_equal(pc.decode(inp, self.code_mask, self.kernels[arith]), out[row]))
        self.check(ok, f"decode_batch {arith} batch {b}: digest or scalar rows differ")


class McSweep(Workload):
    """run_sweep over three codes and decoders, jobs=1."""

    name = "mc_sweep"
    JOBS = 1
    TRACE_ROUNDS = 2
    expected_key = "mc"  # both mc workloads must give the same counts
    MIN_FRAME_ERRORS = 200
    # (n, k, arithmetic, Eb/N0 grid in dB, trial cap). Caps are whole 2048-trial
    # chunks, set so that every point stops after the same number of chunks at
    # any seed: the first point of each code meets the 200-error target (in 1,
    # 1 and 2 chunks), the others reach the cap. The work of a sweep then does
    # not depend on the seed.
    CONFIGS = (
        (1024, 512, "q5", (2.0, 2.5, 3.0), 2 * 2048),
        (256, 128, "minsum", (2.0, 3.0, 4.0), 4 * 2048),
        (1024, 853, "minsum", (4.0, 4.5, 5.0), 2 * 2048),
    )

    def config(self):
        return {"jobs": self.JOBS, "min_frame_errors": self.MIN_FRAME_ERRORS,
                "configs": [{"n": n, "k": k, "arithmetic": a, "snr_db": list(g), "max_trials": cap}
                            for n, k, a, g, cap in self.CONFIGS]}

    def setup(self, tr):
        pc = self.pc
        pc.simulate.ProcessPoolExecutor = CountingPool
        self.specs = [pc.CodeSpec(n, self.mask(tr, n, k)) for n, k, *_ in self.CONFIGS]
        _, _, arith, grid, _ = self.CONFIGS[0]
        warm = pc.SimConfig(code=self.specs[0], kernel=self._kernel(arith), snr_db=grid[:1],
                            max_trials=64, min_frame_errors=1, chunk_trials=64)
        pc.run_sweep(warm, jobs=self.JOBS)

    def _kernel(self, arith):
        return self.q5 if arith == "q5" else self.ms

    def prepare(self, seed, expected, inject):
        super().prepare(seed, expected, inject)
        self.sims = [
            self.pc.SimConfig(code=spec, kernel=self._kernel(arith), snr_db=grid,
                              max_trials=cap, min_frame_errors=self.MIN_FRAME_ERRORS, seed=seed)
            for spec, (_, _, arith, grid, cap) in zip(self.specs, self.CONFIGS)
        ]
        self.first = {}

    @staticmethod
    def counts(points):
        return [[p.trials, p.frame_errors, p.bit_errors] for p in points]

    def reference(self):
        return [self.counts(self.pc.run_sweep(sim, jobs=1)) for sim in self.sims]

    def round(self, tr):
        r = Round()
        submitted = CountingPool.submitted
        for c, (sim, (_, k, arith, grid, _)) in enumerate(zip(self.sims, self.CONFIGS)):
            with tr.span("bench.sweep") as s:
                points = []
                for i, snr in enumerate(grid):  # run_sweep's own loop, with a span per point
                    with tr.span("simulate.run_point") as sp:
                        points.append(self.pc.run_point(sim, snr, point_index=i, jobs=self.JOBS))
                    sp.frames = points[-1].trials
            counts = self.counts(points)
            s.frames = sum(t for t, _, _ in counts)
            r.add(s.seconds, arith, s.frames, k)
            if self.inject == "mc_count" and not self.first:
                counts[0][1] += 1
            self._check_counts(c, counts)
        r.chunks_submitted = CountingPool.submitted - submitted
        self.rounds_done += 1
        return r

    def _check_counts(self, c, counts, what="run_sweep"):
        sim = self.sims[c]
        ref = self.expected[c] if self.expected is not None else self.first.setdefault(c, counts)
        self.first.setdefault(c, ref)
        ok = counts == ref
        for trials, fe, be in counts:
            ok &= 0 <= fe <= trials <= sim.max_trials and fe <= be
            ok &= trials == sim.max_trials or (fe >= sim.min_frame_errors and trials % sim.chunk_trials == 0)
        self.check(ok, f"{what} config {c} jobs={self.JOBS}: counts {counts} != {ref}")

    def finish(self, rounds):
        if self.JOBS == 1:
            self.extra["simulate.scaling_efficiency"] = 1.0
            return
        # counts of the pool must equal those of the serial harness (mc_sweep)
        serial = 0.0
        for c, sim in enumerate(self.sims):
            t0 = time.perf_counter()
            counts = self.counts(self.pc.run_sweep(sim, jobs=1))
            serial += time.perf_counter() - t0
            self._check_counts(c, counts, "serial run_sweep")
        pooled = statistics.median(r.wall for r in rounds)
        self.extra["simulate.scaling_efficiency"] = serial / (pooled * self.JOBS)

    def trace_extras(self, tr, rounds):
        """Replay every chunk from outside and split it into its stages.

        Pool figures are per sweep: chunks the pool was handed in a traced
        round, against the chunks the replay shows the stop rule used.
        """
        used = 0
        for c, (sim, (_, _, arith, grid, _)) in enumerate(zip(self.sims, self.CONFIGS)):
            replayed = []
            for i, snr in enumerate(grid):
                counts, chunks = self._replay_point(tr, sim, i, snr, arith)
                replayed.append(counts)
                used += chunks
            self._check_counts(c, replayed, "replay")
        layers = tr.layers()
        stages = sum(v["busy_s"] for name, v in layers.items() if name.startswith("simulate.chunk."))
        point_busy = layers["simulate.run_point"]["busy_s"] / len(rounds)
        submitted = statistics.median(r.chunks_submitted for r in rounds)
        return {
            "simulate.harness_overhead_s": point_busy - stages,
            "simulate.pool.chunks_submitted": submitted,
            "simulate.pool.chunks_used": used,
            "simulate.pool.useful_ratio": used / submitted if submitted else 0,
        }

    def _replay_point(self, tr, sim, point_index, snr, arith):
        """One SNR point chunk by chunk, on the stream keyed (seed, point, chunk)."""
        pc = self.pc
        mask = sim.code.mask
        n = len(mask)
        data_idx = np.flatnonzero(mask)
        sigma2 = pc.AwgnChannel(snr, sim.code.rate).noise_variance
        trials = fe = be = chunks = 0
        while trials < sim.max_trials and fe < sim.min_frame_errors:
            t = min(sim.chunk_trials, sim.max_trials - trials)
            with tr.span("simulate.chunk.bits", frames=t):
                ss = np.random.SeedSequence(entropy=sim.seed, spawn_key=(point_index, chunks))
                rng = np.random.Generator(np.random.Philox(ss))
                u = np.zeros((t, n), dtype=np.uint8)
                data = rng.integers(0, 2, size=(t, len(data_idx)), dtype=np.uint8)
                u[:, data_idx] = data
            with tr.span("simulate.chunk.encode", frames=t):
                with tr.span("vectorized.encode_batch", frames=t):
                    x = pc.encode_batch(u)
            with tr.span("simulate.chunk.noise", frames=t):
                noise = rng.standard_normal((t, n))
                y = (1.0 - 2.0 * x.astype(np.float64)) + math.sqrt(sigma2) * noise
                llrs = 2.0 * y / sigma2
            if arith == "q5":
                with tr.span("simulate.chunk.quantize", frames=t):
                    with tr.span("vectorized.quantize_batch", frames=t):
                        llrs = pc.quantize_batch(llrs, sim.kernel.qformat)
            with tr.span("simulate.chunk.decode", frames=t):
                with tr.span(f"vectorized.decode_batch.{arith}", frames=t):
                    u_hat = pc.decode_batch(llrs, mask, sim.kernel)
            with tr.span("simulate.chunk.compare", frames=t):
                diff = u_hat[:, data_idx] != data
                fe += int(np.count_nonzero(diff.any(axis=1)))
                be += int(np.count_nonzero(diff))
            trials += t
            chunks += 1
        return [trials, fe, be], chunks


class McSweepJobs2(McSweep):
    """The mc_sweep configs and seed through the process pool, jobs=2."""

    name = "mc_sweep_jobs2"
    JOBS = 2


class PerFrameN256(Workload):
    """(256, 128) at 3 dB, one frame at a time through every scalar entry point."""

    name = "per_frame_n256"
    N, K, SNR_DB, NPRIME, STAGES = 256, 128, 3.0, 16, 2
    POOL, FRAMES_PER_ROUND, CLI_FRAMES, BUBBLE_P = 64, 16, 8, 0.25
    # a round takes 16 pool frames and one of the 8 CLI files: 16 rounds pass
    # over every frame four times and over every file twice
    TRACE_ROUNDS = 2 * (POOL // CLI_FRAMES)

    def config(self):
        return {"n": self.N, "k": self.K, "snr_db": self.SNR_DB, "n_prime": self.NPRIME,
                "stages": self.STAGES, "pool_frames": self.POOL,
                "frames_per_round": self.FRAMES_PER_ROUND, "cli_frames_per_call": self.CLI_FRAMES,
                "bubble_probability": self.BUBBLE_P}

    def setup(self, tr):
        pc = self.pc
        os.makedirs(self.workdir, exist_ok=True)
        self.code_mask = self.mask(tr, self.N, self.K)
        self.mask_path = os.path.join(self.workdir, "mask.txt")
        pc.save_mask(self.code_mask, self.mask_path)
        self.pipe = pc.PipelinedDecoder(self.code_mask, stages=self.STAGES, kernel=self.ms)
        zeros = np.zeros(self.N)
        pc.decode(zeros, self.code_mask, self.ms)
        pc.decode([pc.QLlr(0, 0, self.q5fmt.bits)] * self.N, self.code_mask, self.q5)
        pc.decode_batch(zeros[None, :], self.code_mask, self.ms)
        pc.hybrid_decode(zeros, self.code_mask, self.NPRIME, self.ms)
        self.pipe.step(zeros)
        self.pipe.drain()
        llr_path, data_path = self._write_frames("warm", zeros[None, :], np.zeros((1, self.K), np.uint8))
        for _, argv, _ in self._cli_argv(llr_path, data_path):
            self._cli(argv)

    def _write_frames(self, tag, llrs, data):
        llr_path = os.path.join(self.workdir, f"llrs-{tag}.txt")
        data_path = os.path.join(self.workdir, f"data-{tag}.txt")
        with open(llr_path, "w") as fh:
            fh.writelines(" ".join(repr(float(v)) for v in row) + "\n" for row in llrs)
        with open(data_path, "w") as fh:
            fh.writelines(" ".join(str(int(b)) for b in row) + "\n" for row in data)
        return llr_path, data_path

    def _cli_argv(self, llr_path, data_path):
        """(name, argv, arithmetic) of the three CLI calls on one frame file."""
        return (
            ("decode", ["decode", "--mask", self.mask_path, "--in", llr_path], "minsum"),
            ("decode", ["decode", "--mask", self.mask_path, "--in", llr_path, "--qbits", "5"], "q5"),
            ("encode", ["encode", "--mask", self.mask_path, "--in", data_path], None),
        )

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.pc.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
        return rc, out.getvalue()

    def prepare(self, seed, expected, inject):
        super().prepare(seed, expected, inject)
        pc = self.pc
        rng = np.random.default_rng(seed)
        self.data_idx = np.flatnonzero(self.code_mask)
        u = np.zeros((self.POOL, self.N), dtype=np.uint8)
        self.data = rng.integers(0, 2, (self.POOL, self.K), dtype=np.uint8)
        u[:, self.data_idx] = self.data
        self.x = pc.encode_batch(u)
        self.llrs = pc.channel_llrs(self.x, pc.AwgnChannel(self.SNR_DB, self.K / self.N), rng)
        self.words = [[pc.QLlr.from_value(int(v), self.q5fmt.bits) for v in row]
                      for row in pc.quantize_batch(self.llrs, self.q5fmt)]
        self.bubbles = rng.random(self.POOL) < self.BUBBLE_P
        self.files = [self._write_frames(j, self.llrs[j * self.CLI_FRAMES:(j + 1) * self.CLI_FRAMES],
                                         self.data[j * self.CLI_FRAMES:(j + 1) * self.CLI_FRAMES])
                      for j in range(self.POOL // self.CLI_FRAMES)]
        self.refs = {"minsum": {}, "q5": {}}
        self.next_frame = 0
        self.in_flight = []
        self.latencies = []

    def _ref(self, arith, i):
        """Scalar decision of pool frame i: the first in-process result, or computed now."""
        if i not in self.refs[arith]:
            inp, kernel = (self.words[i], self.q5) if arith == "q5" else (self.llrs[i], self.ms)
            self.refs[arith][i] = self.pc.decode(inp, self.code_mask, kernel)
        return self.refs[arith][i]

    def reference(self):
        return {arith: [digest(self._ref(arith, i)) for i in range(self.POOL)]
                for arith in ("minsum", "q5")}

    def _check_scalar(self, arith, i, out):
        ref = self.refs[arith].setdefault(i, out)
        stored = self.expected[arith][i] if self.expected is not None else digest(ref)
        self.check(digest(out) == stored, f"decode {arith} frame {i}: decisions differ from reference")

    def _step(self, tr, r, llrs, seq):
        cycle = self.pipe.cycle
        frames = 0 if llrs is None else 1
        with tr.span("pipeline.step", frames=frames) as s:
            out = self.pipe.step(llrs)
        r.add(s.seconds, "minsum" if frames else None, frames, self.K)
        if frames:
            self.in_flight.append((cycle, seq))
        if out is not None:
            cycle_in, seq_in = self.in_flight.pop(0)
            latency = cycle - cycle_in
            self.latencies.append(latency)
            ref = self._ref("minsum", seq_in % self.POOL)
            self.check(latency == self.STAGES + 1 and np.array_equal(out, ref),
                       f"pipeline frame {seq_in}: latency {latency} or decisions differ")

    def round(self, tr):
        pc = self.pc
        r = Round()
        for _ in range(self.FRAMES_PER_ROUND):
            seq = self.next_frame
            self.next_frame += 1
            i = seq % self.POOL
            llrs = self.llrs[i]
            with tr.span("bench.frame") as unit:
                with tr.span("decoder.decode.minsum", frames=1) as s:
                    a = pc.decode(llrs, self.code_mask, self.ms)
                r.add(s.seconds, "minsum", 1, self.K)
                with tr.span("decoder.decode.q5", frames=1) as s:
                    q = pc.decode(self.words[i], self.code_mask, self.q5)
                r.add(s.seconds, "q5", 1, self.K)
                with tr.span("vectorized.decode_batch.batch1", frames=1) as s:
                    b = pc.decode_batch(llrs[None, :], self.code_mask, self.ms)[0]
                r.add(s.seconds, "minsum", 1, self.K)
                with tr.span("hybrid.hybrid_decode", frames=1) as s:
                    h = pc.hybrid_decode(llrs, self.code_mask, self.NPRIME, self.ms)
                r.add(s.seconds, "minsum", 1, self.K)
                self._step(tr, r, llrs, seq)
                if self.bubbles[i]:
                    self._step(tr, r, None, seq)
            r.calls_ms.append(unit.seconds * 1e3)
            if self.inject == "decision" and seq == 0:
                a = a.copy()
                a[self.data_idx[0]] ^= 1
            self._check_scalar("minsum", i, a)
            self._check_scalar("q5", i, q)
            self.check(np.array_equal(b, a), f"decode_batch row frame {i} differs from decode")
            self.check(np.array_equal(h, a), f"hybrid_decode frame {i} differs from decode")
        self._round_cli(tr, r)
        self.rounds_done += 1
        return r

    def _round_cli(self, tr, r):
        j = self.rounds_done % len(self.files)
        frames = range(j * self.CLI_FRAMES, (j + 1) * self.CLI_FRAMES)
        for name, argv, arith in self._cli_argv(*self.files[j]):
            with tr.span(f"cli.{name}", frames=self.CLI_FRAMES) as s:
                rc, text = self._cli(argv)
            r.add(s.seconds, arith, self.CLI_FRAMES if arith else 0, self.K)
            got = np.array([[int(v) for v in line.split()] for line in text.splitlines()], dtype=np.uint8)
            if arith is None:
                want = self.x[frames.start:frames.stop]
            else:
                want = np.array([self._ref(arith, i)[self.data_idx] for i in frames])
            self.check(rc == 0 and got.shape == want.shape and np.array_equal(got, want),
                       f"cli {' '.join(argv[:1] + argv[5:])} file {j}: output differs")

    def finish(self, rounds):
        for _ in range(self.STAGES + 1):
            self._step(Tracer(False), Round(), None, None)
        self.check(not self.in_flight, f"pipeline kept {len(self.in_flight)} frames after drain")

    def trace_extras(self, tr, rounds):
        """Split hybrid decoding into front end and component decodes for every pool frame."""
        pc = self.pc
        for i in range(self.POOL):
            decided = []
            with tr.span("hybrid.replay", frames=1):
                for c in range(self.N // self.NPRIME):
                    with tr.span("hybrid.component_inputs"):
                        lam = pc.component_inputs(self.llrs[i], decided, self.NPRIME, self.ms)
                    with tr.span("hybrid.component_decode"):
                        part = pc.decode(lam, self.code_mask[c * self.NPRIME:(c + 1) * self.NPRIME], self.ms)
                    decided += [int(v) for v in part]
            self.check(np.array_equal(np.array(decided, np.uint8), self._ref("minsum", i)),
                       f"hybrid replay frame {i} differs from decode")
        steps = tr.layers()["pipeline.step"]
        return {
            "pipeline.cycles": steps["count"],
            "pipeline.bubbles": steps["count"] - steps["frames"],
            "pipeline.latency_cycles": statistics.median(self.latencies),
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (KernelN1024, McSweep, McSweepJobs2, PerFrameN256)}
