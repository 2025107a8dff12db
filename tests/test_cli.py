"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from polarsc import (
    CodeSpec,
    DecoderKernel,
    GateDelays,
    QFormat,
    SimConfig,
    construct_frozen_mask,
    csv_text,
    delay_closed,
    encode,
    load_mask,
    quantize,
    run_sweep,
)
from polarsc.cli import main
from polarsc.vectorized import BLOCK_FRAMES
from test_decoder import reference_decode


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_writes_mask_file(self, tmp_path, capsys):
        out = tmp_path / "mask.txt"
        code, _, err = run_cli(
            ["construct", "--n", "8", "--k", "4", "--out", str(out)], capsys
        )
        assert code == 0
        mask = load_mask(out)
        assert sorted(np.flatnonzero(mask == 0)) == [0, 1, 2, 4]
        assert "K=4" in err and "rate=0.5000" in err

    def test_all_frozen(self, tmp_path, capsys):
        out = tmp_path / "mask.txt"
        code, _, _ = run_cli(
            ["construct", "--n", "2", "--k", "0", "--out", str(out)], capsys
        )
        assert code == 0
        assert not load_mask(out).any()

    def test_large_run_popcount(self, tmp_path, capsys):
        out = tmp_path / "mask.txt"
        code, _, _ = run_cli(
            ["construct", "--n", "1024", "--k", "512", "--out", str(out)], capsys
        )
        assert code == 0
        assert load_mask(out).sum() == 512

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(["construct", "--n", "4", "--k", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "4"
        assert len(lines[1].split()) == 4

    def test_invalid_k_fails_nonzero(self, capsys):
        code, _, err = run_cli(["construct", "--n", "8", "--k", "9"], capsys)
        assert code != 0
        assert "error" in err


@pytest.fixture
def mask_file(tmp_path):
    path = tmp_path / "mask.txt"
    main(["construct", "--n", "16", "--k", "8", "--out", str(path)])
    return path


class TestEncodeDecodePipe:
    def test_roundtrip_through_llr_mapping(self, tmp_path, mask_file, capsys):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 2, (5, 8))
        data_in = tmp_path / "data.txt"
        data_in.write_text(
            "\n".join(" ".join(str(b) for b in row) for row in frames) + "\n"
        )
        code, out, _ = run_cli(
            ["encode", "--mask", str(mask_file), "--in", str(data_in)], capsys
        )
        assert code == 0
        codewords = [line.split() for line in out.strip().splitlines()]
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text(
            "\n".join(
                " ".join("-8.0" if b == "1" else "8.0" for b in row)
                for row in codewords
            )
            + "\n"
        )
        code, out, _ = run_cli(
            ["decode", "--mask", str(mask_file), "--in", str(llr_in)], capsys
        )
        assert code == 0
        decoded = np.array(
            [[int(b) for b in line.split()] for line in out.strip().splitlines()]
        )
        assert np.array_equal(decoded, frames)

    def test_quantized_decode_roundtrip(self, tmp_path, mask_file, capsys):
        data_in = tmp_path / "data.txt"
        data_in.write_text("1 0 1 1 0 0 1 0\n")
        _, out, _ = run_cli(
            ["encode", "--mask", str(mask_file), "--in", str(data_in)], capsys
        )
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text(
            " ".join("-7" if b == "1" else "7" for b in out.split()) + "\n"
        )
        code, out, _ = run_cli(
            ["decode", "--mask", str(mask_file), "--in", str(llr_in), "--qbits", "5"],
            capsys,
        )
        assert code == 0
        assert out.split() == "1 0 1 1 0 0 1 0".split()

    @pytest.mark.parametrize("qbits", [0, 5])
    def test_frames_across_blocks_match_reference(self, tmp_path, mask_file, capsys, qbits):
        # one full block of frames and a partial one
        rng = np.random.default_rng(qbits)
        llrs = rng.normal(scale=3.0, size=(BLOCK_FRAMES + 3, 16))
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in llrs))
        argv = ["decode", "--mask", str(mask_file), "--in", str(llr_in), "--qbits", str(qbits)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(llrs)
        mask = load_mask(mask_file)
        fmt = QFormat(5)
        kernel = DecoderKernel.quantized(fmt) if qbits else DecoderKernel.min_sum()
        for row, line in zip(llrs, lines):
            frame = [quantize(float(v), fmt) for v in row] if qbits else row
            want = reference_decode(frame, mask, kernel)[0][mask == 1]
            assert line == " ".join(str(b) for b in want)

    def test_exact_decode_matches_reference(self, tmp_path, mask_file, capsys):
        rng = np.random.default_rng(2)
        llrs = rng.normal(scale=3.0, size=(5, 16))
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in llrs))
        code, out, _ = run_cli(["decode", "--mask", str(mask_file), "--in", str(llr_in), "--exact"], capsys)
        assert code == 0
        mask = load_mask(mask_file)
        want = [reference_decode(row, mask, DecoderKernel.exact())[0][mask == 1] for row in llrs]
        assert out.splitlines() == [" ".join(str(b) for b in bits) for bits in want]

    def test_blank_lines_are_skipped(self, tmp_path, mask_file, capsys):
        data_in = tmp_path / "data.txt"
        data_in.write_text("\n1 0 1 1 0 0 1 0\n   \n\n0 1 1 0 1 0 0 1\n")
        code, out, _ = run_cli(["encode", "--mask", str(mask_file), "--in", str(data_in)], capsys)
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_encode_frames_across_blocks(self, tmp_path, mask_file, capsys):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, (BLOCK_FRAMES + 3, 8))
        data_in = tmp_path / "data.txt"
        data_in.write_text("".join(" ".join(str(b) for b in row) + "\n" for row in data))
        code, out, _ = run_cli(["encode", "--mask", str(mask_file), "--in", str(data_in)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(data)
        mask = load_mask(mask_file)
        for row, line in zip(data, lines):
            u = np.zeros(16, dtype=np.uint8)
            u[mask == 1] = row
            assert line == " ".join(str(b) for b in encode(u))

    def test_wrong_frame_width_fails(self, tmp_path, mask_file, capsys):
        data_in = tmp_path / "data.txt"
        data_in.write_text("1 0 1\n")
        code, _, err = run_cli(
            ["encode", "--mask", str(mask_file), "--in", str(data_in)], capsys
        )
        assert code != 0
        assert "expected 8" in err

    @pytest.mark.parametrize("bit", ["2", "-1", "256"])
    def test_non_binary_data_bit_fails(self, tmp_path, mask_file, capsys, bit):
        data_in = tmp_path / "data.txt"
        data_in.write_text(f"1 0 1 1 0 0 1 {bit}\n")
        code, out, err = run_cli(
            ["encode", "--mask", str(mask_file), "--in", str(data_in)], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("polarsc: error:")

    @pytest.mark.parametrize("value", ["-1", "256"])
    @pytest.mark.parametrize("command", ["encode", "decode", "simulate"])
    def test_non_binary_mask_value_fails(self, tmp_path, capsys, command, value):
        mask_path = tmp_path / "mask.txt"
        mask_path.write_text(f"4\n0 1 {value} 1\n")
        frames = tmp_path / "frames.txt"
        frames.write_text("1.0 1.0 1.0 1.0\n" if command == "decode" else "1 0\n")
        argv = [command, "--mask", str(mask_path)]
        argv += ["--snr", "1"] if command == "simulate" else ["--in", str(frames)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("polarsc: error:")

    def test_words_too_wide_for_int64_fail_before_any_frame(self, tmp_path, mask_file, capsys):
        # no frame is read, so only the kernel's own check can refuse them
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text("")
        code, out, err = run_cli(["decode", "--mask", str(mask_file), "--qbits", "64", "--in", str(llr_in)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("polarsc: error:") and "too wide for int64" in err

    def test_infinite_scale_fails(self, tmp_path, mask_file, capsys):
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text(" ".join(["1.0"] * 16) + "\n")
        argv = ["decode", "--mask", str(mask_file), "--in", str(llr_in), "--qbits", "5", "--scale", "inf"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("polarsc: error: scale")

    def test_exact_and_qbits_conflict(self, tmp_path, mask_file, capsys):
        llr_in = tmp_path / "llrs.txt"
        llr_in.write_text(" ".join(["1.0"] * 16) + "\n")
        code, _, err = run_cli(
            [
                "decode", "--mask", str(mask_file), "--in", str(llr_in),
                "--qbits", "5", "--exact",
            ],
            capsys,
        )
        assert code != 0
        assert "mutually exclusive" in err


class TestSimulate:
    def test_csv_output_and_rerun_identical(self, tmp_path, mask_file, capsys):
        out_csv = tmp_path / "fer.csv"
        argv = [
            "simulate", "--mask", str(mask_file), "--snr", "2:4:2",
            "--seed", "7", "--max-trials", "512", "--min-errors", "20",
            "--out", str(out_csv),
        ]
        code, table, _ = run_cli(argv, capsys)
        assert code == 0
        assert "FER" in table
        first = out_csv.read_bytes()
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert out_csv.read_bytes() == first
        lines = first.decode().strip().splitlines()
        assert lines[0] == "snr_db,trials,frame_errors,bit_errors,fer,ber,ci95"
        assert len(lines) == 3

    def test_single_point_snr(self, mask_file, capsys):
        code, table, _ = run_cli(
            [
                "simulate", "--mask", str(mask_file), "--snr", "10",
                "--max-trials", "256", "--min-errors", "5",
            ],
            capsys,
        )
        assert code == 0
        assert len(table.strip().splitlines()) == 2

    def test_jobs_default_comes_from_environment(self, monkeypatch, mask_file):
        from polarsc.cli import build_parser

        monkeypatch.setenv("POLAR_JOBS", "3")
        args = build_parser().parse_args(
            ["simulate", "--mask", str(mask_file), "--snr", "1"]
        )
        assert args.jobs == 3

    def test_bad_jobs_environment_fails_only_simulate(self, monkeypatch, mask_file, capsys):
        from polarsc.cli import build_parser

        monkeypatch.setenv("POLAR_JOBS", "x")
        code, _, _ = run_cli(["construct", "--n", "8", "--k", "4"], capsys)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "--mask", str(mask_file), "--snr", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags, noun", [(["--jobs", "0"], "worker count"), (["--jobs", "-3"], "worker count"), (["--seed", "-1"], "seed")]
    )
    def test_rejects_bad_jobs_and_seed(self, mask_file, capsys, flags, noun):
        code, out, err = run_cli(["simulate", "--mask", str(mask_file), "--snr", "1", *flags], capsys)
        assert code == 1 and out == ""
        assert err.startswith("polarsc: error:") and noun in err

    def test_bad_snr_spec_fails(self, mask_file, capsys):
        code, _, err = run_cli(
            ["simulate", "--mask", str(mask_file), "--snr", "1:2"], capsys
        )
        assert code != 0 and "snr" in err.lower()

    @pytest.mark.parametrize("snr", ["1:2:0", "1:2:-1", "3:1:1", "1:inf:1", "1:2:nan"])
    def test_snr_grid_without_points_fails(self, mask_file, capsys, snr):
        code, out, err = run_cli(["simulate", "--mask", str(mask_file), "--snr", snr], capsys)
        assert code == 1 and out == ""
        assert "snr" in err.lower()

    def test_negative_snr_point(self, mask_file, capsys):
        argv = ["simulate", "--mask", str(mask_file), "--snr", "-5", "--max-trials", "64", "--min-errors", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("  -5.00 ")

    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_snr_without_a_finite_noise_variance_fails(self, mask_file, capsys, snr):
        code, out, err = run_cli(["simulate", "--mask", str(mask_file), "--snr", snr], capsys)
        assert code == 1 and out == ""
        assert err.startswith("polarsc: error: noise variance")

    def test_exact_kernel(self, tmp_path, mask_file, capsys):
        out_csv = tmp_path / "fer.csv"
        argv = [
            "simulate", "--mask", str(mask_file), "--snr", "2", "--exact",
            "--max-trials", "256", "--min-errors", "5", "--out", str(out_csv),
        ]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        config = SimConfig(
            code=CodeSpec(16, load_mask(mask_file)),
            kernel=DecoderKernel.exact(),
            snr_db=(2.0,),
            max_trials=256,
            min_frame_errors=5,
        )
        assert out_csv.read_text() == csv_text(run_sweep(config))

    def test_missing_mask_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--mask", str(tmp_path / "nope.txt"), "--snr", "1"], capsys
        )
        assert code != 0


class TestModels:
    def test_analyze_reproduces_published_column(self, capsys):
        code, out, _ = run_cli(
            [
                "analyze", "--n", "1024", "--freq", "2.5e6",
                "--power", "0.1907", "--area", "3.213e-6",
            ],
            capsys,
        )
        assert code == 0
        assert "total blocks         14336" in out
        values = {
            line.rsplit(None, 2)[0].strip(): float(line.rsplit(None, 2)[1])
            for line in out.splitlines()
            if "Gb/s" in line or "pJ/b" in line or "mm^2" in line
        }
        assert values["throughput"] == pytest.approx(2.56, rel=0.01)
        assert values["energy per bit"] == pytest.approx(74.5, rel=0.01)
        assert values["hardware efficiency"] == pytest.approx(796, rel=0.01)

    def test_analyze_unit_delays(self, capsys):
        with pytest.warns(UserWarning):
            code, out, _ = run_cli(
                [
                    "analyze", "--n", "8", "--delta-c", "1", "--delta-m", "1",
                    "--delta-x", "1", "--delta-a", "1",
                ],
                capsys,
            )
        assert code == 0
        assert "2.500000e+01" in out

    def test_analyze_metrics_use_the_given_delay_else_the_closed_form(self, capsys):
        gates = ["--delta-c", "1e-10", "--delta-m", "5e-11", "--delta-x", "2e-11", "--delta-a", "1e-11"]
        closed = delay_closed(256, GateDelays(1e-10, 5e-11, 2e-11, 1e-11))
        for given, delay in (([], closed), (["--delay", "1e-7"], 1e-7)):
            argv = ["analyze", "--n", "256", *gates, "--power", "0.1", "--area", "1e-6", *given]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            assert f"delay (closed form)  {closed:.6e} s" in out
            assert f"delay                {delay:.6e} s" in out
            assert f"throughput           {256 / delay / 1e9:.3f} Gb/s" in out

    def test_analyze_complexity_anchors(self, capsys):
        code, out, _ = run_cli(["analyze", "--n", "4"], capsys)
        assert code == 0
        assert "check comparators    2" in out
        assert "decision comparators 2" in out
        assert "adders/subtractors   4" in out

    def test_analyze_dynamic_power(self, capsys):
        code, out, _ = run_cli(
            [
                "analyze", "--n", "64", "--alpha", "0.5", "--cap", "2e-9",
                "--vdd", "1.3", "--switch-freq", "2.5e6",
            ],
            capsys,
        )
        assert code == 0
        assert "4.225000e-03" in out

    def test_hybrid_reference_row(self, capsys):
        code, out, _ = run_cli(
            [
                "hybrid", "--n", "1024", "--nprime", "16", "--p", "64",
                "--fc", "173e6", "--comb-tp", "1.05e9",
            ],
            capsys,
        )
        assert code == 0
        assert "5.909" in out
        assert "503.27" in out

    def test_hybrid_builtin_defaults(self, capsys):
        code, out, _ = run_cli(
            ["hybrid", "--n", "2048", "--nprime", "64", "--p", "64", "--fc", "171e6"],
            capsys,
        )
        assert code == 0
        assert "7.278" in out

    def test_hybrid_missing_default_fails(self, capsys):
        code, _, err = run_cli(
            ["hybrid", "--n", "1024", "--nprime", "128", "--p", "64", "--fc", "173e6"],
            capsys,
        )
        assert code != 0 and "comb-tp" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--n", "1024", "--comb-tp", "0"],
            ["pipeline", "--n", "1024", "--comb-delay", "0"],
            ["pipeline", "--n", "1024", "--comb-delay", "400e-9", "--stages", "-1"],
            ["hybrid", "--n", "1024", "--nprime", "16", "--p", "64", "--fc", "173e6", "--comb-tp", "0"],
            ["hybrid", "--n", "1024", "--nprime", "16", "--p", "64", "--fc", "173e6", "--comb-delay", "0"],
            ["analyze", "--n", "1024", "--freq", "-5"],
            ["analyze", "--n", "1024", "--freq", "0"],
            ["analyze", "--n", "1024", "--delay", "0"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_non_positive_model_inputs_fail(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("polarsc: error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--n", "0", "--comb-delay", "4e-7"],
            ["pipeline", "--n", "1000", "--comb-delay", "4e-7"],
            ["analyze", "--n", "64", "--delta-c=-1e-12"],
            ["analyze", "--n", "64", "--alpha", "0.2"],
            ["analyze", "--n", "64", "--alpha", "0.5", "--cap", "2e-9", "--vdd", "1.3"],
            ["analyze", "--n", "64", "--power", "0.1"],
            ["analyze", "--n", "64", "--area", "1e-6"],
            ["analyze", "--n", "64", "--power", "0.1", "--area", "1e-6"],
            ["analyze", "--n", "64", "--delta-c", "0", "--power", "0.1", "--area", "1e-6"],
            ["analyze", "--n", "4", "--delta-c", "1e-10", "--delay", "1e-7"],
            ["analyze", "--n", "64", "--delay", "nan", "--power", "0.1", "--area", "1e-6"],
            ["analyze", "--n", "64", "--delta-c", "nan"],
            ["analyze", "--n", "64", "--alpha", "nan", "--cap", "1", "--vdd", "1", "--switch-freq", "1"],
            ["analyze", "--n", "64", "--freq", "inf"],
            ["analyze", "--n", "1024", "--delay", "1e-320", "--power", "1", "--area", "1"],
            ["pipeline", "--n", "1024", "--comb-delay", "nan"],
            ["pipeline", "--n", "1024", "--comb-delay", "1e-320"],
            ["pipeline", "--n", "1024", "--comb-delay", "4e-7", "--stages", "2000"],
            ["hybrid", "--n", "1024", "--nprime", "16", "--p", "64", "--fc", "1e10", "--comb-delay", "1e308"],
            ["hybrid", "--n", "1024", "--nprime", "16", "--p", "64", "--fc", "1e10", "--comb-delay", "1e300"],
            ["hybrid", "--n", "1024", "--nprime", "16", "--p", "64", "--fc", "1e10", "--comb-delay", "1e297"],
            ["hybrid", "--n", "1024", "--nprime", "16", "--p", "64", "--fc", "1e306", "--comb-tp", "1.05e9"],
            ["hybrid", "--n", str(2**1100), "--nprime", "16", "--p", "64", "--fc", "1e8"],
        ],
        ids=" ".join,
    )
    def test_invalid_model_inputs_fail(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("polarsc: error:")

    def test_analyze_delay_and_freq_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--n", "64", "--delay", "1e-7", "--freq", "1e7"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_analyze_explicit_zero_delay_is_a_gate_model(self, capsys):
        code, out, _ = run_cli(["analyze", "--n", "64", "--delta-c", "0"], capsys)
        assert code == 0
        assert "delay (closed form)  0.000000e+00 s" in out
        assert "delay                0.000000e+00 s" in out

    def test_pipeline_table(self, capsys):
        code, out, _ = run_cli(
            ["pipeline", "--n", "1024", "--stages", "1", "--comb-delay", "400e-9"],
            capsys,
        )
        assert code == 0
        assert "2.5600e+09" in out
        assert "5.1200e+09" in out
