import argparse
import contextlib
import hashlib
import inspect
import linecache
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbclink
from qbclink import cli, io, montecarlo
from qbclink.cli import COMMANDS, KEYS, _merge_config, _real, build_parser, main
from qbclink.errors import ConfigError

RADAR_BAND_ETA = 1.8116395996279272e-08


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLinkBudget:
    def test_unity_cancellation(self, capsys):
        c = 299792458.0
        code, out, _ = run(
            capsys,
            ["link-budget", "--g", "1", "--omega", str(c),
             "--sigma-q", str(16 * math.pi), "--rt", "1", "--rr", "1"],
        )
        assert code == 0
        assert out.strip() == "eta,1"

    def test_missing_key_names_it(self, capsys):
        code, _, err = run(
            capsys, ["link-budget", "--g", "1", "--sigma-q", "1", "--rt", "1", "--rr", "1"]
        )
        assert code == 2
        assert "omega" in err

    def test_radar_band_value_to_twelve_digits(self, capsys, tmp_path):
        out_file = tmp_path / "eta.csv"
        code, out, _ = run(
            capsys,
            ["link-budget", "--g", "100", "--omega", str(2 * math.pi * 5e9),
             "--sigma-q", "0.01", "--rt", "10", "--rr", "10",
             "--out", str(out_file)],
        )
        assert code == 0
        eta = float(out.split(",")[1])
        assert abs(eta - RADAR_BAND_ETA) <= 1e-12 * RADAR_BAND_ETA
        assert out_file.read_text().splitlines() == ["eta", f"{eta:.17g}"]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "lb.cfg"
        cfg.write_text("g = 1\nomega = 1e9\nsigma_q = 1\nrt = 1\nrr = 1\n")
        code_base, out_base, _ = run(capsys, ["link-budget", "--config", str(cfg)])
        code_override, out_override, _ = run(
            capsys, ["link-budget", "--config", str(cfg), "--rt", "2"]
        )
        assert code_base == code_override == 0
        assert float(out_override.split(",")[1]) == float(out_base.split(",")[1]) / 4

    def test_transmissivity_above_one_is_runtime_failure(self, capsys):
        code, out, err = run(
            capsys,
            ["link-budget", "--g", "1e6", "--omega", "299792458",
             "--sigma-q", str(16 * math.pi), "--rt", "1", "--rr", "1"],
        )
        assert code == 1
        assert out == ""
        assert "exceeds 1" in err


# sha256 of each CSV of a 4x4 sweep over ranks 1..4 at seed 7 and 150 trials.
# The pooled runs cut a rank's trials into several blocks, and the runs with
# FADING_BLOCK patched to 7 and 64 cut them across block boundaries: every
# block size gives the same bytes.
SWEEP_PINS = {
    "double-rayleigh": {
        "sweep_raw.csv": "397a796fee49533352c9e5216c13792a2320c9d12ddd9866b657d9b0ce9b957a",
        "sweep_summary.csv": "d12f107eea779aada6eec6a0d83ed5cdb23102b414d3224a635bac9f2392538d",
        "sweep_cdf.csv": "f56cbd6db61aa25286be58aa09c124ddb8d68be85702890ed43d330e22bb3fef",
    },
    "deterministic": {
        "sweep_raw.csv": "766c31e102f383301c36187a0e132b653945c16f3aab4f55b66bcc69c4eae60d",
        "sweep_summary.csv": "a9778eb433ce49319905fb3b88b5a1c8b23293691ac6c66ec2a9b5a15bbe2331",
        "sweep_cdf.csv": "a006db69b746634c27f3b2f0997fa0960f6f6707969cea8296db11b36775f53e",
    },
}


class TestSweep:
    def test_row_count_contract(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run(
            capsys,
            ["sweep", "--channel", "deterministic", "--nt", "8", "--nr", "8",
             "--ranks", "1..8", "--out", str(out_dir)],
        )
        assert code == 0
        summary = (out_dir / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 16  # 8 ranks x 2 protocols
        assert out.splitlines()[0] == summary[0]

    def test_deterministic_full_rank_eigen_value(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, _, _ = run(
            capsys,
            ["sweep", "--channel", "deterministic", "--ranks", "8",
             "--out", str(out_dir)],
        )
        assert code == 0
        rows = (out_dir / "sweep_summary.csv").read_text().splitlines()[1:]
        eigen = [r for r in rows if ",emimo," in r][0]
        assert float(eigen.split(",")[3]) == pytest.approx(math.log10(64), abs=5e-5)

    def test_identical_seed_byte_identical_output(self, capsys, tmp_path):
        args = ["sweep", "--trials", "150", "--seed", "7", "--nt", "4", "--nr", "4",
                "--ranks", "1,4"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, args + ["--out", str(dir_a)])[0] == 0
        assert run(capsys, args + ["--out", str(dir_b)])[0] == 0
        for name in ("sweep_raw.csv", "sweep_summary.csv", "sweep_cdf.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @pytest.mark.parametrize("channel", ["double-rayleigh", "deterministic"])
    def test_csv_bytes_identical_for_any_worker_count(
        self, capsys, monkeypatch, tmp_path, channel
    ):
        # three ranks, so that the caller's share and the children's jobs
        # both cross a rank boundary of the one pool
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = ["sweep", "--trials", "150", "--seed", "7", "--nt", "4", "--nr", "4",
                "--ranks", "1,2,4", "--channel", channel]
        names = ("sweep_raw.csv", "sweep_summary.csv", "sweep_cdf.csv")
        outputs = []
        for workers in (1, 2, 3):
            out_dir = tmp_path / f"w{workers}"
            argv = args + ["--set", f"workers={workers}", "--out", str(out_dir)]
            assert run(capsys, argv)[0] == 0
            outputs.append([(out_dir / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers, block", [
        *(pytest.param(w, None, id=f"{w}") for w in (1, 2, 3)),
        *(pytest.param(w, b, id=f"{w}-block{b}") for b in (7, 64) for w in (1, 2, 3)),
    ])
    @pytest.mark.parametrize("channel", sorted(SWEEP_PINS))
    def test_sweep_bytes_pinned(self, capsys, monkeypatch, tmp_path, channel, workers, block):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if block is not None:
            monkeypatch.setattr(montecarlo, "FADING_BLOCK", block)
        argv = ["sweep", "--nt", "4", "--nr", "4", "--ranks", "1..4", "--seed", "7",
                "--trials", "150", "--channel", channel, "--set", f"workers={workers}",
                "--out", str(tmp_path)]
        assert run(capsys, argv)[0] == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in SWEEP_PINS[channel]}
        assert digests == SWEEP_PINS[channel]

    def test_bad_rank_sweep_is_validation_failure(self, capsys):
        code, _, err = run(capsys, ["sweep", "--ranks", "0..9"])
        assert code == 2
        code, _, err = run(capsys, ["sweep", "--ranks", "nope"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--ranks", "0..9"], "rank 0 outside [1, 8]"),
            (["--ranks", "3..1"], "rank_sweep must be non-empty"),
            (["--ranks", "9"], "rank 9 outside [1, 8]"),
            (["--ranks", f"1..{10**17}"], "rank 9 outside [1, 8]"),
            (["--nt", "8", "--nr", "4"], "the paired protocol needs n_tx == n_rx >= 1, got 8, 4"),
            (["--eta", "2"], "reference_rtt must lie in (0, 1)"),
            (["--set", "nt=2.5"], "key 'nt' must be an integer, got 2.5"),
            (["--ranks", "x..y"], "bad rank range 'x..y'"),
        ],
        ids=["rank-0", "empty-range", "rank-9", "range-past-memory", "not-square", "eta-2", "nt-not-integer",
             "rank-range-not-integers"],
    )
    def test_spec_error_is_validation_failure_before_any_sweep(
        self, capsys, monkeypatch, argv, message
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_rank_sweep ran")

        monkeypatch.setattr(montecarlo, "run_rank_sweep", no_sweep)
        code, out, err = run(capsys, ["sweep", *argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unknown_channel_kind(self, capsys):
        code, _, err = run(capsys, ["sweep", "--channel", "rician"])
        assert code == 2
        assert "rician" in err

    @pytest.mark.parametrize("override", ["receiver=guha", "modes=1e6"])
    def test_keys_no_output_depends_on_are_unknown(self, capsys, override):
        code, out, err = run(capsys, ["sweep", "--set", override])
        assert code == 2
        assert out == ""
        assert f"unknown key '{override.split('=')[0]}'" in err

    @pytest.mark.parametrize("workers", [0, 2, 10**9])
    def test_workers_outside_cpu_count_rejected_before_any_pool(
        self, capsys, monkeypatch, workers
    ):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", NoPool)
        code, _, err = run(
            capsys, ["sweep", "--trials", "5", "--set", f"workers={workers}"]
        )
        assert code == 2
        assert "'workers'" in err and "[1, 1]" in err


class TestDecompose:
    def test_one_element_mesh_file(self, capsys, tmp_path):
        from qbclink import siso_beam_splitter

        matrix_file = tmp_path / "u.txt"
        mesh_file = tmp_path / "u.mesh"
        io.write_matrix(matrix_file, siso_beam_splitter(0.4, 0.0))
        code, out, _ = run(
            capsys, ["decompose", str(matrix_file), "--out", str(mesh_file)]
        )
        assert code == 0
        assert float(out.splitlines()[0].split(",")[1]) <= 1e-10
        lines = mesh_file.read_text().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3  # dimension, one element, phases

    def test_identity_mesh_has_zero_angles(self, capsys, tmp_path):
        matrix_file = tmp_path / "i.txt"
        io.write_matrix(matrix_file, np.eye(8, dtype=complex))
        mesh_file = tmp_path / "i.mesh"
        code, _, _ = run(capsys, ["decompose", str(matrix_file), "--out", str(mesh_file)])
        assert code == 0
        element_lines = mesh_file.read_text().splitlines()[1:-1]
        assert all(float(ln.split()[1]) == 0.0 for ln in element_lines)

    def test_random_unitary_residual_reported(self, capsys, tmp_path):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u, _ = np.linalg.qr(z)
        matrix_file = tmp_path / "u8.txt"
        io.write_matrix(matrix_file, u)
        code, out, _ = run(capsys, ["decompose", str(matrix_file)])
        assert code == 0
        assert float(out.splitlines()[0].split(",")[1]) <= 1e-10

    def test_mesh_is_multiplied_out_once(self, capsys, tmp_path, monkeypatch):
        from qbclink import mesh

        rebuilt = []
        real = mesh.reconstruct
        monkeypatch.setattr(mesh, "reconstruct", lambda m: rebuilt.append(real(m)) or rebuilt[-1])
        rng = np.random.default_rng(9)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        matrix_file = tmp_path / "u8.txt"
        io.write_matrix(matrix_file, u)
        code, out, _ = run(capsys, ["decompose", str(matrix_file)])
        assert code == 0
        assert len(rebuilt) == 1
        # the residual line is the self-check's own gap
        gap = np.max(np.abs(rebuilt[0] - io.read_matrix(matrix_file)))
        assert out.splitlines()[0] == f"residual,{gap:.17g}"

    def test_non_unitary_exits_nonzero_with_residual(self, capsys, tmp_path):
        matrix_file = tmp_path / "bad.txt"
        io.write_matrix(matrix_file, np.ones((3, 3), dtype=complex))
        code, _, err = run(capsys, ["decompose", str(matrix_file)])
        assert code == 1
        assert "residual" in err

    def test_non_square_matrix_is_not_unitary(self, capsys, tmp_path):
        matrix_file, mesh_file = tmp_path / "m.txt", tmp_path / "m.mesh"
        io.write_matrix(matrix_file, np.ones((2, 3), dtype=complex))
        code, out, err = run(capsys, ["decompose", str(matrix_file), "--out", str(mesh_file)])
        assert (code, out) == (1, "")
        assert err == "residual,inf\nerror: input matrix is not unitary\n"
        assert not mesh_file.exists()

    def test_config_keys_rejected_and_empty_config_accepted(self, capsys, tmp_path):
        matrix_file = tmp_path / "i.txt"
        io.write_matrix(matrix_file, np.eye(2, dtype=complex))
        code, _, err = run(capsys, ["decompose", str(matrix_file), "--set", "foo=1"])
        assert code == 2
        assert "unknown key 'foo'" in err
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        code, _, _ = run(capsys, ["decompose", str(matrix_file), "--config", str(cfg)])
        assert code == 0


class TestBer:
    def test_half_error_grid_point(self, capsys):
        beta = 1e-5 * 0.01 / 100.0  # zhuang snr at defaults
        modes = math.log(2.0) / beta
        code, out, _ = run(
            capsys,
            ["ber", "--receiver", "zhuang",
             "--set", f"m_min={modes}", "--set", f"m_max={modes}",
             "--set", "m_points=1"],
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.5, rel=1e-12)

    def test_rows_preserve_receiver_ratios(self, capsys):
        code, out, _ = run(capsys, ["ber", "--set", "m_points=4"])
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        by_receiver = {}
        for receiver, modes, beta, _ in rows:
            by_receiver.setdefault(receiver, []).append((float(modes), float(beta)))
        for (m_c, b_c), (m_g, b_g), (m_z, b_z) in zip(
            by_receiver["classical"], by_receiver["guha"], by_receiver["zhuang"]
        ):
            assert m_c == m_g == m_z
            assert b_g == 2 * b_c
            assert b_z == 4 * b_c

    def test_out_file_holds_the_printed_table(self, capsys, tmp_path):
        out_file = tmp_path / "ber.csv"
        code, out, _ = run(capsys, ["ber", "--receiver", "guha", "--set", "m_points=2",
                                    "--out", str(out_file)])
        assert code == 0
        assert len(out.splitlines()) == 3
        assert out_file.read_text() == out

    def test_default_table_pinned(self, capsys):
        # sha256 of the stdout of `ber` at its defaults
        code, out, _ = run(capsys, ["ber"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "77e9b856d7534a20d90427b1e6fe3bd1667b67d01bfdd935bf2eaa48d4705fed")

    def test_mode_count_for_millibit_error(self, capsys):
        # beta = 1e-9 needs M = ln(1000)/beta ~ 6.9e9 for BER 1e-3
        modes = math.log(1000.0) / 1e-9
        code, out, _ = run(
            capsys,
            ["ber", "--receiver", "zhuang", "--eta", "1e-5", "--ns", "0.01",
             "--nz", "100", "--set", f"m_min={modes}",
             "--set", f"m_max={modes}", "--set", "m_points=1"],
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(6.9077552789821368e9, rel=1e-12)
        assert float(row[3]) == pytest.approx(1e-3, rel=1e-12)

    # sha256 of the stdout (and --out file) of `ber` with these arguments, as
    # the table was when each grid point was evaluated on its own: the grid at
    # its size bound, a beta * modes past the float range (BERs of 0), the
    # smallest positive m_min, and an m_max past the grid's range that one
    # point leaves out
    @pytest.mark.parametrize("args, digest", [
        (["--set", "m_points=100000"],
         "f11f0bcacc5d358dcb562f332f007fec8e7af341152f618e1da5235823262f82"),
        (["--ns", "1e308", "--nz", "2", "--set", "m_points=3"],
         "5cbe5c030c866bb2ea3f54f98a468aa4b2e1e5d4409263393c8a54648c0bb338"),
        (["--set", "m_min=5e-324"],
         "b2722fb4d9f9ac79151cb056330c4fd90b6cfbd92efb2610a14f831d4b095e43"),
        (["--set", "m_max=1.7976931348623157e308", "--set", "m_points=1"],
         "1f019eea8bcf6c1529c1c62c6ef23ab2895b8a42c51dd2c8aa1174b8c496d1ae"),
    ], ids=["m-points-10^5", "ns-1e308", "m-min-5e-324", "m-max-float-max-one-point"])
    def test_table_pinned(self, capsys, tmp_path, args, digest):
        out_file = tmp_path / "ber.csv"
        with (pytest.warns(UserWarning, match="operating point") if "--ns" in args
              else contextlib.nullcontext()):
            code, out, err = run(capsys, ["ber", *args, "--out", str(out_file)])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert out_file.read_text() == out

    @pytest.mark.parametrize("argv, receivers", [
        (["ber", "--set", "m_points=50"], 3),
        (["ber", "--receiver", "guha", "--set", "m_points=50"], 1),
    ], ids=["all", "one"])
    def test_one_evaluation_per_receiver(self, capsys, monkeypatch, argv, receivers):
        from qbclink import qi

        names = ("QiParams", "siso_snr", "chernoff_ber")
        calls = dict.fromkeys(names, 0)

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in names:
            monkeypatch.setattr(qi, name, counted(name, getattr(qi, name)))
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(out.splitlines()) == 1 + 50 * receivers
        assert calls == dict.fromkeys(names, receivers)


# stdout and --out matrix sha256 of steered channels: a two-path channel with a
# protocol report, and a clutter channel with n_tx != n_rx
CHANNEL_PINS = {
    "two_path": (
        "kind = two_path\n"
        "spacing = 0.5\n"
        "eta = 1e-5\n"
        "ns = 0.01\n"
        "nz = 100\n"
        "paths[0].eta = 0.04\n"
        "paths[0].phase = 0.3\n"
        "paths[0].omega_r = 0.2\n"
        "paths[0].omega_t = -0.5\n"
        "paths[1].eta = 0.09\n"
        "paths[1].phase = 1.7\n"
        "paths[1].omega_r = 0.9\n"
        "paths[1].omega_t = 0.6\n",
        "5adc5272558194d22eac6920b8f5422e69865d0c56c88dc12d5b3e0fce24e80d",
        "81b1b2147443479ef199754f4d9a59d3527efa8053723721e22dc2e6dc2db3b1",
    ),
    "clutter": (
        "kind = clutter\n"
        "spacing = 0.5\n"
        "nt = 5\n"
        "nb = 3\n"
        "nr = 4\n"
        "tx_paths[0].eta = 0.3\n"
        "tx_paths[0].phase = 0.1\n"
        "tx_paths[0].omega_b = 0.2\n"
        "tx_paths[0].omega = -0.4\n"
        "tx_paths[1].eta = 0.2\n"
        "tx_paths[1].phase = 2.1\n"
        "tx_paths[1].omega_b = -0.7\n"
        "tx_paths[1].omega = 0.5\n"
        "tx_paths[2].eta = 0.1\n"
        "tx_paths[2].phase = -1.2\n"
        "tx_paths[2].omega_b = 0.9\n"
        "tx_paths[2].omega = 0.05\n"
        "rx_paths[0].eta = 0.25\n"
        "rx_paths[0].phase = 0.4\n"
        "rx_paths[0].omega_b = 0.2\n"
        "rx_paths[0].omega = 0.8\n"
        "rx_paths[1].eta = 0.15\n"
        "rx_paths[1].phase = -2.5\n"
        "rx_paths[1].omega_b = -0.7\n"
        "rx_paths[1].omega = -0.3\n"
        "rx_paths[2].eta = 0.05\n"
        "rx_paths[2].phase = 3.0\n"
        "rx_paths[2].omega_b = 0.9\n"
        "rx_paths[2].omega = 0.45\n",
        "9a640b5adfb2ffa9e8ee411fb13d7fa0be8e671ecf259d44c7873377d498e12a",
        "b431462e9a13cd7d90cd0f66b685c3215132d02fe2e9e5fd83f03ff3eaf776de",
    ),
}

# the two-path pin config without the report keys eta, ns and nz
STEERED_TWO_PATH = "".join(
    line for line in CHANNEL_PINS["two_path"][0].splitlines(keepends=True)
    if not line.startswith(("eta ", "ns ", "nz "))
)
README_INI_EXAMPLES = re.findall(
    r"```ini\n(.*?)```",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.DOTALL,
)


class TestChannelCommand:
    def test_fading_channel_writes_matrix(self, capsys, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("kind = fading\nnt = 4\nnr = 4\nnb = 2\neta = 1e-5\nseed = 3\n")
        out_file = tmp_path / "h.txt"
        code, out, _ = run(
            capsys, ["channel", "--config", str(cfg), "--out", str(out_file)]
        )
        assert code == 0
        assert "rank,2" in out
        matrix = io.read_matrix(out_file)
        assert matrix.shape == (4, 4)

    def test_two_path_with_report(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "kind = two_path\nspacing = 0.5\neta = 1e-5\nns = 0.01\nnz = 100\n"
            "paths[0].eta = 0.01\npaths[0].phase = 0\n"
            "paths[0].omega_r = 0\npaths[0].omega_t = 0\n"
            "paths[1].eta = 0.01\npaths[1].phase = 0\n"
            "paths[1].omega_r = 1\npaths[1].omega_t = 1\n"
        )
        code, out, _ = run(capsys, ["channel", "--config", str(cfg)])
        assert code == 0
        assert "rank,2" in out
        assert "protocol,beta,ber,mode_ratio,log10_mode_gain" in out

    def test_unknown_key_rejected_by_name(self, capsys, tmp_path):
        cfg = tmp_path / "u.cfg"
        cfg.write_text("kind = fading\nnt = 4\nnr = 4\nnb = 2\neta = 1e-5\nseed = 3\nwat = 1\n")
        code, _, err = run(capsys, ["channel", "--config", str(cfg)])
        assert code == 2
        assert "wat" in err

    @pytest.mark.parametrize(
        "kind,key", [("two_path", "paths"), ("clutter", "tx_paths"), ("clutter", "rx_paths")]
    )
    def test_non_list_path_key_named(self, capsys, tmp_path, kind, key):
        # every other key is valid, so only the non-list value can fail
        cfg = tmp_path / "p.cfg"
        text = f"kind = {kind}\nspacing = 0.5\n"
        if kind == "clutter":
            text += "nt = 2\nnb = 1\nnr = 2\n" + "".join(
                f"{side}[0].{field} = 0.1\n"
                for side in ("tx_paths", "rx_paths")
                for field in ("eta", "phase", "omega_b", "omega")
            )
        cfg.write_text(text)
        code, _, err = run(
            capsys, ["channel", "--config", str(cfg), "--set", f"{key}=3"]
        )
        assert code == 2
        assert f"key '{key}'" in err

    def test_non_numeric_path_field_named(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "kind = two_path\nspacing = 0.5\n"
            "paths[0].eta = 0.01\npaths[0].phase = 0\n"
            "paths[0].omega_r = 0\npaths[0].omega_t = 0\n"
            "paths[1].eta = 0.01\npaths[1].phase = abc\n"
            "paths[1].omega_r = 1\npaths[1].omega_t = 1\n"
        )
        code, _, err = run(capsys, ["channel", "--config", str(cfg)])
        assert code == 2
        assert "key 'paths[1].phase'" in err

    def test_out_of_range_path_field_is_validation_failure(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "kind = two_path\nspacing = 0.5\n"
            "paths[0].eta = 2.0\npaths[0].phase = 0\n"
            "paths[0].omega_r = 0\npaths[0].omega_t = 0\n"
            "paths[1].eta = 0.01\npaths[1].phase = 0\n"
            "paths[1].omega_r = 1\npaths[1].omega_t = 1\n"
        )
        code, out, err = run(capsys, ["channel", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == "error: path transmissivity must lie in [0, 1], got 2.0\n"

    def test_report_on_non_square_channel_fails_before_any_output(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CHANNEL_PINS["clutter"][0])
        code, out, err = run(capsys, ["channel", "--config", str(cfg), "--eta", "1e-5",
                                      "--ns", "0.01", "--nz", "100"])
        assert code == 2
        assert out == ""
        assert err == "error: paired MIMO needs n_tx == n_rx transceiver pairs, got 4x5\n"

    @pytest.mark.parametrize("spacing", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name,build", [("two_path", "build_two_path_channel"),
                                            ("clutter", "build_clutter_channel")])
    def test_non_finite_spacing_rejected_before_any_work(
        self, capsys, monkeypatch, tmp_path, name, build, spacing
    ):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{build} ran")

        monkeypatch.setattr(f"qbclink.channel.{build}", no_work)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CHANNEL_PINS[name][0])
        code, out, err = run(capsys, ["channel", "--config", str(cfg),
                                      "--set", f"spacing={spacing}"])
        assert code == 2
        assert out == ""
        assert err == f"error: key 'spacing' must be finite, got {float(spacing)}\n"

    @pytest.mark.parametrize("spacing", ["1e308", "-3e307"])
    @pytest.mark.parametrize("name", ["two_path", "clutter"])
    def test_spacing_with_non_finite_phase_exits_2(self, capsys, tmp_path, name, spacing):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CHANNEL_PINS[name][0])
        # pytest turns a warning into an error, so numpy's overflow warning fails this
        code, out, err = run(capsys, ["channel", "--config", str(cfg),
                                      "--set", f"spacing={spacing}"])
        assert (code, out) == (2, "")
        assert err == f"error: spacing {float(spacing)} gives a non-finite array phase\n"

    def test_non_physical_steered_channel_is_runtime_failure(self, capsys, tmp_path):
        # two coincident paths of transmissivity 1 make a channel of norm 2
        cfg = tmp_path / "c.cfg"
        cfg.write_text(STEERED_TWO_PATH)
        same = ["paths[0].eta=1", "paths[1].eta=1", "paths[1].phase=0.3",
                "paths[1].omega_r=0.2", "paths[1].omega_t=-0.5"]
        code, out, err = run(capsys, ["channel", "--config", str(cfg),
                                      *(arg for item in same for arg in ("--set", item))])
        assert (code, out) == (1, "")
        assert err == "error: spectral norm 2 exceeds 1\n"

    def test_nested_key_exits_2_naming_its_line(self, capsys, tmp_path):
        # modes is a report key, and this config asks for no report
        cfg = tmp_path / "c.cfg"
        cfg.write_text(STEERED_TWO_PATH + "modes.x = 1\n")
        code, out, err = run(capsys, ["channel", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}: line 11: key 'modes.x' is not 'name' or 'name[i].field'\n"

    @pytest.mark.parametrize("example", README_INI_EXAMPLES)
    def test_readme_config_examples_run(self, capsys, tmp_path, example):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(example)
        code, out, err = run(capsys, ["channel", "--config", str(cfg)])
        assert (code, err) == (0, "")
        assert out.startswith("shape,")

    @pytest.mark.parametrize("name", sorted(CHANNEL_PINS))
    def test_steered_channel_bytes_pinned(self, capsys, tmp_path, name):
        text, out_sha, matrix_sha = CHANNEL_PINS[name]
        cfg, out_file = tmp_path / "c.cfg", tmp_path / "h.txt"
        cfg.write_text(text)
        code, out, _ = run(capsys, ["channel", "--config", str(cfg), "--out", str(out_file)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == matrix_sha


class TestOracleCommand:
    def test_oracle_passes_and_reports(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--trials", "10", "--seed", "1"])
        assert code == 0
        lines = dict(ln.split(",") for ln in out.splitlines())
        assert float(lines["emimo_max_cross"]) <= 1e-10
        assert float(lines["emimo_max_moment_rel"]) <= 1e-9
        assert float(lines["pmimo_max_photon_rel"]) <= 1e-9
        assert lines["ok"] == "true"

    def test_stdout_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--trials", "300", "--seed", "3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "10aa48dc3731152520f3eb6a1f658771dc419791273864839afd4284f9a23088"
        )

    def test_worst_trial_printed_before_ok(self, capsys):
        code, out, _ = run(
            capsys, ["oracle", "--trials", "10", "--seed", "1", "--set", "max_n=3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert [ln.split(",")[0] for ln in lines[-3:]] == ["worst_trial", "worst_n", "ok"]
        fields = dict(ln.split(",") for ln in lines)
        assert 0 <= int(fields["worst_trial"]) < 10
        assert 1 <= int(fields["worst_n"]) <= 3

    @pytest.mark.parametrize("override", ["trials=0", "trials=-3", "max_n=0"])
    def test_counts_below_one_rejected_before_any_trial(
        self, capsys, monkeypatch, override
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("an oracle trial ran")

        monkeypatch.setattr("qbclink.gaussian.run_oracle", no_trial)
        code, _, err = run(capsys, ["oracle", "--set", override])
        assert code == 2
        assert f"key '{override.split('=')[0]}'" in err

    @pytest.mark.parametrize("max_n", ["65", str(10**9)])
    def test_max_n_above_64_rejected_before_any_trial(self, capsys, monkeypatch, max_n):
        def no_trial(*args, **kwargs):
            raise AssertionError("an oracle trial ran")

        monkeypatch.setattr("qbclink.gaussian.run_oracle", no_trial)
        code, out, err = run(capsys, ["oracle", "--set", f"max_n={max_n}"])
        assert code == 2
        assert out == ""
        assert err == f"error: key 'max_n' must lie in [1, 64], got {max_n}\n"

    def test_python_dash_m_runs_the_command_line(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qbclink.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "qbclink", "oracle", "--trials", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok,true"


# each command that reads a seed, and the call that would do its first work
FADING_CHANNEL = ["channel", "--channel", "fading", "--nt", "4", "--nr", "4",
                  "--set", "nb=2", "--eta", "1e-5"]
SEEDED_COMMANDS = {
    "sweep-fading": (["sweep", "--trials", "5"], "qbclink.montecarlo.run_rank_sweep"),
    "sweep-deterministic": (["sweep", "--channel", "deterministic"],
                            "qbclink.montecarlo.run_rank_sweep"),
    "channel-fading": (FADING_CHANNEL, "qbclink.channel.sample_double_rayleigh"),
    "oracle": (["oracle", "--trials", "2"], "qbclink.gaussian.run_oracle"),
}


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_seed_out_of_range_rejected_before_any_work(capsys, monkeypatch, command, seed):
    argv, first_work = SEEDED_COMMANDS[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran")

    monkeypatch.setattr(first_work, no_work)
    code, out, err = run(capsys, argv + [f"--seed={seed}"])
    assert code == 2
    assert out == ""
    assert "key 'seed'" in err and "[0, 2**64 - 1]" in err


@pytest.mark.parametrize("command", ["channel-fading", "oracle"])
def test_largest_seed_accepted(capsys, command):
    argv, _ = SEEDED_COMMANDS[command]
    code, _, _ = run(capsys, argv + ["--seed", str(2**64 - 1)])
    assert code == 0


CLUTTER = ["channel", "--config", "clutter.cfg"]  # CHANNEL_PINS' clutter config
# a draw, trial count or array size out of its range (the last value in the
# arguments), the key named, and the command's first work; a draw, and every
# trial index, is one path word of the seeder (oracle counts below one:
# TestOracleCommand)
BOUNDED_COUNTS = {
    "channel-draw": (FADING_CHANNEL + ["--seed", "3", "--set", "draw=-1"], "draw",
                     "qbclink.channel.sample_double_rayleigh"),
    "channel-draw-2^32": (FADING_CHANNEL + ["--seed", "3", "--set", f"draw={2**32}"], "draw",
                          "qbclink.channel.sample_double_rayleigh"),
    "sweep-fading-trials": (["sweep", "--trials", "0"], "trials",
                            "qbclink.montecarlo.run_rank_sweep"),
    "sweep-trials-2^32+1": (["sweep", "--trials", str(2**32 + 1)], "trials",
                            "qbclink.montecarlo.run_rank_sweep"),
    "oracle-trials-2^32+1": (["oracle", "--trials", str(2**32 + 1)], "trials",
                             "qbclink.gaussian.run_oracle"),
    "oracle-trials-10^12": (["oracle", "--trials", str(10**12)], "trials",
                            "qbclink.gaussian.run_oracle"),
    "sweep-deterministic-trials": (["sweep", "--channel", "deterministic", "--trials", "-2"],
                                   "trials", "qbclink.montecarlo.run_rank_sweep"),
    "clutter-nt": (CLUTTER + ["--nt", "0"], "nt", "qbclink.channel.build_clutter_channel"),
    "clutter-nr": (CLUTTER + ["--nr", "-1"], "nr", "qbclink.channel.build_clutter_channel"),
    "clutter-nb": (CLUTTER + ["--set", "nb=0"], "nb", "qbclink.channel.build_clutter_channel"),
    "fading-nt": (FADING_CHANNEL + ["--nt", "0"], "nt", "qbclink.channel.sample_double_rayleigh"),
    "fading-nb": (FADING_CHANNEL + ["--set", "nb=0"], "nb",
                  "qbclink.channel.sample_double_rayleigh"),
    "sweep-nt": (["sweep", "--nt", "0"], "nt", "qbclink.montecarlo.run_rank_sweep"),
    "sweep-nr": (["sweep", "--channel", "deterministic", "--set", "nr=-3"], "nr",
                 "qbclink.montecarlo.run_rank_sweep"),
    # sizes past their bound: each would allocate 74.5 GiB to 7.28 TiB, or
    # (the 3000-antenna draw) run past a minute
    "ber-m-points-10^12": (["ber", "--set", f"m_points={10**12}"], "m_points",
                           "numpy.logspace"),
    "sweep-fading-10^5": (["sweep", "--ranks", "1", "--trials", "1",
                           "--nt", "100000", "--nr", "100000"], "nt",
                          "qbclink.montecarlo.run_rank_sweep"),
    "sweep-deterministic-10^5": (["sweep", "--channel", "deterministic", "--ranks", "1",
                                  "--eta", "1e-6", "--nt", "100000", "--nr", "100000"], "nt",
                                 "qbclink.montecarlo.run_rank_sweep"),
    "fading-10^5": (["channel", "--channel", "fading", "--set", "nb=1", "--eta", "1e-5",
                     "--seed", "1", "--nt", "100000", "--nr", "100000"], "nt",
                    "qbclink.channel.sample_double_rayleigh"),
    "fading-3000": (["channel", "--channel", "fading", "--eta", "1e-5", "--seed", "1",
                     "--nt", "3000", "--nr", "3000", "--set", "nb=3000"], "nt",
                    "qbclink.channel.sample_double_rayleigh"),
}


@pytest.mark.parametrize("case", sorted(BOUNDED_COUNTS))
def test_count_out_of_range_rejected_before_any_work(capsys, monkeypatch, tmp_path, case):
    argv, name, first_work = BOUNDED_COUNTS[case]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran")

    monkeypatch.setattr(first_work, no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clutter.cfg").write_text(CHANNEL_PINS["clutter"][0])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    given = argv[-1].split("=")[-1]
    assert re.fullmatch(rf"error: key '{name}' must lie in \[.*\], got {given}\n", err), err


# every key that sizes an array or a loop
SIZE_KEYS = {"nt", "nr", "nb", "m_points", "trials", "max_n"}
# the keys whose converter takes 2**63: a physical quantity, a seed, a name,
# or a count that the command bounds once it reads it (ranks by nt and nr,
# workers by the CPU count)
TAKES_2_63 = {"g", "omega", "sigma_q", "rt", "rr", "eta", "seed", "ns", "nz", "kind",
              "spacing", "modes", "m_min", "m_max", "ranks", "workers"}


@pytest.mark.parametrize("name", sorted(KEYS))
def test_every_size_key_rejects_2_63_by_name(name):
    convert = KEYS[name].convert
    if name in SIZE_KEYS:
        with pytest.raises(ConfigError, match=f"^key '{name}' must lie in "):
            convert(name, 2**63)
        return
    try:
        convert(name, 2**63)
    except ConfigError:
        return
    assert name in TAKES_2_63, f"key '{name}' takes 2**63: bound it, or say what bounds it"


FADING_4X4 = ["channel", "--channel", "fading", "--nt", "4", "--nr", "4"]
# a spec's own ValueError (or a key out of its range), its exact message, and
# the command's first work
SPEC_ERRORS = {
    "ber-eta": (["ber", "--eta", "2"], "key 'eta' must lie in [0, 1], got 2.0",
                "qbclink.qi.siso_snr"),
    "oracle-ns": (["oracle", "--ns", "-1"], "n_signal must be positive, got -1.0",
                  "qbclink.gaussian.run_oracle"),
    "ber-ns": (["ber", "--ns", "-1"], "n_signal must be positive, got -1.0",
               "qbclink.qi.siso_snr"),
    "channel-eta": (FADING_4X4 + ["--set", "nb=2", "--seed", "1", "--eta", "2"],
                    "reference_rtt must lie in (0, 1), got 2.0",
                    "qbclink.channel.sample_double_rayleigh"),
    "channel-nb": (FADING_4X4 + ["--set", "nb=8", "--seed", "1", "--eta", "1e-5"],
                   "n_tag=8 exceeds min(n_tx, n_rx)=4; the rank law would not hold",
                   "qbclink.channel.sample_double_rayleigh"),
    "channel-ns": (FADING_CHANNEL + ["--ns", "-1", "--nz", "100"],
                   "n_signal must be positive, got -1.0",
                   "qbclink.channel.sample_double_rayleigh"),
    "link-budget-g": (["link-budget", "--g", "-1", "--omega", "1e9", "--sigma-q", "1",
                       "--rt", "1", "--rr", "1"],
                      "antenna_gain must be positive, got -1.0",
                      "qbclink.channel.round_trip_transmissivity"),
    "link-budget-g-inf": (["link-budget", "--g", "inf", "--omega", "1e9", "--sigma-q", "1",
                           "--rt", "1", "--rr", "1"],
                          "antenna_gain must be finite, got inf",
                          "qbclink.channel.round_trip_transmissivity"),
    "link-budget-rt-inf": (["link-budget", "--g", "1", "--omega", "1e9", "--sigma-q", "1",
                            "--rt", "inf", "--rr", "1"],
                           "dist_tx_tag must be finite, got inf",
                           "qbclink.channel.round_trip_transmissivity"),
    # a NaN or infinite operating point
    "sweep-ns-nan": (["sweep", "--ns", "nan"], "n_signal must be finite, got nan",
                     "qbclink.montecarlo.run_rank_sweep"),
    "sweep-nz-inf": (["sweep", "--channel", "deterministic", "--nz", "inf"],
                     "n_thermal must be finite, got inf", "qbclink.montecarlo.run_rank_sweep"),
    "oracle-ns-nan": (["oracle", "--ns", "nan"], "n_signal must be finite, got nan",
                      "qbclink.gaussian.run_oracle"),
    "channel-modes-inf": (FADING_CHANNEL + ["--ns", "0.01", "--nz", "100", "--set", "modes=inf"],
                          "modes must be finite, got inf",
                          "qbclink.channel.sample_double_rayleigh"),
    "ber-m-max-inf": (["ber", "--set", "m_max=inf"],
                      "need 0 < m_min <= m_max < inf", "qbclink.qi.siso_snr"),
    "ber-m-min-nan": (["ber", "--set", "m_min=nan"],
                      "need 0 < m_min <= m_max < inf", "qbclink.qi.siso_snr"),
    # a finite key whose grid point 10**log10(key) overflows: m_max, or m_min
    # when it is the one point
    "ber-m-max-float-max": (["ber", "--set", "m_max=1.7976931348623157e308"],
                            "key 'm_max' must give a finite grid point 10**log10(m_max), "
                            "got 1.7976931348623157e+308", "qbclink.qi.QiParams"),
    "ber-m-min-float-max-one-point": (
        ["ber", "--set", "m_min=1.7976931348623157e308", "--set", "m_max=1.7976931348623157e308",
         "--set", "m_points=1"],
        "key 'm_min' must give a finite grid point 10**log10(m_min), "
        "got 1.7976931348623157e+308", "qbclink.qi.QiParams"),
    # ranks x trials past montecarlo.MAX_RANK_TRIALS: 16.8 million jobs at the
    # top of the trials range
    "sweep-ranks-x-trials": (["sweep", "--trials", str(2**32), "--ranks", "1",
                              "--nt", "2", "--nr", "2"],
                             "ranks x trials of a fading sweep must be at most 1000000, "
                             "got 1 x 4294967296", "qbclink.montecarlo._fading_points"),
    "sweep-ranks-x-trials-8-ranks": (["sweep", "--trials", "125001"],
                                     "ranks x trials of a fading sweep must be at most "
                                     "1000000, got 8 x 125001",
                                     "qbclink.montecarlo._fading_points"),
}


@pytest.mark.parametrize("case", sorted(SPEC_ERRORS))
def test_spec_error_is_validation_failure_before_any_work(capsys, monkeypatch, case):
    argv, message, first_work = SPEC_ERRORS[case]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran")

    monkeypatch.setattr(first_work, no_work)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


ONE_PATH = "".join(ln for ln in STEERED_TWO_PATH.splitlines(keepends=True)
                   if not ln.startswith("paths[1]"))
THREE_PATHS = STEERED_TWO_PATH + "".join(
    f"paths[2].{field} = 0.01\n" for field in ("eta", "phase", "omega_r", "omega_t"))
TWO_PATH_REPORT = ["channel", "--config", "c.cfg", "--ns", "0.01", "--nz", "100"]
# a config text (or none), the command, and the exact message it exits 2 with:
# a report's reference transmissivity outside (0, 1], a deterministic sweep
# outside its passive range, a wrong path count, a report key alone, an
# unknown channel kind, and a transmissivity or link SNR eta * ns / nz that
# leaves the float range
LINK_BUDGET_AT_RR = ["link-budget", "--g", "1", "--omega", "1e9", "--sigma-q", "1", "--rt", "1",
                     "--rr"]
FLOAT_RANGE = ("round-trip transmissivity of LinkBudget(antenna_gain=1.0, "
               "angular_frequency=1000000000.0, qrcs=1.0, dist_tx_tag=1.0, dist_tag_rx={}) "
               "leaves the float range")
SWEEP_2X2 = ["sweep", "--nt", "2", "--nr", "2", "--trials", "5"]
CONFIG_ERRORS = {
    "report-eta-zero": (STEERED_TWO_PATH, TWO_PATH_REPORT + ["--eta", "0"],
                        "reference_rtt must lie in (0, 1], got 0.0"),
    "report-eta-nan": (STEERED_TWO_PATH, TWO_PATH_REPORT + ["--eta", "nan"],
                       "reference_rtt must lie in (0, 1], got nan"),
    "report-eta-negative": (STEERED_TWO_PATH, TWO_PATH_REPORT + ["--eta", "-1"],
                            "reference_rtt must lie in (0, 1], got -1.0"),
    "report-eta-two": (STEERED_TWO_PATH, TWO_PATH_REPORT + ["--eta", "2"],
                       "reference_rtt must lie in (0, 1], got 2.0"),
    "sweep-deterministic-eta": (
        None, ["sweep", "--channel", "deterministic", "--nt", "4", "--nr", "4", "--eta", "0.5"],
        "reference_rtt must be at most 1/n_tx = 0.25 for a passive deterministic channel, "
        "got 0.5"),
    "two-path-one-path": (ONE_PATH, ["channel", "--config", "c.cfg"],
                          "key 'paths' must list exactly two paths, got 1"),
    "two-path-three-paths": (THREE_PATHS, ["channel", "--config", "c.cfg"],
                             "key 'paths' must list exactly two paths, got 3"),
    "fading-ns-alone": (None, FADING_CHANNEL + ["--seed", "1", "--ns", "0.01"],
                        "missing required key 'nz'"),
    "two-path-ns-alone": (STEERED_TWO_PATH, ["channel", "--config", "c.cfg", "--ns", "0.01"],
                          "missing required key 'nz'"),
    "channel-kind-unknown": (None, ["channel", "--channel", "nope"],
                             "unknown channel kind 'nope'"),
    "two-path-modes-alone": (STEERED_TWO_PATH,
                             ["channel", "--config", "c.cfg", "--set", "modes=1e6"],
                             "missing required key 'ns'"),
    "link-budget-rr-tiny": (None, LINK_BUDGET_AT_RR + ["1e-320"], FLOAT_RANGE.format("1e-320")),
    "link-budget-rr-huge": (None, LINK_BUDGET_AT_RR + ["1e308"], FLOAT_RANGE.format("1e+308")),
    "sweep-eta-tiny": (None, SWEEP_2X2 + ["--eta", "1e-320"],
                       "link SNR eta * ns / nz underflows to 0: eta=1e-320, ns=0.01, nz=100.0"),
    "sweep-ns-tiny": (None, SWEEP_2X2 + ["--ns", "1e-320"],
                      "link SNR eta * ns / nz underflows to 0: eta=1e-05, ns=1e-320, nz=100.0"),
    "ber-nz-tiny": (None, ["ber", "--nz", "1e-320"],
                    "link SNR eta * ns / nz is not finite: eta=1e-05, ns=0.01, nz=1e-320"),
    # photon numbers the oracle's float64 moments cannot hold: no trial runs,
    # so no numpy warning is given
    "oracle-nz-huge": (None, ["oracle", "--trials", "5", "--nz", "1e308"],
                       "nz must be at most 2**511 for the oracle, got 1e+308"),
    "oracle-ns-huge": (None, ["oracle", "--trials", "5", "--ns", "1e308"],
                       "ns must lie in (2**-54, 2**511] for the oracle, got 1e+308"),
    "oracle-ns-tiny": (None, ["oracle", "--trials", "5", "--ns", "1e-320"],
                       "ns must lie in (2**-54, 2**511] for the oracle, got 1e-320"),
    # a path phase that is not finite
    **{f"two-path-phase-{value}": (
        STEERED_TWO_PATH, ["channel", "--config", "c.cfg", "--set", f"paths[1].phase={value}"],
        f"path phase must be finite, got {value}") for value in ("inf", "-inf", "nan")},
}
# cases whose operating point lies outside the quantum-illumination regime,
# which QiParams warns of by design
OPERATING_POINT_WARNED = {"ber-nz-tiny", "oracle-ns-huge"}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2_with_empty_stdout(capsys, monkeypatch, tmp_path, case):
    text, argv, message = CONFIG_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "c.cfg").write_text(text)
    with (pytest.warns(UserWarning, match="operating point") if case in OPERATING_POINT_WARNED
          else contextlib.nullcontext()):
        code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# each command that builds QiParams, at an operating point outside the
# quantum-illumination regime, and the handler whose line asked for it
OPERATING_POINT_SITES = {
    "ber": (["ber", "--nz", "0.5", "--set", "m_points=2"], "cmd_ber"),
    "channel": (FADING_CHANNEL + ["--seed", "1", "--ns", "2", "--nz", "100"], "cmd_channel"),
    "sweep": (["sweep", "--nt", "2", "--nr", "2", "--trials", "3", "--ns", "2"], "cmd_sweep"),
    "oracle": (["oracle", "--trials", "2", "--ns", "2"], "cmd_oracle"),
}


@pytest.mark.parametrize("command", sorted(OPERATING_POINT_SITES))
def test_operating_point_warning_points_at_the_command(capsys, command):
    argv, handler = OPERATING_POINT_SITES[command]
    with pytest.warns(UserWarning, match="operating point") as record:
        code, _, _ = run(capsys, argv)
    assert code == 0
    source, first = inspect.getsourcelines(getattr(cli, handler))
    for warning in record:
        assert warning.filename == cli.__file__
        assert first <= warning.lineno < first + len(source)
        assert "qi.QiParams(" in linecache.getline(warning.filename, warning.lineno)


class _RecordingFile:
    """An open file that records the text of each ``write``."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)


# line count -> lines per write; 3,201 is the benchmark sweep's raw file
@pytest.mark.parametrize("count, chunks", [
    (1, [1]), (3201, [3201]), (4096, [4096]), (4097, [4096, 1]), (10_000, [4096, 4096, 1808]),
])
def test_files_written_in_chunks_of_4096_lines(monkeypatch, tmp_path, count, chunks):
    writes = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: _RecordingFile(open(*a, **k), writes),
                        raising=False)
    lines = [f"row,{i}" for i in range(count)]
    cli._write_lines(tmp_path / "out.csv", lines)
    assert [text.count("\n") for text in writes] == chunks
    assert (tmp_path / "out.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_largest_draw_accepted(capsys):
    # the draw below 2**32, the top of the key's range
    code, out, _ = run(capsys, FADING_CHANNEL + ["--seed", "3", "--set", f"draw={2**32 - 1}"])
    assert code == 0
    assert out == ("shape,4,4\nrank,2\nspectral_norm,0.0099774528793099438\n"
                   "eta_k,9.9549565958850292e-05 4.7892842463179244e-06 "
                   "1.8841822304656561e-37 9.4768811620486406e-38\n")


# every command's named flags in parser order: the flag, its metavar, its help
# and the config text its value becomes
FLAG_TABLE = {
    "link-budget": [
        ("--g", "G", "antenna gain (linear)", "g = V"),
        ("--omega", "OMEGA", "angular frequency (rad/s)", "omega = V"),
        ("--sigma-q", "SIGMA_Q", "tag cross-section (m^2)", "sigma_q = V"),
        ("--rt", "RT", "transmitter-to-tag distance (m)", "rt = V"),
        ("--rr", "RR", "tag-to-receiver distance (m)", "rr = V"),
    ],
    "channel": [
        ("--nt", "NT", None, "nt = V"),
        ("--nr", "NR", None, "nr = V"),
        ("--eta", "ETA", None, "eta = V"),
        ("--seed", "SEED", None, "seed = V"),
        ("--ns", "NS", None, "ns = V"),
        ("--nz", "NZ", None, "nz = V"),
        ("--channel", "CHANNEL", "channel kind: two_path, clutter, fading", "kind = V"),
    ],
    "decompose": [],
    "ber": [
        ("--eta", "ETA", None, "eta = V"),
        ("--ns", "NS", None, "ns = V"),
        ("--nz", "NZ", None, "nz = V"),
        ("--receiver", "RECEIVER", "classical, guha, or zhuang", "receiver = V"),
    ],
    "sweep": [
        ("--nt", "NT", None, "nt = V"),
        ("--nr", "NR", None, "nr = V"),
        ("--ranks", "RANKS", "'a..b' or comma list", "ranks = V"),
        ("--eta", "ETA", None, "eta = V"),
        ("--ns", "NS", None, "ns = V"),
        ("--nz", "NZ", None, "nz = V"),
        ("--trials", "TRIALS", None, "trials = V"),
        ("--seed", "SEED", None, "seed = V"),
        ("--channel", "CHANNEL", "deterministic or double-rayleigh", "channel = V"),
    ],
    "oracle": [
        ("--trials", "TRIALS", None, "trials = V"),
        ("--seed", "SEED", None, "seed = V"),
        ("--ns", "NS", None, "ns = V"),
        ("--nz", "NZ", None, "nz = V"),
    ],
}


def test_every_key_read_by_a_command():
    listed = {name for _, _, _, defaults in COMMANDS for name in defaults}
    assert listed == set(KEYS)


def test_flag_table_pinned():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    table = {
        command: [(action.option_strings[0], action.metavar, action.help, action.type("V"))
                  for action in parser._actions if action.dest == "flags"]
        for command, parser in subparsers.choices.items()
    }
    assert table == FLAG_TABLE


# one raw text per source (file, flag, --set) for the float converter, or for
# a key by name
SAMPLE_TEXTS = {
    _real: ("0.25", "0.5", "0.75"),
    "kind": ("fading", "clutter", "two_path"),
    "ranks": ("1..2", "3", "1,4"),
    "seed": ("3", "4", "5"),
    "trials": ("3", "4", "5"),
    "nt": ("3", "4", "5"),
    "nr": ("3", "4", "5"),
    "receiver": ("classical", "guha", "zhuang"),
    "channel": ("deterministic", "double-rayleigh", "deterministic"),
}
FLAGGED_KEYS = [
    (command, key)
    for command, _, _, defaults in COMMANDS
    for key in map(KEYS.get, defaults)
    if key.flag
]


@pytest.mark.parametrize(
    "command,key",
    FLAGGED_KEYS,
    ids=[f"{command}-{key.name}" for command, key in FLAGGED_KEYS],
)
def test_key_table_file_flag_and_set_agree_and_layer(tmp_path, command, key):
    file_text, flag_text, set_text = SAMPLE_TEXTS.get(key.name) or SAMPLE_TEXTS[key.convert]
    cfg_file = tmp_path / "keys.cfg"

    def typed(file=None, flag=None, override=None):
        argv = [command]
        if file is not None:
            cfg_file.write_text(f"{key.name} = {file}\n")
            argv += ["--config", str(cfg_file)]
        if flag is not None:
            argv += [key.flag, flag]
        if override is not None:
            argv += ["--set", f"{key.name}={override}"]
        return _merge_config(build_parser().parse_args(argv))[key.name]

    for text in (file_text, flag_text, set_text):
        value = typed(file=text)
        assert typed(flag=text) == value and typed(override=text) == value
        assert type(typed(flag=text)) is type(value) is type(typed(override=text))
    assert typed(file=file_text, flag=flag_text) == typed(flag=flag_text)
    assert typed(file=file_text, flag=flag_text) != typed(file=file_text)
    layered = typed(file=file_text, flag=flag_text, override=set_text)
    assert layered == typed(override=set_text) != typed(flag=flag_text)


@pytest.mark.parametrize("text", ["1e2", "abc", "3 # note"])
@pytest.mark.parametrize(
    "command,key",
    FLAGGED_KEYS,
    ids=[f"{command}-{key.name}" for command, key in FLAGGED_KEYS],
)
def test_flag_text_parses_as_in_file_and_set(tmp_path, command, key, text):
    # "1e2" is a float's text for an integer key, "abc" no number at all, and
    # "3 # note" a value with a comment
    cfg_file = tmp_path / "keys.cfg"
    cfg_file.write_text(f"{key.name} = {text}\n")
    outcomes = []
    for extra in (["--config", str(cfg_file)], [key.flag, text],
                  ["--set", f"{key.name}={text}"]):
        try:
            value = _merge_config(build_parser().parse_args([command, *extra]))[key.name]
            outcomes.append((type(value), value))
        except (ConfigError, SystemExit) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_repeated_flag_and_set_item_end_at_their_last_value():
    args = build_parser().parse_args(
        ["sweep", "--nt", "3", "--nt", "2", "--set", "nr=3", "--set", "nr=2"])
    cfg = _merge_config(args)
    assert (cfg["nt"], cfg["nr"]) == (2, 2)


class TestSetPathField:
    """``--set name[i].field=value`` on the two-path pin config."""

    def test_equals_the_config_edited_in_place(self, capsys, tmp_path):
        text = CHANNEL_PINS["two_path"][0]
        edited = text.replace("paths[0].eta = 0.04\n", "paths[0].eta = 0.5\n")
        assert edited != text
        (tmp_path / "c.cfg").write_text(text)
        (tmp_path / "e.cfg").write_text(edited)
        runs = []
        for cfg, extra in (("e.cfg", []), ("c.cfg", ["--set", "paths[0].eta=0.5"])):
            out_file = tmp_path / f"{cfg}.txt"
            code, out, err = run(capsys, ["channel", "--config", str(tmp_path / cfg),
                                          "--out", str(out_file), *extra])
            assert (code, err) == (0, "")
            runs.append((out, out_file.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("item,message", [
        ("paths[3].eta=0.5", "list 'paths' has gaps: indices [0, 1, 3]"),
        ("paths[2].eta=0.5", "paths[2]: missing required key 'phase'"),
        ("paths=3", "key 'paths' must be a list of path tables"),
        ("foo", "--set foo: line 1: expected 'key = value', got 'foo'"),
    ])
    def test_bad_item_exits_2_with_empty_stdout(self, capsys, tmp_path, item, message):
        (tmp_path / "c.cfg").write_text(CHANNEL_PINS["two_path"][0])
        code, out, err = run(capsys, ["channel", "--config", str(tmp_path / "c.cfg"),
                                      "--set", item])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("extra, source", [
    (["--config", "c.cfg"], "c.cfg"),
    (["--nt", "3\nfoo"], "--nt"),
    (["--set", "nt=3\nfoo"], "--set nt=3\nfoo"),
], ids=["file", "flag", "set"])
def test_config_line_error_names_its_source(capsys, monkeypatch, tmp_path, extra, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("nt = 3\nfoo\n")
    code, out, err = run(capsys, ["sweep", *extra])
    assert (code, out) == (2, "")
    assert err == f"error: {source}: line 2: expected 'key = value', got 'foo'\n"


def test_repeated_rank_rejected_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("qbclink.montecarlo.run_rank_sweep ran")

    monkeypatch.setattr("qbclink.montecarlo.run_rank_sweep", no_work)
    code, out, err = run(capsys, ["sweep", "--nt", "2", "--nr", "2", "--ranks", "2,2",
                                  "--trials", "3"])
    assert (code, out) == (2, "")
    assert err == "error: rank_sweep lists a rank more than once: (2, 2)\n"


def test_empty_matrix_header_named(capsys, tmp_path):
    matrix_file = tmp_path / "empty.txt"
    matrix_file.write_text("0 0\n")
    code, out, err = run(capsys, ["decompose", str(matrix_file)])
    assert (code, out) == (1, "")
    assert err == ("error: matrix header must be 'N_r N_t', two integers of at least 1, "
                   "got '0 0'\n")


def test_matrix_rows_checked_before_the_header_shape_is_allocated(capsys, tmp_path):
    # a 1 x 10**17 complex matrix would take 1.39 EiB
    matrix_file = tmp_path / "wide.txt"
    matrix_file.write_text(f"1 {10**17}\n1+0j 2+0j\n")
    code, out, err = run(capsys, ["decompose", str(matrix_file)])
    assert (code, out) == (1, "")
    assert err == f"error: row 0 has 2 entries, expected {10**17}\n"


# each command of the README's "Command line" block, continuation lines joined
README_COMMANDS = [
    shlex.split(line)
    for line in re.search(
        r"## Command line\n\n```sh\n(.*?)```",
        (Path(__file__).resolve().parents[1] / "README.md").read_text(),
        re.DOTALL,
    ).group(1).replace("\\\n", " ").splitlines()
]


def test_readme_command_lines_parse():
    assert len(README_COMMANDS) == 7
    for program, *argv in README_COMMANDS:
        assert program == "qbclink"
        build_parser().parse_args(argv)
