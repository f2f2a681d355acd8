import math
import os

import numpy as np
import pytest

from qbclink import io, montecarlo
from qbclink.cli import COMMANDS, _merge_config, build_parser, main

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

    def test_bad_rank_sweep_is_validation_failure(self, capsys):
        code, _, err = run(capsys, ["sweep", "--ranks", "0..9"])
        assert code != 0
        code, _, err = run(capsys, ["sweep", "--ranks", "nope"])
        assert code == 2

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

    def test_non_unitary_exits_nonzero_with_residual(self, capsys, tmp_path):
        matrix_file = tmp_path / "bad.txt"
        io.write_matrix(matrix_file, np.ones((3, 3), dtype=complex))
        code, _, err = run(capsys, ["decompose", str(matrix_file)])
        assert code == 1
        assert "residual" in err

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


class TestOracleCommand:
    def test_oracle_passes_and_reports(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--trials", "10", "--seed", "1"])
        assert code == 0
        lines = dict(ln.split(",") for ln in out.splitlines())
        assert float(lines["emimo_max_cross"]) <= 1e-10
        assert float(lines["emimo_max_moment_rel"]) <= 1e-9
        assert float(lines["pmimo_max_photon_rel"]) <= 1e-9
        assert lines["ok"] == "true"

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


# each command that reads a seed, and the call that would do its first work
FADING_CHANNEL = ["channel", "--channel", "fading", "--nt", "4", "--nr", "4",
                  "--set", "nb=2", "--eta", "1e-5"]
SEEDED_COMMANDS = {
    "sweep-fading": (["sweep", "--trials", "5"], "qbclink.montecarlo.run_rank_sweep"),
    "sweep-deterministic": (["sweep", "--channel", "deterministic"],
                            "qbclink.montecarlo.run_rank_sweep"),
    "channel-fading": (FADING_CHANNEL, "qbclink.cli.sample_double_rayleigh"),
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


# a draw or trial count out of its range, the key named, and the command's first
# work (oracle counts: TestOracleCommand)
BOUNDED_COUNTS = {
    "channel-draw": (FADING_CHANNEL + ["--seed", "3", "--set", "draw=-1"], "draw",
                     "qbclink.cli.sample_double_rayleigh"),
    "sweep-fading-trials": (["sweep", "--trials", "0"], "trials",
                            "qbclink.montecarlo.run_rank_sweep"),
    "sweep-deterministic-trials": (["sweep", "--channel", "deterministic", "--trials", "-2"],
                                   "trials", "qbclink.montecarlo.run_rank_sweep"),
}


@pytest.mark.parametrize("case", sorted(BOUNDED_COUNTS))
def test_count_out_of_range_rejected_before_any_work(capsys, monkeypatch, case):
    argv, name, first_work = BOUNDED_COUNTS[case]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran")

    monkeypatch.setattr(first_work, no_work)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"key '{name}' must be at least" in err


def test_draw_past_the_block_seeder_accepted(capsys):
    # a path word of 2**32 or more falls back to substream
    code, out, _ = run(capsys, FADING_CHANNEL + ["--seed", "3", "--set", f"draw={2**32}"])
    assert code == 0
    assert "rank,2" in out


# one raw text per source (file, flag, --set) for each type in the key tables
SAMPLE_TEXTS = {
    float: ("0.25", "0.5", "0.75"),
    int: ("3", "4", "5"),
    str: ("fading", "clutter", "two_path"),
    "ranks": ("1..2", "3", "1,4"),
    "seed": ("3", "4", "5"),
    "trials": ("3", "4", "5"),
    "receiver": ("classical", "guha", "zhuang"),
    "channel": ("deterministic", "double-rayleigh", "deterministic"),
}
FLAGGED_KEYS = [
    (command, keys, key)
    for command, _, _, keys in COMMANDS
    for key in keys
    if key.flag
]


@pytest.mark.parametrize(
    "command,keys,key",
    FLAGGED_KEYS,
    ids=[f"{command}-{key.name}" for command, _, key in FLAGGED_KEYS],
)
def test_key_table_file_flag_and_set_agree_and_layer(tmp_path, command, keys, key):
    file_text, flag_text, set_text = SAMPLE_TEXTS.get(key.name) or SAMPLE_TEXTS[key.type]
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
        return _merge_config(build_parser().parse_args(argv), keys)[key.name]

    for text in (file_text, flag_text, set_text):
        value = typed(file=text)
        assert typed(flag=text) == value and typed(override=text) == value
        assert type(typed(flag=text)) is type(value) is type(typed(override=text))
    assert typed(file=file_text, flag=flag_text) == typed(flag=flag_text)
    assert typed(file=file_text, flag=flag_text) != typed(file=file_text)
    layered = typed(file=file_text, flag=flag_text, override=set_text)
    assert layered == typed(override=set_text) != typed(flag=flag_text)
