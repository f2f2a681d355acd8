"""Acceptance suite.

Each test prints one ``[acceptance] criterion N (...): PASS/FAIL`` line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.  All tolerances
are pinned here.

Criterion 2 is split: the moment/trend checks (2a, 2b) and the
paired-protocol positivity claim (2c) are separate tests because 2c is
unattainable at rank 1 under this simulator's definitions: the mean linear
paired gain there is exactly 1, and the ensemble mean log10 gain is exactly
-0.0742, ``(E[ln S] - ln 8)/ln 10`` with S a sum of 8 products of two unit
exponentials (a Jensen penalty no seed can overcome); it is implemented
faithfully and left to fail.
"""

import math
import time

import numpy as np
import pytest

from qbclink import (
    ChannelKind,
    ExperimentSpec,
    Protocol,
    QiParams,
    Receiver,
    clements_decompose,
    decompose_channel,
    dominance_check,
    reconstruct,
    run_rank_sweep,
    sample_double_rayleigh,
    siso_beam_splitter,
    siso_snr,
)
from qbclink.channel import FadingSpec
from qbclink.cli import main as cli_main
from qbclink.cli import run_oracle_checks
from qbclink.montecarlo import cdf_csv_lines
from qbclink.qi import pmimo_mode_ratio

QI = QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9)


def _report(number, name, failures):
    ok = not failures
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def fading_sweep():
    """Shared fading ensemble for the trend and dominance criteria."""
    spec = ExperimentSpec(
        n_tx=8,
        n_rx=8,
        rank_sweep=tuple(range(1, 9)),
        reference_rtt=1e-5,
        qi=QI,
        trials=10_000,
        seed=20260808,
        channel_kind=ChannelKind.DOUBLE_RAYLEIGH,
    )
    start = time.perf_counter()
    results = run_rank_sweep(spec)
    elapsed = time.perf_counter() - start
    return spec, results, elapsed


def test_criterion_1_closed_form_reproduction():
    # deterministic 8x8 at baseline snr 1e-3: eta=0.01, Ns=0.5, Nz=5
    params = QiParams(n_signal=0.5, n_thermal=5.0, modes=1e9)
    beta = 1e-3
    spec = ExperimentSpec(
        n_tx=8,
        n_rx=8,
        rank_sweep=tuple(range(1, 9)),
        reference_rtt=0.01,
        qi=params,
        trials=1,
        seed=0,
        channel_kind=ChannelKind.DETERMINISTIC,
    )
    start = time.perf_counter()
    results = run_rank_sweep(spec)
    elapsed = time.perf_counter() - start

    failures = []
    for res in results:
        if res.protocol is Protocol.EMIMO:
            exact = math.log10(res.rank * 8)
        else:
            exact = math.log10(pmimo_mode_ratio(8, 8, res.rank, beta))
        rel = abs(res.mean_log_gain - exact) / abs(exact)
        if rel > 1e-9:
            failures.append(
                f"{res.protocol.value} r={res.rank}: got {res.mean_log_gain!r}, "
                f"want {exact!r} (rel {rel:.2e})"
            )
    full_rank_eigen = [
        r for r in results if r.protocol is Protocol.EMIMO and r.rank == 8
    ][0]
    if abs(full_rank_eigen.mean_log_gain - 1.80618) > 1e-5:
        failures.append("r=8 eigen gain not 1.80618")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "closed-form reproduction", failures)


def test_criterion_2_fading_moments_and_trend(fading_sweep):
    spec, results, elapsed = fading_sweep
    eigen = [r for r in results if r.protocol is Protocol.EMIMO]

    failures = []
    for res in eigen:
        target = res.rank * spec.n_rx
        dev = abs(res.mean_linear_gain - target)
        if dev > 3.0 * res.stderr_linear:
            failures.append(
                f"eigen r={res.rank}: linear mean {res.mean_linear_gain:.3f} "
                f"vs {target} beyond 3 SE ({res.stderr_linear:.3f})"
            )
    log_gains = [r.mean_log_gain for r in sorted(eigen, key=lambda r: r.rank)]
    if not all(a < b for a, b in zip(log_gains, log_gains[1:])):
        failures.append(f"eigen mean log gain not strictly increasing: {log_gains}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("2a/2b", "fading moment and trend checks", failures)


def test_criterion_2_pmimo_log_gain_positive(fading_sweep):
    # Stated criterion: paired-protocol mean log gain positive at every rank.
    # At rank 1 the statistic is genuinely negative (exactly -0.0742 over the
    # ensemble); see the module docstring.  Implemented as stated, expected to
    # fail there.
    _, results, _ = fading_sweep
    paired = [r for r in results if r.protocol is Protocol.PMIMO]
    failures = [
        f"paired r={res.rank}: mean log gain {res.mean_log_gain:+.4f} not > 0"
        for res in paired
        if not res.mean_log_gain > 0.0
    ]
    _report("2c", "paired-protocol mean log gain positive at every rank", failures)


def test_criterion_3_per_trial_dominance_and_cdfs(fading_sweep, tmp_path):
    spec, results, _ = fading_sweep
    report = dominance_check(results)

    failures = []
    total_draws = sum(p.trials for p in report.points)
    if total_draws < 10_000:
        failures.append(f"only {total_draws} draws")
    if report.total_violations != 0:
        failures.append(f"{report.total_violations} eigen<paired violations")
    rank_one = [p for p in report.points if p.rank == 1][0]
    if not rank_one.paired_below_siso_fraction > 0.0:
        failures.append("no rank-1 trials fell below the SISO baseline")

    cdf_file = tmp_path / "sweep_cdf.csv"
    cdf_file.write_text("\n".join(cdf_csv_lines(results)) + "\n")
    rows = [ln.split(",") for ln in cdf_file.read_text().splitlines()[1:]]
    groups = {}
    for rank, protocol, value, prob in rows:
        groups.setdefault((rank, protocol), []).append((float(value), float(prob)))
    for key, pairs in groups.items():
        values = np.array([v for v, _ in pairs])
        probs = np.array([p for _, p in pairs])
        if not (np.all(np.diff(values) > 0) and np.all(np.diff(probs) > 0)):
            failures.append(f"CDF rows for {key} not monotone")
        if probs[-1] != 1.0:
            failures.append(f"CDF for {key} does not end at 1")
    _report(3, "per-trial dominance and CDF monotonicity", failures)


def test_criterion_4_receiver_ratios():
    rng = np.random.default_rng(4)
    failures = []
    for _ in range(100):
        eta = rng.uniform(1e-9, 1.0)
        n_signal = rng.uniform(1e-4, 0.99)
        n_thermal = rng.uniform(1.01, 1e5)
        classical = siso_snr(
            eta, QiParams(n_signal, n_thermal, 1.0, Receiver.CLASSICAL_HETERODYNE)
        )
        guha = siso_snr(eta, QiParams(n_signal, n_thermal, 1.0, Receiver.GUHA))
        zhuang = siso_snr(eta, QiParams(n_signal, n_thermal, 1.0, Receiver.ZHUANG))
        if guha != 2.0 * classical or zhuang != 4.0 * classical:
            failures.append(
                f"ratios broken at eta={eta}, Ns={n_signal}, Nz={n_thermal}"
            )
            break
    _report(4, "receiver SNR ratios exactly 1:2:4", failures)


def test_criterion_5_oracle_equivalence():
    # Gaussian moment propagation vs closed forms.  The paired-protocol
    # comparison uses the exact passive bookkeeping (incoherent interference
    # and a thermal term depleted by the row power); the idealized
    # "N_I + Ns |h_mm|^2" value is its small-channel approximation and cannot
    # match a commutator-preserving model at 1e-9.
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    worst = {"emimo_max_cross": 0.0, "emimo_max_moment_rel": 0.0, "pmimo_max_photon_rel": 0.0}
    for _ in range(100):
        n = int(rng.integers(1, 9))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h *= rng.uniform(0.05, 0.95) / np.linalg.svd(h, compute_uv=False)[0]
        checks = run_oracle_checks(decompose_channel(h), QI)
        for key in worst:
            worst[key] = max(worst[key], checks[key])
    elapsed = time.perf_counter() - start

    failures = []
    if worst["emimo_max_cross"] > 1e-10:
        failures.append(f"eigen cross-branch {worst['emimo_max_cross']:.2e} > 1e-10")
    if worst["emimo_max_moment_rel"] > 1e-9:
        failures.append(f"eigen moments {worst['emimo_max_moment_rel']:.2e} > 1e-9")
    if worst["pmimo_max_photon_rel"] > 1e-9:
        failures.append(f"paired photons {worst['pmimo_max_photon_rel']:.2e} > 1e-9")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(5, "moment-propagation oracle equivalence", failures)


def test_criterion_6_structural_suites():
    failures = []

    # beam-splitter unitarity at 1e-12
    worst = 0.0
    for eta in np.linspace(0.0, 1.0, 21):
        for phase in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
            b = siso_beam_splitter(float(eta), float(phase))
            worst = max(worst, float(np.max(np.abs(b @ b.conj().T - np.eye(2)))))
    if worst > 1e-12:
        failures.append(f"beam-splitter unitarity {worst:.2e} > 1e-12")

    # SVD reconstruction and the completeness identity at 1e-10
    rng = np.random.default_rng(66)
    worst_recon = worst_complete = 0.0
    for _ in range(100):
        n_rx, n_tx = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        h *= rng.uniform(0.05, 0.95) / np.linalg.svd(h, compute_uv=False)[0]
        cm = decompose_channel(h)
        worst_recon = max(worst_recon, cm.reconstruction_residual())
        sigma = np.zeros((n_rx, n_rx))
        count = min(n_rx, n_tx)
        sigma[:count, :count] = np.diag(cm.singular_values[:count])
        loss = np.diag(cm.require_physical().loss_coefficients)
        gap = np.max(np.abs(sigma @ sigma.T + loss @ loss.T - np.eye(n_rx)))
        worst_complete = max(worst_complete, float(gap))
    if worst_recon > 1e-10:
        failures.append(f"SVD reconstruction {worst_recon:.2e} > 1e-10")
    if worst_complete > 1e-10:
        failures.append(f"completeness identity {worst_complete:.2e} > 1e-10")

    # mesh round trip over 100 random unitaries, N <= 16
    worst_mesh = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        mesh = clements_decompose(u)
        worst_mesh = max(worst_mesh, float(np.max(np.abs(reconstruct(mesh) - u))))
    if worst_mesh > 1e-10:
        failures.append(f"mesh round trip {worst_mesh:.2e} > 1e-10")

    # rank law: 10^3 fading draws, zero failures at the 1e-9 rank tolerance
    rank_failures = 0
    for i in range(1000):
        n_tag = int(rng.integers(1, 9))
        spec = FadingSpec(8, 8, n_tag, 1e-5, seed=606)
        if decompose_channel(sample_double_rayleigh(spec, i)[0].matrix).rank != n_tag:
            rank_failures += 1
    if rank_failures:
        failures.append(f"{rank_failures}/1000 rank-law failures")

    _report(6, "structural suites", failures)


def test_criterion_7_sweep_determinism(tmp_path):
    base = [
        "sweep", "--nt", "8", "--nr", "8", "--ranks", "1,4,8",
        "--trials", "400", "--seed", "99",
    ]
    dirs = [tmp_path / name for name in ("one", "two", "parallel")]
    assert cli_main(base + ["--out", str(dirs[0])]) == 0
    assert cli_main(base + ["--out", str(dirs[1])]) == 0
    assert cli_main(base + ["--out", str(dirs[2]), "--set", "workers=2"]) == 0

    failures = []
    for name in ("sweep_raw.csv", "sweep_summary.csv", "sweep_cdf.csv"):
        blobs = [(d / name).read_bytes() for d in dirs]
        if not (blobs[0] == blobs[1] == blobs[2]):
            failures.append(f"{name} differs across identically-seeded runs")
    _report(7, "seeded sweep byte-identical output", failures)
