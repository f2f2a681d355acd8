import numpy as np
import pytest

from qbclink import (
    GaussianState,
    NonPhysicalTransformError,
    QiParams,
    decompose_channel,
    emimo_setup,
    pmimo_interference,
    pmimo_setup,
    propagate,
    quadrature_rep,
    tmss_moments,
)
from qbclink.cli import run_oracle_checks
from qbclink.gaussian import ORACLE_TOLERANCES, oracle_channel, run_oracle

PARAMS = QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9)


def random_physical_channel(rng, n, norm=None):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h *= (norm or rng.uniform(0.05, 0.95)) / np.linalg.svd(h, compute_uv=False)[0]
    return decompose_channel(h)


class TestGaussianState:
    def test_vacuum_moments(self):
        state = GaussianState.vacuum(3)
        assert np.allclose(state.ladder_c, 0.0, atol=1e-15)
        assert np.allclose(state.ladder_g, 0.0, atol=1e-15)

    def test_thermal_photon_number(self):
        state = GaussianState.thermal(2, 7.5)
        assert state.ladder_c[0, 0].real == pytest.approx(7.5, rel=1e-14)
        assert state.ladder_c[1, 1].real == pytest.approx(7.5, rel=1e-14)

    def test_tmss_pair_moments_round_trip(self):
        n_signal = 0.04
        state = GaussianState.tmss_pairs(n_signal, pairs=1, total_modes=2, links=[(0, 1)])
        m = tmss_moments(n_signal)
        assert state.ladder_c[0, 0].real == pytest.approx(n_signal, rel=1e-12)
        assert state.ladder_c[1, 1].real == pytest.approx(n_signal, rel=1e-12)
        assert state.ladder_g[0, 1] == pytest.approx(m.cross_correlation, rel=1e-12)
        assert state.ladder_c[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_tmss_state_is_physical(self):
        state = GaussianState.tmss_pairs(0.3, pairs=2, total_modes=5, links=[(0, 3), (1, 4)])
        state.validate()

    def test_unphysical_state_detected(self):
        state = GaussianState(mean=np.zeros(2), cov=0.1 * np.eye(2))
        with pytest.raises(ValueError):
            state.validate()

    def test_quadrature_rep_multiplicative(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert np.allclose(quadrature_rep(a @ b), quadrature_rep(a) @ quadrature_rep(b))


class TestPropagate:
    def test_identity_map_with_no_noise_ports_is_inert(self):
        state = GaussianState.tmss_pairs(0.02, pairs=1, total_modes=2, links=[(0, 1)])
        out = propagate(state, np.eye(2), np.zeros((2, 0)), thermal_photons=0.0)
        assert np.array_equal(out.mean, state.mean)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_identity_map_with_dead_noise_column(self):
        state = GaussianState.thermal(2, 1.0)
        out = propagate(state, np.eye(2), np.zeros((2, 1)), thermal_photons=50.0)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_full_loss_gives_thermal_output(self):
        state = GaussianState.tmss_pairs(0.5, pairs=1, total_modes=2, links=[(0, 1)])
        smap = np.zeros((1, 2))
        nmap = np.ones((1, 1))
        out = propagate(state, smap, nmap, thermal_photons=9.0)
        assert out.ladder_c[0, 0].real == pytest.approx(9.0, rel=1e-12)

    def test_siso_cross_correlation_scales_with_amplitude(self):
        eta, phase, n_signal = 0.36, 0.8, 0.02
        state = GaussianState.tmss_pairs(n_signal, pairs=1, total_modes=2, links=[(0, 1)])
        smap = np.array([[np.sqrt(eta) * np.exp(-1j * phase), 0.0], [0.0, 1.0]])
        nmap = np.array([[np.sqrt(1 - eta)], [0.0]])
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        expected = np.sqrt(eta) * np.exp(-1j * phase) * tmss_moments(n_signal).cross_correlation
        assert out.ladder_g[0, 1] == pytest.approx(expected, rel=1e-12)
        photons = eta * n_signal + (1 - eta) * PARAMS.n_thermal
        assert out.ladder_c[0, 0].real == pytest.approx(photons, rel=1e-12)

    def test_commutator_violation_rejected(self):
        state = GaussianState.vacuum(1)
        with pytest.raises(NonPhysicalTransformError):
            propagate(state, np.array([[0.9]]), np.zeros((1, 1)), 1.0)

    def test_quadrature_route_matches_ladder_moment_route(self):
        # the same channel propagated two ways: quadrature congruence inside
        # propagate() vs direct algebra on the complex moment matrices
        rng = np.random.default_rng(108)
        cm = random_physical_channel(rng, 4)
        state, a, b = pmimo_setup(cm, PARAMS)
        out = propagate(state, a, b, PARAMS.n_thermal)
        c_direct = a.conj() @ state.ladder_c @ a.T + PARAMS.n_thermal * (
            b.conj() @ b.T
        )
        g_direct = a @ state.ladder_g @ a.T
        assert np.allclose(out.ladder_c, c_direct, atol=1e-12)
        assert np.allclose(out.ladder_g, g_direct, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        state = GaussianState.vacuum(2)
        with pytest.raises(ValueError):
            propagate(state, np.eye(3), np.zeros((3, 0)), 0.0)


class TestEigenProtocolOracle:
    def test_branches_match_eigen_channels(self):
        rng = np.random.default_rng(101)
        cm = random_physical_channel(rng, 6)
        state, smap, nmap = emimo_setup(cm, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        r = cm.rank
        cross = tmss_moments(PARAMS.n_signal).cross_correlation
        for k, (eta, loss) in enumerate(zip(cm.port_eta[:r], cm.loss_coefficients[:r])):
            photons = eta * PARAMS.n_signal + loss**2 * PARAMS.n_thermal
            assert out.ladder_c[k, k].real == pytest.approx(photons, rel=1e-9)
            idler = cm.n_rx + k
            expected = np.sqrt(eta) * cross
            assert out.ladder_g[k, idler] == pytest.approx(expected, rel=1e-9)

    def test_distinct_branches_decouple(self):
        rng = np.random.default_rng(102)
        cm = random_physical_channel(rng, 8)
        state, smap, nmap = emimo_setup(cm, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        c = out.ladder_c
        off_diag = c - np.diag(np.diag(c))
        assert np.max(np.abs(off_diag)) <= 1e-10
        g = out.ladder_g.copy()
        for k in range(cm.rank):
            g[k, cm.n_rx + k] = g[cm.n_rx + k, k] = 0.0
        assert np.max(np.abs(g)) <= 1e-10

    def test_bpsk_symbol_rotates_cross_correlation(self):
        rng = np.random.default_rng(103)
        cm = random_physical_channel(rng, 4)
        symbol = np.exp(-1j * np.pi)  # the flipped BPSK symbol
        state, smap, nmap = emimo_setup(cm, PARAMS, symbol=symbol)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        cross = tmss_moments(PARAMS.n_signal).cross_correlation
        eta0 = cm.port_eta[0]
        assert out.ladder_g[0, cm.n_rx] == pytest.approx(
            symbol * np.sqrt(eta0) * cross, rel=1e-9
        )


class TestPairedProtocolOracle:
    def test_received_photons_match_exact_passive_bookkeeping(self):
        rng = np.random.default_rng(104)
        cm = random_physical_channel(rng, 8)
        state, smap, nmap = pmimo_setup(cm, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        h = cm.matrix
        for m in range(8):
            row_power = np.sum(np.abs(h[m, :]) ** 2)
            # the idealized interference formula treats the thermal term as
            # Nz; the passive model delivers (1 - row_power) Nz exactly
            expected = (
                PARAMS.n_signal * abs(h[m, m]) ** 2
                + pmimo_interference(cm, PARAMS, coherent=False)[m]
                - PARAMS.n_thermal * row_power
            )
            assert out.ladder_c[m, m].real == pytest.approx(expected, rel=1e-9)

    def test_received_idler_correlation_uses_direct_amplitude(self):
        rng = np.random.default_rng(105)
        cm = random_physical_channel(rng, 5)
        state, smap, nmap = pmimo_setup(cm, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        cross = tmss_moments(PARAMS.n_signal).cross_correlation
        for m in range(5):
            expected = cm.matrix[m, m] * cross
            assert out.ladder_g[m, 5 + m] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_interference_formula_is_qi_regime_approximation(self):
        # the idealized N_I + Ns|h_mm|^2 value approximates the oracle photon
        # number with error bounded by the channel power times Nz
        rng = np.random.default_rng(106)
        cm = random_physical_channel(rng, 6, norm=0.01)
        state, smap, nmap = pmimo_setup(cm, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        for m in range(6):
            idealized = (
                pmimo_interference(cm, PARAMS, coherent=False)[m]
                + PARAMS.n_signal * abs(cm.matrix[m, m]) ** 2
            )
            row_power = np.sum(np.abs(cm.matrix[m, :]) ** 2)
            assert abs(out.ladder_c[m, m].real - idealized) <= (
                PARAMS.n_thermal * row_power + 1e-12
            )


def test_oracle_checks_pass_across_sizes():
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        cm = random_physical_channel(rng, n)
        checks = run_oracle_checks(cm, PARAMS)
        assert checks["emimo_max_cross"] <= 1e-10
        assert checks["emimo_max_moment_rel"] <= 1e-9
        assert checks["pmimo_max_photon_rel"] <= 1e-9


def test_oracle_worst_trial_reproduces_from_its_seed():
    seed, trials = 9, 60

    def ratios(trial):
        checks = run_oracle_checks(oracle_channel(seed, trial), PARAMS)
        return checks, {name: checks[name] / tol for name, tol in ORACLE_TOLERANCES.items()}

    report = run_oracle(PARAMS, trials, seed)
    assert oracle_channel(seed, report.worst_trial).n_rx == report.worst_n
    checks, worst = ratios(report.worst_trial)
    name = max(worst, key=worst.get)
    assert checks[name] == report.worst[name]
    for trial in range(trials):
        assert max(ratios(trial)[1].values()) <= worst[name]
