import math
import warnings
from collections import Counter

import numpy as np
import pytest

from qbclink import (
    ChannelKind,
    ExperimentSpec,
    FadingSpec,
    GaussianState,
    NonPhysicalTransformError,
    QiParams,
    decompose_channel,
    emimo_setup,
    pmimo_interference,
    pmimo_setup,
    propagate,
    quadrature_rep,
    sample_double_rayleigh,
    tmss_cross_correlation,
)
from qbclink import gaussian, montecarlo, rng
from qbclink.cli import main, run_oracle_checks
from qbclink.gaussian import (
    ORACLE_STACK_ENTRIES,
    ORACLE_TOLERANCES,
    oracle_channel,
    run_oracle,
)
from qbclink.rng import substream

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
        state = GaussianState.tmss_pairs(n_signal, total_modes=2, links=[(0, 1)])
        assert state.ladder_c[0, 0].real == pytest.approx(n_signal, rel=1e-12)
        assert state.ladder_c[1, 1].real == pytest.approx(n_signal, rel=1e-12)
        assert state.ladder_g[0, 1] == pytest.approx(tmss_cross_correlation(n_signal), rel=1e-12)
        assert state.ladder_c[0, 1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n_signal, total_modes, links", [
        (0.01, 2, [(0, 1)]),
        (0.3, 2, [(1, 0)]),
        (7.0, 4, [(0, 2), (1, 3)]),
        (0.04, 5, [(0, 3), (1, 4)]),  # mode 2 unlinked
        (2.0**-50, 3, [(2, 0)]),
    ])
    def test_tmss_pairs_equals_the_state_of_its_ladder_moments(self, n_signal, total_modes,
                                                               links):
        # <a†a> = Ns on each linked mode and <a_S a_I> = sqrt(Ns (Ns + 1)) on
        # each pair, turned into quadrature blocks the way a general zero-mean
        # state is: xx = Re(g + c) + I/2, pp = Re(c - g) + I/2, xp = Im(c + g)
        c = np.zeros((total_modes, total_modes), dtype=complex)
        g = np.zeros((total_modes, total_modes), dtype=complex)
        for sig, idl in links:
            c[sig, sig] = c[idl, idl] = n_signal
            g[sig, idl] = g[idl, sig] = np.sqrt(n_signal * (n_signal + 1.0))
        eye = np.eye(total_modes)
        vxp = (c + g).imag
        cov = np.block([[(g + c).real + 0.5 * eye, vxp], [vxp.T, (c - g).real + 0.5 * eye]])
        state = GaussianState.tmss_pairs(n_signal, total_modes, links)
        assert np.array_equal(state.mean, np.zeros(2 * total_modes))
        assert state.cov.tobytes() == cov.tobytes()  # bit for bit, signed zeros too
        assert GaussianState.vacuum(total_modes).cov.tobytes() == (
            GaussianState.thermal(total_modes, 0.0).cov.tobytes())

    def test_tmss_state_is_physical(self):
        # the uncertainty bound cov + i Omega / 2 >= 0, Omega the symplectic form
        state = GaussianState.tmss_pairs(0.3, total_modes=5, links=[(0, 3), (1, 4)])
        assert np.array_equal(state.cov, state.cov.T)
        omega = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(5))
        assert np.linalg.eigvalsh(state.cov + 0.5j * omega).min() >= -1e-9

    def test_quadrature_rep_multiplicative(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert np.allclose(quadrature_rep(a @ b), quadrature_rep(a) @ quadrature_rep(b))


class TestPropagate:
    def test_identity_map_with_no_noise_ports_is_inert(self):
        state = GaussianState.tmss_pairs(0.02, total_modes=2, links=[(0, 1)])
        out = propagate(state, np.eye(2), np.zeros((2, 0)), thermal_photons=0.0)
        assert np.array_equal(out.mean, state.mean)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_identity_map_with_dead_noise_column(self):
        state = GaussianState.thermal(2, 1.0)
        out = propagate(state, np.eye(2), np.zeros((2, 1)), thermal_photons=50.0)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_full_loss_gives_thermal_output(self):
        state = GaussianState.tmss_pairs(0.5, total_modes=2, links=[(0, 1)])
        smap = np.zeros((1, 2))
        nmap = np.ones((1, 1))
        out = propagate(state, smap, nmap, thermal_photons=9.0)
        assert out.ladder_c[0, 0].real == pytest.approx(9.0, rel=1e-12)

    def test_siso_cross_correlation_scales_with_amplitude(self):
        eta, phase, n_signal = 0.36, 0.8, 0.02
        state = GaussianState.tmss_pairs(n_signal, total_modes=2, links=[(0, 1)])
        smap = np.array([[np.sqrt(eta) * np.exp(-1j * phase), 0.0], [0.0, 1.0]])
        nmap = np.array([[np.sqrt(1 - eta)], [0.0]])
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        expected = np.sqrt(eta) * np.exp(-1j * phase) * tmss_cross_correlation(n_signal)
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

    def test_nan_map_rejected(self):
        with pytest.raises(NonPhysicalTransformError):
            propagate(GaussianState.vacuum(1), [[np.nan]], [[1.0]], 0.5)

    def test_shape_mismatch_rejected(self):
        state = GaussianState.vacuum(2)
        with pytest.raises(ValueError):
            propagate(state, np.eye(3), np.zeros((3, 0)), 0.0)
        with pytest.raises(ValueError, match="noise maps must have the same output count"):
            propagate(state, np.eye(3, 2), np.eye(2), 0.0)


class TestEigenProtocolOracle:
    def test_branches_match_eigen_channels(self):
        rng = np.random.default_rng(101)
        cm = random_physical_channel(rng, 6)
        state, smap, nmap = emimo_setup(cm, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        r = cm.rank
        cross = tmss_cross_correlation(PARAMS.n_signal)
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
        cross = tmss_cross_correlation(PARAMS.n_signal)
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
        cross = tmss_cross_correlation(PARAMS.n_signal)
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


# an operating point outside the photon numbers the oracle's moments hold
@pytest.mark.parametrize("n_signal, n_thermal, message", [
    (0.01, 1e308, "nz must be at most 2[*][*]511"),
    (0.01, 2.0**511 * 1.5, "nz must be at most 2[*][*]511"),
    (1.5 * 2.0**511, 1e4, "ns must lie in"),
    (1e-320, 100.0, "ns must lie in"),
    (2.0**-54, 100.0, "ns must lie in"),
], ids=["nz-1e308", "nz-past-2^511", "ns-past-2^511", "ns-1e-320", "ns-2^-54"])
def test_oracle_rejects_photon_numbers_its_moments_cannot_hold(monkeypatch, n_signal,
                                                                n_thermal, message):
    def no_trial(*args, **kwargs):
        raise AssertionError("an oracle trial ran")

    monkeypatch.setattr(gaussian, "_oracle_stacks", no_trial)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # outside the QI regime, by design
        params = QiParams(n_signal, n_thermal, 1e9)
    with pytest.raises(ValueError, match=message):
        run_oracle(params, 5, 1)


def test_oracle_at_the_edges_of_its_photon_range_gives_no_numpy_warning():
    # the largest photon numbers it takes, at its largest size: every
    # covariance sum stays finite (numpy warnings are errors in the tests)
    with pytest.warns(UserWarning, match="operating point"):
        params = QiParams(2.0**511, 2.0**511, 1e9)
    assert np.isfinite(list(run_oracle(params, 12, 1, max_n=64).worst.values())).all()
    smallest = QiParams(np.nextafter(2.0**-54, 1.0), 100.0, 1e9)
    assert np.isfinite(list(run_oracle(smallest, 40, 1).worst.values())).all()


@pytest.mark.parametrize("n_signal", [1, 2])
def test_integer_signal_photons_give_the_float_report(n_signal):
    # n_signal >= 1 leaves the quantum-illumination operating point, by design
    with pytest.warns(UserWarning, match="operating point"):
        integer = QiParams(n_signal, 100.0, 1e9)
    with pytest.warns(UserWarning, match="operating point"):
        real = QiParams(float(n_signal), 100.0, 1e9)
    report = run_oracle(integer, 40, 3)
    assert report == run_oracle(real, 40, 3)
    assert report.ok


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


@pytest.mark.parametrize("rank", range(1, 9))
def test_oracle_recovers_the_sweeps_eigen_samples(rank):
    # the fading sweep's 8x8 eigen samples, rebuilt from the propagated
    # branch-idler correlations: eta_k = |<a_k a_I,k>|^2 / cross^2
    spec = ExperimentSpec(n_tx=8, n_rx=8, rank_sweep=(rank,), reference_rtt=1e-5, qi=PARAMS,
                          trials=24, seed=7, channel_kind=ChannelKind.DOUBLE_RAYLEIGH)
    _, (_, logs, _), _ = montecarlo._fading_batch(spec, rank, 0, spec.trials)
    fspec = FadingSpec(8, 8, rank, spec.reference_rtt, spec.seed)
    draws, _ = sample_double_rayleigh(fspec, [(rank, t) for t in range(spec.trials)])
    cm = decompose_channel(draws.matrix)
    out = propagate(*emimo_setup(cm, PARAMS), PARAMS.n_thermal)
    k = np.arange(rank)
    cross = tmss_cross_correlation(PARAMS.n_signal)
    eta = np.abs(out.ladder_g[:, k, cm.n_rx + k]) ** 2 / cross**2
    snr = np.sum(eta, axis=-1) * PARAMS.n_signal / PARAMS.n_thermal
    baseline = spec.reference_rtt * PARAMS.n_signal / PARAMS.n_thermal
    assert np.max(np.abs(np.log10(snr / baseline) - logs)) <= 1e-9


def mixed_rank_stack():
    """Square 3x3 channels of ranks 3, 2, 3, 1, 2 and 3, factored as one stack."""
    rng = np.random.default_rng(110)
    full = [random_physical_channel(rng, 3).matrix for _ in range(3)]
    return decompose_channel(np.array([
        full[0], np.diag([0.5, 0.0, 0.3]), full[1],
        np.diag([0.0, 0.0, 0.4]), np.diag([0.2, 0.7, 0.0]), full[2],
    ], dtype=complex))


def non_square_stack():
    rng = np.random.default_rng(111)
    h = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    h *= 0.5 / np.linalg.svd(h, compute_uv=False)[:, :1, None]
    return decompose_channel(h)


def assert_states_equal(stacked, i, alone):
    assert np.array_equal(stacked.mean[i], alone.mean)
    assert np.array_equal(stacked.cov[i], alone.cov)
    assert np.array_equal(stacked.ladder_c[i], alone.ladder_c)
    assert np.array_equal(stacked.ladder_g[i], alone.ladder_g)


class TestStacksAreMembersBitForBit:
    """Every stacked entry equals the same member's channel factored alone."""

    @pytest.mark.parametrize("make", [mixed_rank_stack, non_square_stack])
    def test_run_oracle_checks(self, make):
        stack = make()
        checks = run_oracle_checks(stack, PARAMS)
        assert sorted(checks) == sorted(ORACLE_TOLERANCES)
        for i, h in enumerate(stack.matrix):
            alone = run_oracle_checks(decompose_channel(h), PARAMS)
            for name, value in alone.items():
                assert isinstance(value, float)
                assert checks[name][i] == value, (name, i)
        if stack.n_rx != stack.n_tx:
            assert np.array_equal(checks["pmimo_max_photon_rel"], np.zeros(len(stack)))

    def test_mixed_ranks_are_checked(self):
        assert mixed_rank_stack().rank.tolist() == [3, 2, 3, 1, 2, 3]
        checks = run_oracle_checks(mixed_rank_stack(), PARAMS)
        for name, tol in ORACLE_TOLERANCES.items():
            assert np.all(checks[name] <= tol)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_emimo_setup_and_propagate(self, rank):
        whole = mixed_rank_stack()
        stack = whole[whole.rank == rank]
        state, smap, nmap = emimo_setup(stack, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        for i, h in enumerate(stack.matrix):
            state_i, smap_i, nmap_i = emimo_setup(decompose_channel(h), PARAMS)
            assert np.array_equal(state.cov, state_i.cov)
            assert np.array_equal(smap[i], smap_i)
            assert np.array_equal(nmap[i], nmap_i)
            assert_states_equal(out, i, propagate(state_i, smap_i, nmap_i, PARAMS.n_thermal))

    def test_emimo_setup_rejects_a_stack_of_mixed_ranks(self):
        with pytest.raises(ValueError, match="one rank"):
            emimo_setup(mixed_rank_stack(), PARAMS)

    def test_pmimo_setup_and_propagate(self):
        stack = mixed_rank_stack()
        state, smap, nmap = pmimo_setup(stack, PARAMS)
        out = propagate(state, smap, nmap, PARAMS.n_thermal)
        for i, h in enumerate(stack.matrix):
            state_i, smap_i, nmap_i = pmimo_setup(decompose_channel(h), PARAMS)
            assert np.array_equal(smap[i], smap_i)
            assert np.array_equal(nmap[i], nmap_i)
            assert_states_equal(out, i, propagate(state_i, smap_i, nmap_i, PARAMS.n_thermal))

    def test_stacked_states_through_stacked_maps(self):
        rng = np.random.default_rng(112)
        states = [GaussianState.thermal(2, 3.0),
                  GaussianState.tmss_pairs(0.2, total_modes=2, links=[(0, 1)])]
        states.append(GaussianState(mean=rng.standard_normal(4), cov=states[1].cov))
        stacked = GaussianState(mean=np.array([s.mean for s in states]),
                                cov=np.array([s.cov for s in states]))
        maps = [pmimo_setup(random_physical_channel(rng, 1), PARAMS)[1:] for _ in states]
        out = propagate(stacked, np.array([a for a, _ in maps]),
                        np.array([b for _, b in maps]), 4.0)
        for i, (state, (a, b)) in enumerate(zip(states, maps)):
            assert_states_equal(out, i, propagate(state, a, b, 4.0))
            assert np.array_equal(stacked.ladder_c[i], state.ladder_c)
            assert np.array_equal(stacked.ladder_g[i], state.ladder_g)
            assert np.array_equal(stacked.mode_means()[i], state.mode_means())

    def test_one_bad_member_fails_the_stack(self):
        state, smap, nmap = pmimo_setup(mixed_rank_stack(), PARAMS)
        smap[4, 0, 0] = np.nan
        with pytest.raises(NonPhysicalTransformError, match="nan"):
            propagate(state, smap, nmap, PARAMS.n_thermal)


def trial_by_trial(params, trials, seed, max_n):
    """The oracle run one trial at a time: worst values, worst trial, its size."""
    worst = dict.fromkeys(ORACLE_TOLERANCES, 0.0)
    worst_ratio, worst_trial, worst_n = -1.0, 0, 0
    for i in range(trials):
        cm = oracle_channel(seed, i, max_n)
        checks = run_oracle_checks(cm, params)
        for name in worst:
            worst[name] = max(worst[name], checks[name])
        ratio = max(checks[name] / tol for name, tol in ORACLE_TOLERANCES.items())
        if ratio > worst_ratio:
            worst_ratio, worst_trial, worst_n = ratio, i, cm.n_rx
    return worst, worst_trial, worst_n


def small_blocks(monkeypatch, block_entries, stack_entries):
    """Shrink the oracle's block and stack sizes so a short run crosses both."""
    monkeypatch.setattr(gaussian, "ORACLE_BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(gaussian, "ORACLE_STACK_ENTRIES", stack_entries)


@pytest.mark.parametrize(
    "max_n, trials, seed, block_entries, stack_entries",
    [
        (1, 70, 3, 2**6, 2**4),  # blocks of 64 trials, stacks of 16
        (3, 133, 4, 2**8, 2**5),  # blocks of 28; stacks of 32, 8 and 3
        (8, 101, 5, 2**10, 2**8),  # blocks of 16; a size-8 stack holds 4
        (8, 7, 6, None, None),
        (64, 20, 7, None, None),  # blocks of 16; each size above 22 alone
    ],
    ids=["1-70-3", "3-133-4", "8-101-5", "8-7-6", "64-20-7"],
)
def test_run_oracle_equals_trial_by_trial(
    monkeypatch, max_n, trials, seed, block_entries, stack_entries
):
    if block_entries:
        small_blocks(monkeypatch, block_entries, stack_entries)
    report = run_oracle(PARAMS, trials, seed, max_n)
    worst, worst_trial, worst_n = trial_by_trial(PARAMS, trials, seed, max_n)
    assert report.worst == worst
    assert (report.worst_trial, report.worst_n) == (worst_trial, worst_n)


def test_worst_trial_is_the_first_of_equal_ratios(monkeypatch):
    def constant(cm, params):
        return {name: np.full(len(cm), tol / 2) for name, tol in ORACLE_TOLERANCES.items()}

    monkeypatch.setattr(gaussian, "run_oracle_checks", constant)
    small_blocks(monkeypatch, 2**8, 2**6)  # blocks of 4 trials
    report = run_oracle(PARAMS, 3 * 4 + 3, 1)
    assert report.worst_trial == 0
    assert report.worst_n == oracle_channel(1, 0).n_rx


def test_nan_deviation_fails_the_oracle_and_names_its_trial(monkeypatch, capsys):
    seed, trials, max_n = 2, 74, 4
    small_blocks(monkeypatch, 2**9, 2**5)  # blocks of 32 trials, stacks of 3 at n = 3
    first = next(i for i in range(trials) if oracle_channel(seed, i, max_n).n_rx == 3)
    real = gaussian.pmimo_interference

    def nan_at_size_three(cm, params, coherent=True):
        return real(cm, params, coherent) * (np.nan if cm.n_tx == 3 else 1.0)

    monkeypatch.setattr(gaussian, "pmimo_interference", nan_at_size_three)
    report = run_oracle(PARAMS, trials, seed, max_n)
    assert np.isnan(report.worst["pmimo_max_photon_rel"])
    assert not report.ok
    assert (report.worst_trial, report.worst_n) == (first, 3)

    code = main(["oracle", "--trials", str(trials), "--seed", str(seed),
                 "--set", f"max_n={max_n}"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "pmimo_max_photon_rel,nan" in lines
    assert lines[-3:] == [f"worst_trial,{first}", "worst_n,3", "ok,false"]


@pytest.mark.parametrize("max_n, trials", [(8, 200), (64, 40)])  # 1 block; 3 blocks
def test_stacks_hold_one_size_within_the_entry_cap(monkeypatch, max_n, trials):
    stacks = []
    real = gaussian.run_oracle_checks

    def recording(cm, params):
        stacks.append((cm.n_rx, len(cm)))
        return real(cm, params)

    monkeypatch.setattr(gaussian, "run_oracle_checks", recording)
    run_oracle(PARAMS, trials, 11, max_n)
    sizes = [oracle_channel(11, i, max_n).n_rx for i in range(trials)]
    for n, members in stacks:
        assert members * n * n <= ORACLE_STACK_ENTRIES or members == 1, (n, members)
    assert Counter(n for n, members in stacks for _ in range(members)) == Counter(sizes)
    # within a block, each size fills its stacks before it starts another
    per_block = gaussian.ORACLE_BLOCK_ENTRIES // max_n**2
    expected = sum(
        math.ceil(count / max(1, ORACLE_STACK_ENTRIES // n**2))
        for start in range(0, trials, per_block)
        for n, count in Counter(sizes[start : start + per_block]).items()
    )
    assert len(stacks) == expected


@pytest.mark.parametrize(
    "trials, max_n, message",
    [(0, 8, "trials must be at least 1, got 0"), (-3, 8, "trials must be at least 1, got -3"),
     (5, 0, "max_n must be at least 1, got 0")],
)
def test_run_oracle_rejects_an_empty_run(trials, max_n, message):
    with pytest.raises(ValueError) as raised:
        run_oracle(PARAMS, trials, 1, max_n)
    assert str(raised.value) == message


def substream_draw(seed, trial, max_n):
    """Oracle trial ``trial``'s size, raw channel and norm, drawn from its own
    ``substream``."""
    gen = substream(seed, trial)
    n = int(gen.integers(1, max_n + 1))
    raw = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return n, raw, gen.uniform(0.05, 0.95)


@pytest.mark.parametrize(
    "seed, trials",
    [(0, range(40)), (2**64 - 1, range(5, 45)),
     (7, range(2**32 - 4, 2**32))],  # the last trials of a run of 2**32
    ids=["seed-0", "seed-2^64-1", "trial-2^32"],
)
@pytest.mark.parametrize("max_n", [1, 8, 64])
def test_block_seeded_draws_equal_substream_draws(seed, trials, max_n):
    sizes, real, imag, norms = gaussian._oracle_draws(seed, trials, max_n)
    for i, trial in enumerate(trials):
        n, raw, norm = substream_draw(seed, trial, max_n)
        assert sizes[i] == n
        block_raw = (real[i, : n * n] + 1j * imag[i, : n * n]).reshape(n, n)
        assert block_raw.tobytes() == raw.tobytes(), (seed, trial)
        assert norms[i].tobytes() == np.float64(norm).tobytes()


def test_in_range_run_builds_no_substream(monkeypatch):
    calls = []

    def counting(seed, *path):
        calls.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(rng, "substream", counting)
    run_oracle(PARAMS, 100, 2**64 - 1)
    assert calls == []


@pytest.mark.parametrize("seed, trial, bad", [(7, 2**32, 2**32), (2**64, 0, 2**64)],
                         ids=["trial-2^32", "seed-2^64"])
@pytest.mark.parametrize("max_n", [1, 8, 64])
def test_draws_past_one_word_rejected(seed, trial, bad, max_n):
    # a trial index of 2**32 is past one path word, and a seed of 2**64 past
    # the seed range; no oracle command draws either, at any block size
    with pytest.raises(ValueError, match=f"got {bad}$"):
        oracle_channel(seed, trial)
    with pytest.raises(ValueError, match=f"got {bad}$"):
        gaussian._oracle_draws(seed, range(trial, trial + 2), max_n)
