import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbclink import (
    NonPhysicalChannelError,
    Protocol,
    ProtocolMismatchError,
    QiParams,
    Receiver,
    chernoff_ber,
    decompose_channel,
    decompose_stack,
    emimo_mode_ratio,
    emimo_snr,
    pmimo_interference,
    pmimo_mode_ratio,
    pmimo_setup,
    pmimo_snr,
    pmimo_snr_ensemble,
    protocol_reports,
    relative_gain,
    siso_snr,
    tmss_moments,
)
from qbclink.qi import PROTOCOL_REPORT_HEADER

PARAMS = QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9)


def random_physical_channel(rng, n_rx, n_tx, norm=None):
    h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    top = np.linalg.svd(h, compute_uv=False)[0]
    h *= (norm if norm is not None else rng.uniform(0.05, 0.95)) / top
    return decompose_channel(h)


class TestTmss:
    def test_vacuum_limit(self):
        assert tmss_moments(1e-300).cross_correlation < 1e-149

    def test_unit_photon(self):
        assert tmss_moments(1.0).cross_correlation == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_hundredth_photon(self):
        m = tmss_moments(0.01)
        assert m.cross_correlation == pytest.approx(0.10049875621120890, rel=1e-15)
        assert m.signal_mean_photons == m.idler_mean_photons == 0.01

    @given(n_signal=st.floats(1e-12, 1e6))
    def test_nonclassicality_witness(self, n_signal):
        m = tmss_moments(n_signal)
        assert m.cross_correlation > m.signal_mean_photons
        assert m.cross_correlation**2 == pytest.approx(
            n_signal * (n_signal + 1.0), rel=1e-12
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            tmss_moments(0.0)
        with pytest.raises(ValueError):
            tmss_moments(-1.0)


class TestSisoSnr:
    def test_zero_transmissivity_zero_snr(self):
        for receiver in Receiver:
            p = QiParams(0.01, 100.0, 1e9, receiver)
            assert siso_snr(0.0, p) == 0.0

    def test_receiver_ratios_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eta = rng.uniform(1e-8, 1.0)
            ns = rng.uniform(1e-4, 0.99)
            nz = rng.uniform(1.01, 1e4)
            classical = siso_snr(eta, QiParams(ns, nz, 1.0, Receiver.CLASSICAL_HETERODYNE))
            guha = siso_snr(eta, QiParams(ns, nz, 1.0, Receiver.GUHA))
            zhuang = siso_snr(eta, QiParams(ns, nz, 1.0, Receiver.ZHUANG))
            assert guha == 2.0 * classical
            assert zhuang == 4.0 * classical
            assert zhuang == 2.0 * guha

    def test_zhuang_direct_product(self):
        assert siso_snr(1e-5, PARAMS) == pytest.approx(1e-9, rel=1e-12)

    def test_operating_point_warning(self):
        with pytest.warns(UserWarning):
            QiParams(n_signal=2.0, n_thermal=100.0, modes=1.0)
        with pytest.warns(UserWarning):
            QiParams(n_signal=0.01, n_thermal=0.5, modes=1.0)

    def test_operating_point_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="operating point") as record:
            QiParams(n_signal=2.0, n_thermal=100.0, modes=1.0)
        assert [w.filename for w in record] == [__file__]


class TestChernoff:
    def test_zero_snr_gives_coin_flip_ceiling(self):
        assert chernoff_ber(0.0, 1e9) == 1.0

    def test_ln2_point(self):
        assert chernoff_ber(np.log(2.0) / 1e6, 1e6) == pytest.approx(0.5, rel=1e-12)

    def test_mode_scale_example(self):
        assert chernoff_ber(1e-9, 1e9) == pytest.approx(np.exp(-1.0), rel=1e-12)

    @given(
        beta=st.floats(1e-12, 1e-2),
        m1=st.floats(1.0, 1e9),
        m2=st.floats(1.0, 1e9),
    )
    def test_monotone_and_multiplicative(self, beta, m1, m2):
        assert chernoff_ber(beta, m1 + m2) <= chernoff_ber(beta, m1)
        assert chernoff_ber(2.0 * beta, m1) <= chernoff_ber(beta, m1)
        combined = chernoff_ber(beta, m1) * chernoff_ber(beta, m2)
        assert chernoff_ber(beta, m1 + m2) == pytest.approx(combined, rel=1e-12)


class TestPairedMimo:
    def test_diagonal_channel_sees_thermal_floor_only(self):
        cm = decompose_channel(0.01 * np.eye(4))
        for m in range(4):
            assert pmimo_interference(cm, PARAMS)[m] == PARAMS.n_thermal

    def test_single_off_diagonal_term(self):
        h = np.array([[0.1, 0.05], [0.0, 0.1]], dtype=complex)
        cm = decompose_channel(h)
        expected = 0.05**2 * PARAMS.n_signal + PARAMS.n_thermal
        assert pmimo_interference(cm, PARAMS)[0] == pytest.approx(expected, rel=1e-14)
        assert pmimo_interference(cm, PARAMS)[1] == PARAMS.n_thermal

    def test_coherent_vs_incoherent_sums(self):
        h = np.array([[0.1, 0.05, -0.05], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
        cm = decompose_channel(h)
        # opposite-sign entries cancel coherently but not incoherently
        assert pmimo_interference(cm, PARAMS)[0] == PARAMS.n_thermal
        incoherent = pmimo_interference(cm, PARAMS, coherent=False)[0]
        assert incoherent == pytest.approx(
            2 * 0.05**2 * PARAMS.n_signal + PARAMS.n_thermal, rel=1e-14
        )

    def test_scalar_channel_reduces_to_siso(self):
        eta = 3e-4
        cm = decompose_channel(np.array([[np.sqrt(eta)]]))
        assert pmimo_snr(cm, PARAMS) == pytest.approx(siso_snr(eta, PARAMS), rel=1e-12)

    def test_interference_free_diagonal(self):
        eta = 1e-4
        n = 5
        cm = decompose_channel(np.sqrt(eta) * np.eye(n))
        expected = n * eta * PARAMS.n_signal / PARAMS.n_thermal
        assert pmimo_snr(cm, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_resummation_oracle_on_random_channel(self):
        rng = np.random.default_rng(10)
        cm = random_physical_channel(rng, 8, 8, norm=0.3)
        h = cm.matrix
        for coherent in (True, False):
            total = 0.0
            for m in range(8):
                own = PARAMS.n_signal * abs(h[m, m]) ** 2
                if coherent:
                    power = abs(np.sum(h[m, :]) - h[m, m]) ** 2
                else:
                    power = np.sum(np.abs(h[m, :]) ** 2) - abs(h[m, m]) ** 2
                noise = power * PARAMS.n_signal + PARAMS.n_thermal
                assert pmimo_interference(cm, PARAMS, coherent)[m] == pytest.approx(
                    noise, rel=1e-12
                )
                total += own / noise
            assert pmimo_snr(cm, PARAMS, coherent) == pytest.approx(total, rel=1e-12)

    def test_rectangular_channel_rejected(self):
        cm = decompose_channel(0.1 * np.ones((2, 3)))
        with pytest.raises(ProtocolMismatchError):
            pmimo_snr(cm, PARAMS)
        with pytest.raises(ProtocolMismatchError):
            pmimo_interference(cm, PARAMS)[0]
        with pytest.raises(ProtocolMismatchError):
            pmimo_setup(cm, PARAMS)


class TestEnsembleClosedForms:
    def test_single_antenna_reduces_to_baseline(self):
        assert pmimo_snr_ensemble(1, 1, 1, 1e-3) == pytest.approx(1e-3, rel=1e-15)

    def test_large_array_limit(self):
        r, beta = 4, 1e-3
        limit = r / (r * beta + 1.0)
        big = pmimo_mode_ratio(100_000, 100_000, r, beta)
        assert big == pytest.approx(limit, rel=1e-4)

    def test_full_rank_eight_antenna_value(self):
        value = pmimo_snr_ensemble(8, 8, 8, 1e-3)
        assert value == pytest.approx(8e-3 / 1.007, rel=1e-12)

    def test_mode_ratio_times_beta_is_snr(self):
        for r in range(1, 9):
            ratio = pmimo_mode_ratio(8, 8, r, 1e-3)
            assert pmimo_snr_ensemble(8, 8, r, 1e-3) == pytest.approx(
                ratio * 1e-3, rel=1e-14
            )


class TestEigenMimo:
    def test_null_channel(self):
        cm = decompose_channel(np.zeros((3, 3)))
        assert emimo_snr(cm, PARAMS) == 0.0
        assert cm.port_eta[: cm.rank].size == 0

    def test_scaled_identity(self):
        eta, n = 2e-4, 6
        cm = decompose_channel(np.sqrt(eta) * np.eye(n))
        expected = n * eta * PARAMS.n_signal / PARAMS.n_thermal
        assert emimo_snr(cm, PARAMS) == pytest.approx(expected, rel=1e-12)
        branches = cm.port_eta[: cm.rank]
        assert len(branches) == n
        assert all(b == pytest.approx(eta, rel=1e-12) for b in branches)

    def test_trace_route_matches_singular_value_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            cm = random_physical_channel(rng, 6, 4)
            via_trace = emimo_snr(cm, PARAMS)
            via_sv = np.sum(cm.eta) * PARAMS.n_signal / PARAMS.n_thermal
            assert via_trace == pytest.approx(via_sv, rel=1e-12)

    def test_normalized_ensemble_gain(self):
        # trace fixed to r * n_rx * eta makes the eigen SNR r * n_rx * beta
        eta, r, n_rx = 1e-4, 3, 5
        sv = np.zeros((n_rx, n_rx))
        np.fill_diagonal(sv[:r, :r], np.sqrt(n_rx * eta))
        cm = decompose_channel(sv)
        beta = eta * PARAMS.n_signal / PARAMS.n_thermal
        assert emimo_snr(cm, PARAMS) == pytest.approx(r * n_rx * beta, rel=1e-12)
        assert emimo_mode_ratio(r, n_rx) == r * n_rx

    def test_rank_one_single_branch_carries_trace(self):
        rng = np.random.default_rng(15)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = 0.1 * np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        cm = decompose_channel(h)
        branches = cm.port_eta[: cm.rank]
        assert len(branches) == 1
        assert branches[0] == pytest.approx(cm.trace_power, rel=1e-12)

    def test_eigen_sum_is_trace(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            cm = random_physical_channel(rng, 7, 7)
            total = sum(cm.port_eta[: cm.rank])
            assert total == pytest.approx(cm.trace_power, rel=1e-12)


def random_physical_stack(rng, b, n):
    h = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    top = np.linalg.svd(h, compute_uv=False)[:, :1, None]
    return decompose_stack(h * rng.uniform(0.05, 0.95, (b, 1, 1)) / top)


class TestStackedChannels:
    """On a ChannelStack the protocol functions give, entry by entry, their
    values on each channel of it, bit for bit."""

    @pytest.mark.parametrize("coherent", [True, False])
    def test_paired_values_match_each_channel(self, coherent):
        stack = random_physical_stack(np.random.default_rng(20), 12, 6)
        noise = pmimo_interference(stack, PARAMS, coherent)
        snr = pmimo_snr(stack, PARAMS, coherent)
        assert noise.shape == (12, 6) and snr.shape == (12,)
        for i in range(len(stack)):
            assert np.array_equal(noise[i], pmimo_interference(stack[i], PARAMS, coherent))
            assert snr[i] == pmimo_snr(stack[i], PARAMS, coherent)

    def test_eigen_values_match_each_channel(self):
        stack = random_physical_stack(np.random.default_rng(21), 12, 6)
        snr = emimo_snr(stack, PARAMS)
        assert snr.shape == (12,)
        for i in range(len(stack)):
            assert snr[i] == emimo_snr(stack[i], PARAMS)

    def test_one_channel_gives_a_number(self):
        cm = random_physical_channel(np.random.default_rng(22), 4, 4)
        for value in (pmimo_snr(cm, PARAMS), emimo_snr(cm, PARAMS)):
            assert isinstance(value, float) and np.ndim(value) == 0

    def test_non_physical_member_named(self):
        rng = np.random.default_rng(23)
        h = random_physical_stack(rng, 5, 4).matrix
        h[3] *= 1.5 / np.linalg.svd(h[3], compute_uv=False)[0]
        stack = decompose_stack(h)
        norm = stack.spectral_norm[3]
        assert norm > 1.0 and list(stack.is_physical) == [True, True, True, False, True]
        with pytest.raises(NonPhysicalChannelError, match=re.escape(f"{norm:.6g} exceeds 1")):
            emimo_snr(stack, PARAMS)


class TestRelativeGain:
    def test_single_transmitter_no_gain(self):
        assert relative_gain(1, 1, 0.5) == 1.0

    def test_zero_snr_gives_antenna_count(self):
        assert relative_gain(8, 3, 0.0) == 8.0

    def test_eight_antenna_example(self):
        assert relative_gain(8, 8, 1e-3) == pytest.approx(8.056, rel=1e-12)

    def test_consistent_with_snr_ratio(self):
        for r in range(1, 9):
            beta = 1e-3
            eigen = r * 8 * beta
            paired = pmimo_snr_ensemble(8, 8, r, beta)
            assert relative_gain(8, r, beta) == pytest.approx(eigen / paired, rel=1e-12)


def test_protocol_dominance_over_random_ensemble():
    rng = np.random.default_rng(2718)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        cm = random_physical_channel(rng, n, n)
        # equality holds exactly for 1x1 channels, so allow rounding slack
        assert pmimo_snr(cm, PARAMS) <= emimo_snr(cm, PARAMS) * (1.0 + 1e-12)


def test_protocol_reports_structure_and_serialization():
    rng = np.random.default_rng(19)
    cm = random_physical_channel(rng, 4, 4, norm=0.02)
    reports = protocol_reports(cm, PARAMS, reference_rtt=1e-5)
    assert [r.protocol for r in reports] == [Protocol.SISO, Protocol.PMIMO, Protocol.EMIMO]
    siso = reports[0]
    assert siso.mode_ratio == 1.0
    assert siso.log_mode_gain == 0.0
    for report in reports:
        assert 0.0 < report.ber <= 1.0
        assert report.mode_ratio >= 0.0
        fields = report.csv_row().split(",")
        assert len(fields) == len(PROTOCOL_REPORT_HEADER.split(","))
        assert fields[0] == report.protocol.value
        assert float(fields[1]) == report.snr
