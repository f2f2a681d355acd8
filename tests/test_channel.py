import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbclink import (
    ClutterPath,
    DegenerateLinkError,
    FadingSpec,
    LinkBudget,
    NonPhysicalChannelError,
    NonPhysicalLinkError,
    PropagationPath,
    SPEED_OF_LIGHT,
    SteeringGeometry,
    build_clutter_channel,
    build_two_path_channel,
    decompose_channel,
    decompose_stack,
    round_trip_transmissivity,
    sample_double_rayleigh,
    sample_double_rayleigh_stack,
    siso_beam_splitter,
    steering_vector,
    substream,
)

# frozen ahead of the build with mpmath at 50 digits:
# 100^2 * c^2 * 0.01 / (16 pi (2 pi 5e9)^2 * 10^2 * 10^2)
RADAR_BAND_ETA = 1.8116395996279272e-08


class TestBeamSplitter:
    def test_lossless_zero_phase_is_identity(self):
        assert np.allclose(siso_beam_splitter(1.0, 0.0), np.eye(2), atol=1e-15)

    def test_full_swap_ignores_phase(self):
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for phase in (0.0, 1.3, -2.0, np.pi):
            assert np.allclose(siso_beam_splitter(0.0, phase), expected, atol=1e-15)

    def test_quarter_transmissivity_right_angle_phase(self):
        b = siso_beam_splitter(0.25, np.pi / 2)
        expected = np.array(
            [[-0.5j, np.sqrt(0.75)], [-np.sqrt(0.75), 0.5j]]
        )
        assert np.allclose(b, expected, atol=1e-15)
        assert np.max(np.abs(b @ b.conj().T - np.eye(2))) < 1e-15

    @given(
        eta=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
    )
    def test_unitary_for_all_parameters(self, eta, phase):
        b = siso_beam_splitter(eta, phase)
        assert np.max(np.abs(b @ b.conj().T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, eta):
        with pytest.raises(ValueError):
            siso_beam_splitter(eta, 0.0)


class TestLinkBudget:
    def test_cancellation_to_unity(self):
        lb = LinkBudget(
            antenna_gain=1.0,
            angular_frequency=SPEED_OF_LIGHT,
            qrcs=16.0 * np.pi,
            dist_tx_tag=1.0,
            dist_tag_rx=1.0,
        )
        assert round_trip_transmissivity(lb) == 1.0

    def test_inverse_square_in_tx_distance(self):
        base = LinkBudget(2.0, 1e10, 0.05, 1.0, 3.0)
        doubled = LinkBudget(2.0, 1e10, 0.05, 2.0, 3.0)
        assert round_trip_transmissivity(doubled) == round_trip_transmissivity(base) / 4.0

    def test_radar_band_example_matches_precomputed_oracle(self):
        lb = LinkBudget(100.0, 2.0 * np.pi * 5e9, 0.01, 10.0, 10.0)
        eta = round_trip_transmissivity(lb)
        assert abs(eta - RADAR_BAND_ETA) <= 1e-12 * RADAR_BAND_ETA

    def test_above_unity_raises(self):
        lb = LinkBudget(1e6, SPEED_OF_LIGHT, 16.0 * np.pi, 1.0, 1.0)
        with pytest.raises(NonPhysicalLinkError):
            round_trip_transmissivity(lb)

    def test_underflow_raises(self):
        lb = LinkBudget(1.0, 1e100, 5e-324, 1.0, 1.0)
        with pytest.raises(DegenerateLinkError):
            round_trip_transmissivity(lb)

    def test_invalid_fields_raise(self):
        with pytest.raises(ValueError):
            LinkBudget(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LinkBudget(1.0, 1.0, -2.0, 1.0, 1.0)


class TestSteeringVector:
    def test_single_element(self):
        v = steering_vector(SteeringGeometry(1, 0.5, 0.3))
        assert np.allclose(v, [1.0])

    def test_broadside_two_elements(self):
        v = steering_vector(SteeringGeometry(2, 0.5, 0.0))
        assert np.allclose(v, np.array([1.0, 1.0]) / np.sqrt(2))

    def test_endfire_four_elements(self):
        v = steering_vector(SteeringGeometry(4, 0.5, 1.0))
        assert np.allclose(v, np.array([1.0, -1.0, 1.0, -1.0]) / 2.0)

    @given(
        n=st.integers(1, 64),
        spacing=st.floats(0.0, 4.0),
        cosine=st.floats(-1.0, 1.0),
    )
    def test_unit_norm_always(self, n, spacing, cosine):
        v = steering_vector(SteeringGeometry(n, spacing, cosine))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SteeringGeometry(0, 0.5, 0.0)
        with pytest.raises(ValueError):
            SteeringGeometry(2, 0.5, 1.5)


def _two_path_matrix(paths, spacing):
    """Independent construction of the two-path sum for oracle comparisons."""
    h = np.zeros((2, 2), dtype=complex)
    for p in paths:
        rx = np.exp(2j * np.pi * spacing * p.rx_cosine * np.arange(2)) / np.sqrt(2)
        tx = np.exp(2j * np.pi * spacing * p.tx_cosine * np.arange(2)) / np.sqrt(2)
        h += np.sqrt(p.transmissivity) * np.exp(-1j * p.phase) * np.outer(rx, tx.conj())
    return h


class TestTwoPathChannel:
    def test_zero_amplitude_path_contributes_nothing(self):
        live = PropagationPath(0.02, 0.4, 0.2, -0.3)
        dead = PropagationPath(0.0, 1.0, 0.9, 0.7)
        cm = build_two_path_channel([live, dead], spacing=0.5)
        assert np.allclose(cm.matrix, _two_path_matrix([live], 0.5), atol=1e-15)
        assert cm.rank == 1

    def test_coincident_paths_are_rank_one(self):
        p1 = PropagationPath(0.01, 0.0, 0.3, 0.1)
        p2 = PropagationPath(0.02, 1.1, 0.3, 0.1)
        cm = build_two_path_channel([p1, p2], spacing=0.5)
        assert cm.rank == 1

    def test_resolvable_paths_full_rank_with_svd_oracle(self):
        paths = [
            PropagationPath(0.01, 0.0, 0.0, 0.0),
            PropagationPath(0.01, 0.0, 1.0, 1.0),
        ]
        cm = build_two_path_channel(paths, spacing=0.5)
        assert cm.rank == 2
        oracle = np.linalg.svd(_two_path_matrix(paths, 0.5), compute_uv=False)
        assert np.allclose(cm.singular_values, oracle, atol=1e-14)

    def test_requires_exactly_two_paths(self):
        with pytest.raises(ValueError):
            build_two_path_channel([PropagationPath(0.1, 0, 0, 0)], 0.5)

    def test_non_physical_sum_rejected(self):
        paths = [
            PropagationPath(1.0, 0.0, 0.0, 0.0),
            PropagationPath(1.0, 0.0, 0.0, 0.0),
        ]
        with pytest.raises(NonPhysicalChannelError):
            build_two_path_channel(paths, 0.5)


def _clutter_matrices(tx_paths, rx_paths, n_tx, n_tag, n_rx, spacing):
    """Loop-built clutter composition, independent of the channel module."""

    def vec(n, cosine):
        return np.exp(2j * np.pi * spacing * cosine * np.arange(n)) / np.sqrt(n)

    h_t = np.zeros((n_tag, n_tx), dtype=complex)
    for p in tx_paths:
        h_t += (
            np.sqrt(p.transmissivity)
            * np.exp(-1j * p.phase)
            * np.outer(vec(n_tag, p.tag_cosine), vec(n_tx, p.far_cosine).conj())
        )
    h_r = np.zeros((n_rx, n_tag), dtype=complex)
    for p in rx_paths:
        h_r += (
            np.sqrt(p.transmissivity)
            * np.exp(-1j * p.phase)
            * np.outer(vec(n_rx, p.far_cosine), vec(n_tag, p.tag_cosine).conj())
        )
    return h_r @ h_t


class TestClutterChannel:
    def test_single_scatterer_gives_rank_one(self):
        tx = [ClutterPath(0.05, 0.2, 0.1, -0.4)]
        rx = [ClutterPath(0.04, 1.0, 0.1, 0.6)]
        cm = build_clutter_channel(tx, rx, n_tx=4, n_tag=2, n_rx=4, spacing=0.5)
        assert cm.rank == 1

    def test_rich_scattering_reaches_tag_count_rank(self):
        rng = np.random.default_rng(20)
        n_tx, n_tag, n_rx = 6, 3, 5
        tx, rx = [], []
        for _ in range(5):
            shared = rng.uniform(-1, 1)
            tx.append(
                ClutterPath(rng.uniform(0.01, 0.05), rng.uniform(0, 2 * np.pi),
                            shared, rng.uniform(-1, 1))
            )
            rx.append(
                ClutterPath(rng.uniform(0.01, 0.05), rng.uniform(0, 2 * np.pi),
                            shared, rng.uniform(-1, 1))
            )
        cm = build_clutter_channel(tx, rx, n_tx, n_tag, n_rx, spacing=0.5)
        assert cm.rank == n_tag
        oracle = np.linalg.svd(
            _clutter_matrices(tx, rx, n_tx, n_tag, n_rx, 0.5), compute_uv=False
        )
        assert np.allclose(cm.singular_values, oracle, atol=1e-14)

    def test_dead_receive_side_nulls_channel(self):
        tx = [ClutterPath(0.05, 0.0, 0.1, 0.3)]
        rx = [ClutterPath(0.0, 0.0, 0.1, 0.2)]
        cm = build_clutter_channel(tx, rx, n_tx=3, n_tag=2, n_rx=3, spacing=0.5)
        assert np.allclose(cm.matrix, 0.0)
        assert cm.rank == 0

    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError):
            build_clutter_channel([], [ClutterPath(0.1, 0, 0, 0)], 2, 2, 2, 0.5)

    def test_non_physical_composition_rejected(self):
        # two aligned unit-amplitude scatterers per side overdrive the gain
        tx = [ClutterPath(1.0, 0.0, 0.0, 0.0), ClutterPath(1.0, 0.0, 0.0, 0.0)]
        rx = [ClutterPath(1.0, 0.0, 0.0, 0.0), ClutterPath(1.0, 0.0, 0.0, 0.0)]
        with pytest.raises(NonPhysicalChannelError):
            build_clutter_channel(tx, rx, n_tx=1, n_tag=1, n_rx=1, spacing=0.5)


class TestDecomposeChannel:
    def test_identity(self):
        cm = decompose_channel(np.eye(2))
        assert np.allclose(cm.singular_values, [1.0, 1.0])
        assert cm.rank == 2
        assert cm.is_physical

    def test_scaled_identity(self):
        eta = 1e-5
        cm = decompose_channel(np.sqrt(eta) * np.eye(2))
        assert np.allclose(cm.singular_values, np.sqrt(eta), rtol=1e-14)
        assert np.allclose(cm.eta, eta, rtol=1e-13)

    def test_random_channel_reconstruction(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h *= 0.1 / np.linalg.svd(h, compute_uv=False)[0]
        cm = decompose_channel(h)
        assert cm.reconstruction_residual() <= 1e-10
        for factor in (cm.u, cm.v):
            gap = np.max(np.abs(factor @ factor.conj().T - np.eye(factor.shape[0])))
            assert gap <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            decompose_channel(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            decompose_channel(np.array([[np.inf, 0], [0, 1]]))

    def test_singular_values_descend(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
            cm = decompose_channel(0.05 * h)
            assert np.all(np.diff(cm.singular_values) <= 0)


def _stack(b=6, n=5, seed=21):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    return 0.1 * h


# Corruptions of one channel's SVD factors, applied in place.
def _flip_singular_vector(u, s, vh):
    u[:, 0] *= -1  # U stays unitary; U S V† no longer gives the channel


def _rescale_left_factor(u, s, vh):
    u *= 2.0  # U S V† still gives the channel; U is no longer unitary
    s *= 0.5


def _scale_right_factor(u, s, vh):
    vh *= 2.0


def _nan_in_left_factor(u, s, vh):
    u[0, 0] = np.nan


class TestDecomposeStack:
    def test_each_channel_matches_its_own_svd(self):
        h = _stack()
        h[2] = 0.0
        stack = decompose_stack(h)
        assert len(stack) == len(h)
        for i, hi in enumerate(h):
            u, s, vh = np.linalg.svd(hi)
            assert np.array_equal(stack[i].matrix, hi)
            assert np.array_equal(stack[i].u, u)
            assert np.array_equal(stack[i].singular_values, s)
            assert np.array_equal(stack[i].v, vh.conj().T)
            assert stack[i].rank == (0 if i == 2 else 5)

    @pytest.mark.parametrize("index", [0, 3, 5])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_rejected(self, index, value):
        h = _stack()
        h[index, 4, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            decompose_stack(h)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_flip_singular_vector, "reconstruction"),
            (_rescale_left_factor, "unitarity"),
            (_scale_right_factor, "reconstruction"),
            (_nan_in_left_factor, "reconstruction"),
        ],
    )
    def test_corrupted_factor_of_one_channel_rejected(self, monkeypatch, corrupt, message):
        svd = np.linalg.svd

        def broken_svd(a, *args, **kwargs):
            u, s, vh = svd(a, *args, **kwargs)
            corrupt(u[3], s[3], vh[3])
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", broken_svd)
        with pytest.raises(ValueError, match=message):
            decompose_stack(_stack())

    def test_properties_agree_with_each_channel(self):
        h = _stack()
        h[1] *= 10.0
        h[2] = 0.0
        stack = decompose_stack(h)
        assert stack.is_physical.any() and not stack.is_physical.all()
        for i in range(len(stack)):
            cm = stack[i]
            assert stack.spectral_norm[i] == cm.spectral_norm
            assert stack.is_physical[i] == cm.is_physical
            assert stack.trace_power[i] == cm.trace_power
        assert (stack.n_rx, stack.n_tx) == (stack[0].n_rx, stack[0].n_tx)

    def test_shape_must_be_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            decompose_stack(np.eye(3))


class TestNoiseLoading:
    def test_null_channel_couples_fully_to_environment(self):
        nl = decompose_channel(np.zeros((3, 3))).require_physical()
        assert np.allclose(nl.loss_coefficients, 1.0)

    def test_lossless_eigen_channel_has_zero_coefficient(self):
        nl = decompose_channel(np.diag([1.0, 0.5])).require_physical()
        assert nl.loss_coefficients[0] == 0.0

    def test_completeness_identity_on_random_channel(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h *= 0.7 / np.linalg.svd(h, compute_uv=False)[0]
        # a large rank tolerance must not cut the coefficients off at the rank
        for cm in (
            decompose_channel(h),
            decompose_channel(h, rank_tolerance=0.6),
            decompose_channel(np.diag([0.9, 0.5]), rank_tolerance=0.6),
        ):
            nl = cm.require_physical()
            n = cm.n_rx
            sigma = np.zeros((n, n))
            np.fill_diagonal(sigma, cm.singular_values)
            loss = np.diag(nl.loss_coefficients)
            gap = np.max(np.abs(sigma @ sigma.T + loss @ loss.T - np.eye(n)))
            assert gap <= 1e-10

    def test_non_physical_channel_rejected(self):
        cm = decompose_channel(2.0 * np.eye(2))
        with pytest.raises(NonPhysicalChannelError):
            cm.require_physical()


def _reference_draw(spec, path):
    """One double-Rayleigh draw, attempt by attempt: the stream layout and
    the acceptance test the samplers must reproduce bit for bit."""
    scale = np.sqrt(np.sqrt(spec.reference_rtt / spec.n_tx) / 2.0)
    for attempt in range(100):
        rng = substream(spec.seed, *path, attempt)
        shape_t, shape_r = (spec.n_tag, spec.n_tx), (spec.n_rx, spec.n_tag)
        h_t = scale * (rng.standard_normal(shape_t) + 1j * rng.standard_normal(shape_t))
        h_r = scale * (rng.standard_normal(shape_r) + 1j * rng.standard_normal(shape_r))
        h = h_r @ h_t
        if np.linalg.svd(h)[1][0] <= 1.0 + 1e-12:
            return h, attempt
    raise AssertionError("reference draw never physical")


class TestDoubleRayleigh:
    def test_trace_moment_matches_ensemble_normalization(self):
        spec = FadingSpec(n_tx=8, n_rx=8, n_tag=8, reference_rtt=1e-5, seed=314)
        draws = 10_000
        traces = np.empty(draws)
        for i in range(draws):
            traces[i] = sample_double_rayleigh(spec, i).trace_power
        target = spec.n_tag * spec.n_rx * spec.reference_rtt
        stderr = traces.std(ddof=1) / np.sqrt(draws)
        assert abs(traces.mean() - target) <= 3.0 * stderr

    def test_single_tag_antenna_is_rank_one(self):
        spec = FadingSpec(n_tx=4, n_rx=4, n_tag=1, reference_rtt=1e-5, seed=1)
        for i in range(50):
            assert sample_double_rayleigh(spec, i).rank == 1

    def test_rank_equals_tag_count(self):
        # the rank law: 10^3 draws across tag counts, zero failures allowed
        rng = np.random.default_rng(99)
        failures = 0
        for i in range(1000):
            n_tag = int(rng.integers(1, 9))
            spec = FadingSpec(8, 8, n_tag, 1e-5, seed=500)
            if sample_double_rayleigh(spec, i).rank != n_tag:
                failures += 1
        assert failures == 0

    def test_bit_identical_for_same_seed_and_draw(self):
        spec = FadingSpec(8, 8, 4, 1e-5, seed=77)
        a = sample_double_rayleigh(spec, 12)
        b = sample_double_rayleigh(spec, 12)
        assert np.array_equal(a.matrix, b.matrix)

    def test_draws_differ_across_indices_and_seeds(self):
        spec = FadingSpec(8, 8, 4, 1e-5, seed=77)
        other = FadingSpec(8, 8, 4, 1e-5, seed=78)
        assert not np.array_equal(
            sample_double_rayleigh(spec, 0).matrix,
            sample_double_rayleigh(spec, 1).matrix,
        )
        assert not np.array_equal(
            sample_double_rayleigh(spec, 0).matrix,
            sample_double_rayleigh(other, 0).matrix,
        )

    def test_rejection_counter_reported(self):
        spec = FadingSpec(2, 2, 2, reference_rtt=1e-5, seed=5)
        _, rejections = sample_double_rayleigh_stack(spec, [0])
        assert rejections[0] == 0

    def test_batched_rejection_path_matches_one_draw_at_a_time(self):
        # at this power most rank-8 draws are non-physical at least once
        spec = FadingSpec(8, 8, 8, 0.04, seed=5)
        draws = [(8, t) for t in range(200)]
        stack, rejections = sample_double_rayleigh_stack(spec, draws)
        assert np.count_nonzero(rejections) == 156
        assert rejections.max() == 23
        for i, draw in enumerate(draws):
            one, (rej,) = sample_double_rayleigh_stack(spec, [draw])
            cm = one[0]
            assert rej == rejections[i]
            h, attempts = _reference_draw(spec, draw)
            assert attempts == rej
            assert np.array_equal(cm.matrix, h)
            for name in ("matrix", "u", "singular_values", "v"):
                assert np.array_equal(getattr(stack[i], name), getattr(cm, name))
            assert stack[i].rank == cm.rank
        assert np.all(stack.is_physical)

    def test_exhausted_resamples_raise(self):
        spec = FadingSpec(4, 4, 4, 0.9, seed=3)
        with pytest.raises(NonPhysicalChannelError, match="consecutive"):
            sample_double_rayleigh_stack(spec, range(3))
        with pytest.raises(NonPhysicalChannelError, match="consecutive"):
            sample_double_rayleigh(spec, 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FadingSpec(2, 2, 3, 1e-5, 0)
        with pytest.raises(ValueError):
            FadingSpec(2, 2, 2, 1.5, 0)
        with pytest.raises(ValueError):
            FadingSpec(2, 2, 2, 1e-5, -1)
