"""MIMO backscatter channel construction, sampling, and factorization.

A passive channel between ``n_tx`` transmit and ``n_rx`` receive antennas is a
complex matrix ``H`` with spectral norm at most one.  Its singular value
decomposition ``H = U S V†`` exposes the eigen-channel transmissivities
``eta_k = s_k**2``; the companion loss coefficients
(:attr:`ChannelMatrix.loss_coefficients`) couple in the thermal environment so
that energy and commutators are preserved.

Channels come from three sources here: explicit propagation paths (steering
vectors scaled by per-path transmissivity and phase), clutter scattering
composed through a tag antenna array, and a double-Rayleigh fading ensemble
for randomly placed clutter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateLinkError,
    NonPhysicalChannelError,
    NonPhysicalLinkError,
)
from .rng import standard_normals

SPEED_OF_LIGHT = 299_792_458.0  # m/s

DEFAULT_RANK_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-10
UNITARITY_TOL = 1e-10
# Slack on the spectral-norm-at-most-one test; absorbs SVD rounding for
# channels that are lossless along one eigen-channel.
PHYSICALITY_SLACK = 1e-12
# Consecutive non-physical fading draws after which sampling gives up.
MAX_RESAMPLES = 100


def siso_beam_splitter(eta: float, phase: float) -> np.ndarray:
    """Two-port coupler taking (signal, environment) to (received, lost) modes.

    Parameters
    ----------
    eta : float
        Round-trip transmissivity in [0, 1].
    phase : float
        Channel phase in radians.

    Returns
    -------
    ndarray
        The 2x2 unitary
        ``[[sqrt(eta) e^{-i phase}, sqrt(1-eta)], [-sqrt(1-eta), sqrt(eta) e^{i phase}]]``.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    amp = np.sqrt(eta)
    loss = np.sqrt(1.0 - eta)
    return np.array(
        [
            [amp * np.exp(-1j * phase), loss],
            [-loss, amp * np.exp(1j * phase)],
        ]
    )


@dataclass(frozen=True)
class LinkBudget:
    """Reader geometry and antenna parameters of a backscatter link.

    Attributes
    ----------
    antenna_gain : float
        Reader antenna gain, linear scale.
    angular_frequency : float
        Carrier angular frequency in rad/s.
    qrcs : float
        Radar cross-section of the tag antenna in m^2 (intensity ratio of
        scattered to incident photons).
    dist_tx_tag, dist_tag_rx : float
        Transmitter-to-tag and tag-to-receiver distances in metres.
    """

    antenna_gain: float
    angular_frequency: float
    qrcs: float
    dist_tx_tag: float
    dist_tag_rx: float

    def __post_init__(self):
        for name in (
            "antenna_gain",
            "angular_frequency",
            "qrcs",
            "dist_tx_tag",
            "dist_tag_rx",
        ):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


def round_trip_transmissivity(lb: LinkBudget) -> float:
    """Probability that a transmitted photon returns to the receiver.

    Evaluates ``G^2 c^2 sigma_Q / (16 pi w^2 Rt^2 Rr^2)`` verbatim: the
    transmit and receive legs each contribute an inverse-square distance law,
    and the tag cross-section scales the reflected intensity.

    Raises
    ------
    NonPhysicalLinkError
        If the parameters give a transmissivity above one.
    DegenerateLinkError
        If the result underflows to zero.
    """
    num = lb.antenna_gain**2 * SPEED_OF_LIGHT**2 * lb.qrcs
    den = (
        16.0
        * np.pi
        * lb.angular_frequency**2
        * lb.dist_tx_tag**2
        * lb.dist_tag_rx**2
    )
    eta = num / den
    if eta > 1.0:
        if eta <= 1.0 + 1e-12:
            # parameter cancellations may round one ulp above unity
            return 1.0
        raise NonPhysicalLinkError(
            f"round-trip transmissivity {eta} exceeds 1; link parameters are inconsistent"
        )
    if eta == 0.0:
        raise DegenerateLinkError("round-trip transmissivity underflowed to zero")
    return float(eta)


@dataclass(frozen=True)
class SteeringGeometry:
    """Uniform linear array geometry for one arrival/departure direction.

    ``spacing`` is the element spacing in carrier wavelengths and
    ``direction_cosine`` is cos(theta) for the angle between the array axis
    and the propagation direction.
    """

    element_count: int
    spacing: float
    direction_cosine: float

    def __post_init__(self):
        if self.element_count < 1:
            raise ValueError(f"element_count must be >= 1, got {self.element_count}")
        if not -1.0 <= self.direction_cosine <= 1.0:
            raise ValueError(
                f"direction cosine must lie in [-1, 1], got {self.direction_cosine}"
            )


def steering_vector(geometry: SteeringGeometry) -> np.ndarray:
    """Unit-norm array response ``(1, e^{i 2 pi d w}, ...) / sqrt(N)``."""
    n = geometry.element_count
    phase_step = 2.0 * np.pi * geometry.spacing * geometry.direction_cosine
    return np.exp(1j * phase_step * np.arange(n)) / np.sqrt(n)


@dataclass(frozen=True)
class PropagationPath:
    """Direct tag path seen from both arrays (two-antenna tag model)."""

    transmissivity: float
    phase: float
    rx_cosine: float
    tx_cosine: float

    def __post_init__(self):
        _check_path_transmissivity(self.transmissivity)
        _check_cosine(self.rx_cosine)
        _check_cosine(self.tx_cosine)


@dataclass(frozen=True)
class ClutterPath:
    """One clutter scatterer between the tag array and one reader array.

    ``tag_cosine`` is shared between the transmit-side and receive-side path
    lists describing the same scatterer; ``far_cosine`` is the direction seen
    from the reader array on this side of the tag.
    """

    transmissivity: float
    phase: float
    tag_cosine: float
    far_cosine: float

    def __post_init__(self):
        _check_path_transmissivity(self.transmissivity)
        _check_cosine(self.tag_cosine)
        _check_cosine(self.far_cosine)


def _check_path_transmissivity(value: float) -> None:
    # zero is allowed so degenerate (switched-off) paths can be expressed
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"path transmissivity must lie in [0, 1], got {value}")


def _check_cosine(value: float) -> None:
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"direction cosine must lie in [-1, 1], got {value}")


@dataclass(frozen=True)
class _Factored:
    """A channel, or a stack of channels of one shape on leading axes, with
    its singular value decomposition.

    Each property here works over the leading axes of ``matrix``: it gives
    a number for one channel and an array with one entry per channel for a
    stack.
    """

    matrix: np.ndarray
    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    rank: int | np.ndarray

    @property
    def n_rx(self) -> int:
        return self.matrix.shape[-2]

    @property
    def n_tx(self) -> int:
        return self.matrix.shape[-1]

    @property
    def spectral_norm(self):
        """The largest singular value; 0 for a channel without any."""
        s = self.singular_values
        # [()] turns one channel's 0-d result into a number
        return s[..., 0][()] if s.shape[-1] else np.zeros(s.shape[:-1])[()]

    @property
    def is_physical(self):
        """True where the channel can act passively (spectral norm <= 1)."""
        return self.spectral_norm <= 1.0 + PHYSICALITY_SLACK

    @property
    def trace_power(self):
        """``trace(H H†)``, the summed eigen-channel transmissivities."""
        h = self.matrix
        return np.sum(np.abs(h.reshape(h.shape[:-2] + (-1,))) ** 2, axis=-1)

    def require_physical(self):
        """Return ``self``, or raise naming the first non-physical norm."""
        physical = self.is_physical
        if not physical.all():
            norm = np.ravel(self.spectral_norm)[~np.ravel(physical)][0]
            raise NonPhysicalChannelError(f"spectral norm {norm:.6g} exceeds 1")
        return self


@dataclass(frozen=True)
class ChannelMatrix(_Factored):
    """Complex channel matrix with its cached singular value decomposition.

    Attributes
    ----------
    matrix : ndarray
        The raw ``n_rx x n_tx`` complex channel.
    u, v : ndarray
        Unitary SVD factors (``u`` is ``n_rx x n_rx``, ``v`` is ``n_tx x n_tx``).
    singular_values : ndarray
        Descending singular values ``sqrt(eta_k)``.
    rank : int
        Count of singular values above the ``rank_tolerance`` of
        :func:`decompose_channel` times the largest.
    """

    @property
    def eta(self) -> np.ndarray:
        """Eigen-channel transmissivities, one per singular value."""
        return self.singular_values**2

    @property
    def port_eta(self) -> np.ndarray:
        """``eta_k`` of each receive port, clipped to [0, 1] and zero beyond the
        singular values; not cut at the rank, so any ``rank_tolerance`` works."""
        eta = np.zeros(self.n_rx)
        eta[: self.singular_values.size] = np.clip(self.eta, 0.0, 1.0)
        return eta

    @property
    def loss_coefficients(self) -> np.ndarray:
        """Thermal coupling ``sqrt(1 - eta_k)`` of each receive port; with the
        singular values these satisfy ``S S† + Sgm Sgm† = I``."""
        return np.sqrt(1.0 - self.port_eta)

    def reconstruction_residual(self) -> float:
        """Max-entry deviation of ``U S V†`` from the stored matrix."""
        return float(
            _reconstruction_residual(self.matrix, self.u, self.singular_values, _dagger(self.v))
        )


@dataclass(frozen=True)
class ChannelStack(_Factored):
    """Channels of one shape factorized together, stacked on a leading axis.

    The fields are those of :class:`ChannelMatrix` with one more leading
    axis (``rank`` is an integer array); ``stack[i]`` is channel i.
    """

    def __setitem__(self, index, other: "ChannelStack") -> None:
        """Overwrite the channels at ``index`` with those of ``other``."""
        for f in fields(self):
            getattr(self, f.name)[index] = getattr(other, f.name)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, i: int) -> ChannelMatrix:
        return ChannelMatrix(
            matrix=self.matrix[i],
            u=self.u[i],
            singular_values=self.singular_values[i],
            v=self.v[i],
            rank=int(self.rank[i]),
        )


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _reconstruction_residual(h, u, s, vh) -> np.ndarray:
    """Max-entry deviation of ``U S V†`` from ``h``, over the last two axes."""
    k = s.shape[-1]
    rebuilt = (u[..., :k] * s[..., None, :]) @ vh[..., :k, :]
    return np.max(np.abs(rebuilt - h), axis=(-2, -1))


def decompose_stack(
    h: np.ndarray, rank_tolerance: float = DEFAULT_RANK_TOL
) -> ChannelStack:
    """Factorize a ``(B, n_rx, n_tx)`` stack of raw channels at once.

    Every channel of the stack gets every sanity check: finite entries, a
    reconstruction residual within ``RECONSTRUCTION_TOL * max(s_0, 1)``, and
    unitary SVD factors.  Physicality is left to
    :attr:`ChannelStack.is_physical`, since samplers reject rather than raise.

    Parameters
    ----------
    h : ndarray
        Complex ``(B, n_rx, n_tx)`` stack with finite entries.
    rank_tolerance : float
        Relative singular-value threshold for the numerical rank.

    Raises
    ------
    ValueError
        On non-finite input or if the factorization of any channel fails to
        reproduce it within tolerance (which indicates a broken LAPACK build).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3:
        raise ValueError(f"expected a (B, n_rx, n_tx) stack, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("channel matrix has non-finite entries")
    if rank_tolerance <= 0:
        raise ValueError(f"rank_tolerance must be positive, got {rank_tolerance}")

    u, s, vh = np.linalg.svd(h, full_matrices=True)
    # s[:, :1] is the largest singular value; a zero channel has rank 0
    rank = np.sum(s > rank_tolerance * s[:, :1], axis=-1)
    stack = ChannelStack(matrix=h, u=u, singular_values=s, v=_dagger(vh), rank=rank)

    # written as "not within" so that a NaN from a broken factorization fails
    scale = np.maximum(stack.spectral_norm, 1.0)
    if not (_reconstruction_residual(h, u, s, vh) <= RECONSTRUCTION_TOL * scale).all():
        raise ValueError("SVD reconstruction residual exceeds tolerance")
    for factor in (u, vh):
        gap = np.abs(factor @ _dagger(factor) - np.eye(factor.shape[-1]))
        if not (gap <= UNITARITY_TOL).all():
            raise ValueError("SVD factor failed the unitarity check")
    return stack


def decompose_channel(
    h: np.ndarray, rank_tolerance: float = DEFAULT_RANK_TOL
) -> ChannelMatrix:
    """Factorize a raw channel into its eigen-channel form: the one-channel
    case of :func:`decompose_stack`, with the same checks and errors."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    return decompose_stack(h[None], rank_tolerance)[0]


def build_two_path_channel(paths, spacing: float) -> ChannelMatrix:
    """Two-antenna channel as a sum of rank-one steering-vector products.

    Each path contributes ``sqrt(eta') e^{-i phi'} e(rx_cos) e(tx_cos)†`` on
    length-2 arrays with the given element spacing.  The result is full rank
    exactly when the two paths are resolvable on both array sides.
    """
    paths = list(paths)
    if len(paths) != 2:
        raise ValueError(f"expected exactly two paths, got {len(paths)}")
    h = np.zeros((2, 2), dtype=complex)
    for p in paths:
        rx = steering_vector(SteeringGeometry(2, spacing, p.rx_cosine))
        tx = steering_vector(SteeringGeometry(2, spacing, p.tx_cosine))
        h += np.sqrt(p.transmissivity) * np.exp(-1j * p.phase) * np.outer(rx, tx.conj())
    return decompose_channel(h).require_physical()


def build_clutter_channel(
    tx_paths,
    rx_paths,
    n_tx: int,
    n_tag: int,
    n_rx: int,
    spacing: float,
) -> ChannelMatrix:
    """Compose reader-to-tag and tag-to-reader clutter scattering.

    ``tx_paths`` build the ``n_tag x n_tx`` inbound matrix, ``rx_paths`` the
    ``n_rx x n_tag`` outbound matrix; the full channel is their product, which
    caps the channel rank at the number of tag antennas.
    """
    tx_paths = list(tx_paths)
    rx_paths = list(rx_paths)
    if not tx_paths or not rx_paths:
        raise ValueError("both clutter path lists must be non-empty")

    h_t = np.zeros((n_tag, n_tx), dtype=complex)
    for p in tx_paths:
        tag = steering_vector(SteeringGeometry(n_tag, spacing, p.tag_cosine))
        far = steering_vector(SteeringGeometry(n_tx, spacing, p.far_cosine))
        h_t += np.sqrt(p.transmissivity) * np.exp(-1j * p.phase) * np.outer(tag, far.conj())

    h_r = np.zeros((n_rx, n_tag), dtype=complex)
    for p in rx_paths:
        far = steering_vector(SteeringGeometry(n_rx, spacing, p.far_cosine))
        tag = steering_vector(SteeringGeometry(n_tag, spacing, p.tag_cosine))
        h_r += np.sqrt(p.transmissivity) * np.exp(-1j * p.phase) * np.outer(far, tag.conj())

    return decompose_channel(h_r @ h_t).require_physical()


@dataclass(frozen=True)
class FadingSpec:
    """Double-Rayleigh ensemble parameters.

    The tag antenna count caps the channel rank; the reference round-trip
    transmissivity sets the ensemble power so that the expected
    ``trace(H H†)`` equals ``n_tag * n_rx * reference_rtt``.
    """

    n_tx: int
    n_rx: int
    n_tag: int
    reference_rtt: float
    seed: int

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "n_tag"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_tag > min(self.n_tx, self.n_rx):
            raise ValueError(
                f"n_tag={self.n_tag} exceeds min(n_tx, n_rx)="
                f"{min(self.n_tx, self.n_rx)}; the rank law would not hold"
            )
        if not 0.0 < self.reference_rtt < 1.0:
            raise ValueError(
                f"reference_rtt must lie in (0, 1), got {self.reference_rtt}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _fading_draws(spec: FadingSpec, paths, attempt: int) -> np.ndarray:
    """The raw channels of ``attempt`` at each draw path, stacked.

    Each draw takes its normals (inbound real and imaginary parts, then
    outbound) in one run from its own ``substream(seed, *path, attempt)``,
    seeded for the whole stack at once by :func:`standard_normals`.
    """
    # std per real component: per-entry complex variance is sqrt(eta / n_tx)
    scale = np.sqrt(np.sqrt(spec.reference_rtt / spec.n_tx) / 2.0)
    n_in = spec.n_tag * spec.n_tx
    normals = standard_normals(
        spec.seed,
        [(*path, attempt) for path in paths],
        2 * n_in + 2 * spec.n_rx * spec.n_tag,
    )
    t = normals[:, : 2 * n_in].reshape(-1, 2, spec.n_tag, spec.n_tx)
    r = normals[:, 2 * n_in :].reshape(-1, 2, spec.n_rx, spec.n_tag)
    h_t = scale * (t[:, 0] + 1j * t[:, 1])
    h_r = scale * (r[:, 0] + 1j * r[:, 1])
    return h_r @ h_t


def sample_double_rayleigh_stack(spec: FadingSpec, draws):
    """Draw a stack of double-Rayleigh channels, each deterministic in
    ``(seed, draw)`` alone.

    Both hop matrices have i.i.d. circularly-symmetric complex Gaussian
    entries with per-entry variance ``sqrt(reference_rtt / n_tx)``, making the
    ensemble mean of ``trace(H H†)`` equal ``n_tag * n_rx * reference_rtt``.

    Samples whose spectral norm exceeds one are non-physical.  Each rejected
    draw alone is drawn again at the next attempt from its own substream, so
    a channel never depends on the other draws of the stack.

    Parameters
    ----------
    spec : FadingSpec
    draws : sequence of int or tuple of int
        Index (or index path) of each draw within the seeded ensemble.

    Returns
    -------
    ``(ChannelStack, ndarray)``: the channels in ``draws`` order and how many
    non-physical samples each draw rejected.

    Raises
    ------
    NonPhysicalChannelError
        When a draw is non-physical ``MAX_RESAMPLES`` times in a row.
    """
    paths = [(d,) if np.isscalar(d) else tuple(d) for d in draws]
    rejections = np.zeros(len(paths), dtype=int)
    pending = np.arange(len(paths))
    for attempt in range(MAX_RESAMPLES):
        stack = decompose_stack(_fading_draws(spec, [paths[i] for i in pending], attempt))
        if attempt == 0:
            channels = stack
        else:
            channels[pending] = stack
        pending = pending[~stack.is_physical]
        if not pending.size:
            return channels, rejections
        rejections[pending] += 1
    raise NonPhysicalChannelError(
        f"{MAX_RESAMPLES} consecutive fading draws were non-physical; "
        f"reference_rtt={spec.reference_rtt} is set too high"
    )


def sample_double_rayleigh(spec: FadingSpec, draw) -> ChannelMatrix:
    """Draw one double-Rayleigh channel, deterministically in ``(seed, draw)``:
    the one-draw case of :func:`sample_double_rayleigh_stack`."""
    return sample_double_rayleigh_stack(spec, [draw])[0][0]
