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
from functools import cached_property

import numpy as np

from .errors import DegenerateLinkError, NonPhysicalChannelError, NonPhysicalLinkError
from .rng import path_words, standard_normals

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Relative singular-value threshold for the numerical rank.
RANK_TOL = 1e-9
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
        for f in fields(self):
            value = getattr(self, f.name)
            # written as "not within (0, inf)", so that a NaN fails
            if not 0.0 < value < np.inf:
                bound = "positive" if value <= 0 else "finite"
                raise ValueError(f"{f.name} must be {bound}, got {value}")


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
        If the formula leaves the float range: a factor over- or underflows,
        or the result is not a positive finite number.
    """
    try:
        num = lb.antenna_gain**2 * SPEED_OF_LIGHT**2 * lb.qrcs
        den = 16.0 * np.pi * lb.angular_frequency**2 * lb.dist_tx_tag**2 * lb.dist_tag_rx**2
        eta = num / den
    except (OverflowError, ZeroDivisionError):  # a square overflows, or den underflows
        eta = np.nan
    if not 0.0 < eta < np.inf:  # written as "not within", so that a NaN fails
        raise DegenerateLinkError(f"round-trip transmissivity of {lb} leaves the float range")
    if eta > 1.0:
        if eta <= 1.0 + 1e-12:
            # parameter cancellations may round one ulp above unity
            return 1.0
        raise NonPhysicalLinkError(
            f"round-trip transmissivity {eta} exceeds 1; link parameters are inconsistent"
        )
    return float(eta)


def steering_vector(element_count: int, spacing: float, direction_cosine: float) -> np.ndarray:
    """Unit-norm uniform linear array response ``(1, e^{i 2 pi d w}, ...) / sqrt(N)``.

    ``spacing`` is the element spacing d in carrier wavelengths and
    ``direction_cosine`` is w = cos(theta) for the angle between the array
    axis and the propagation direction.
    """
    if element_count < 1:
        raise ValueError(f"element_count must be >= 1, got {element_count}")
    if not np.isfinite(spacing):
        raise ValueError(f"spacing must be finite, got {spacing}")
    _check_cosine(direction_cosine)
    phase_step = 2.0 * np.pi * spacing * direction_cosine
    if not np.isfinite(phase_step * (element_count - 1)):  # the largest phase
        raise ValueError(f"spacing {spacing} gives a non-finite array phase")
    return np.exp(1j * phase_step * np.arange(element_count)) / np.sqrt(element_count)


@dataclass(frozen=True)
class _Path:
    """Transmissivity and phase of a path; each later field is a direction cosine."""

    transmissivity: float
    phase: float

    def __post_init__(self):
        # zero is allowed so degenerate (switched-off) paths can be expressed
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(
                f"path transmissivity must lie in [0, 1], got {self.transmissivity}"
            )
        # written as "not within", so that a NaN fails
        if not abs(self.phase) < np.inf:
            raise ValueError(f"path phase must be finite, got {self.phase}")
        for f in fields(self)[2:]:
            _check_cosine(getattr(self, f.name))


@dataclass(frozen=True)
class PropagationPath(_Path):
    """Direct tag path seen from both arrays (two-antenna tag model)."""

    rx_cosine: float
    tx_cosine: float


@dataclass(frozen=True)
class ClutterPath(_Path):
    """One clutter scatterer between the tag array and one reader array.

    ``tag_cosine`` is shared between the transmit-side and receive-side path
    lists describing the same scatterer; ``far_cosine`` is the direction seen
    from the reader array on this side of the tag.
    """

    tag_cosine: float
    far_cosine: float


def _check_cosine(value: float) -> None:
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"direction cosine must lie in [-1, 1], got {value}")


@dataclass(frozen=True)
class ChannelMatrix:
    """A complex channel with its singular value decomposition, or a stack of
    channels of one shape factorized together on a leading axis.

    Every property works over the leading axes of ``matrix``: it gives a
    number (or one row) for one channel and one entry per channel for a
    stack, whose ``stack[i]`` is channel i.  The fields of a stack carry
    the same leading axis.

    Attributes
    ----------
    matrix : ndarray
        The raw ``n_rx x n_tx`` complex channel.
    u, v : ndarray
        Unitary SVD factors (``u`` is ``n_rx x n_rx``, ``v`` is ``n_tx x n_tx``).
    singular_values : ndarray
        Descending singular values ``sqrt(eta_k)``.
    rank : int or ndarray
        Count of singular values above ``RANK_TOL`` times the largest.

    A sampled channel, ``ChannelMatrix(matrix)``, carries only its matrix.
    """

    matrix: np.ndarray
    u: np.ndarray | None = None
    singular_values: np.ndarray | None = None
    v: np.ndarray | None = None
    rank: int | np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.matrix[..., 0, 0])  # one channel's entry is 0-d: it has no length

    def __getitem__(self, index) -> "ChannelMatrix":
        parts = (getattr(self, f.name) for f in fields(self))
        return ChannelMatrix(*(None if a is None else a[index] for a in parts))

    @property
    def n_rx(self) -> int:
        return self.matrix.shape[-2]

    @property
    def n_tx(self) -> int:
        return self.matrix.shape[-1]

    def _factored(self) -> np.ndarray:
        if self.singular_values is None:  # a sampled channel
            raise ValueError("this channel carries only its matrix; "
                             "decompose_channel(cm.matrix) factors it")
        return self.singular_values

    @property
    def eta(self) -> np.ndarray:
        """Eigen-channel transmissivities, one per singular value."""
        return self._factored() ** 2

    @property
    def spectral_norm(self):
        """The largest singular value; 0 for a channel without any."""
        if self.singular_values is None:
            return decompose_channel(self.matrix).spectral_norm
        s = self.singular_values
        # [()] turns one channel's 0-d result into a number
        return s[..., 0][()] if s.shape[-1] else np.zeros(s.shape[:-1])[()]

    @property
    def is_physical(self):
        """True where the channel can act passively (spectral norm <= 1).

        A sampled channel is certified passive where ``trace(H H†) <= 1``:
        ``‖H‖₂ <= ‖H‖_F``, so its rounded norm is within 1 + O(n^2 eps), far
        inside ``PHYSICALITY_SLACK``.  Only uncertified members are factored.
        """
        if self.singular_values is not None:
            return self.spectral_norm <= 1.0 + PHYSICALITY_SLACK
        physical = np.asarray(self.trace_power <= 1.0)
        # a non-finite draw is never certified: decompose_channel raises on it
        open_ = ~physical
        if open_.any():
            physical[open_] = decompose_channel(self.matrix[open_]).is_physical
        return physical[()]

    @cached_property
    def trace_power(self):
        """``trace(H H†)``, the summed eigen-channel transmissivities; computed
        once per object, as ``matrix`` is not to be written."""
        return np.sum(np.abs(self.matrix) ** 2, axis=(-2, -1))

    @property
    def port_eta(self) -> np.ndarray:
        """``eta_k`` of each receive port, clipped to [0, 1] and zero beyond the
        singular values; not cut at the rank."""
        s = self._factored()
        eta = np.zeros(s.shape[:-1] + (self.n_rx,))
        eta[..., : s.shape[-1]] = np.clip(self.eta, 0.0, 1.0)
        return eta

    @property
    def loss_coefficients(self) -> np.ndarray:
        """Thermal coupling ``sqrt(1 - eta_k)`` of each receive port; with the
        singular values these satisfy ``S S† + Sgm Sgm† = I``."""
        return np.sqrt(1.0 - self.port_eta)

    def reconstruction_residual(self):
        """Max-entry deviation of ``U S V†`` from the stored matrix."""
        s = self._factored()
        k = s.shape[-1]
        rebuilt = (self.u[..., :k] * s[..., None, :]) @ _dagger(self.v[..., :k])
        return np.max(np.abs(rebuilt - self.matrix), axis=(-2, -1))

    def require_physical(self):
        """Return ``self``, or raise naming the first non-physical norm."""
        physical = self.is_physical
        if not physical.all():
            norm = np.ravel(self.spectral_norm)[~np.ravel(physical)][0]
            raise NonPhysicalChannelError(f"spectral norm {norm:.6g} exceeds 1")
        return self


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def decompose_channel(h: np.ndarray) -> ChannelMatrix:
    """Factorize one raw channel, or a ``(B, n_rx, n_tx)`` stack at once.

    Every channel gets every sanity check: finite entries, a reconstruction
    residual within ``RECONSTRUCTION_TOL * max(s_0, 1)``, and unitary SVD
    factors.  Physicality is left to :attr:`ChannelMatrix.is_physical`, since
    samplers reject rather than raise.

    Raises
    ------
    ValueError
        On non-finite input or if the factorization of any channel fails to
        reproduce it within tolerance (which indicates a broken LAPACK build).
    """
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    if not np.isfinite(h).all():
        raise ValueError("channel matrix has non-finite entries")

    u, s, vh = np.linalg.svd(h, full_matrices=True)
    # s[..., :1] is the largest singular value; a zero channel has rank 0
    rank = np.sum(s > RANK_TOL * s[..., :1], axis=-1)
    cm = ChannelMatrix(matrix=h, u=u, singular_values=s, v=_dagger(vh), rank=rank)

    # written as "not within" so that a NaN from a broken factorization fails
    scale = np.maximum(cm.spectral_norm, 1.0)
    if not (cm.reconstruction_residual() <= RECONSTRUCTION_TOL * scale).all():
        raise ValueError("SVD reconstruction residual exceeds tolerance")
    for factor in (u, vh):
        gap = np.abs(factor @ _dagger(factor) - np.eye(factor.shape[-1]))
        if not (gap <= UNITARITY_TOL).all():
            raise ValueError("SVD factor failed the unitarity check")
    return cm


def _path_sum(paths, spacing: float, out, in_) -> np.ndarray:
    """``sum_p sqrt(eta_p) e^{-i phi_p} a_p b_p†`` over ``paths``, in order.

    ``out`` and ``in_`` are each ``(element_count, field)``: ``a_p`` is the
    steering vector of the ``out`` array toward path p's direction cosine in
    that field, and ``b_p`` that of the ``in_`` array.
    """
    (n_out, out_field), (n_in, in_field) = out, in_
    h = np.zeros((n_out, n_in), dtype=complex)
    for p in paths:
        a = steering_vector(n_out, spacing, getattr(p, out_field))
        b = steering_vector(n_in, spacing, getattr(p, in_field))
        h += np.sqrt(p.transmissivity) * np.exp(-1j * p.phase) * np.outer(a, b.conj())
    return h


def build_two_path_channel(paths, spacing: float) -> ChannelMatrix:
    """Two-antenna channel as a sum of rank-one steering-vector products.

    Each path contributes ``sqrt(eta') e^{-i phi'} e(rx_cos) e(tx_cos)†`` on
    length-2 arrays with the given element spacing.  The result is full rank
    exactly when the two paths are resolvable on both array sides.
    """
    paths = list(paths)
    if len(paths) != 2:
        raise ValueError(f"expected exactly two paths, got {len(paths)}")
    h = _path_sum(paths, spacing, (2, "rx_cosine"), (2, "tx_cosine"))
    return decompose_channel(h).require_physical()


def build_clutter_channel(
    tx_paths, rx_paths, n_tx: int, n_tag: int, n_rx: int, spacing: float
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

    h_t = _path_sum(tx_paths, spacing, (n_tag, "tag_cosine"), (n_tx, "far_cosine"))
    h_r = _path_sum(rx_paths, spacing, (n_rx, "far_cosine"), (n_tag, "tag_cosine"))
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


def _fading_draws(spec: FadingSpec, keys: np.ndarray) -> np.ndarray:
    """The raw channels of the ``(B, k)`` draw keys (index path, then attempt),
    stacked.

    Each draw takes its normals (inbound real and imaginary parts, then
    outbound) in one run from its own ``substream(seed, *key)``, seeded for
    the whole stack at once by :func:`standard_normals`.
    """
    # std per real component: per-entry complex variance is sqrt(eta / n_tx)
    scale = np.sqrt(np.sqrt(spec.reference_rtt / spec.n_tx) / 2.0)
    n_in = spec.n_tag * spec.n_tx
    normals = standard_normals(spec.seed, keys, 2 * n_in + 2 * spec.n_rx * spec.n_tag)
    t = normals[:, : 2 * n_in].reshape(-1, 2, spec.n_tag, spec.n_tx)
    r = normals[:, 2 * n_in :].reshape(-1, 2, spec.n_rx, spec.n_tag)
    return _scaled_hop(r, scale) @ _scaled_hop(t, scale)


def _scaled_hop(parts: np.ndarray, scale: float) -> np.ndarray:
    """``scale * (parts[:, 0] + 1j * parts[:, 1])``, bit for bit, written
    straight into one complex array."""
    hop = np.empty(parts[:, 0].shape, dtype=complex)
    np.multiply(parts[:, 0], scale, out=hop.real)
    np.multiply(parts[:, 1], scale, out=hop.imag)
    return hop


def sample_double_rayleigh(spec: FadingSpec, draws):
    """Draw one double-Rayleigh channel, or a stack, each deterministic in
    ``(seed, draw)`` alone.

    Both hop matrices have i.i.d. circularly-symmetric complex Gaussian
    entries with per-entry variance ``sqrt(reference_rtt / n_tx)``, making the
    ensemble mean of ``trace(H H†)`` equal ``n_tag * n_rx * reference_rtt``.

    Samples whose spectral norm exceeds one (:attr:`ChannelMatrix.is_physical`)
    are non-physical.  Each rejected draw alone is drawn again at the next
    attempt from its own substream, so a channel never depends on the other
    draws of the stack.

    Parameters
    ----------
    spec : FadingSpec
    draws : int, or sequence of int or of index paths of one length
        Index of one draw, or the index (or index path) of each draw, within
        the seeded ensemble, each in [0, 2**32); a ``(B, k)`` integer array,
        k < ``rng.MAX_PATH_WORDS``, is ``B`` paths.

    Returns
    -------
    ``(ChannelMatrix, rejections)``: for one draw its channel and how many
    non-physical samples it rejected (an int); for a sequence the stack in
    ``draws`` order and an array of rejection counts.  The channels carry only
    their matrix; ``decompose_channel(cm.matrix)`` factors them.

    Raises
    ------
    NonPhysicalChannelError
        When a draw is non-physical ``MAX_RESAMPLES`` times in a row.
    ValueError
        If a draw is non-finite or fails a check of :func:`decompose_channel`,
        or if the index paths differ in length or leave their range.
    """
    one = np.isscalar(draws)
    paths = path_words([draws] if one else draws)  # paths of different lengths raise here
    # one row per draw: its index path, then a word for the attempt
    keys = np.zeros((len(paths), paths.shape[1] + 1), dtype=np.uint32)
    keys[:, :-1] = paths
    rejections = np.zeros(len(keys), dtype=int)
    pending = np.arange(len(keys))
    for attempt in range(MAX_RESAMPLES):
        keys[:, -1] = attempt
        drawn = ChannelMatrix(_fading_draws(spec, keys[pending]))
        if attempt == 0:  # every draw
            h = drawn.matrix
        else:
            h[pending] = drawn.matrix
        pending = pending[~drawn.is_physical]
        if not pending.size:
            # a stack certified whole at attempt 0 keeps its trace power; a
            # redrawn one starts afresh
            channels = drawn if attempt == 0 else ChannelMatrix(h)
            return (channels[0], int(rejections[0])) if one else (channels, rejections)
        rejections[pending] += 1
    raise NonPhysicalChannelError(
        f"{MAX_RESAMPLES} consecutive fading draws were non-physical; "
        f"reference_rtt={spec.reference_rtt} is set too high"
    )
