"""Gaussian bosonic states and moment propagation through passive channels.

This is the first-principles cross-check for the closed-form link formulas:
states are tracked by their quadrature mean vector and covariance matrix
(ordering ``x_1..x_n, p_1..p_n``, vacuum variance 1/2 per quadrature), and a
channel acts as ``a_out = A a_in + B a_env`` with complex signal map ``A`` and
noise map ``B`` feeding in independent thermal modes.

Physical maps preserve the output commutators, which pins ``A A† + B B† = I``;
:func:`propagate` enforces this before mapping moments.

States, maps and channels may be stacks on leading axes, each member getting
the bits it gets alone.  :func:`run_oracle_checks` compares propagated moments
with the closed forms; :func:`run_oracle` runs it on the channels of
:func:`oracle_channel` (trial ``i`` is ``oracle_channel(seed, i, max_n)``, drawn
from ``substream(seed, i)``) and names the worst trial.  It seeds a block of
trials at once through :func:`qbclink.rng.row_generators` and checks each
channel size of a block in a few stacks, bounded in matrix entries;
:func:`oracle_channel` is the block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, _dagger, decompose_channel
from .errors import NonPhysicalTransformError
from .qi import QiParams, _square_matrix, pmimo_interference, tmss_cross_correlation
from .rng import row_generators

COMMUTATOR_TOL = 1e-9
# Matrix entries the oracle draws per block (ORACLE_BLOCK_ENTRIES // max_n**2
# trials) and checks per stack of one channel size; both bound its memory.
# Without the stack cap the output is byte-identical, but the peak RSS of
# `oracle --seed 3` rises from 38.8 to 39.6 MB at 200 trials and from 40.3 to
# 49.0 MB at 10,000 (three runs each, 2-vCPU x86-64 Xeon), so the cap stays.
ORACLE_BLOCK_ENTRIES = 2**16
ORACLE_STACK_ENTRIES = 2**10
# Largest deviation each oracle check may show for the oracle to pass.
ORACLE_TOLERANCES = {
    "emimo_max_cross": 1e-10,
    "emimo_max_moment_rel": 1e-9,
    "pmimo_max_photon_rel": 1e-9,
}


def quadrature_rep(m: np.ndarray) -> np.ndarray:
    """Real representation of a complex mode map in xxpp ordering.

    A complex matrix acting on annihilation operators acts on quadratures as
    ``[[Re m, -Im m], [Im m, Re m]]``.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return _block2(m.real, -m.imag, m.imag, m.real)


def _block2(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """``np.block([[top_left, top_right], [bottom_left, bottom_right]])`` for
    four real (stacked) blocks of one shape, without ``np.block``'s checks."""
    *lead, r, c = top_left.shape
    out = np.empty((*lead, 2 * r, 2 * c))
    out[..., :r, :c] = top_left
    out[..., :r, c:] = top_right
    out[..., r:, :c] = bottom_left
    out[..., r:, c:] = bottom_right
    return out


@dataclass(frozen=True)
class GaussianState:
    """Zero-or-displaced Gaussian state of ``n`` bosonic modes (or a stack).

    Attributes
    ----------
    mean : ndarray
        Quadrature means, length 2n.
    cov : ndarray
        Symmetric 2n x 2n quadrature covariance (vacuum = I/2).
    """

    mean: np.ndarray
    cov: np.ndarray

    @property
    def mode_count(self) -> int:
        return self.mean.shape[-1] // 2

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(cls, modes: int) -> "GaussianState":
        return cls.thermal(modes, 0.0)

    @classmethod
    def thermal(cls, modes: int, mean_photons: float) -> "GaussianState":
        if not 0 <= mean_photons < np.inf:
            raise ValueError("mean photon number must be non-negative")
        return cls(
            mean=np.zeros(2 * modes),
            cov=(mean_photons + 0.5) * np.eye(2 * modes),
        )

    @classmethod
    def tmss_pairs(cls, n_signal: float, total_modes: int, links):
        """Product state of two-mode squeezed pairs embedded in a register.

        ``links`` is a sequence of ``(signal_mode, idler_mode)`` index pairs;
        every unlinked mode starts in vacuum.  Both modes of a pair have x and
        p variances ``Ns + 1/2``, its x quadratures correlate by ``+sqrt(Ns
        (Ns + 1))`` and its p quadratures by ``-sqrt(Ns (Ns + 1))``, and no x
        correlates with a p (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).
        """
        cross = tmss_cross_correlation(n_signal)
        state = cls.vacuum(total_modes)
        for sig, idl in links:
            for q, sign in ((0, 1.0), (total_modes, -1.0)):  # the x, then the p block
                state.cov[q + sig, q + sig] = state.cov[q + idl, q + idl] = n_signal + 0.5
                state.cov[q + sig, q + idl] = state.cov[q + idl, q + sig] = sign * cross
        return state

    # -- derived moments ----------------------------------------------------

    def _blocks(self):
        n = self.mode_count
        return (
            self.cov[..., :n, :n],
            self.cov[..., :n, n:],
            self.cov[..., n:, n:],
        )

    @property
    def ladder_c(self) -> np.ndarray:
        """Normal-ordered correlations ``<a_j† a_k>`` (Hermitian)."""
        n = self.mode_count
        vxx, vxp, vpp = self._blocks()
        c = (vxx + vpp) / 2.0 - 0.5 * np.eye(n) + 0.5j * (vxp - vxp.swapaxes(-1, -2))
        alpha = self.mode_means()
        return c + alpha.conj()[..., :, None] * alpha[..., None, :]

    @property
    def ladder_g(self) -> np.ndarray:
        """Pair correlations ``<a_j a_k>`` (symmetric)."""
        vxx, vxp, vpp = self._blocks()
        g = (vxx - vpp) / 2.0 + 0.5j * (vxp + vxp.swapaxes(-1, -2))
        alpha = self.mode_means()
        return g + alpha[..., :, None] * alpha[..., None, :]

    def mode_means(self) -> np.ndarray:
        """Complex amplitudes ``<a_j>``."""
        n = self.mode_count
        return (self.mean[..., :n] + 1j * self.mean[..., n:]) / np.sqrt(2.0)


def propagate(
    state: GaussianState,
    signal_map: np.ndarray,
    noise_map: np.ndarray,
    thermal_photons: float,
) -> GaussianState:
    """Push a Gaussian state through ``a_out = A a_state + B a_thermal``.

    Parameters
    ----------
    state : GaussianState
        Input register (or a stack); ``signal_map`` must have matching column count.
    signal_map, noise_map : ndarray
        Complex maps A (n_out x n_in) and B (n_out x n_env), or stacks.  They
        must satisfy ``A A† + B B† = I`` within 1e-9 max-entry.
    thermal_photons : float
        Mean photon number of each independent environment mode.

    Returns
    -------
    GaussianState
        Means map linearly through A; the covariance maps by congruence plus
        a ``(thermal_photons + 1/2)`` contribution through B.
    """
    a = np.atleast_2d(np.asarray(signal_map, dtype=complex))
    b = np.atleast_2d(np.asarray(noise_map, dtype=complex))
    n_out = a.shape[-2]
    if a.shape[-1] != state.mode_count:
        raise ValueError(
            f"signal map expects {a.shape[-1]} modes, state has {state.mode_count}"
        )
    if b.shape[-2] != n_out:
        raise ValueError("signal and noise maps must have the same output count")
    if not 0 <= thermal_photons < np.inf:
        raise ValueError("thermal photon number must be non-negative")

    gap = np.max(np.abs(a @ _dagger(a) + b @ _dagger(b) - np.eye(n_out)), axis=(-2, -1))
    if not (gap <= COMMUTATOR_TOL).all():  # "not within", so that a NaN map fails
        raise NonPhysicalTransformError(
            f"A A† + B B† deviates from identity by {np.max(gap):.3e}; "
            "the map does not preserve output commutators"
        )

    ra, rb = quadrature_rep(a), quadrature_rep(b)
    mean = (ra @ state.mean[..., None])[..., 0]
    cov = ra @ state.cov @ ra.swapaxes(-1, -2)
    noise = rb @ rb.swapaxes(-1, -2)
    noise *= thermal_photons + 0.5
    cov += noise
    return GaussianState(mean=mean, cov=cov)


def _tmss_register(n_signal: float, block: np.ndarray, pairs: int, noise: np.ndarray):
    """``(state, signal_map, noise_map)``: channel ``block`` (n_out x n_in, or a
    stack) takes ``pairs`` squeezed signals on its first ports, their idlers
    pass through after its outputs, and ``noise`` feeds only its outputs."""
    *lead, n_out, n_in = block.shape
    links = [(k, n_in + k) for k in range(pairs)]
    state = GaussianState.tmss_pairs(n_signal, total_modes=n_in + pairs, links=links)
    signal_map = np.zeros((*lead, n_out + pairs, n_in + pairs), dtype=complex)
    signal_map[..., :n_out, :n_in] = block
    signal_map[..., n_out:, n_in:] = np.eye(pairs)
    noise_map = np.zeros((*lead, n_out + pairs, noise.shape[-1]), dtype=complex)
    noise_map[..., :n_out, :] = noise
    return state, signal_map, noise_map


def emimo_setup(cm: ChannelMatrix, params: QiParams, symbol: complex = 1.0):
    """Input state and maps for the eigen-channel protocol oracle.

    The transmit register holds the channel's input ports followed by the
    idlers: ports ``0..r-1`` carry the signal halves of r squeezed pairs (the
    remaining ports stay in vacuum), idler k pairs with port k.  The signal
    map routes ports through precoder V, channel, and beamformer U† while
    passing idlers through untouched.

    Returns ``(input_state, signal_map, noise_map)``; output modes are the
    ``n_rx`` receiver branches followed by the r idlers.  A stack of channels
    of one rank gives stacked maps and the one input state.
    """
    cm.require_physical()
    r = int(np.max(cm.rank))
    if np.any(cm.rank != r):
        raise ValueError("emimo_setup needs one rank across a stack of channels")
    branch_map = _dagger(cm.u) @ (symbol * cm.matrix) @ cm.v
    # beamformer applied after the channel noise: U† (U S) = S numerically
    noise = _dagger(cm.u) @ cm.u @ (cm.loss_coefficients[..., None] * np.eye(cm.n_rx))
    return _tmss_register(params.n_signal, branch_map, r, noise)


def pmimo_setup(cm: ChannelMatrix, params: QiParams, symbol: complex = 1.0):
    """Input state and maps for the paired-protocol oracle.

    Every transceiver pair has an independent squeezed source: transmit mode m
    enters channel port m and idler m stays at receiver m.  Output modes are
    the ``n`` received modes followed by the n idlers.
    """
    cm.require_physical()
    h = _square_matrix(cm)
    noise = cm.u @ (cm.loss_coefficients[..., None] * np.eye(cm.n_tx))
    return _tmss_register(params.n_signal, symbol * h, cm.n_tx, noise)


def run_oracle_checks(cm: ChannelMatrix, params: QiParams) -> dict:
    """Propagate both protocols through the Gaussian oracle and compare with
    the closed forms.  Returns max deviations keyed by check name (the keys
    of :data:`ORACLE_TOLERANCES`): numbers for one channel, one entry per
    channel for a stack.  The eigen protocol runs once per rank present."""
    stack = cm[None] if np.ndim(cm.rank) == 0 else cm
    n_signal, n_thermal = params.n_signal, params.n_thermal
    cross = tmss_cross_correlation(n_signal)

    # eigen protocol: branches must decouple and match the eigen-channel forms
    n_rx = cm.n_rx
    eigen_dev, cross_dev = np.empty(len(stack)), np.empty(len(stack))
    for r in sorted(set(stack.rank.tolist())):
        part = np.flatnonzero(stack.rank == r)
        out = propagate(*emimo_setup(stack[part], params), n_thermal)
        eta = stack.port_eta[part]
        c_exp = np.full((len(part), n_rx + r), n_signal, dtype=float)
        c_exp[:, :n_rx] = (
            eta * np.where(np.arange(n_rx) < r, n_signal, 0.0) + (1.0 - eta) * n_thermal
        )
        g_exp = np.zeros((len(part), n_rx + r, n_rx + r))
        k = np.arange(r)
        g_exp[:, k, n_rx + k] = g_exp[:, n_rx + k, k] = np.sqrt(eta[:, :r]) * cross
        linked = g_exp > 0
        c_dev = np.abs(out.ladder_c - c_exp[..., None] * np.eye(n_rx + r))
        g_dev = np.abs(out.ladder_g - g_exp)
        diagonal = np.arange(n_rx + r)
        rel = np.divide(g_dev, g_exp, out=np.zeros_like(g_dev), where=linked)
        rel[:, diagonal, diagonal] = c_dev[:, diagonal, diagonal] / c_exp
        eigen_dev[part] = np.max(rel, axis=(-2, -1))
        c_dev[:, diagonal, diagonal] = 0.0
        cross_dev[part] = np.max(np.maximum(c_dev, np.where(linked, 0, g_dev)), axis=(-2, -1))

    # paired protocol: received photons match the exact passive bookkeeping
    paired_dev = np.zeros(len(stack))
    if cm.n_rx == cm.n_tx:
        out = propagate(*pmimo_setup(stack, params), n_thermal)
        photons = np.diagonal(out.ladder_c, axis1=-2, axis2=-1)[:, : cm.n_tx].real
        h = stack.matrix
        expected = (
            n_signal * np.abs(np.diagonal(h, axis1=-2, axis2=-1)) ** 2
            + pmimo_interference(stack, params, coherent=False)
            - n_thermal * np.sum(np.abs(h) ** 2, axis=-1)
        )
        paired_dev = np.max(np.abs(photons - expected) / expected, axis=-1)

    checks = {"emimo_max_cross": cross_dev, "emimo_max_moment_rel": eigen_dev,
              "pmimo_max_photon_rel": paired_dev}
    return checks if stack is cm else {name: float(dev[0]) for name, dev in checks.items()}


def _oracle_draws(seed: int, trials: range, max_n: int):
    """``(sizes, real, imag, norms)`` of oracle trials ``trials``, seeded as
    one block: trial ``t`` draws its size n in [1, max_n], the real and then
    the imaginary parts of its raw n x n channel (row ``i`` of ``real`` and
    ``imag`` holds trial ``trials[i]``'s n*n entries first) and the spectral
    norm it is scaled to, all from ``substream(seed, t)``."""
    sizes, norms = np.empty(len(trials), dtype=int), np.empty(len(trials))
    real, imag = np.empty((2, len(trials), max_n * max_n))
    for i, gen in row_generators(seed, [(t,) for t in trials]):
        n = sizes[i] = gen.integers(1, max_n + 1)
        gen.standard_normal(out=real[i, : n * n])
        gen.standard_normal(out=imag[i, : n * n])
        norms[i] = gen.uniform(0.05, 0.95)
    return sizes, real, imag, norms


def _oracle_stacks(seed: int, trials: range, max_n: int):
    """Yield ``(part, channels)`` for oracle trials ``trials``: indices into
    ``trials`` of one size n and their channels, scaled and factored as one
    stack of at most ``max(1, ORACLE_STACK_ENTRIES // n**2)``."""
    sizes, real, imag, norms = _oracle_draws(seed, trials, max_n)
    for n in sorted(set(sizes.tolist())):
        same = np.flatnonzero(sizes == n)
        step = max(1, ORACLE_STACK_ENTRIES // (n * n))
        for part in (same[lo : lo + step] for lo in range(0, len(same), step)):
            raws = (real[part, : n * n] + 1j * imag[part, : n * n]).reshape(-1, n, n)
            s0 = np.linalg.svd(raws, compute_uv=False)[:, 0]
            yield part, decompose_channel(raws * (norms[part] / s0)[:, None, None])


def oracle_channel(seed: int, trial: int, max_n: int = 8) -> ChannelMatrix:
    """The random channel of oracle trial ``trial``: from
    ``substream(seed, trial)``, a square channel of size n in [1, max_n]
    scaled to a spectral norm in [0.05, 0.95]."""
    ((_, cm),) = _oracle_stacks(seed, range(trial, trial + 1), max_n)
    return cm[0]


@dataclass(frozen=True)
class OracleReport:
    """Worst deviation of each oracle check over a run, and the trial (with
    its channel size ``worst_n``) whose largest deviation-to-tolerance ratio
    is the run's largest; ``oracle_channel(seed, worst_trial)`` rebuilds it."""

    worst: dict
    worst_trial: int
    worst_n: int

    @property
    def ok(self) -> bool:
        return all(self.worst[name] <= tol for name, tol in ORACLE_TOLERANCES.items())


def _check_oracle_range(params: QiParams) -> None:
    """Raise ValueError, naming ``ns`` or ``nz``, unless the oracle's float64
    moments hold the operating point: a covariance entry ``Ns + 1/2`` keeps
    ``Ns`` only above 2**-54, and the source's cross-correlation ``sqrt(Ns (Ns
    + 1))`` and the sums of thermal covariances stay finite up to 2**511."""
    if not 2.0**-54 < params.n_signal <= 2.0**511:
        raise ValueError(f"ns must lie in (2**-54, 2**511] for the oracle, got {params.n_signal}")
    if not params.n_thermal <= 2.0**511:
        raise ValueError(f"nz must be at most 2**511 for the oracle, got {params.n_thermal}")


def run_oracle(params: QiParams, trials: int, seed: int, max_n: int = 8) -> OracleReport:
    """Run the oracle checks on the channels of trials ``0..trials-1`` of
    :func:`oracle_channel`.  Trials are drawn in blocks of
    ``ORACLE_BLOCK_ENTRIES // max_n**2``, each seeded at once, and the
    channels of one size in a block are checked in stacks of at most
    :data:`ORACLE_STACK_ENTRIES` matrix entries, so memory is bounded at any
    trial count.  A NaN deviation counts as the largest: it fails."""
    _check_oracle_range(params)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    worst = dict.fromkeys(ORACLE_TOLERANCES, 0.0)
    worst_ratio, worst_trial, worst_n = -1.0, 0, 0
    per_block = max(1, ORACLE_BLOCK_ENTRIES // (max_n * max_n))
    for start in range(0, trials, per_block):
        block = range(start, min(trials, start + per_block))
        sizes = np.empty(len(block), dtype=int)
        checks = {name: np.empty(len(block)) for name in ORACLE_TOLERANCES}
        for part, cm in _oracle_stacks(seed, block, max_n):
            sizes[part] = cm.n_rx
            for name, dev in run_oracle_checks(cm, params).items():
                checks[name][part] = dev
        worst = {name: float(np.max(checks[name], initial=worst[name])) for name in worst}
        ratios = np.max([checks[name] / tol for name, tol in ORACLE_TOLERANCES.items()], axis=0)
        # argmax takes the first of the largest ratios, and a NaN as the largest
        best = int(np.argmax(np.append(worst_ratio, ratios))) - 1
        if best >= 0:
            worst_ratio, worst_trial, worst_n = ratios[best], block[best], int(sizes[best])
    return OracleReport(worst, worst_trial, worst_n)
