"""Gaussian bosonic states and moment propagation through passive channels.

This is the first-principles cross-check for the closed-form link formulas:
states are tracked by their quadrature mean vector and covariance matrix
(ordering ``x_1..x_n, p_1..p_n``, vacuum variance 1/2 per quadrature), and a
channel acts as ``a_out = A a_in + B a_env`` with complex signal map ``A`` and
noise map ``B`` feeding in independent thermal modes.

Physical maps preserve the output commutators, which pins ``A A† + B B† = I``;
:func:`propagate` enforces this before mapping moments.

:func:`run_oracle_checks` compares one channel's propagated moments with the
closed forms; :func:`run_oracle` repeats it over the seeded random channels of
:func:`oracle_channel` and names the worst trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, decompose_channel
from .errors import NonPhysicalTransformError
from .qi import QiParams, _square_matrix, pmimo_interference, tmss_moments
from .rng import substream

COMMUTATOR_TOL = 1e-9
PHYSICALITY_TOL = 1e-9
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
    four real blocks of one shape, without ``np.block``'s nesting checks."""
    r, c = top_left.shape
    out = np.empty((2 * r, 2 * c))
    out[:r, :c] = top_left
    out[:r, c:] = top_right
    out[r:, :c] = bottom_left
    out[r:, c:] = bottom_right
    return out


def _symplectic_form(n: int) -> np.ndarray:
    zeros = np.zeros((n, n))
    return _block2(zeros, np.eye(n), -np.eye(n), zeros)


@dataclass(frozen=True)
class GaussianState:
    """Zero-or-displaced Gaussian state of ``n`` bosonic modes.

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
        return self.mean.size // 2

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(cls, modes: int) -> "GaussianState":
        return cls(mean=np.zeros(2 * modes), cov=0.5 * np.eye(2 * modes))

    @classmethod
    def thermal(cls, modes: int, mean_photons: float) -> "GaussianState":
        if mean_photons < 0:
            raise ValueError("mean photon number must be non-negative")
        return cls(
            mean=np.zeros(2 * modes),
            cov=(mean_photons + 0.5) * np.eye(2 * modes),
        )

    @classmethod
    def from_ladder_moments(cls, c: np.ndarray, g: np.ndarray) -> "GaussianState":
        """Build a zero-mean state from ``<a† a>`` and ``<a a>`` matrices."""
        c = np.asarray(c, dtype=complex)
        g = np.asarray(g, dtype=complex)
        n = c.shape[0]
        eye = np.eye(n)
        vxx = (g + c).real + 0.5 * eye
        vpp = (c - g).real + 0.5 * eye
        vxp = (c + g).imag
        return cls(mean=np.zeros(2 * n), cov=_block2(vxx, vxp, vxp.T, vpp))

    @classmethod
    def tmss_pairs(cls, n_signal: float, pairs: int, total_modes: int, links):
        """Product state of two-mode squeezed pairs embedded in a register.

        ``links`` is a sequence of ``(signal_mode, idler_mode)`` index pairs;
        every unlinked mode starts in vacuum.
        """
        moments = tmss_moments(n_signal)
        c = np.zeros((total_modes, total_modes), dtype=complex)
        g = np.zeros((total_modes, total_modes), dtype=complex)
        links = list(links)
        if len(links) != pairs:
            raise ValueError(f"expected {pairs} links, got {len(links)}")
        for sig, idl in links:
            c[sig, sig] = moments.signal_mean_photons
            c[idl, idl] = moments.idler_mean_photons
            g[sig, idl] = moments.cross_correlation
            g[idl, sig] = moments.cross_correlation
        return cls.from_ladder_moments(c, g)

    # -- derived moments ----------------------------------------------------

    def _blocks(self):
        n = self.mode_count
        return (
            self.cov[:n, :n],
            self.cov[:n, n:],
            self.cov[n:, n:],
        )

    @property
    def ladder_c(self) -> np.ndarray:
        """Normal-ordered correlations ``<a_j† a_k>`` (Hermitian)."""
        n = self.mode_count
        vxx, vxp, vpp = self._blocks()
        c = (vxx + vpp) / 2.0 - 0.5 * np.eye(n) + 0.5j * (vxp - vxp.T)
        alpha = self.mode_means()
        return c + np.outer(alpha.conj(), alpha)

    @property
    def ladder_g(self) -> np.ndarray:
        """Pair correlations ``<a_j a_k>`` (symmetric)."""
        vxx, vxp, vpp = self._blocks()
        g = (vxx - vpp) / 2.0 + 0.5j * (vxp + vxp.T)
        alpha = self.mode_means()
        return g + np.outer(alpha, alpha)

    def mode_means(self) -> np.ndarray:
        """Complex amplitudes ``<a_j>``."""
        n = self.mode_count
        return (self.mean[:n] + 1j * self.mean[n:]) / np.sqrt(2.0)

    def photon_number(self, mode: int) -> float:
        return float(self.ladder_c[mode, mode].real)

    def moment_adag_a(self, j: int, k: int) -> complex:
        return complex(self.ladder_c[j, k])

    def moment_aa(self, j: int, k: int) -> complex:
        return complex(self.ladder_g[j, k])

    def validate(self, tol: float = PHYSICALITY_TOL) -> None:
        """Check symmetry and the uncertainty bound ``cov + i Omega / 2 >= 0``."""
        if self.cov.shape != (2 * self.mode_count,) * 2:
            raise ValueError("covariance shape does not match the mean vector")
        if np.max(np.abs(self.cov - self.cov.T)) > tol:
            raise ValueError("covariance matrix is not symmetric")
        test = self.cov + 0.5j * _symplectic_form(self.mode_count)
        lowest = float(np.linalg.eigvalsh(test).min())
        if lowest < -tol:
            raise ValueError(f"state violates the uncertainty bound by {-lowest:.3e}")


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
        Input register; ``signal_map`` must have matching column count.
    signal_map, noise_map : ndarray
        Complex maps A (n_out x n_in) and B (n_out x n_env).  They must
        satisfy ``A A† + B B† = I`` within 1e-9 max-entry.
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
    n_out = a.shape[0]
    if a.shape[1] != state.mode_count:
        raise ValueError(
            f"signal map expects {a.shape[1]} modes, state has {state.mode_count}"
        )
    if b.shape[0] != n_out:
        raise ValueError("signal and noise maps must have the same output count")
    if thermal_photons < 0:
        raise ValueError("thermal photon number must be non-negative")

    gap = np.max(np.abs(a @ a.conj().T + b @ b.conj().T - np.eye(n_out)))
    if gap > COMMUTATOR_TOL:
        raise NonPhysicalTransformError(
            f"A A† + B B† deviates from identity by {gap:.3e}; "
            "the map does not preserve output commutators"
        )

    ra = quadrature_rep(a)
    rb = quadrature_rep(b)
    mean = ra @ state.mean
    cov = ra @ state.cov @ ra.T + (thermal_photons + 0.5) * (rb @ rb.T)
    return GaussianState(mean=mean, cov=cov)


def emimo_setup(cm: ChannelMatrix, params: QiParams, symbol: complex = 1.0):
    """Input state and maps for the eigen-channel protocol oracle.

    The transmit register holds the channel's input ports followed by the
    idlers: ports ``0..r-1`` carry the signal halves of r squeezed pairs (the
    remaining ports stay in vacuum), idler k pairs with port k.  The signal
    map routes ports through precoder V, channel, and beamformer U† while
    passing idlers through untouched.

    Returns ``(input_state, signal_map, noise_map)``; output modes are the
    ``n_rx`` receiver branches followed by the r idlers.
    """
    cm.require_physical()
    r = cm.rank
    n_tx, n_rx = cm.n_tx, cm.n_rx
    state = GaussianState.tmss_pairs(
        params.n_signal,
        pairs=r,
        total_modes=n_tx + r,
        links=[(k, n_tx + k) for k in range(r)],
    )
    branch_map = cm.u.conj().T @ (symbol * cm.matrix) @ cm.v
    signal_map = np.zeros((n_rx + r, n_tx + r), dtype=complex)
    signal_map[:n_rx, :n_tx] = branch_map
    signal_map[n_rx:, n_tx:] = np.eye(r)
    # beamformer applied after the channel noise: U† (U S) = S numerically
    noise_map = np.zeros((n_rx + r, n_rx), dtype=complex)
    noise_map[:n_rx, :] = cm.u.conj().T @ cm.u @ np.diag(cm.loss_coefficients)
    return state, signal_map, noise_map


def pmimo_setup(cm: ChannelMatrix, params: QiParams, symbol: complex = 1.0):
    """Input state and maps for the paired-protocol oracle.

    Every transceiver pair has an independent squeezed source: transmit mode m
    enters channel port m and idler m stays at receiver m.  Output modes are
    the ``n`` received modes followed by the n idlers.
    """
    cm.require_physical()
    h = _square_matrix(cm)
    n = cm.n_tx
    state = GaussianState.tmss_pairs(
        params.n_signal,
        pairs=n,
        total_modes=2 * n,
        links=[(k, n + k) for k in range(n)],
    )
    signal_map = np.zeros((2 * n, 2 * n), dtype=complex)
    signal_map[:n, :n] = symbol * h
    signal_map[n:, n:] = np.eye(n)
    noise_map = np.zeros((2 * n, n), dtype=complex)
    noise_map[:n, :] = cm.u @ np.diag(cm.loss_coefficients)
    return state, signal_map, noise_map


def run_oracle_checks(cm: ChannelMatrix, params: QiParams) -> dict:
    """Propagate both protocols through the Gaussian oracle and compare with
    the closed forms.  Returns max deviations keyed by check name (the keys
    of :data:`ORACLE_TOLERANCES`)."""
    n_signal, n_thermal = params.n_signal, params.n_thermal
    cross = tmss_moments(n_signal).cross_correlation

    # eigen protocol: branches must decouple and match the eigen-channel forms
    state, smap, nmap = emimo_setup(cm, params)
    out = propagate(state, smap, nmap, n_thermal)
    r, n_rx = cm.rank, cm.n_rx
    eta = cm.port_eta
    c_exp = np.concatenate(
        [
            eta * np.where(np.arange(n_rx) < r, n_signal, 0.0)
            + (1.0 - eta) * n_thermal,
            np.full(r, n_signal),
        ]
    )
    g_exp = np.zeros((n_rx + r, n_rx + r))
    k = np.arange(r)
    g_exp[k, n_rx + k] = g_exp[n_rx + k, k] = np.sqrt(eta[:r]) * cross
    linked = g_exp > 0

    c_dev = np.abs(out.ladder_c - np.diag(c_exp))
    g_dev = np.abs(out.ladder_g - g_exp)
    eigen_dev = float(
        np.max(np.concatenate([np.diag(c_dev) / c_exp, g_dev[linked] / g_exp[linked]]))
    )
    np.fill_diagonal(c_dev, 0.0)
    cross_dev = float(max(c_dev.max(), g_dev[~linked].max()))

    # paired protocol: received photons match the exact passive bookkeeping
    paired_dev = 0.0
    if cm.n_rx == cm.n_tx:
        state, smap, nmap = pmimo_setup(cm, params)
        out = propagate(state, smap, nmap, n_thermal)
        photons = out.ladder_c.diagonal()[: cm.n_tx].real
        h = cm.matrix
        expected = (
            n_signal * np.abs(np.diag(h)) ** 2
            + pmimo_interference(cm, params, coherent=False)
            - n_thermal * np.sum(np.abs(h) ** 2, axis=1)
        )
        paired_dev = float(np.max(np.abs(photons - expected) / expected))

    return {
        "emimo_max_cross": cross_dev,
        "emimo_max_moment_rel": eigen_dev,
        "pmimo_max_photon_rel": paired_dev,
    }


def oracle_channel(seed: int, trial: int, max_n: int = 8) -> ChannelMatrix:
    """The random channel of oracle trial ``trial``: from
    ``substream(seed, trial)``, a square channel of size n in [1, max_n]
    scaled to a spectral norm in [0.05, 0.95]."""
    rng = substream(seed, trial)
    n = int(rng.integers(1, max_n + 1))
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw *= rng.uniform(0.05, 0.95) / np.linalg.svd(raw, compute_uv=False)[0]
    return decompose_channel(raw)


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


def run_oracle(params: QiParams, trials: int, seed: int, max_n: int = 8) -> OracleReport:
    """Run the oracle checks on the channels of trials ``0..trials-1`` of
    :func:`oracle_channel`."""
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
    return OracleReport(worst, worst_trial, worst_n)
