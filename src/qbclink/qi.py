"""Quantum-illumination link performance.

The source emits signal/idler pairs in a two-mode squeezed state with
``n_signal`` photons per mode; the receiver measures the backscattered signal
jointly with the stored idler against a bright thermal background of
``n_thermal`` photons per mode.  Bit error rates decay as ``exp(-beta * M)``
in the number of signal modes ``M``, with the SNR coefficient ``beta`` set by
the receiver design and the channel.

Three multi-antenna strategies are quantified:

* SISO         -- one transceiver over a scalar channel of transmissivity eta.
* paired MIMO  -- independent transceiver pairs that interfere with each other.
* eigen MIMO   -- transmit precoding and receive beamforming along the channel
                  singular vectors, yielding interference-free parallel
                  eigen-channels.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, ChannelStack
from .errors import ProtocolMismatchError


class Receiver(enum.Enum):
    """Receiver designs and their SNR coefficients relative to eta*Ns/Nz."""

    CLASSICAL_HETERODYNE = "classical"
    GUHA = "guha"
    ZHUANG = "zhuang"

    @property
    def snr_coefficient(self) -> float:
        return _RECEIVER_COEFF[self]


_RECEIVER_COEFF = {
    Receiver.CLASSICAL_HETERODYNE: 0.25,
    Receiver.GUHA: 0.5,
    Receiver.ZHUANG: 1.0,
}


class Protocol(enum.Enum):
    SISO = "siso"
    PMIMO = "pmimo"
    EMIMO = "emimo"


@dataclass(frozen=True)
class QiParams:
    """Operating point of the illumination source and receiver.

    ``modes`` is the time-bandwidth product W*T.  The closed forms assume the
    quantum-illumination regime (signal photons well below one, thermal
    photons well above one); leaving it triggers a warning, not an error.
    """

    n_signal: float
    n_thermal: float
    modes: float
    receiver: Receiver = Receiver.ZHUANG

    def __post_init__(self):
        if self.n_signal <= 0:
            raise ValueError(f"n_signal must be positive, got {self.n_signal}")
        if self.n_thermal <= 0:
            raise ValueError(f"n_thermal must be positive, got {self.n_thermal}")
        if self.modes <= 0:
            raise ValueError(f"modes must be positive, got {self.modes}")
        if self.n_signal >= 1 or self.n_thermal <= 1:
            warnings.warn(
                "outside the quantum-illumination operating point "
                f"(n_signal={self.n_signal}, n_thermal={self.n_thermal}); "
                "closed-form SNRs assume n_signal << 1 and n_thermal >> 1",
                stacklevel=3,  # past the generated __init__, to the caller
            )


@dataclass(frozen=True)
class TmssMoments:
    """Second moments of the two-mode squeezed source state."""

    signal_mean_photons: float
    idler_mean_photons: float
    cross_correlation: float


def tmss_moments(n_signal: float) -> TmssMoments:
    """Source moments for ``n_signal`` photons per mode.

    The cross-correlation ``sqrt(Ns (Ns + 1))`` exceeds ``Ns`` for every
    positive ``Ns``, the nonclassical resource the receivers exploit.
    """
    if n_signal <= 0:
        raise ValueError(f"n_signal must be positive, got {n_signal}")
    return TmssMoments(
        signal_mean_photons=n_signal,
        idler_mean_photons=n_signal,
        cross_correlation=float(np.sqrt(n_signal * (n_signal + 1.0))),
    )


def siso_snr(eta: float, params: QiParams) -> float:
    """Single-channel SNR for the configured receiver.

    Coefficients: 1 (Zhuang), 1/2 (Guha), 1/4 (classical heterodyne) times
    ``eta * n_signal / n_thermal``; the quantum receivers therefore give 3 dB
    and 6 dB over the classical one.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    return params.receiver.snr_coefficient * (eta * params.n_signal / params.n_thermal)


def chernoff_ber(beta: float, modes: float) -> float:
    """Bit error probability ``exp(-beta * modes)``.

    This is the leading exponential behaviour of the error probability; the
    simulator adopts it as the definition of BER.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if modes <= 0:
        raise ValueError(f"modes must be positive, got {modes}")
    return float(np.exp(-beta * modes))


def _square_matrix(cm: ChannelMatrix | ChannelStack) -> np.ndarray:
    if cm.n_rx != cm.n_tx:
        raise ProtocolMismatchError(
            f"paired MIMO needs n_tx == n_rx transceiver pairs, "
            f"got {cm.n_rx}x{cm.n_tx}"
        )
    return cm.matrix


def pmimo_interference(
    cm: ChannelMatrix | ChannelStack, params: QiParams, coherent: bool = True
) -> np.ndarray:
    """Effective noise photons at every receiver of a paired array.

    Entry ``m`` (``[i, m]`` for channel i of a stack) is the thermal floor of
    receiver m raised by all other transmitters.  By default their amplitudes
    are summed coherently, ``|sum_{n != m} h_mn|^2 * Ns + Nz``;
    ``coherent=False`` switches to the incoherent power sum
    ``sum_{n != m} |h_mn|^2 * Ns + Nz``, which is what independent sources
    produce per realization.  The two agree in expectation for zero-mean
    fading.
    """
    h = _square_matrix(cm)
    cross = np.where(np.eye(cm.n_tx, dtype=bool), 0.0, h)
    if coherent:
        power = np.abs(np.sum(cross, axis=-1)) ** 2
    else:
        power = np.sum(np.abs(cross) ** 2, axis=-1)
    return power * params.n_signal + params.n_thermal


def pmimo_snr(cm: ChannelMatrix | ChannelStack, params: QiParams, coherent: bool = True):
    """Maximal-ratio-combined SNR of the paired protocol: a number for one
    channel, one entry per channel of a stack.

    Each pair m contributes ``Ns |h_mm|^2 / N_I_m`` with the interference
    noise of :func:`pmimo_interference`.
    """
    diagonal = np.diagonal(cm.matrix, axis1=-2, axis2=-1)
    signal = params.n_signal * np.abs(diagonal) ** 2
    return np.sum(signal / pmimo_interference(cm, params, coherent), axis=-1)


def pmimo_snr_ensemble(n_tx: int, n_rx: int, rank: int, beta: float) -> float:
    """Ensemble-symmetric paired-MIMO SNR for baseline SISO SNR ``beta``.

    Closed form under the symmetric coupling ``|h_mn|^2 = (r/N_t) eta``:
    ``beta`` times :func:`pmimo_mode_ratio`.
    """
    return beta * pmimo_mode_ratio(n_tx, n_rx, rank, beta)


def pmimo_mode_ratio(n_tx: int, n_rx: int, rank: int, beta: float) -> float:
    """Virtual-mode multiplier M_P/M of the paired protocol.

    Equals ``N_r (r/N_t) / ((N_t - 1)(r/N_t) beta + 1)``; approaches
    ``r / (r beta + 1)`` as the square array grows.
    """
    if n_tx != n_rx or n_tx < 1:
        raise ProtocolMismatchError(
            f"paired MIMO needs n_tx == n_rx >= 1, got {n_tx}, {n_rx}"
        )
    if not 1 <= rank <= n_tx:
        raise ValueError(f"rank must lie in [1, {n_tx}], got {rank}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    share = rank / n_tx
    return n_rx * share / ((n_tx - 1) * share * beta + 1.0)


def emimo_snr(cm: ChannelMatrix | ChannelStack, params: QiParams):
    """Eigen-channel protocol SNR ``trace(H H†) Ns / Nz``: a number for one
    channel, one entry per channel of a stack.

    Precoding and beamforming along the singular vectors make the branch SNRs
    add without interference, so only the summed transmissivities matter.
    """
    cm.require_physical()
    return cm.trace_power * params.n_signal / params.n_thermal


def emimo_mode_ratio(rank: int, n_rx: int) -> float:
    """Virtual-mode multiplier M_E/M = r * N_r of the eigen protocol."""
    if rank < 0 or n_rx < 1:
        raise ValueError("rank must be >= 0 and n_rx >= 1")
    return float(rank * n_rx)


def relative_gain(n_tx: int, rank: int, beta: float) -> float:
    """SNR ratio of the eigen protocol over the paired protocol.

    ``(N_t - 1) r beta + N_t``; approximately N_t in the quantum-illumination
    regime where beta is tiny.
    """
    if n_tx < 1 or rank < 1:
        raise ValueError("n_tx and rank must be >= 1")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return (n_tx - 1) * rank * beta + n_tx


@dataclass(frozen=True)
class ProtocolReport:
    """Per-protocol link summary.

    ``mode_ratio`` is the virtual-mode multiplier relative to the SISO
    baseline at the reference transmissivity.
    """

    protocol: Protocol
    snr: float
    ber: float
    mode_ratio: float
    log_mode_gain: float

    def csv_row(self) -> str:
        return (
            f"{self.protocol.value},{self.snr:.17g},{self.ber:.17g},"
            f"{self.mode_ratio:.17g},{self.log_mode_gain:.17g}"
        )


PROTOCOL_REPORT_HEADER = "protocol,beta,ber,mode_ratio,log10_mode_gain"


def protocol_reports(
    cm: ChannelMatrix, params: QiParams, reference_rtt: float
) -> list:
    """Evaluate SISO / paired / eigen protocols on one channel realization.

    The SISO baseline uses the reference transmissivity with the Zhuang
    coefficient, matching the normalization of the multi-antenna closed forms.
    """
    baseline = reference_rtt * params.n_signal / params.n_thermal
    rows = []
    for protocol, beta in (
        (Protocol.SISO, baseline),
        (Protocol.PMIMO, pmimo_snr(cm, params)),
        (Protocol.EMIMO, emimo_snr(cm, params)),
    ):
        ratio = beta / baseline
        with np.errstate(divide="ignore"):
            log_gain = float(np.log10(ratio)) if ratio > 0 else float("-inf")
        rows.append(
            ProtocolReport(
                protocol=protocol,
                snr=beta,
                ber=chernoff_ber(beta, params.modes),
                mode_ratio=ratio,
                log_mode_gain=log_gain,
            )
        )
    return rows
