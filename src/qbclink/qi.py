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

from .channel import ChannelMatrix
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
"""SNR coefficient of each receiver, in units of ``eta*Ns/Nz``: the Chernoff
error exponent for telling a return present from absent (target detection),
normalized to the limit Ns -> 0.  There the two-mode squeezed (TMSS) source's
exponent tends to 1 (Tan et al., PRL 101, 253601 (2008)), which the receiver
of Zhuang, Zhang & Shapiro (PRL 118, 040801 (2017)) reaches, and a coherent
state's tends to 1/4, the classical entry.  The Guha-Erkmen 1/2 (PRA 80,
052310 (2009)) is a receiver's exponent, not a bound.  At finite Ns the
exact exponents fall short of the limits: TMSS 0.820 and coherent 0.2488 at
Ns = 0.01, Nz = 100; 0.939 and 0.2498 at Ns = 0.001, Nz = 1000.  For the
tag's +-1 symbols both exponents are 4 times larger, so the 4x (6 dB) quantum
advantage holds either way."""


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
        for name in ("n_signal", "n_thermal", "modes"):
            value = getattr(self, name)
            # written as "not within (0, inf)", so that a NaN fails
            if not 0.0 < value < np.inf:
                bound = "positive" if value <= 0 else "finite"
                raise ValueError(f"{name} must be {bound}, got {value}")
        if self.n_signal >= 1 or self.n_thermal <= 1:
            warnings.warn(
                "outside the quantum-illumination operating point "
                f"(n_signal={self.n_signal}, n_thermal={self.n_thermal}); "
                "closed-form SNRs assume n_signal << 1 and n_thermal >> 1",
                stacklevel=3,  # past the generated __init__, to the caller
            )


def tmss_cross_correlation(n_signal: float) -> float:
    """Cross-correlation ``<a_S a_I> = sqrt(Ns (Ns + 1))`` of the two-mode
    squeezed source with ``n_signal`` photons in each of its signal and idler
    modes.

    It exceeds ``Ns`` for every positive ``Ns``, the nonclassical resource the
    receivers exploit.
    """
    if not 0 < n_signal < np.inf:
        raise ValueError(f"n_signal must be positive, got {n_signal}")
    return float(np.sqrt(n_signal * (n_signal + 1.0)))


def _snr(transmissivity, params: QiParams):
    """Link SNR ``x * Ns / Nz`` of transmissivity ``x``, a number or an array."""
    return transmissivity * params.n_signal / params.n_thermal


def _link_snr(eta: float, params: QiParams) -> float:
    """``_snr`` of one transmissivity ``eta``, checked: it must be finite, and
    not underflow to 0 from a positive ``eta``."""
    snr = _snr(eta, params)
    # written as "not within", so that a NaN fails
    if not (snr < np.inf and (snr > 0.0 or eta == 0.0)):
        raise ValueError(
            f"link SNR eta * ns / nz {'underflows to 0' if snr == 0.0 else 'is not finite'}"
            f": eta={eta}, ns={params.n_signal}, nz={params.n_thermal}"
        )
    return snr


def siso_snr(eta: float, params: QiParams) -> float:
    """Single-channel SNR for the configured receiver.

    Coefficients: 1 (Zhuang), 1/2 (Guha), 1/4 (classical heterodyne) times
    ``eta * n_signal / n_thermal``; the quantum receivers therefore give 3 dB
    and 6 dB over the classical one.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    return params.receiver.snr_coefficient * _link_snr(eta, params)


def chernoff_ber(beta: float, modes: float) -> float:
    """Bit error probability ``exp(-beta * modes)``.

    This is the leading exponential behaviour of the error probability; the
    simulator adopts it as the definition of BER.
    """
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if not 0 < modes < np.inf:
        raise ValueError(f"modes must be positive, got {modes}")
    return float(np.exp(-beta * modes))


def _square_matrix(cm: ChannelMatrix) -> np.ndarray:
    if cm.n_rx != cm.n_tx:
        raise ProtocolMismatchError(
            f"paired MIMO needs n_tx == n_rx transceiver pairs, "
            f"got {cm.n_rx}x{cm.n_tx}"
        )
    return cm.matrix


def pmimo_interference(
    cm: ChannelMatrix, params: QiParams, coherent: bool = True
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


def pmimo_snr(cm: ChannelMatrix, params: QiParams, coherent: bool = True):
    """Maximal-ratio-combined SNR of the paired protocol: a number for one
    channel, one entry per channel of a stack.

    Each pair m contributes ``Ns |h_mm|^2 / N_I_m`` with the interference
    noise of :func:`pmimo_interference`.
    """
    diagonal = np.diagonal(cm.matrix, axis1=-2, axis2=-1)
    signal = params.n_signal * np.abs(diagonal) ** 2
    return np.sum(signal / pmimo_interference(cm, params, coherent), axis=-1)


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
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be non-negative, got {beta}")
    share = rank / n_tx
    return n_rx * share / ((n_tx - 1) * share * beta + 1.0)


def emimo_snr(cm: ChannelMatrix, params: QiParams):
    """Eigen-channel protocol SNR ``trace(H H†) Ns / Nz``: a number for one
    channel, one entry per channel of a stack.

    Precoding and beamforming along the singular vectors make the branch SNRs
    add without interference, so only the summed transmissivities matter.
    """
    cm.require_physical()
    return _snr(cm.trace_power, params)


def emimo_mode_ratio(rank: int, n_rx: int) -> float:
    """Virtual-mode multiplier M_E/M = r * N_r of the eigen protocol."""
    if not (rank >= 0 and n_rx >= 1):  # "not within", so that a NaN fails
        raise ValueError("rank must be >= 0 and n_rx >= 1")
    return float(rank * n_rx)


def relative_gain(n_tx: int, rank: int, beta: float) -> float:
    """SNR ratio of the eigen protocol over the paired protocol.

    ``(N_t - 1) r beta + N_t``; approximately N_t in the quantum-illumination
    regime where beta is tiny.
    """
    if not (n_tx >= 1 and rank >= 1):  # "not within", so that a NaN fails
        raise ValueError("n_tx and rank must be >= 1")
    if not 0 <= beta < np.inf:
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
    if not 0.0 < reference_rtt <= 1.0:
        raise ValueError(f"reference_rtt must lie in (0, 1], got {reference_rtt}")
    baseline = _link_snr(reference_rtt, params)
    rows = []
    for protocol, beta in (
        (Protocol.SISO, baseline),
        (Protocol.PMIMO, pmimo_snr(cm, params)),
        (Protocol.EMIMO, emimo_snr(cm, params)),
    ):
        ratio = beta / baseline
        with np.errstate(divide="ignore"):
            log_gain = float(np.log10(ratio))
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
