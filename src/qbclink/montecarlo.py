"""Ensemble experiments over deterministic and double-Rayleigh channels.

For each swept channel rank the runner evaluates the paired and eigen
protocols trial by trial, records the virtual-mode ratio of each against the
SISO baseline at the reference transmissivity, and aggregates log/linear
means plus empirical CDFs.  Trials draw from independent substreams keyed by
``(seed, rank, trial)``, so results are bit-identical for any worker count.

The deterministic channel at rank r is a circulant matrix built from r equal
singular values dressed by discrete-Fourier unitaries, with the nonzero
eigenvalue phases taken from a Zadoff-Chu sequence.  That choice makes the
diagonal magnitudes and the per-receiver row powers exactly uniform
(``|h_mm|^2 = (r/N) eta``, row power ``r eta``), which is the symmetric
coupling assumed by the paired-protocol closed form; the paired protocol is
therefore evaluated with incoherent interference in this mode.  A
deterministic channel is identical in every trial, so each rank point is
evaluated once.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import (
    ChannelMatrix,
    FadingSpec,
    decompose_channel,
    sample_double_rayleigh_stack,
)
from .qi import Protocol, QiParams, emimo_snr, pmimo_snr

REJECTION_ABORT_FRACTION = 0.01
# Fading trials drawn, factorized and evaluated as one stack; bounds the
# memory of a rank point at any trial count.  On 8x8 arrays blocks of 256
# were no faster than 64 and raised the peak RSS by a further 1.3 MB.
FADING_BLOCK = 64


class ChannelKind(enum.Enum):
    DETERMINISTIC = "deterministic"
    DOUBLE_RAYLEIGH = "double-rayleigh"


@dataclass(frozen=True)
class ExperimentSpec:
    """One rank-sweep experiment.

    ``rank_sweep`` lists the tag-antenna counts (equal to the channel rank)
    to evaluate; ``reference_rtt`` is the SISO-baseline transmissivity that
    also normalizes the fading ensemble.
    """

    n_tx: int
    n_rx: int
    rank_sweep: tuple
    reference_rtt: float
    qi: QiParams
    trials: int
    seed: int
    channel_kind: ChannelKind

    def __post_init__(self):
        if self.n_tx != self.n_rx or self.n_tx < 1:
            raise ValueError(
                f"the paired protocol needs n_tx == n_rx >= 1, "
                f"got {self.n_tx}, {self.n_rx}"
            )
        cap = min(self.n_tx, self.n_rx)
        for r in self.rank_sweep:
            if not 1 <= r <= cap:
                raise ValueError(f"rank {r} outside [1, {cap}]")
        if not self.rank_sweep:
            raise ValueError("rank_sweep must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.reference_rtt < 1.0:
            raise ValueError("reference_rtt must lie in (0, 1)")

    @property
    def baseline_snr(self) -> float:
        return self.reference_rtt * self.qi.n_signal / self.qi.n_thermal


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution: P(X <= values[i]) = probs[i]."""

    values: np.ndarray
    probs: np.ndarray

    def __call__(self, x: float) -> float:
        idx = int(np.searchsorted(self.values, x, side="right"))
        return float(self.probs[idx - 1]) if idx > 0 else 0.0


def empirical_cdf(samples) -> EmpiricalCdf:
    """Empirical CDF over the given samples (duplicates merge into one step)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot build a CDF from zero samples")
    values, counts = np.unique(samples, return_counts=True)
    probs = np.cumsum(counts) / samples.size
    return EmpiricalCdf(values=values, probs=probs)


def _zadoff_chu(length: int) -> np.ndarray:
    """Unit-root-index Zadoff-Chu phases; constant-magnitude DFT of sqrt(r)."""
    j = np.arange(length)
    if length % 2 == 0:
        return np.exp(-1j * np.pi * j * j / length)
    return np.exp(-1j * np.pi * j * (j + 1) / length)


def deterministic_channel(n: int, rank: int, eta: float) -> ChannelMatrix:
    """Rank-``rank`` square channel with exactly symmetric coupling.

    All nonzero singular values equal ``sqrt(n * eta)`` so that
    ``trace(H H†) = rank * n * eta``, every diagonal entry has
    ``|h_mm|^2 = (rank / n) eta``, and every row power equals ``rank * eta``.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    if not 0.0 < eta <= 1.0 / n:
        raise ValueError(
            f"need eta in (0, 1/n] for a passive channel, got {eta} with n={n}"
        )
    grid = np.arange(n)
    fourier = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    eigenvalues = np.zeros(n, dtype=complex)
    eigenvalues[:rank] = _zadoff_chu(rank)
    h = np.sqrt(n * eta) * (fourier @ np.diag(eigenvalues) @ fourier.conj().T)
    return decompose_channel(h).require_physical()


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated mode-gain statistics for one (rank, protocol) point.

    ``samples`` holds the per-trial ``log10`` mode ratios in trial order (the
    pairing needed by :func:`dominance_check`); ``cdf`` is their empirical
    distribution.  Both the mean of the log and the mean of the linear ratio
    are kept, since the fading normalization constrains the latter while
    figures usually plot the former.
    """

    rank: int
    protocol: Protocol
    mean_log_gain: float
    stderr: float
    mean_linear_gain: float
    stderr_linear: float
    samples: np.ndarray
    cdf: EmpiricalCdf
    trials_used: int
    rejected_samples: int


def _aggregate(rank, protocol, linear, rejected) -> EnsembleResult:
    linear = np.asarray(linear, dtype=float)
    logs = np.log10(linear)
    n = linear.size

    def _stderr(x):
        return float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    return EnsembleResult(
        rank=rank,
        protocol=protocol,
        mean_log_gain=float(np.mean(logs)),
        stderr=_stderr(logs),
        mean_linear_gain=float(np.mean(linear)),
        stderr_linear=_stderr(linear),
        samples=logs,
        cdf=empirical_cdf(logs),
        trials_used=n,
        rejected_samples=rejected,
    )


def _fading_batch(spec: ExperimentSpec, rank: int, start: int, stop: int):
    """Evaluate trials [start, stop) of one rank point, ``FADING_BLOCK``
    trials per stack; order- and boundary-independent."""
    fspec = FadingSpec(spec.n_tx, spec.n_rx, rank, spec.reference_rtt, spec.seed)
    baseline = spec.baseline_snr
    paired = np.empty(stop - start)
    eigen = np.empty(stop - start)
    rejected = 0
    for lo in range(start, stop, FADING_BLOCK):
        trials = range(lo, min(lo + FADING_BLOCK, stop))
        stack, rej = sample_double_rayleigh_stack(fspec, [(rank, t) for t in trials])
        rejected += int(rej.sum())
        block = slice(lo - start, lo - start + len(trials))
        paired[block] = pmimo_snr(stack, spec.qi) / baseline
        eigen[block] = emimo_snr(stack, spec.qi) / baseline
    return paired, eigen, rejected


def _rank_point(spec: ExperimentSpec, rank: int, workers: int):
    if spec.channel_kind is ChannelKind.DETERMINISTIC:
        cm = deterministic_channel(spec.n_tx, rank, spec.reference_rtt)
        paired = np.array([pmimo_snr(cm, spec.qi, coherent=False) / spec.baseline_snr])
        eigen = np.array([emimo_snr(cm, spec.qi) / spec.baseline_snr])
        return paired, eigen, 0

    if workers <= 1:
        paired, eigen, rejected = _fading_batch(spec, rank, 0, spec.trials)
    else:
        bounds = np.unique(np.linspace(0, spec.trials, workers * 4 + 1, dtype=int))
        bounds = [int(b) for b in bounds]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(_fading_batch, repeat(spec), repeat(rank), bounds[:-1], bounds[1:])
            )
        paired = np.concatenate([p for p, _, _ in parts])
        eigen = np.concatenate([e for _, e, _ in parts])
        rejected = sum(r for _, _, r in parts)

    if rejected > REJECTION_ABORT_FRACTION * spec.trials:
        raise RuntimeError(
            f"rank {rank}: {rejected} non-physical samples rejected over "
            f"{spec.trials} trials; reference_rtt={spec.reference_rtt} is "
            "unrealistically high"
        )
    return paired, eigen, rejected


def run_rank_sweep(spec: ExperimentSpec, workers: int = 1) -> list:
    """Run the sweep; returns paired/eigen results per rank, in sweep order.

    ``workers`` only sets the process count; results are identical for any
    value because every trial owns a substream keyed by (seed, rank, trial).
    """
    results = []
    for rank in spec.rank_sweep:
        paired, eigen, rejected = _rank_point(spec, rank, workers)
        results.append(_aggregate(rank, Protocol.PMIMO, paired, rejected))
        results.append(_aggregate(rank, Protocol.EMIMO, eigen, rejected))
    return results


@dataclass(frozen=True)
class DominancePoint:
    rank: int
    trials: int
    eigen_below_paired: int
    paired_below_siso_fraction: float


@dataclass(frozen=True)
class DominanceReport:
    points: tuple

    @property
    def total_violations(self) -> int:
        return sum(p.eigen_below_paired for p in self.points)


def dominance_check(results) -> DominanceReport:
    """Compare paired/eigen mode gains draw by draw.

    Requires results that came from the same sweep, so that the trial-ordered
    samples at each rank describe the same channel draws.  Reports how often
    the eigen protocol falls below the paired one (expected never) and how
    often the paired protocol falls below the SISO baseline.
    """
    by_rank = {}
    for res in results:
        slot = by_rank.setdefault(res.rank, {})
        if res.protocol in slot:
            raise ValueError(f"duplicate {res.protocol.value} result at rank {res.rank}")
        slot[res.protocol] = res

    points = []
    for rank in sorted(by_rank):
        slot = by_rank[rank]
        if Protocol.PMIMO not in slot or Protocol.EMIMO not in slot:
            raise ValueError(f"rank {rank} is missing one protocol; results unpaired")
        paired = slot[Protocol.PMIMO]
        eigen = slot[Protocol.EMIMO]
        if paired.trials_used != eigen.trials_used:
            raise ValueError(f"rank {rank} trial counts differ; results unpaired")
        points.append(
            DominancePoint(
                rank=rank,
                trials=paired.trials_used,
                eigen_below_paired=int(np.sum(eigen.samples < paired.samples)),
                paired_below_siso_fraction=float(np.mean(paired.samples < 0.0)),
            )
        )
    return DominanceReport(points=tuple(points))


RAW_HEADER = "channel_kind,rank,protocol,trial,log10_mode_gain"
SUMMARY_HEADER = "channel_kind,rank,protocol,mean_log_gain,stderr,mean_linear_gain"
CDF_HEADER = "rank,protocol,value,cumprob"


def raw_csv_lines(kind: ChannelKind, results) -> list:
    lines = [RAW_HEADER]
    for res in results:
        # .tolist() gives Python floats: the same text as numpy scalars, faster
        prefix = f"{kind.value},{res.rank},{res.protocol.value},"
        lines.extend(
            f"{prefix}{trial},{value:.17g}"
            for trial, value in enumerate(res.samples.tolist())
        )
    return lines


def summary_csv_lines(kind: ChannelKind, results) -> list:
    lines = [SUMMARY_HEADER]
    for res in results:
        lines.append(
            f"{kind.value},{res.rank},{res.protocol.value},"
            f"{res.mean_log_gain:.17g},{res.stderr:.17g},{res.mean_linear_gain:.17g}"
        )
    return lines


def cdf_csv_lines(results) -> list:
    lines = [CDF_HEADER]
    for res in results:
        prefix = f"{res.rank},{res.protocol.value},"
        lines.extend(
            f"{prefix}{value:.17g},{prob:.17g}"
            for value, prob in zip(res.cdf.values.tolist(), res.cdf.probs.tolist())
        )
    return lines
