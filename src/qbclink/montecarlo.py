"""Ensemble experiments over deterministic and double-Rayleigh channels.

For each swept channel rank the runner evaluates the paired and eigen
protocols trial by trial, records the virtual-mode ratio of each against the
SISO baseline at the reference transmissivity, and aggregates log/linear
means plus empirical CDFs.  Each draw comes from an independent substream
keyed by ``(seed, rank, trial, attempt)``, so results are bit-identical for
any worker count.

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
from itertools import chain, repeat

import numpy as np

from .channel import (
    ChannelMatrix,
    FadingSpec,
    decompose_channel,
    sample_double_rayleigh,
)
from .qi import Protocol, QiParams, _link_snr, emimo_snr, pmimo_snr

REJECTION_ABORT_FRACTION = 0.01
# Fading trials drawn, factorized and evaluated as one stack: the sweep's unit
# of work, which bounds its memory at any trial count.  Each stack has a fixed
# cost of about 0.15 ms (seeding, assembly, keys, ratios).  run_rank_sweep on
# 8x8 double-Rayleigh, ranks 1..8 unless marked, ms, the better of two
# medians (2 vCPUs):
#
#   trials          workers     64     128     256     512
#   200                1       14.4    12.6    13.3    12.3
#   200                2       26.3    23.8    23.3    24.0
#   2,000 (rank 1)     2       20.3    19.2    16.7    13.8
#   2,000              1      128.8   117.9   106.8   103.7
#   10,000             1      695.8   588.6   500.4   495.1
#   10,000             2      494.1   383.4   322.9   356.4
#
# At 200 trials 256 and 512 both make one block a rank.  Against 64, 256
# raised the peak RSS by at most 0.8 MB (and lowered it at 10,000 trials);
# 512 raised that of the rank-1 pooled sweep by a further 1 MB a process.
FADING_BLOCK = 256


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
        if len(set(self.rank_sweep)) != len(self.rank_sweep):
            raise ValueError(f"rank_sweep lists a rank more than once: {self.rank_sweep}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0.0 < self.reference_rtt < 1.0:
            raise ValueError("reference_rtt must lie in (0, 1)")
        _link_snr(self.reference_rtt, self.qi)  # the baseline every ratio divides by
        if self.channel_kind is ChannelKind.DETERMINISTIC and self.reference_rtt > 1 / self.n_tx:
            raise ValueError(f"reference_rtt must be at most 1/n_tx = {1 / self.n_tx:.6g} "
                             f"for a passive deterministic channel, got {self.reference_rtt}")


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


def _format(values) -> list:
    """Each value's ``.17g`` text: the one formatter of every sample and
    probability that the sweep writes."""
    # .tolist() gives Python floats: the same text as numpy scalars, faster
    return [f"{value:.17g}" for value in np.asarray(values, dtype=float).tolist()]


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated mode-gain statistics for one (rank, protocol) point.

    ``samples`` holds the per-trial ``log10`` mode ratios in trial order (the
    pairing needed by :func:`dominance_check`); ``cdf`` is their empirical
    distribution.  Both the mean of the log and the mean of the linear ratio
    are kept, since the fading normalization constrains the latter while
    figures usually plot the former.  ``sample_text`` is each sample's
    ``.17g`` text, made by the process that computed it; left out, it is
    formatted from ``samples``.
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
    sample_text: list | None = None

    def __post_init__(self):
        if self.sample_text is None:
            object.__setattr__(self, "sample_text", _format(self.samples))


def _ratios(linear: np.ndarray):
    """A batch's mode ratios as ``(linear, log10, text of the log10)``."""
    logs = np.log10(linear)
    return linear, logs, _format(logs)


def _aggregate(rank, protocol, parts, rejected) -> EnsembleResult:
    """One point's result from its batches' ``_ratios``, in trial order."""
    linear, logs, text = zip(*parts)
    linear = np.concatenate(linear)
    logs = np.concatenate(logs)
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
        sample_text=list(chain.from_iterable(text)),
    )


def _ratio_pair(spec: ExperimentSpec, stack: ChannelMatrix):
    """The paired and the eigen ``_ratios`` of a stack of channels; the paired
    SNR sums interferer amplitudes on fading channels, powers otherwise."""
    baseline = _link_snr(spec.reference_rtt, spec.qi)
    coherent = spec.channel_kind is ChannelKind.DOUBLE_RAYLEIGH
    return (_ratios(pmimo_snr(stack, spec.qi, coherent) / baseline),
            _ratios(emimo_snr(stack, spec.qi) / baseline))


def _fading_batch(spec: ExperimentSpec, rank: int, start: int, stop: int):
    """Evaluate trials [start, stop) of one rank point as one stack; order-
    and boundary-independent.  Returns the paired and the eigen ``_ratios``
    and the rejection count."""
    fspec = FadingSpec(spec.n_tx, spec.n_rx, rank, spec.reference_rtt, spec.seed)
    paths = np.column_stack((np.full(stop - start, rank), np.arange(start, stop)))
    stack, rejected = sample_double_rayleigh(fspec, paths)
    return (*_ratio_pair(spec, stack), int(rejected.sum()))


def _fading_points(spec: ExperimentSpec, workers: int) -> list:
    """Each rank point's ``_fading_batch`` results, in sweep and trial order.

    One job is one block of one rank: at most ``FADING_BLOCK`` trials, and at
    most ``1/workers`` of the sweep's trials, so that a sweep of at least
    ``workers`` trials has at least ``workers`` jobs.  With one worker, or
    fewer jobs than workers (fewer trials than workers), the calling process
    runs them all and builds no pool.  Otherwise it runs the first
    ``len(jobs) // workers`` jobs while one pool of ``workers - 1`` children
    serves the rest of the whole sweep, each child its share as one chunk: one
    exchange per child, since every further chunk is fed and its result read
    by the executor's manager thread, which competes with the caller's share
    for the interpreter lock.  A chunk holds no more blocks than one rank
    point has, since a child holds a chunk's results, and their pickle, at
    once: a share of several rank points goes in several chunks.  The
    ``with`` block still joins the children: an early ``shutdown(wait=False)``
    would let the sweep return with a child alive.
    """
    block = min(FADING_BLOCK, max(1, len(spec.rank_sweep) * spec.trials // workers))
    starts = range(0, spec.trials, block)
    jobs = [(rank, lo, min(lo + block, spec.trials))
            for rank in spec.rank_sweep for lo in starts]
    cut = len(jobs) // workers
    if cut in (0, len(jobs)):  # fewer jobs than workers, or one worker
        parts = [_fading_batch(spec, *job) for job in jobs]
    else:
        own, rest = jobs[:cut], jobs[cut:]
        children = workers - 1  # no more than len(rest), as len(jobs) >= workers
        with ProcessPoolExecutor(max_workers=children) as pool:
            # submitted before the caller starts its share, consumed after it
            theirs = pool.map(_fading_batch, repeat(spec), *zip(*rest),
                              chunksize=min(-(-len(rest) // children), len(starts)))
            parts = [_fading_batch(spec, *job) for job in own] + list(theirs)
    return [parts[k:k + len(starts)] for k in range(0, len(parts), len(starts))]


def run_rank_sweep(spec: ExperimentSpec, workers: int = 1) -> list:
    """Run the sweep; returns paired/eigen results per rank, in sweep order.

    ``workers`` counts the calling process: it runs its share of the fading
    trials and forks at most ``workers - 1`` children once per sweep for the
    rest.
    Results are identical for any value because every trial owns a substream
    keyed by (seed, rank, trial, attempt).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if spec.channel_kind is ChannelKind.DETERMINISTIC:
        # one evaluation per rank point, as a point of one batch
        n, eta = spec.n_tx, spec.reference_rtt
        channels = [deterministic_channel(n, rank, eta) for rank in spec.rank_sweep]
        points = [[(*_ratio_pair(spec, cm[None]), 0)] for cm in channels]
    else:
        points = _fading_points(spec, workers)

    results = []
    for rank, point in zip(spec.rank_sweep, points):
        paired, eigen, rejected = zip(*point)
        rejected = sum(rejected)
        if rejected > REJECTION_ABORT_FRACTION * spec.trials:
            raise RuntimeError(
                f"rank {rank}: {rejected} non-physical samples rejected over "
                f"{spec.trials} trials; reference_rtt={spec.reference_rtt} is "
                "unrealistically high"
            )
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
        prefix = f"{kind.value},{res.rank},{res.protocol.value},"
        lines.extend(
            f"{prefix}{trial},{text}" for trial, text in enumerate(res.sample_text)
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
    # the probabilities are counts over the trial count, alike across blocks:
    # each distinct one is formatted once per call
    probs = [res.cdf.probs.tolist() for res in results]
    distinct = list(set().union(*probs))
    prob_text = dict(zip(distinct, _format(distinct)))
    for res, block_probs in zip(results, probs):
        prefix = f"{res.rank},{res.protocol.value},"
        # each value's text is that of the first sample equal to it
        _, first = np.unique(res.samples, return_index=True)
        text = res.sample_text
        lines.extend(
            f"{prefix}{text[i]},{prob_text[prob]}"
            for i, prob in zip(first.tolist(), block_probs, strict=True)
        )
    return lines
