import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from qbclink import (
    ChannelKind,
    ExperimentSpec,
    FadingSpec,
    Protocol,
    QiParams,
    deterministic_channel,
    dominance_check,
    emimo_snr,
    empirical_cdf,
    pmimo_mode_ratio,
    pmimo_snr,
    run_rank_sweep,
    sample_double_rayleigh,
)
from qbclink import montecarlo
from qbclink.montecarlo import (
    FADING_BLOCK,
    EmpiricalCdf,
    EnsembleResult,
    _aggregate,
    _fading_batch,
    _ratios,
    cdf_csv_lines,
    raw_csv_lines,
    summary_csv_lines,
    _zadoff_chu,
)

PARAMS = QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9)


def small_spec(**overrides):
    base = dict(
        n_tx=4,
        n_rx=4,
        rank_sweep=(1, 2, 4),
        reference_rtt=1e-5,
        qi=PARAMS,
        trials=400,
        seed=11,
        channel_kind=ChannelKind.DOUBLE_RAYLEIGH,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any test that builds a process pool in montecarlo."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was constructed")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", NoPool)


class TestEmpiricalCdf:
    def test_single_sample_jumps_to_one(self):
        cdf = empirical_cdf([2.5])
        assert cdf(2.4) == 0.0
        assert cdf(2.5) == 1.0
        assert cdf(3.0) == 1.0

    def test_quartile_steps(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(cdf.probs, [0.25, 0.5, 0.75, 1.0])
        assert cdf(1.0) == 0.25
        assert cdf(2.9) == 0.5

    def test_kolmogorov_smirnov_against_normal(self):
        rng = np.random.default_rng(2024)
        samples = rng.standard_normal(10_000)
        cdf = empirical_cdf(samples)
        phi = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in cdf.values]))
        below = np.concatenate([[0.0], cdf.probs[:-1]])
        ks = max(np.max(np.abs(cdf.probs - phi)), np.max(np.abs(below - phi)))
        # 1% critical value 1.6276 / sqrt(n)
        assert ks < 1.6276 / math.sqrt(10_000)

    def test_monotone_to_one(self):
        rng = np.random.default_rng(5)
        cdf = empirical_cdf(rng.standard_normal(100))
        assert np.all(np.diff(cdf.values) > 0)
        assert np.all(np.diff(cdf.probs) > 0)
        assert cdf.probs[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestDeterministicChannel:
    def test_zadoff_chu_sums(self):
        for r in range(1, 17):
            assert abs(np.sum(_zadoff_chu(r))) == pytest.approx(np.sqrt(r), rel=1e-12)

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_symmetric_coupling(self, rank):
        n, eta = 8, 1e-5
        cm = deterministic_channel(n, rank, eta)
        assert cm.rank == rank
        assert np.allclose(cm.singular_values[:rank], np.sqrt(n * eta), rtol=1e-12)
        assert np.allclose(np.abs(np.diag(cm.matrix)) ** 2, rank / n * eta, rtol=1e-9)
        row_power = np.sum(np.abs(cm.matrix) ** 2, axis=1)
        assert np.allclose(row_power, rank * eta, rtol=1e-12)
        assert cm.trace_power == pytest.approx(rank * n * eta, rel=1e-12)

    def test_matches_ensemble_closed_form(self):
        # exact ensemble symmetry makes the realized paired SNR equal the
        # closed form when interference adds incoherently
        beta = 1e-5 * PARAMS.n_signal / PARAMS.n_thermal
        for rank in range(1, 9):
            cm = deterministic_channel(8, rank, 1e-5)
            realized = pmimo_snr(cm, PARAMS, coherent=False)
            closed = beta * pmimo_mode_ratio(8, 8, rank, beta)
            assert realized == pytest.approx(closed, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            deterministic_channel(8, 0, 1e-5)
        with pytest.raises(ValueError):
            deterministic_channel(8, 9, 1e-5)
        with pytest.raises(ValueError):
            deterministic_channel(8, 4, 0.2)  # spectral norm would pass 1


class TestRankSweep:
    def test_deterministic_sweep_is_single_shot_and_exact(self):
        spec = small_spec(channel_kind=ChannelKind.DETERMINISTIC, trials=50)
        results = run_rank_sweep(spec)
        assert len(results) == 6
        beta = spec.reference_rtt * PARAMS.n_signal / PARAMS.n_thermal
        for res in results:
            assert res.trials_used == 1
            assert res.stderr == 0.0
            if res.protocol is Protocol.EMIMO:
                assert res.mean_linear_gain == pytest.approx(res.rank * 4, rel=1e-9)
            else:
                expected = pmimo_mode_ratio(4, 4, res.rank, beta)
                assert res.mean_linear_gain == pytest.approx(expected, rel=1e-9)

    def test_fading_sweep_reproducible(self):
        spec = small_spec()
        a = run_rank_sweep(spec)
        b = run_rank_sweep(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.samples, y.samples)

    def test_worker_count_does_not_change_results(self):
        spec = small_spec(trials=200)
        serial = run_rank_sweep(spec, workers=1)
        parallel = run_rank_sweep(spec, workers=3)
        for x, y in zip(serial, parallel):
            assert np.array_equal(x.samples, y.samples)
            assert x.sample_text == y.sample_text
            assert x.rejected_samples == y.rejected_samples

    def test_pooled_sweep_joins_its_children(self):
        # the pool's exit joins every child; an early shutdown(wait=False)
        # would return with a child still alive
        run_rank_sweep(small_spec(trials=40), workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_any_pool(self, no_pool, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_rank_sweep(small_spec(trials=5), workers=workers)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected_before_any_pool(self, no_pool, seed, kind):
        with pytest.raises(ValueError, match="^seed must fit in an unsigned 64-bit integer$"):
            run_rank_sweep(small_spec(trials=5, seed=seed, channel_kind=kind), workers=2)

    def test_one_worker_builds_no_pool(self, no_pool):
        assert len(run_rank_sweep(small_spec(trials=5), workers=1)) == 6

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Runs the pool's jobs in the caller, after the caller's own share,
        and records every job, every pool's size, every map's
        ``(len(jobs), chunksize)`` and every shutdown's ``wait``."""
        record = {"jobs": [], "pools": [], "maps": [], "shutdowns": []}

        class SerialPool:
            def __init__(self, max_workers):
                record["pools"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.shutdown(wait=True)  # as the executor's own exit does
                return False

            def shutdown(self, wait=True, *, cancel_futures=False):
                record["shutdowns"].append(wait)

            def map(self, fn, spec, ranks, starts, stops, chunksize=1):
                record["maps"].append((len(ranks), chunksize))
                return map(fn, spec, ranks, starts, stops)

        real = montecarlo._fading_batch

        def recording(spec, rank, start, stop):
            record["jobs"].append((rank, start, stop))
            return real(spec, rank, start, stop)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo, "_fading_batch", recording)
        return record

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_job_is_one_block_of_one_rank(self, serial_pool, workers):
        spec = small_spec(trials=2 * FADING_BLOCK + 5)
        run_rank_sweep(spec, workers=workers)
        jobs = serial_pool["jobs"]
        starts = range(0, spec.trials, FADING_BLOCK)
        assert jobs == [(rank, lo, min(lo + FADING_BLOCK, spec.trials))
                        for rank in spec.rank_sweep for lo in starts]
        if workers == 1:
            assert serial_pool["pools"] == serial_pool["maps"] == serial_pool["shutdowns"] == []
        else:
            ((rest, chunksize),) = serial_pool["maps"]
            assert serial_pool["pools"] == [workers - 1]
            assert rest == len(jobs) - len(jobs) // workers
            # one chunk, so one exchange, per child, of no more blocks than a
            # rank point has (3): at workers=2 the one child's 5 blocks take 2
            assert (rest, chunksize) == {2: (5, 3), 3: (6, 3)}[workers]
            assert serial_pool["shutdowns"] == [True]

    @pytest.mark.parametrize("n, ranks, trials, workers, n_jobs, own, maps", [
        # the benchmark's serial sweep: one block per rank point
        (8, range(1, 9), 200, 1, 8, 8, []),
        # its pooled sweep: the caller runs 4 blocks, one child the other 4 in
        # one exchange
        (8, (1,), 2000, 2, 8, 4, [(4, 4)]),
        # fewer trials than a block: the caller still runs its half
        (4, (1,), 200, 2, 2, 1, [(1, 1)]),
        # as many trials as workers: a block for the caller, two for each child
        (4, (1,), 4, 3, 4, 1, [(3, 2)]),
        # fewer trials than workers: the caller runs them all, and forks nothing
        (4, (1,), 1, 3, 1, 1, []),
        (4, (1,), 2, 3, 2, 2, []),
    ], ids=["bench-serial", "bench-pooled", "one-block", "one-trial-each", "idle-caller",
            "two-trials-three-workers"])
    def test_blocks_shrink_to_a_share_of_the_workers(
        self, serial_pool, n, ranks, trials, workers, n_jobs, own, maps
    ):
        spec = small_spec(n_tx=n, n_rx=n, rank_sweep=tuple(ranks), trials=trials)
        results = run_rank_sweep(spec, workers=workers)
        jobs = serial_pool["jobs"]
        assert len(jobs) == n_jobs
        assert serial_pool["maps"] == maps
        rest = sum(count for count, _ in maps)
        assert len(jobs) - rest == own
        assert serial_pool["pools"] == ([workers - 1] if maps else [])
        assert serial_pool["shutdowns"] == ([True] if maps else [])
        # every rank's trials run once, in order, in contiguous blocks
        per_rank = [[job for job in jobs if job[0] == rank] for rank in spec.rank_sweep]
        for rank_jobs in per_rank:
            assert [lo for _, lo, _ in rank_jobs] == [0, *(hi for _, _, hi in rank_jobs[:-1])]
            assert rank_jobs[-1][2] == trials
        assert [r.trials_used for r in results] == [trials] * 2 * len(spec.rank_sweep)

    @pytest.mark.parametrize("reference_rtt", [1e-5, 0.04])
    def test_trial_ranges_and_blocks_do_not_change_results(self, reference_rtt):
        # 0.04 makes most rank-8 draws non-physical at least once
        spec = small_spec(n_tx=8, n_rx=8, rank_sweep=(8,), reference_rtt=reference_rtt)
        n = 2 * FADING_BLOCK + 45
        # each protocol's part is (linear, log10, text of the log10)
        paired, eigen, rejected = _fading_batch(spec, 8, 0, n)
        for k in (1, FADING_BLOCK - 1, FADING_BLOCK + 1, n - 2):
            head = _fading_batch(spec, 8, 0, k)
            tail = _fading_batch(spec, 8, k, n)
            for whole, first, second in zip((paired, eigen), head, tail):
                assert np.array_equal(whole[0], np.concatenate([first[0], second[0]]))
                assert np.array_equal(whole[1], np.concatenate([first[1], second[1]]))
                assert whole[2] == first[2] + second[2]
            assert rejected == head[2] + tail[2]
        for linear, logs, text in (paired, eigen):
            assert np.array_equal(logs, np.log10(linear))
            assert text == [f"{value:.17g}" for value in logs.tolist()]

        fspec = FadingSpec(8, 8, 8, reference_rtt, spec.seed)
        baseline = reference_rtt * PARAMS.n_signal / PARAMS.n_thermal
        rejections = 0
        for t in range(n):
            one, (rej,) = sample_double_rayleigh(fspec, [(8, t)])
            cm = one[0]
            rejections += rej
            assert paired[0][t] == pmimo_snr(cm, spec.qi) / baseline
            assert eigen[0][t] == emimo_snr(cm, spec.qi) / baseline
        assert rejected == rejections
        assert (rejected > n) == (reference_rtt == 0.04)

    def test_statistics_are_consistent(self):
        spec = small_spec(trials=300)
        for res in run_rank_sweep(spec):
            linear = 10.0**res.samples
            assert res.mean_linear_gain == pytest.approx(np.mean(linear), rel=1e-12)
            assert res.mean_log_gain == pytest.approx(np.mean(res.samples), rel=1e-12)
            assert res.stderr == pytest.approx(
                np.std(res.samples, ddof=1) / np.sqrt(res.trials_used), rel=1e-12
            )
            assert res.trials_used == 300
            assert res.cdf.probs[-1] == 1.0

    def test_excessive_rejections_abort_the_run(self):
        # reference_rtt this high makes most 2x2 draws non-physical, which
        # must abort rather than silently bias the ensemble
        spec = small_spec(
            n_tx=2, n_rx=2, rank_sweep=(2,), reference_rtt=0.3, trials=50
        )
        with pytest.raises(RuntimeError, match="rank 2"):
            run_rank_sweep(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(n_tx=4, n_rx=5)
        with pytest.raises(ValueError):
            small_spec(rank_sweep=(0,))
        with pytest.raises(ValueError):
            small_spec(rank_sweep=(5,))
        with pytest.raises(ValueError):
            small_spec(trials=0)
        with pytest.raises(ValueError):
            small_spec(rank_sweep=())

    @pytest.mark.parametrize("ranks", [(2, 2), (1, 2, 1)])
    def test_repeated_rank_rejected(self, ranks):
        with pytest.raises(ValueError, match="lists a rank more than once"):
            small_spec(rank_sweep=ranks)


class TestDominance:
    def test_fading_run_has_no_violations(self):
        results = run_rank_sweep(small_spec(trials=500))
        report = dominance_check(results)
        assert report.total_violations == 0
        by_rank = {p.rank: p for p in report.points}
        assert by_rank[1].paired_below_siso_fraction > 0.0

    def test_eigen_stochastically_dominates_paired(self):
        results = run_rank_sweep(small_spec(trials=500))
        by_rank = {}
        for res in results:
            by_rank.setdefault(res.rank, {})[res.protocol] = res
        for slot in by_rank.values():
            eigen = np.sort(slot[Protocol.EMIMO].samples)
            paired = np.sort(slot[Protocol.PMIMO].samples)
            assert np.all(eigen >= paired)

    def test_deterministic_run_has_no_violations(self):
        results = run_rank_sweep(small_spec(channel_kind=ChannelKind.DETERMINISTIC))
        assert dominance_check(results).total_violations == 0

    def test_unpaired_results_rejected(self):
        results = run_rank_sweep(small_spec(trials=50))
        with pytest.raises(ValueError):
            dominance_check(results[:-1])
        with pytest.raises(ValueError):
            dominance_check(results + [results[0]])
        short = replace(results[0], trials_used=results[0].trials_used - 1)
        with pytest.raises(ValueError, match="trial counts differ"):
            dominance_check([short, *results[1:]])


class TestCsvSchemas:
    def test_headers_and_row_counts(self):
        spec = small_spec(trials=25)
        results = run_rank_sweep(spec)
        raw = raw_csv_lines(spec.channel_kind, results)
        summary = summary_csv_lines(spec.channel_kind, results)
        cdf = cdf_csv_lines(results)
        assert raw[0] == "channel_kind,rank,protocol,trial,log10_mode_gain"
        assert summary[0] == "channel_kind,rank,protocol,mean_log_gain,stderr,mean_linear_gain"
        assert cdf[0] == "rank,protocol,value,cumprob"
        assert len(raw) == 1 + 6 * 25
        assert len(summary) == 1 + 6

    def test_each_sample_is_formatted_once(self, monkeypatch):
        formatted = []
        real = montecarlo._format

        def counted(values):
            text = real(values)
            formatted.extend(text)
            return text

        monkeypatch.setattr(montecarlo, "_format", counted)
        spec = small_spec(trials=25)
        results = run_rank_sweep(spec)
        assert len(formatted) == 6 * 25
        raw_csv_lines(spec.channel_kind, results)
        assert len(formatted) == 6 * 25
        cdf_csv_lines(results)
        distinct_probs = set().union(*(res.cdf.probs.tolist() for res in results))
        assert len(formatted) == 6 * 25 + len(distinct_probs)

    def test_hand_built_result_formats_its_samples(self):
        samples = np.log10([0.5, 2.0, 2.0])
        res = EnsembleResult(
            rank=1, protocol=Protocol.PMIMO, mean_log_gain=0.0, stderr=0.0,
            mean_linear_gain=1.5, stderr_linear=0.0, samples=samples,
            cdf=EmpiricalCdf(np.unique(samples), np.array([1 / 3, 1.0])),
            trials_used=3, rejected_samples=0,
        )
        assert res.sample_text == [f"{value:.17g}" for value in samples.tolist()]
        assert raw_csv_lines(ChannelKind.DOUBLE_RAYLEIGH, [res])[1:] == [
            f"double-rayleigh,1,pmimo,{t},{value:.17g}" for t, value in enumerate(samples)
        ]

    def test_rows_parse_back_losslessly(self):
        spec = small_spec(trials=10)
        results = run_rank_sweep(spec)
        raw = raw_csv_lines(spec.channel_kind, results)
        for res in results:
            prefix = f"{spec.channel_kind.value},{res.rank},{res.protocol.value},"
            rows = [ln for ln in raw[1:] if ln.startswith(prefix)]
            values = np.array([float(ln.split(",")[4]) for ln in rows])
            assert np.array_equal(values, res.samples)

    def test_cdf_rows_equal_per_row_formatting_with_duplicate_samples(self):
        """Each distinct probability is formatted once per call; the rows must
        stay byte for byte those of formatting every row afresh."""

        def per_row(results):
            lines = ["rank,protocol,value,cumprob"]
            for res in results:
                prefix = f"{res.rank},{res.protocol.value},"
                lines.extend(
                    f"{prefix}{value:.17g},{prob:.17g}"
                    for value, prob in zip(res.cdf.values.tolist(), res.cdf.probs.tolist())
                )
            return lines

        rng = np.random.default_rng(4)
        gains = [
            np.repeat([0.5, 2.0, 3.0], [3, 1, 4]),  # duplicates merge into one step
            rng.choice([0.25, 1.0, 7.5], size=40),
            rng.lognormal(size=40),
            rng.lognormal(size=7),  # another trial count: other probabilities
        ]
        # as one batch, and as three, so that equal samples fall in different
        # batches
        results = [
            _aggregate(rank, protocol, parts, 0)
            for rank, linear in enumerate(gains, start=1)
            for parts in ([_ratios(linear)], [_ratios(b) for b in np.array_split(linear, 3)])
            for protocol in Protocol
        ]
        results += run_rank_sweep(small_spec(trials=30))
        assert cdf_csv_lines(results) == per_row(results)
