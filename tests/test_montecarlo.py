import math

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
    pmimo_snr_ensemble,
    run_rank_sweep,
    sample_double_rayleigh_stack,
)
from qbclink.montecarlo import (
    FADING_BLOCK,
    _fading_batch,
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
            closed = pmimo_snr_ensemble(8, 8, rank, beta)
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
        beta = spec.baseline_snr
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
            assert x.rejected_samples == y.rejected_samples

    @pytest.mark.parametrize("reference_rtt", [1e-5, 0.04])
    def test_trial_ranges_and_blocks_do_not_change_results(self, reference_rtt):
        # 0.04 makes most rank-8 draws non-physical at least once
        spec = small_spec(n_tx=8, n_rx=8, rank_sweep=(8,), reference_rtt=reference_rtt)
        n = 2 * FADING_BLOCK + 45
        paired, eigen, rejected = _fading_batch(spec, 8, 0, n)
        for k in (1, FADING_BLOCK - 1, FADING_BLOCK + 1, n - 2):
            head = _fading_batch(spec, 8, 0, k)
            tail = _fading_batch(spec, 8, k, n)
            assert np.array_equal(paired, np.concatenate([head[0], tail[0]]))
            assert np.array_equal(eigen, np.concatenate([head[1], tail[1]]))
            assert rejected == head[2] + tail[2]

        fspec = FadingSpec(8, 8, 8, reference_rtt, spec.seed)
        rejections = 0
        for t in range(n):
            one, (rej,) = sample_double_rayleigh_stack(fspec, [(8, t)])
            cm = one[0]
            rejections += rej
            assert paired[t] == pmimo_snr(cm, spec.qi) / spec.baseline_snr
            assert eigen[t] == emimo_snr(cm, spec.qi) / spec.baseline_snr
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

    def test_rows_parse_back_losslessly(self):
        spec = small_spec(trials=10)
        results = run_rank_sweep(spec)
        raw = raw_csv_lines(spec.channel_kind, results)
        for res in results:
            prefix = f"{spec.channel_kind.value},{res.rank},{res.protocol.value},"
            rows = [ln for ln in raw[1:] if ln.startswith(prefix)]
            values = np.array([float(ln.split(",")[4]) for ln in rows])
            assert np.array_equal(values, res.samples)
