import csv
import io

import numpy as np
import pytest

from arnorm import (
    ArModel,
    ExperimentSpec,
    Gaussian,
    LaplaceLaw,
    Mixture,
    PowerReport,
    PowerRow,
    StatKind,
    pipeline_statistics,
    run_power_study,
    run_size_study,
    write_power_csv,
)

SUP = StatKind.KOLMOGOROV
BOTH = (SUP, StatKind.OMEGA2)


def _size_spec(**overrides):
    base = dict(
        model=ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0)),
        n=400,
        n_reps=400,
        alpha=0.05,
        seed=100,
        grid_size=128,
        limit_reps=20_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _power_spec(scale=2.0, n=400, **overrides):
    mixture = Mixture(sigma0=1.0, h=Gaussian(scale), n=n)
    base = dict(
        model=ArModel(coeffs=(0.5,), mean=0.0, innovation=mixture),
        n=n,
        n_reps=400,
        alpha=0.05,
        seed=200,
        grid_size=128,
        limit_reps=20_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def half_level_stats(ar1_model):
    # one long pipeline run shared by the half-level checks below
    return pipeline_statistics(ar1_model, 2000, BOTH, 4000, seed=900)


class TestPipelineStatistics:
    def test_deterministic(self, ar1_model):
        a = pipeline_statistics(ar1_model, 200, BOTH, 40, seed=1)
        b = pipeline_statistics(ar1_model, 200, BOTH, 40, seed=1)
        for kind in BOTH:
            np.testing.assert_array_equal(a[kind], b[kind])

    def test_replications_use_independent_substreams(self, ar1_model):
        # each replication draws from its own substream, so a shorter run is
        # a prefix of a longer one
        short = pipeline_statistics(ar1_model, 200, BOTH, 20, seed=2)
        long = pipeline_statistics(ar1_model, 200, BOTH, 40, seed=2)
        for kind in BOTH:
            np.testing.assert_array_equal(short[kind], long[kind][:20])

    def test_worker_count_invariance(self, ar1_model):
        serial = pipeline_statistics(ar1_model, 150, BOTH, 30, seed=3, workers=1)
        parallel = pipeline_statistics(ar1_model, 150, BOTH, 30, seed=3, workers=3)
        for kind in BOTH:
            np.testing.assert_array_equal(serial[kind], parallel[kind])

    def test_statistics_are_positive(self, ar1_model):
        stats = pipeline_statistics(ar1_model, 200, BOTH, 30, seed=4)
        for kind in BOTH:
            assert np.all(stats[kind] > 0.0)


class TestSizeStudy:
    def test_rejection_rate_near_level(self):
        reports = run_size_study(_size_spec(), BOTH)
        for kind in BOTH:
            report = reports[kind]
            assert abs(report.empirical_rejection_rate - 0.05) < 0.04
            assert report.asymptotic_power == 0.05
            assert report.asymptotic_stderr == 0.0

    @pytest.mark.parametrize("kind", BOTH, ids=lambda k: k.value)
    def test_rejection_rate_at_half_level(self, kind, null_tables, half_level_stats):
        # alpha = 0.5 puts the critical value at the median of the limit law,
        # where the density is high and any displacement between the finite-n
        # law and the table is amplified into a rate bias.  A sup table taken
        # over the grid points alone, without the continuity correction, sits
        # low and puts the sup statistic's rate near 0.56 at n = 500, 2000 and
        # 8000 alike: a table defect, not a finite-n effect.
        from arnorm import quantile

        critical = quantile(null_tables[kind], 0.5)
        rate = float(np.mean(half_level_stats[kind] > critical))
        assert abs(rate - 0.5) <= 0.04, f"{kind.value}: rate {rate:.4f}"

    def test_iid_case(self):
        spec = _size_spec(
            model=ArModel(coeffs=(), mean=2.0, innovation=Gaussian(1.5)), n=300
        )
        report = run_size_study(spec, (SUP,))[SUP]
        assert abs(report.empirical_rejection_rate - 0.05) < 0.04

    def test_requires_gaussian_innovation(self):
        spec = _power_spec()
        with pytest.raises(ValueError):
            run_size_study(spec, BOTH)

    def test_stderr_matches_binomial_formula(self):
        report = run_size_study(_size_spec(), (SUP,))[SUP]
        rate = report.empirical_rejection_rate
        expected = np.sqrt(rate * (1.0 - rate) / report.n_reps)
        assert report.mc_stderr == pytest.approx(expected, rel=1e-12)

    def test_keep_statistics_roundtrip(self):
        spec = _size_spec(n_reps=120)
        report = run_size_study(spec, (SUP,), keep_statistics=True)[SUP]
        assert report.statistics.shape == (120,)
        rate = np.mean(report.statistics > report.critical_value)
        assert rate == pytest.approx(report.empirical_rejection_rate)

    def test_stderr_consistent_with_batch_spread(self):
        # split the kept statistics into 10 batches; the spread of batch
        # rejection rates should be on the scale the binomial stderr predicts
        report = run_size_study(
            _size_spec(n_reps=1000), (SUP,), keep_statistics=True
        )[SUP]
        rejected = report.statistics > report.critical_value
        batch_rates = rejected.reshape(10, 100).mean(axis=1)
        batch_se = np.std(batch_rates, ddof=1) / np.sqrt(10)
        assert 0.2 * report.mc_stderr < batch_se < 5.0 * report.mc_stderr


class TestPowerStudy:
    def test_basic_report(self):
        reports = run_power_study(_power_spec(), BOTH)
        for kind in BOTH:
            report = reports[kind]
            assert 0.0 <= report.empirical_rejection_rate <= 1.0
            assert 0.0 <= report.asymptotic_power <= 1.0
            assert report.asymptotic_stderr > 0.0
            assert report.critical_value > 0.0

    def test_power_beats_level_for_strong_alternative(self):
        report = run_power_study(_power_spec(scale=3.0), (SUP,))[SUP]
        assert report.empirical_rejection_rate > 0.05 + 5.0 * report.mc_stderr

    def test_requires_mixture_innovation(self):
        with pytest.raises(ValueError):
            run_power_study(_size_spec(), BOTH)

    def test_mixture_coupling_enforced(self):
        # mixture built for one n must not silently drive an experiment at
        # another n: the contamination weight would be wrong
        mixture = Mixture(sigma0=1.0, h=Gaussian(2.0), n=500)
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=mixture)
        spec = ExperimentSpec(
            model=model, n=400, n_reps=400, alpha=0.05, seed=0,
        )
        with pytest.raises(ValueError, match="coupled"):
            run_power_study(spec, BOTH)

    def test_null_mixture_power_near_level(self):
        report = run_power_study(_power_spec(scale=1.0, n_reps=500), (SUP,))[SUP]
        assert abs(report.empirical_rejection_rate - 0.05) < 0.04
        assert abs(report.asymptotic_power - 0.05) < 0.01

    def test_worker_count_invariance(self):
        spec = _power_spec(n_reps=120, limit_reps=5000)
        serial = run_power_study(spec, BOTH, workers=1)
        parallel = run_power_study(spec, BOTH, workers=2)
        for kind in BOTH:
            assert serial[kind].empirical_rejection_rate == parallel[kind].empirical_rejection_rate
            assert serial[kind].asymptotic_power == parallel[kind].asymptotic_power
            assert serial[kind].critical_value == parallel[kind].critical_value

    def test_finite_n_convergence_report(self, capsys):
        # soft evidence, reported rather than asserted: the gap between the
        # finite-n rejection rate and its limit should tend to shrink in n
        gaps = {}
        for n in (300, 1200):
            medians = []
            for seed in (0, 1, 2):
                spec = _power_spec(
                    scale=2.0, n=n, n_reps=150, seed=seed,
                    grid_size=128, limit_reps=10_000,
                )
                report = run_power_study(spec, (SUP,))[SUP]
                medians.append(
                    abs(report.empirical_rejection_rate - report.asymptotic_power)
                )
            gaps[n] = float(np.median(medians))
        print(f"[soft] finite-n power gap by n: {gaps}")
        for gap in gaps.values():
            assert 0.0 <= gap <= 1.0  # shape only; the trend is informational


class TestValidation:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            _size_spec(alpha=0.0)

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            _size_spec(n_reps=50)

    def test_series_length(self):
        with pytest.raises(ValueError):
            _size_spec(n=1)

    def test_kind_coerced_from_string(self):
        reports = run_size_study(_size_spec(n_reps=100, limit_reps=1000), ("omega2",))
        assert list(reports) == [StatKind.OMEGA2]
        assert reports[StatKind.OMEGA2].statistic_kind is StatKind.OMEGA2


class TestCsvOutput:
    def _example_rows(self):
        report = PowerReport(
            statistic_kind=StatKind.KOLMOGOROV,
            empirical_rejection_rate=0.314,
            mc_stderr=0.01,
            asymptotic_power=0.35,
            asymptotic_stderr=0.002,
            critical_value=0.8826,
            n_reps=1000,
        )
        return [PowerRow.from_report(2000, "gauss-scale:2.0", 0.05, 7, report)]

    def test_row_from_report(self):
        row = self._example_rows()[0]
        assert row.n == 2000
        assert row.statistic == "kolmogorov"
        assert row.empirical_power == 0.314
        assert row.n_reps == 1000 and row.seed == 7

    def test_csv_shape_and_values(self):
        buf = io.StringIO()
        write_power_csv(self._example_rows(), file=buf, header_comments=("test",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# test"
        reader = csv.DictReader(line for line in lines if not line.startswith("#"))
        records = list(reader)
        assert len(records) == 1
        rec = records[0]
        assert rec["alternative"] == "gauss-scale:2.0"
        # floats are written with repr, so they parse back exactly
        assert float(rec["empirical_power"]) == 0.314
        assert float(rec["critical_value"]) == 0.8826
        assert int(rec["n_reps"]) == 1000
