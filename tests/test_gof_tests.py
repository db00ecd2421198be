import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from arnorm import (
    ArModel,
    Gaussian,
    SeriesSample,
    StatKind,
    fit_ar,
    kolmogorov_stat,
    omega2_stat,
    quantile,
    simulate_ar,
)
from arnorm.errors import DegenerateDataError
from arnorm.estimation import ResidualFit, _fit_rows
from arnorm.gof_tests import (
    GofResult,
    kolmogorov_from_transforms,
    _sorted_transforms,
    omega2_from_transforms,
    probability_transforms,
)
from arnorm.rng import substream

from conftest import upper_quantile
from oracles import eval_process, innovation_edf_gap, omega2_by_quadrature, residual_edf


def _fit_from_residuals(resid):
    return ResidualFit(beta_hat=np.empty(0), residuals=resid, mean_hat=0.0)


def _sup(fit):
    return kolmogorov_from_transforms(probability_transforms(fit))


def _omega2(fit):
    return omega2_from_transforms(probability_transforms(fit))


def _random_fit(seed, n=200):
    model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
    return fit_ar(simulate_ar(model, n=n, seed=seed))


class TestResidualEdf:
    def test_small_example(self):
        fit = _fit_from_residuals([-1.0, 0.0, 2.0])
        assert residual_edf(fit, -1.5) == 0.0
        assert residual_edf(fit, -1.0) == pytest.approx(1.0 / 3.0)
        assert residual_edf(fit, 0.0) == pytest.approx(2.0 / 3.0)
        assert residual_edf(fit, 2.0) == 1.0
        assert residual_edf(fit, 3.0) == 1.0

    def test_right_continuity_at_jumps(self):
        fit = _fit_from_residuals([1.0, 1.0, 3.0])
        assert residual_edf(fit, 1.0 - 1e-12) == 0.0
        assert residual_edf(fit, 1.0) == pytest.approx(2.0 / 3.0)  # jump counts at the point

    def test_vectorized(self):
        fit = _fit_from_residuals([-1.0, 0.0, 2.0])
        got = residual_edf(fit, np.array([-2.0, 0.0, 5.0]))
        np.testing.assert_allclose(got, [0.0, 2.0 / 3.0, 1.0])


class TestProbabilityTransforms:
    def test_sorted_unit_interval(self):
        z = probability_transforms(_random_fit(0))
        assert np.all(np.diff(z) >= 0)
        assert z[0] > 0.0 and z[-1] < 1.0

    def test_two_point_values(self):
        fit = _fit_from_residuals([1.0, -1.0])  # s_hat is exactly 1
        z = probability_transforms(fit)
        np.testing.assert_allclose(z, [ndtr(-1.0), ndtr(1.0)], rtol=1e-15)

    def test_degenerate_scale_raises(self):
        # a fit with zero residuals cannot be built, so no transform sees a
        # zero scale
        with pytest.raises(DegenerateDataError, match="^residual scale estimate is zero"):
            _fit_from_residuals(np.zeros(4))


class TestStackedTransforms:
    """The transforms and both statistics of a stack of residual rows equal,
    row by row and bit for bit, those of each row's own fit."""

    def test_rows_equal_single_fits(self):
        fits = [_random_fit(seed, n=150) for seed in range(6)]
        resid = np.array([fit.residuals for fit in fits])
        z = _sorted_transforms(resid, np.array([fit.s_hat for fit in fits]))
        sup, omega2 = kolmogorov_from_transforms(z), omega2_from_transforms(z)
        assert sup.shape == omega2.shape == (6,)
        for r, fit in enumerate(fits):
            single = probability_transforms(fit)
            np.testing.assert_array_equal(z[r], single)
            assert type(kolmogorov_from_transforms(single)) is float
            assert type(omega2_from_transforms(single)) is float
            assert sup[r] == kolmogorov_from_transforms(single)
            assert omega2[r] == omega2_from_transforms(single)

    def test_degenerate_row_raises(self):
        # the block fit refuses a row with zero residuals before any transform
        values = substream(43).normal(size=(3, 20))
        values[1] = 0.0
        with pytest.raises(DegenerateDataError, match="scale estimate is zero"):
            _fit_rows(values, 0)


class TestKolmogorovStat:
    def test_two_point_closed_form(self):
        fit = _fit_from_residuals([-1.0, 1.0])
        expected = np.sqrt(2.0) * (0.5 - ndtr(-1.0))
        assert _sup(fit) == pytest.approx(expected, abs=1e-12)

    def test_perfectly_spaced_transforms(self):
        # z_i = (2i - 1) / (2n): every gap to the comparison grid is 1/(2n)
        n = 10
        z = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert kolmogorov_from_transforms(z) == pytest.approx(np.sqrt(n) / (2.0 * n), abs=1e-15)

    def test_statistic_is_sup_of_eval_process(self):
        # the closed form must agree with brute-force evaluation of the
        # normalized empirical process on a fine grid, up to grid resolution
        fit = _random_fit(1, n=200)
        value = _sup(fit)
        grid_size = 4096
        t = np.arange(1, grid_size) / grid_size
        values = eval_process(fit, t)
        grid_sup = np.max(np.abs(values))
        assert grid_sup <= value + 1e-12
        assert value - grid_sup < np.sqrt(fit.n) / grid_size

    def test_nonnegative(self):
        for seed in range(5):
            assert _sup(_random_fit(seed)) >= 0.0


class TestOmega2Stat:
    def test_perfectly_spaced_transforms(self):
        n = 10
        z = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert omega2_from_transforms(z) == pytest.approx(1.0 / (12.0 * n), abs=1e-15)

    def test_lower_bound(self):
        for seed in range(5):
            fit = _random_fit(seed)
            assert _omega2(fit) >= 1.0 / (12.0 * fit.n)

    def test_matches_quadrature_oracle(self):
        rng = substream(20240816)
        worst = 0.0
        for case in range(50):
            n = int(rng.integers(20, 200))
            fit = _fit_from_residuals(rng.normal(scale=rng.uniform(0.5, 2.0), size=n))
            closed = _omega2(fit)
            numeric = omega2_by_quadrature(fit)
            worst = max(worst, abs(closed - numeric))
        assert worst < 1e-5


class TestInvariances:
    def test_location_invariance_exact_case(self):
        rng = substream(30)
        base = rng.integers(-8, 9, size=33).astype(float)  # n = 32 exact mean
        fits = [fit_ar(SeriesSample.from_values(base + c, p=1)) for c in (0.0, 128.0)]
        d = [_sup(f) for f in fits]
        w = [_omega2(f) for f in fits]
        assert d[0] == d[1]
        assert w[0] == w[1]

    def test_location_invariance_float_case(self, ar1_model):
        sample = simulate_ar(ar1_model, n=400, seed=31)
        fit0 = fit_ar(sample)
        fit1 = fit_ar(SeriesSample.from_values(sample.values + 9.87654321, p=1))
        assert _sup(fit1) == pytest.approx(_sup(fit0), rel=1e-10)
        assert _omega2(fit1) == pytest.approx(_omega2(fit0), rel=1e-10)

    def test_scale_equivariance_power_of_two_is_bitwise(self, ar1_model):
        sample = simulate_ar(ar1_model, n=400, seed=32)
        fit0 = fit_ar(sample)
        fit2 = fit_ar(SeriesSample.from_values(sample.values * 2.0, p=1))
        assert _sup(fit2) == _sup(fit0)
        assert _omega2(fit2) == _omega2(fit0)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_power_of_two_scale_keeps_library_bits(self, null_tables, p):
        # s_hat is formed from residuals scaled by a power of two: unscaled,
        # 2**-530 moved the sup in its fifth digit, 2**-540 flushed the
        # squares to a zero scale and 2**510 overflowed them
        model = ArModel(coeffs=(0.5, -0.3), mean=1.5, innovation=Gaussian(1.0))
        values = simulate_ar(model, n=400, seed=34).values

        def report(k):
            fit = fit_ar(SeriesSample.from_values(math.ldexp(1.0, k) * values, p))
            results = [kolmogorov_stat(fit, null_tables[StatKind.KOLMOGOROV], 0.05),
                       omega2_stat(fit, null_tables[StatKind.OMEGA2], 0.05)]
            return math.ldexp(fit.s_hat, -k), [(r.value, r.p_value) for r in results]

        base = report(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in [*range(-1000, 1021, 10), -530, 510]:
                assert report(k) == base, k

    def test_scale_equivariance_general_factor(self, ar1_model):
        sample = simulate_ar(ar1_model, n=400, seed=33)
        fit0 = fit_ar(sample)
        fit3 = fit_ar(SeriesSample.from_values(sample.values * 3.7, p=1))
        assert _sup(fit3) == pytest.approx(_sup(fit0), rel=1e-10)
        assert _omega2(fit3) == pytest.approx(_omega2(fit0), rel=1e-10)


class TestTableIntegration:
    def test_null_quantiles_match_limit_table(self, null_tables, null_pipeline_stats):
        # n = 2000 sample quantiles of the finite-n statistics against the
        # asymptotic table, both statistics, three conventional levels
        for kind in (StatKind.KOLMOGOROV, StatKind.OMEGA2):
            tol = 0.03 if kind is StatKind.KOLMOGOROV else 0.015
            for alpha in (0.10, 0.05, 0.01):
                finite_q = upper_quantile(null_pipeline_stats[kind], alpha)
                limit_q = quantile(null_tables[kind], alpha)
                assert finite_q == pytest.approx(limit_q, abs=tol), (kind, alpha)

    def test_full_result_fields(self, null_tables):
        fit = _random_fit(2, n=500)
        result = kolmogorov_stat(fit, table=null_tables[StatKind.KOLMOGOROV], alpha=0.05)
        assert 0.0 < result.p_value <= 1.0
        assert result.critical_value == quantile(null_tables[StatKind.KOLMOGOROV], 0.05)
        assert result.rejected == (result.value > result.critical_value)
        assert result.alpha == 0.05
        assert result.kind is StatKind.KOLMOGOROV

    def test_rejection_consistent_with_p_value(self, null_tables):
        # rejection by critical value must agree with small p-values except
        # right at the boundary, where the table's finite resolution decides
        for seed in range(8):
            fit = _random_fit(seed, n=300)
            result = omega2_stat(fit, table=null_tables[StatKind.OMEGA2], alpha=0.10)
            if result.p_value < 0.095:
                assert result.rejected
            elif result.p_value > 0.105:
                assert not result.rejected

    @pytest.mark.parametrize("stat, other", [(kolmogorov_stat, StatKind.OMEGA2),
                                             (omega2_stat, StatKind.KOLMOGOROV)],
                             ids=["kolmogorov_stat", "omega2_stat"])
    def test_kind_mismatch_rejected(self, null_tables, stat, other):
        fit = _random_fit(3)
        with pytest.raises(ValueError, match=f"table holds the {other.value} law"):
            stat(fit, table=null_tables[other], alpha=0.05)

    @pytest.mark.parametrize("stat", [kolmogorov_stat, omega2_stat],
                             ids=["kolmogorov_stat", "omega2_stat"])
    def test_table_must_be_a_limit_law_table(self, null_tables, stat):
        fit = _random_fit(3)
        with pytest.raises(TypeError, match="table must be a LimitLawTable"):
            stat(fit, table=null_tables[StatKind.KOLMOGOROV].samples, alpha=0.05)

    def test_alpha_requires_table(self):
        fit = _random_fit(4)
        with pytest.raises(TypeError):
            kolmogorov_stat(fit, alpha=0.05)

    def test_obvious_non_normality_rejected(self, null_tables):
        # centered exponential innovations: strongly skewed, n = 2000 should
        # reject at the 5% level essentially always
        rng = substream(40)
        resid = rng.exponential(1.0, size=2000) - 1.0
        fit = _fit_from_residuals(resid - resid.mean())
        result = kolmogorov_stat(fit, table=null_tables[StatKind.KOLMOGOROV], alpha=0.05)
        assert result.rejected
        assert result.p_value < 0.01


class TestEvalProcess:
    def test_left_tail_value(self):
        fit = _random_fit(5, n=100)
        t = 1e-8  # far below the smallest transformed residual
        assert eval_process(fit, np.array([t]))[0] == -np.sqrt(fit.n) * t

    def test_symmetric_two_point_is_zero_at_half(self):
        fit = _fit_from_residuals([-1.0, 1.0])
        assert eval_process(fit, np.array([0.5]))[0] == 0.0

    def test_matches_direct_definition(self):
        fit = _random_fit(6, n=150)
        t = np.linspace(0.01, 0.99, 53)
        out = eval_process(fit, t)
        ordered = np.sort(fit.residuals)
        edf = np.searchsorted(ordered, fit.s_hat * ndtri(t), side="right") / fit.n
        np.testing.assert_allclose(out, np.sqrt(fit.n) * (edf - t), rtol=0, atol=1e-12)

    def test_rejects_endpoints(self):
        fit = _random_fit(7)
        with pytest.raises(ValueError):
            eval_process(fit, np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            eval_process(fit, np.array([0.5, 0.4]))  # must be increasing


class TestInnovationEdfGap:
    def test_gap_shrinks_with_sample_size(self):
        model = ArModel(coeffs=(0.5,), mean=1.0, innovation=Gaussian(1.0))
        medians = {}
        for n in (200, 3200):
            gaps = []
            for rep in range(30):
                rng = substream(50, n, rep)
                eps = rng.normal(0.0, 1.0, size=n + 1 + 200)
                values = np.empty(n + 1 + 200)
                prev = 0.0
                for i, e in enumerate(eps):
                    prev = 1.0 + 0.5 * (prev - 1.0) + e
                    values[i] = prev
                sample = SeriesSample.from_values(values[-(n + 1):], p=1)
                fit = fit_ar(sample)
                gaps.append(innovation_edf_gap(fit, eps[-(n):]))
            medians[n] = float(np.median(gaps))
        assert medians[3200] < 0.75 * medians[200]

    def test_zero_when_distributions_coincide(self):
        # symmetric residuals have exact zero mean, so innovations equal to
        # the residuals plus any constant recentre onto them exactly
        fit = _fit_from_residuals([-2.0, -1.0, 1.0, 2.0])
        gap = innovation_edf_gap(fit, np.array([-2.0, -1.0, 1.0, 2.0]) + 4.0)
        assert gap == 0.0

    def test_length_mismatch_rejected(self):
        fit = _fit_from_residuals([-1.0, 1.0])
        with pytest.raises(ValueError):
            innovation_edf_gap(fit, np.array([1.0, 2.0, 3.0]))


class TestGofResult:
    def test_validation(self):
        fields = dict(kind=StatKind.KOLMOGOROV, critical_value=0.9, alpha=0.05)
        with pytest.raises(ValueError):
            GofResult(value=-0.1, p_value=0.5, **fields)
        with pytest.raises(ValueError):
            GofResult(value=0.5, p_value=0.0, **fields)
        with pytest.raises(ValueError):
            GofResult(value=0.5, p_value=1.2, **fields)
