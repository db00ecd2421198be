import numpy as np
import pytest
from scipy.linalg import cho_solve, toeplitz

from arnorm import ArModel, Gaussian, SeriesSample, fit_ar, simulate_ar
from arnorm.ar_process import LaplaceLaw, Mixture
from arnorm.estimation import (
    MAX_ORDER,
    DegenerateDataError,
    ResidualFit,
    _centered_rows,
    _fit_rows,
    _ols_rows,
    _residual_rows,
)
from arnorm.gof_tests import probability_transforms
from arnorm.rng import substream

from conftest import AR_COEFFS, LAST_BITS, OFFSET_RAMP, POWER_OF_TWO_GAP
from oracles import autocov_matrix, fit_by_design_matrix, normal_equations_by_design_matrix


def _residuals(values, beta):
    """The fit's centering and lag regression of one series on a given ``beta``."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    centered, mean = _centered_rows(np.asarray(values, dtype=float)[None], beta.size)
    eps = _residual_rows(centered, beta[None])[0]
    return ResidualFit(beta_hat=beta, residuals=eps, mean_hat=float(mean[0]))


class TestCenterSeries:
    # centering is private to the fit; _residuals() shows it through mean_hat

    def test_small_example(self):
        fit = _residuals([3.0, 1.0, 2.0, 3.0], [1.0])
        assert fit.mean_hat == 2.0  # mean of the n = 3 working values only
        # centered values [1, -1, 0, 1], differenced
        np.testing.assert_array_equal(fit.residuals, [-2.0, 1.0, 1.0])

    def test_constant_series_centers_to_zero(self):
        # its zero residuals are refused by ResidualFit, so the steps are
        # checked directly
        centered, mean = _centered_rows(np.full((1, 7), 5.25), 2)
        np.testing.assert_array_equal(mean, [5.25])
        np.testing.assert_array_equal(centered, np.zeros((1, 7)))
        eps = _residual_rows(centered, np.array([[0.3, -0.2]]))
        np.testing.assert_array_equal(eps, np.zeros((1, 5)))

    def test_presample_values_share_the_same_mean(self):
        # the pre-sample value is centered by the working-sample mean 2,
        # not by a mean of its own: centered values are [98, -1, 1]
        fit = _residuals([100.0, 1.0, 3.0], [1.0])
        assert fit.mean_hat == 2.0
        np.testing.assert_array_equal(fit.residuals, [-99.0, 2.0])


class TestOlsEstimate:
    def test_noiseless_geometric_series_recovers_coefficient(self):
        # v_t = -v_{t-1} (ratio -1) with n = 16 working values: the working
        # mean is exactly 0 and the Gram matrix 16, so the solve is exact
        values = (-1.0) ** np.arange(17.0)
        beta_hat = _ols_rows(_centered_rows(values[None], 1)[0], 1)
        np.testing.assert_array_equal(beta_hat, [[-1.0]])
        # its residuals are exactly zero, so the fit refuses the series
        with pytest.raises(DegenerateDataError, match="^residual scale estimate is zero"):
            fit_ar(SeriesSample.from_values(values, p=1))

    def test_order_zero_has_no_parameters(self):
        assert fit_ar(SeriesSample.from_values([1.0, -1.0], p=0)).beta_hat.shape == (0,)

    def test_monte_carlo_consistency(self):
        model = ArModel(coeffs=(0.6,), mean=1.0, innovation=Gaussian(1.0))
        for seed in (0, 1, 2):
            beta_hat = fit_ar(simulate_ar(model, n=10_000, seed=seed)).beta_hat
            assert abs(beta_hat[0] - 0.6) < 0.05

    def test_error_halves_when_n_quadruples(self):
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
        errors = {}
        for n in (1000, 4000):
            errs = []
            for rep in range(200):
                sample = simulate_ar(model, n=n, seed=substream(777, n, rep))
                errs.append(abs(fit_ar(sample).beta_hat[0] - 0.5))
            errors[n] = np.median(errs)
        ratio = errors[4000] / errors[1000]
        assert 0.35 < ratio < 0.7  # root-n rate: ideal ratio is 0.5

    def test_constant_series_is_singular(self):
        sample = SeriesSample.from_values(np.full(30, 2.0), p=1)
        with pytest.raises(DegenerateDataError, match="^singular normal equations"):
            fit_ar(sample)

    @pytest.mark.parametrize(
        "values, p",
        [(np.arange(41.0), 2), (1e200 * np.arange(41.0), 2), (1e-200 * np.arange(41.0), 2),
         (np.append(np.tile([1.0, -1.0], 20), 1.0), 2),
         # noiseless against the level: at order 0 the residuals are the centred series
         (OFFSET_RAMP, 2), (LAST_BITS, 0), (LAST_BITS, 1), (POWER_OF_TWO_GAP, 0)],
        ids=["ramp", "ramp-1e200", "ramp-1e-200", "alternating", "offset-ramp",
             "last-bits-p0", "last-bits-p1", "power-of-two-gap"],
    )
    def test_noiseless_series_is_refused(self, values, p):
        # exact at the order: the residuals are rounding noise, and a test on
        # them would turn on their last bits
        with pytest.raises(DegenerateDataError, match="^residuals are rounding noise: "):
            fit_ar(SeriesSample.from_values(values, p))

    @pytest.mark.parametrize("k", [-500, 0, 500])
    def test_noise_floor_is_relative_to_largest_magnitude(self, k):
        # 2**k * (0.75 +- d) scales to 0.75 +- d, whose residual scale at
        # order 0 is d exactly: the floor 2**-40 lies between the two cases
        signs = (-1.0) ** np.arange(50)
        fit = fit_ar(SeriesSample.from_values(2.0**k * (0.75 + 2.0**-39 * signs), 0))
        assert fit.s_hat == 2.0 ** (k - 39)
        with pytest.raises(DegenerateDataError, match="^residuals are rounding noise: "):
            fit_ar(SeriesSample.from_values(2.0**k * (0.75 + 2.0**-41 * signs), 0))

    def test_noise_message_names_the_power_of_two(self):
        # the refused scale exceeds 2**-40 of the largest value, so the
        # message must name the power of two above it
        scale = 1.5 * 2.0**-41
        assert scale > 2.0**-40 * np.max(np.abs(POWER_OF_TWO_GAP))
        message = r"at most 2\*\*-40 of the power of two above the series' largest magnitude"
        with pytest.raises(DegenerateDataError, match=message):
            fit_ar(SeriesSample.from_values(POWER_OF_TWO_GAP, 0))

    def test_order_above_limit_rejected(self):
        values = substream(4).normal(size=MAX_ORDER + 40)
        message = f"^p must not exceed {MAX_ORDER}, got {MAX_ORDER + 1}$"
        with pytest.raises(ValueError, match=message):
            fit_ar(SeriesSample.from_values(values, p=MAX_ORDER + 1))


class TestResiduals:
    def test_tiny_example(self):
        fit = _residuals([1.0, 2.0, 3.0], [1.0])
        np.testing.assert_array_equal(fit.residuals, [1.0, 1.0])
        assert fit.s_hat == 1.0
        assert fit.n == 2 and fit.order == 1

    def test_zero_coefficients_return_centered_values(self):
        values = np.array([0.5, -1.5, 2.5, -1.5])
        fit = _residuals(values, [0.0])
        np.testing.assert_array_equal(fit.residuals, values[1:] - fit.mean_hat)

    def test_scale_estimate_is_mean_square(self):
        values = substream(6).normal(size=50)
        fit = _residuals(values, [0.3, -0.2])
        assert fit.s_hat == float(np.sqrt(np.mean(np.square(fit.residuals))))

    @pytest.mark.parametrize(
        "residuals, message",
        [(np.empty(0), "^residuals must be nonempty$"),
         (np.array([1.0, np.inf, -1.0]), "^residuals must be finite, got inf at index 1$"),
         (np.array([1.0, np.nan, -1.0]), "^residuals must be finite, got nan at index 1$")],
        ids=["empty", "inf", "nan"],
    )
    def test_bad_residuals_rejected(self, residuals, message):
        with pytest.raises(ValueError, match=message):
            ResidualFit(beta_hat=np.empty(0), residuals=residuals, mean_hat=0.0)

    @pytest.mark.parametrize(
        "bad, message",
        [(dict(beta_hat=[np.nan]), "^beta_hat must be finite, got nan at index 0$"),
         (dict(beta_hat=[[0.5, 0.1]]), "^beta_hat must be a one-dimensional vector$"),
         (dict(mean_hat=float("nan")), "^mean_hat must be finite, got nan$"),
         (dict(residuals=[[1.0, 2.0], [3.0, 4.0]]),
          "^residuals must be a one-dimensional vector$")],
        ids=["nan-beta", "matrix-beta", "nan-mean", "matrix-residuals"],
    )
    def test_bad_fields_rejected(self, bad, message):
        fields = dict(beta_hat=[0.5], residuals=[1.0, 2.0, 3.0], mean_hat=0.0)
        with pytest.raises(ValueError, match=message):
            ResidualFit(**(fields | bad))

    def test_scale_estimate_is_not_an_argument(self):
        with pytest.raises(TypeError):
            ResidualFit(beta_hat=np.empty(0), residuals=np.array([1.0, -1.0]), mean_hat=0.0,
                        s_hat=1.0)


class TestFitAr:
    def test_pipeline_matches_manual_steps(self, ar1_model):
        sample = simulate_ar(ar1_model, n=300, seed=9)
        fit = fit_ar(sample)
        centered, _ = _centered_rows(sample.values[None], 1)
        manual = _residuals(sample.values, _ols_rows(centered, 1)[0])
        np.testing.assert_array_equal(fit.beta_hat, manual.beta_hat)
        # the regression has no intercept: the fit recentres its residuals
        recentred = manual.residuals - np.mean(manual.residuals)
        np.testing.assert_array_equal(fit.residuals, recentred)
        assert abs(np.mean(fit.residuals)) < 1e-15 * fit.s_hat
        assert fit.mean_hat == float(np.mean(sample.values[1:]))

    def test_scale_consistency(self):
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(2.0))
        for seed in (0, 1, 2):
            fit = fit_ar(simulate_ar(model, n=10_000, seed=seed))
            assert abs(fit.s_hat**2 - 4.0) < 0.2

    def test_mean_shift_invariance_exact_case(self):
        # integer series, power-of-two length: the sample mean and every
        # later step are exact in binary floating point, so adding an
        # integer constant must reproduce bitwise-identical results
        rng = substream(10)
        base = rng.integers(-8, 9, size=17).astype(float)  # p = 1, n = 16
        shifted = base + 64.0
        fit0 = fit_ar(SeriesSample.from_values(base, p=1))
        fit1 = fit_ar(SeriesSample.from_values(shifted, p=1))
        np.testing.assert_array_equal(fit0.beta_hat, fit1.beta_hat)
        np.testing.assert_array_equal(fit0.residuals, fit1.residuals)
        assert fit0.s_hat == fit1.s_hat
        assert fit1.mean_hat == fit0.mean_hat + 64.0

    def test_huge_scale_fit_matches_unscaled(self, ar1_model):
        # the Gram matrix and the squared residuals of a 1e200-scale series
        # overflow; the fit and the scale estimate work on values scaled by
        # a power of two, which is exact
        x = simulate_ar(ar1_model, n=400, seed=21).values
        base = fit_ar(SeriesSample.from_values(x, p=1))
        with np.errstate(all="raise"):
            exact = fit_ar(SeriesSample.from_values(2.0**600 * x, p=1))
            huge = fit_ar(SeriesSample.from_values(1e200 * x, p=1))
            transforms = probability_transforms(huge)
        np.testing.assert_array_equal(exact.beta_hat, base.beta_hat)
        assert exact.s_hat == 2.0**600 * base.s_hat
        np.testing.assert_allclose(huge.beta_hat, base.beta_hat, rtol=0, atol=1e-12)
        assert huge.s_hat == pytest.approx(1e200 * base.s_hat, rel=1e-12)
        np.testing.assert_allclose(transforms, probability_transforms(base), rtol=0, atol=1e-12)

    def test_mean_shift_invariance_float_case(self, ar1_model):
        sample = simulate_ar(ar1_model, n=500, seed=12)
        fit0 = fit_ar(sample)
        fit1 = fit_ar(SeriesSample.from_values(sample.values + 1234.56789, p=1))
        np.testing.assert_allclose(fit1.beta_hat, fit0.beta_hat, rtol=0, atol=1e-10)
        scale = np.max(np.abs(fit0.residuals))
        np.testing.assert_allclose(fit1.residuals, fit0.residuals, rtol=0, atol=1e-10 * scale)
        assert fit1.s_hat**2 == pytest.approx(fit0.s_hat**2, rel=1e-10)


class TestStackedFit:
    """``_fit_rows`` fits a block of series at once; each row must equal the
    single-series fit bit for bit, whatever block it sits in, and the
    single-series fit must equal the design-matrix oracle."""

    @pytest.mark.parametrize("p", sorted(AR_COEFFS))
    @pytest.mark.parametrize(
        "innovation",
        [Gaussian(1.0), LaplaceLaw(2.0), Mixture(sigma0=1.0, h=Gaussian(3.0), n=400)],
        ids=["gaussian", "laplace", "mixture"],
    )
    # n = 9000 and 50,000 rows are longer than numpy's 8192-value buffer
    @pytest.mark.parametrize("n, rows", [(30, 9), (400, 5), (9000, 2), (50_000, 2)])
    def test_rows_equal_single_series_fits(self, p, innovation, n, rows):
        model = ArModel(coeffs=AR_COEFFS[p], mean=-2.5, innovation=innovation)
        samples = [simulate_ar(model, n, seed=substream(40, r)) for r in range(rows)]
        beta, resid, mean, exponent, scale = _fit_rows(np.array([s.values for s in samples]), p)
        assert beta.shape == (rows, p) and resid.shape == (rows, n)
        for r, sample in enumerate(samples):
            fit = fit_ar(sample)
            np.testing.assert_array_equal(beta[r], fit.beta_hat)
            np.testing.assert_array_equal(np.ldexp(resid[r], exponent[r]), fit.residuals)
            assert np.ldexp(mean[r], exponent[r]) == fit.mean_hat
            assert np.ldexp(scale[r], exponent[r]) == fit.s_hat

    @pytest.mark.parametrize("p", sorted(AR_COEFFS))
    @pytest.mark.parametrize("n", [30, 2000, 9000])
    def test_single_fit_matches_design_matrix_oracle(self, p, n):
        model = ArModel(coeffs=AR_COEFFS[p], mean=3.0, innovation=LaplaceLaw(2.0))
        sample = simulate_ar(model, n, seed=substream(44, p))
        fit = fit_ar(sample)
        beta, resid = fit_by_design_matrix(sample)
        np.testing.assert_array_equal(fit.beta_hat, beta)
        np.testing.assert_array_equal(fit.residuals, resid)

    @pytest.mark.parametrize("n, rows", [(30, 9), (2000, 5)])
    def test_rows_equal_single_series_fits_at_max_order(self, n, rows):
        # numpy solves each matrix of the stack on its own, at every order
        model = ArModel(coeffs=np.full(MAX_ORDER, 0.04), mean=-2.5, innovation=LaplaceLaw(2.0))
        samples = [simulate_ar(model, n, seed=substream(43, r)) for r in range(rows)]
        block = np.array([s.values for s in samples])
        beta, resid, _, exponent, _ = _fit_rows(block, MAX_ORDER)
        for r, sample in enumerate(samples):
            fit = fit_ar(sample)
            np.testing.assert_array_equal(beta[r], fit.beta_hat)
            np.testing.assert_array_equal(np.ldexp(resid[r], exponent[r]), fit.residuals)

    @pytest.mark.parametrize(
        "row, p, message",
        [(np.ones(60), 1, "singular normal equations"),
         (np.ones(60), 2, "singular normal equations"),
         (np.ones(60), 5, "singular normal equations"),
         (np.ones(60), 0, "residual scale estimate is zero"),
         (np.arange(60.0), 2, "residuals are rounding noise")],
        ids=["1", "2", "5", "p0-zero-scale", "ramp-p2-noise"],
    )
    def test_constant_row_raises_as_its_single_fit(self, row, p, message):
        # also a ramp, whose order-2 residuals are rounding noise
        block = substream(41).normal(size=(4, 60))
        block[2] = row
        with pytest.raises(DegenerateDataError, match=f"^{message}") as single:
            fit_ar(SeriesSample.from_values(block[2], p))
        with pytest.raises(DegenerateDataError) as stacked:
            _fit_rows(block, p)
        assert str(stacked.value) == str(single.value)

    def test_non_finite_row_rejected(self):
        # a row enters the fit as a SeriesSample, which names the bad value
        # before any arithmetic on it, and so before any numpy warning
        row = substream(42).normal(size=60)
        row[5], row[9] = np.inf, -np.inf
        for p in (0, 1):
            with pytest.raises(ValueError, match="^values must be finite, got inf at index 5$"):
                fit_ar(SeriesSample.from_values(row, p))
        with pytest.raises(ValueError, match="^values must be finite, got nan at index 1$"):
            fit_ar(SeriesSample.from_values([1.0, np.nan, 2.0, 3.0], 1))


class TestNormalEquationsSolve:
    """The coefficients solve the normal equations stably: on the same Gram
    matrix they agree with ``scipy.linalg.cho_solve`` as far as backward
    stability allows."""

    # normwise backward error of a Cholesky solve: a small multiple of p * u
    BACKWARD_BOUND = 8 * np.finfo(float).eps / 2

    @pytest.mark.parametrize("root", [0.5, 0.99])
    @pytest.mark.parametrize("p", [1, 2, 5, MAX_ORDER])
    def test_backward_error_against_cho_solve(self, p, root):
        model = ArModel(coeffs=(root,), mean=3.0, innovation=LaplaceLaw(2.0))
        values = simulate_ar(model, 2000, seed=substream(46, p)).values
        sample = SeriesSample.from_values(values, p)
        gram, rhs = normal_equations_by_design_matrix(sample)
        beta = fit_ar(sample).beta_hat
        reference = cho_solve((np.linalg.cholesky(gram), True), rhs)

        def backward_error(x):
            scale = np.linalg.norm(gram, np.inf) * np.linalg.norm(x, np.inf)
            return np.linalg.norm(rhs - gram @ x, np.inf) / (scale + np.linalg.norm(rhs, np.inf))

        bound = p * self.BACKWARD_BOUND
        assert backward_error(reference) <= bound
        assert backward_error(beta) <= bound
        # two solutions within the backward bound differ by at most twice
        # the bound times the condition number, to first order
        kappa = np.linalg.cond(gram, np.inf)
        np.testing.assert_allclose(beta, reference, rtol=0,
                                   atol=2 * bound * kappa * np.linalg.norm(reference, np.inf))


class TestAutocovMatrix:
    def test_ar1_closed_form(self):
        k = autocov_matrix(np.array([0.5]), sigma0=1.0)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_white_noise_diagonal(self):
        k = autocov_matrix(np.array([0.0]), sigma0=2.0)
        assert k[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_ar2_against_yule_walker(self):
        # independent oracle: solve the Yule-Walker system for the first two
        # autocorrelations, then scale by the implied variance
        b1, b2, sigma0 = 0.5, 0.25, 1.3
        rho1 = b1 / (1.0 - b2)
        rho2 = b1 * rho1 + b2
        k0 = sigma0**2 / (1.0 - b1 * rho1 - b2 * rho2)
        expected = toeplitz([k0, k0 * rho1])
        k = autocov_matrix(np.array([b1, b2]), sigma0=sigma0)
        np.testing.assert_allclose(k, expected, rtol=1e-10)

    @pytest.mark.parametrize("coeffs", [(0.9,), (-0.7,), (1.2, -0.4), (0.2, 0.3), (0.1, 0.1, 0.5)])
    def test_positive_definite_symmetric_toeplitz(self, coeffs):
        k = autocov_matrix(np.array(coeffs), sigma0=1.0)
        np.testing.assert_array_equal(k, k.T)
        first = k[0]
        np.testing.assert_allclose(k, toeplitz(first), rtol=1e-12)
        assert np.min(np.linalg.eigvalsh(k)) > 0

    def test_order_zero_is_empty(self):
        k = autocov_matrix(np.empty(0), sigma0=1.0)
        assert k.shape == (0, 0)

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError):
            autocov_matrix(np.array([1.0]), sigma0=1.0)
