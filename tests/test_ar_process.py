import dataclasses

import numpy as np
import pytest
from scipy import stats

from arnorm import (
    ArModel,
    CustomLaw,
    Gaussian,
    LaplaceLaw,
    Mixture,
    SeriesSample,
    StudentTLaw,
    TwoPointLaw,
    UniformLaw,
    default_burn_in,
    ma_coefficients,
    simulate_ar,
)
from arnorm.ar_process import char_root_radius, parse_alternative_law, law_descriptor, law_from_descriptor
from arnorm.rng import make_rng, substream


class TestMaCoefficients:
    def test_ar1_geometric(self):
        got = ma_coefficients(np.array([0.5]), 3)
        np.testing.assert_array_equal(got, [1.0, 0.5, 0.25, 0.125])

    def test_no_lags_is_impulse(self):
        got = ma_coefficients(np.empty(0), 5)
        np.testing.assert_array_equal(got, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_ar2_recursion(self):
        coeffs = np.array([0.4, 0.25])
        g = ma_coefficients(coeffs, 40)
        assert g[0] == 1.0
        assert g[1] == coeffs[0]
        for j in range(2, 41):
            assert g[j] == pytest.approx(coeffs[0] * g[j - 1] + coeffs[1] * g[j - 2], rel=1e-12)

    def test_tail_decays_geometrically(self):
        g = ma_coefficients(np.array([0.9]), 200)
        nonzero = np.abs(g[50:]) > 0
        slope = np.polyfit(np.arange(50, 201)[nonzero], np.log(np.abs(g[50:][nonzero])), 1)[0]
        assert slope < 0
        assert slope == pytest.approx(np.log(0.9), rel=1e-6)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ma_coefficients(np.array([0.5]), -1)


class TestArModel:
    @pytest.mark.parametrize("coeffs", [(1.0,), (0.5, 0.5), (0.0, 1.0), (1.2,)])
    def test_nonstationary_rejected(self, coeffs):
        assert char_root_radius(np.asarray(coeffs)) >= 1.0 - 1e-8
        with pytest.raises(ValueError):
            ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))

    @pytest.mark.parametrize("coeffs", [(), (0.5,), (0.2, 0.3), (1.2, -0.4), (-0.9,)])
    def test_stationary_accepted(self, coeffs):
        model = ArModel(coeffs=coeffs, mean=1.0, innovation=Gaussian(1.0))
        assert model.order == len(coeffs)
        assert char_root_radius(model.coeffs) < 1.0

    def test_coeffs_are_read_only(self):
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
        with pytest.raises(ValueError):
            model.coeffs[0] = 0.9
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.mean = 1.0

    def test_does_not_alias_caller_array(self):
        raw = np.array([0.5])
        model = ArModel(coeffs=raw, mean=0.0, innovation=Gaussian(1.0))
        raw[0] = 0.99
        assert model.coeffs[0] == 0.5


class TestSeriesSample:
    def test_lengths(self):
        sample = SeriesSample.from_values(np.arange(12.0), p=2)
        assert sample.p == 2 and sample.n == 10
        assert sample.values.size == 12

    def test_too_short_rejected(self):
        # need at least p pre-sample values plus n >= p + 1 observations
        with pytest.raises(ValueError):
            SeriesSample.from_values(np.arange(3.0), p=2)

    def test_values_read_only(self):
        sample = SeriesSample.from_values(np.arange(6.0), p=1)
        with pytest.raises(ValueError):
            sample.values[0] = -1.0


class TestSimulateAr:
    def test_iid_case_is_mean_plus_draws(self):
        model = ArModel(coeffs=(), mean=3.0, innovation=Gaussian(2.0))
        sample = simulate_ar(model, n=6, burn_in=0, seed=11)
        draws = substream(11).normal(0.0, 2.0, size=6)
        np.testing.assert_array_equal(sample.values, 3.0 + draws)

    def test_same_seed_reproduces(self, ar1_model):
        a = simulate_ar(ar1_model, n=50, seed=5)
        b = simulate_ar(ar1_model, n=50, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        c = simulate_ar(ar1_model, n=50, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_generator_seed_accepted(self, ar1_model):
        a = simulate_ar(ar1_model, n=20, seed=substream(9, 5))
        b = simulate_ar(ar1_model, n=20, seed=substream(9, 5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_returns_presample_values(self, ar1_model):
        sample = simulate_ar(ar1_model, n=30, seed=0)
        assert sample.p == 1 and sample.n == 30
        assert sample.values.size == 31

    def test_long_run_mean_and_variance(self):
        # AR(1), coefficient 0.9: stationary variance 1 / (1 - 0.81).
        model = ArModel(coeffs=(0.9,), mean=2.0, innovation=Gaussian(1.0))
        n = 100_000
        sample = simulate_ar(model, n=n, seed=42)
        values = sample.values[1:]
        target_var = 1.0 / (1.0 - 0.81)
        # variance of the sample variance for a Gaussian AR(1):
        # (2 sigma^4 / n) * (1 + 2 sum_k rho_k^2), rho_k = 0.9^k
        rho_sq_sum = 0.81 / (1.0 - 0.81)
        se_var = np.sqrt(2.0 * target_var**2 * (1.0 + 2.0 * rho_sq_sum) / n)
        assert abs(np.var(values) - target_var) < 3.0 * se_var
        se_mean = np.sqrt(target_var / (n * (1.0 - 0.9) ** 2 / (1.0 - 0.81)))
        assert abs(np.mean(values) - 2.0) < 3.0 * se_mean

    def test_default_burn_in_grows_with_order(self):
        assert default_burn_in(0) == 1000
        assert default_burn_in(3) == 1300
        model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
        with_default = simulate_ar(model, n=10, seed=1)
        explicit = simulate_ar(model, n=10, burn_in=default_burn_in(1), seed=1)
        np.testing.assert_array_equal(with_default.values, explicit.values)

    def test_bad_arguments(self, ar1_model):
        with pytest.raises(ValueError):
            simulate_ar(ar1_model, n=1)  # needs n >= p + 1
        with pytest.raises(ValueError):
            simulate_ar(ar1_model, n=10, burn_in=-1)


LAW_CASES = [
    Gaussian(1.5),
    LaplaceLaw(2.0),
    UniformLaw(0.5),
    StudentTLaw(5, 4.0),
    TwoPointLaw(1.0),
]


class TestZeroMeanLaws:
    @pytest.mark.parametrize("law", LAW_CASES, ids=lambda l: type(l).__name__)
    def test_cdf_monotone_with_correct_limits(self, law):
        xs = np.linspace(-25.0, 25.0, 401)
        cdf = np.array([law.cdf(x) for x in xs])
        assert np.all(np.diff(cdf) >= 0)
        assert law.cdf(-1e6) < 1e-12 and law.cdf(1e6) > 1 - 1e-12
        vec = law.cdf(xs)
        np.testing.assert_array_equal(vec, cdf)

    @pytest.mark.parametrize("law", LAW_CASES, ids=lambda l: type(l).__name__)
    def test_sample_moments_match(self, law):
        draws = law.sample(substream(314, 0), size=100_000)
        se_mean = np.sqrt(law.variance / draws.size)
        assert abs(np.mean(draws)) < 5.0 * se_mean
        # the law has mean zero, so the uncentered second moment is the variance
        fourth = np.mean(draws**4)
        se_var = np.sqrt(max(fourth - law.variance**2, 0.0) / draws.size)
        assert abs(np.mean(draws**2) - law.variance) < 5.0 * max(se_var, 1e-12)

    @pytest.mark.parametrize("law", LAW_CASES, ids=lambda l: type(l).__name__)
    def test_scalar_and_vector_draws_agree(self, law):
        vec = law.sample(substream(99), size=40)
        scalars = np.array([law.sample(substream(99)) for _ in range(1)])
        # same generator state must yield the same stream element by element
        rng = substream(99)
        one_by_one = np.array([law.sample(rng) for _ in range(40)])
        np.testing.assert_array_equal(vec, one_by_one)
        assert scalars[0] == vec[0]

    def test_uniform_support(self):
        law = UniformLaw(0.75)
        draws = law.sample(substream(2), size=10_000)
        assert np.max(np.abs(draws)) <= law.half_width

    def test_two_point_support(self):
        law = TwoPointLaw(1.25)
        draws = law.sample(substream(3), size=10_000)
        assert set(np.unique(draws)) == {-1.25, 1.25}
        assert law.variance == pytest.approx(1.25**2)

    def test_student_needs_finite_variance(self):
        with pytest.raises(ValueError):
            StudentTLaw(2, 1.0)
        with pytest.raises(ValueError):
            StudentTLaw(5, -1.0)

    def test_custom_law_wraps_callables(self):
        base = stats.logistic(scale=0.6)
        law = CustomLaw(
            cdf=base.cdf,
            sampler=lambda rng: 0.6 * rng.logistic(),
            variance=base.var(),
        )
        draws = law.sample(substream(8), size=20_000)
        assert abs(np.mean(draws)) < 5.0 * np.sqrt(law.variance / draws.size)
        assert law.cdf(0.0) == pytest.approx(0.5)
        assert law.sample(substream(8)) == draws[0]

    def test_lipschitz_flags(self):
        assert Gaussian(1.0).lipschitz_density
        assert LaplaceLaw(1.0).lipschitz_density
        assert StudentTLaw(5, 1.0).lipschitz_density
        assert not UniformLaw(1.0).lipschitz_density
        assert not TwoPointLaw(1.0).lipschitz_density


class TestDescriptors:
    @pytest.mark.parametrize("law", LAW_CASES, ids=lambda l: type(l).__name__)
    def test_roundtrip(self, law):
        desc = law_descriptor(law)
        back = law_from_descriptor(desc)
        assert type(back) is type(law)
        assert back.variance == pytest.approx(law.variance, rel=1e-12)

    def test_parse_alternative_scales_against_baseline(self):
        law = parse_alternative_law("gauss-scale:2.0", sigma0=1.5)
        assert isinstance(law, Gaussian)
        assert law.sigma == pytest.approx(3.0)

    def test_parse_absolute_families(self):
        assert isinstance(parse_alternative_law("laplace:4.0", sigma0=1.0), LaplaceLaw)
        assert isinstance(parse_alternative_law("uniform:1.2", sigma0=1.0), UniformLaw)
        law = parse_alternative_law("student:5,4.0", sigma0=1.0)
        assert isinstance(law, StudentTLaw) and law.df == 5
        assert isinstance(parse_alternative_law("twopoint:1.0", sigma0=1.0), TwoPointLaw)

    @pytest.mark.parametrize("text", ["gauss-scale", "dirichlet:1.0", "student:5", "laplace:zero", ""])
    def test_malformed_descriptor_rejected(self, text):
        with pytest.raises(ValueError):
            parse_alternative_law(text, sigma0=1.0)


class TestMixture:
    def test_weight_is_inverse_root_n(self):
        mix = Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=400)
        assert mix.weight == 400**-0.5

    def test_contaminant_frequency(self):
        # two-point contaminant draws are exactly +/- a; normal draws never are,
        # so the contaminant branch can be counted exactly
        mix = Mixture(sigma0=1.0, h=TwoPointLaw(1.0), n=100)
        draws = mix.sample(substream(17), size=100_000)
        freq = np.mean(np.abs(draws) == 1.0)
        se = np.sqrt(0.1 * 0.9 / draws.size)
        assert abs(freq - 0.1) < 5.0 * se

    def test_null_contaminant_collapses_to_normal(self):
        mix = Mixture(sigma0=1.0, h=Gaussian(1.0), n=50)
        draws = mix.sample(substream(23), size=10_000)
        reference = substream(29).normal(0.0, 1.0, size=10_000)
        assert stats.ks_2samp(draws, reference).pvalue > 0.01

    def test_variance_interpolates(self):
        mix = Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=100)
        w = mix.weight
        assert mix.variance == pytest.approx((1 - w) * 1.0 + w * 4.0)

    def test_scalar_vector_order(self):
        mix = Mixture(sigma0=1.0, h=UniformLaw(0.5), n=25)
        vec = mix.sample(substream(41), size=30)
        rng = substream(41)
        one_by_one = np.array([mix.sample(rng) for _ in range(30)])
        np.testing.assert_array_equal(vec, one_by_one)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Mixture(sigma0=0.0, h=LaplaceLaw(1.0), n=100)
        with pytest.raises(ValueError):
            Mixture(sigma0=1.0, h=LaplaceLaw(1.0), n=1)

    def test_user_law_passthrough(self):
        # any zero-mean law drives the model directly, with no wrapper
        law = TwoPointLaw(2.0)
        model = ArModel(coeffs=(), mean=0.0, innovation=law)
        draws = simulate_ar(model, n=1000, burn_in=0, seed=5).values
        assert set(np.unique(draws)) == {-2.0, 2.0}
        np.testing.assert_array_equal(draws, law.sample(make_rng(5), size=1000))
        assert model.innovation.variance == pytest.approx(4.0)

    def test_gaussian_innovation(self):
        law = Gaussian(sigma=1.5)
        draws = law.sample(substream(6), size=50_000)
        assert abs(np.std(draws) - 1.5) < 0.02
        with pytest.raises(ValueError):
            Gaussian(sigma=-1.0)
