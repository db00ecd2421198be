import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter, lfiltic

from arnorm import ArModel, Gaussian, SeriesSample, simulate_ar
from arnorm.ar_process import (
    MAX_BURN_IN,
    LaplaceLaw,
    Mixture,
    StudentTLaw,
    TwoPointLaw,
    UniformLaw,
    char_root_radius,
    parse_alternative_law,
)
from arnorm.estimation import ResidualFit
from arnorm.limit_law import LimitLawTable, StatKind
from arnorm.rng import substream

from oracles import autocov_matrix, ma_coefficients


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

    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="mean must be finite"):
            ArModel(coeffs=(0.5,), mean=mean, innovation=Gaussian(1.0))

    def test_does_not_alias_caller_array(self):
        raw = np.array([0.5])
        model = ArModel(coeffs=raw, mean=0.0, innovation=Gaussian(1.0))
        raw[0] = 0.99
        assert model.coeffs[0] == 0.5

    @pytest.mark.parametrize("coeffs", [(0.9999999,), (1.9999, -0.99995)], ids=["ar1", "ar2"])
    def test_over_budget_radius_refused(self, coeffs):
        # stationary, but the warm-up would exceed MAX_BURN_IN steps
        radius = f"{char_root_radius(np.asarray(coeffs)):.10g}"
        message = f"^the warm-up for characteristic root radius {radius} exceeds {MAX_BURN_IN} steps$"
        with pytest.raises(ValueError, match=message):
            ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))

    def test_warm_up_refused_by_its_moving_average_bound(self):
        # a double root at r: 53 ln 2 / -ln r is below MAX_BURN_IN, so only the
        # bound on the moving-average weights, which grow like j * r**j, refuses it
        r = 0.99995
        assert 53 * math.log(2.0) / -math.log(r) < MAX_BURN_IN
        coeffs = (2.0 * r, -r * r)
        radius = f"{char_root_radius(np.asarray(coeffs)):.10g}"
        message = f"^the warm-up for characteristic root radius {radius} exceeds {MAX_BURN_IN} steps$"
        with pytest.raises(ValueError, match=message):
            ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))
        r = 0.99993
        model = ArModel(coeffs=(2.0 * r, -r * r), mean=0.0, innovation=Gaussian(1.0))
        assert model.burn_in == 724_617

    def test_burn_in_is_derived_not_given(self):
        with pytest.raises(TypeError, match="burn_in"):
            ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0), burn_in=5)

    @pytest.mark.parametrize("coeffs", [(), (0.5,), (1.2, -0.4), (0.5, 0.0, 0.0)])
    def test_root_radius_is_derived_not_given(self, coeffs):
        model = ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))
        assert model.root_radius == char_root_radius(model.coeffs)
        with pytest.raises(TypeError, match="root_radius"):
            ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0), root_radius=0.5)

    def test_matrix_coefficients_rejected(self):
        with pytest.raises(ValueError, match="^coeffs must be a one-dimensional vector$"):
            ArModel(coeffs=[[0.5], [0.1]], mean=0.0, innovation=Gaussian(1.0))

    def test_innovation_must_be_a_law(self):
        with pytest.raises(TypeError, match="^innovation must be a ZeroMeanLaw$"):
            ArModel(coeffs=(0.5,), mean=0.0, innovation=1.0)


class TestSeriesSample:
    def test_lengths(self):
        sample = SeriesSample.from_values(np.arange(12.0), p=2)
        assert sample.p == 2 and sample.n == 10
        assert sample.values.size == 12

    def test_too_short_rejected(self):
        # need at least p pre-sample values plus n >= p + 1 observations;
        # fewer values than p are counted, never shown as a negative n
        message = r"^series too short: requires at least 2p \+ 1 = {} values, got {} values and p = {}$"
        with pytest.raises(ValueError, match=message.format(5, 3, 2)):
            SeriesSample.from_values(np.arange(3.0), p=2)
        with pytest.raises(ValueError, match=message.format(1, 0, 0)):
            SeriesSample(np.empty(0), 0)
        with pytest.raises(ValueError, match=message.format(11, 3, 5)):
            SeriesSample.from_values(np.arange(3.0), p=5)

    @pytest.mark.parametrize("size,p", [(1, 0), (7, 3), (43, 20)])
    def test_n_is_derived_from_values_and_p(self, size, p):
        assert SeriesSample(np.arange(float(size)), p).n == size - p

    def test_values_read_only(self):
        sample = SeriesSample.from_values(np.arange(6.0), p=1)
        with pytest.raises(ValueError):
            sample.values[0] = -1.0

    def test_matrix_values_rejected(self):
        with pytest.raises(ValueError, match="^values must be a one-dimensional vector$"):
            SeriesSample(np.arange(12.0).reshape(4, 3), 0)

    def test_order_must_be_an_integer(self):
        # a float order is refused, not truncated or carried into the fit
        values = np.arange(50.0)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            SeriesSample(values, p=1.5)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            SeriesSample.from_values(values, 1.5)
        sample = SeriesSample.from_values(values, np.int64(2))
        assert type(sample.p) is int and sample.n == 48


# Each value object's vector, built from a three-entry array ``v``.
_VECTOR_HOLDERS = {
    "coeffs": lambda v: ArModel(coeffs=v, mean=0.0, innovation=Gaussian(1.0)).coeffs,
    "values": lambda v: SeriesSample(values=v, p=0).values,
    "beta_hat": lambda v: ResidualFit(beta_hat=v, residuals=[1.0, -1.0], mean_hat=0.0).beta_hat,
    "residuals": lambda v: ResidualFit(beta_hat=[], residuals=v, mean_hat=0.0).residuals,
    "samples": lambda v: LimitLawTable(StatKind.KOLMOGOROV, None, v, 16, 3, 0).samples,
}


@pytest.mark.parametrize("name, held", _VECTOR_HOLDERS.items(), ids=_VECTOR_HOLDERS)
class TestFrozenVector:
    """ArModel, SeriesSample, ResidualFit and LimitLawTable hold their
    vectors by one rule, that of ``ar_process._frozen_vector``."""

    def test_ownership(self, name, held):
        # a caller's writable array, changed after construction, changes nothing
        writable = np.array([0.1, 0.2, 0.3])
        vector = held(writable)
        writable[0] = -1.0
        assert vector.tolist() == [0.1, 0.2, 0.3]
        assert not vector.flags.writeable and vector.dtype == np.float64
        # a read-only view shares memory that its base's owner may still write
        base = np.array([0.1, 0.2, 0.3, 0.4])
        view = base[:3]
        view.setflags(write=False)
        vector = held(view)
        base[0] = -1.0
        assert vector.tolist() == [0.1, 0.2, 0.3]
        # a read-only vector that owns its data is kept, not copied
        owned = np.array([0.1, 0.2, 0.3])
        owned.setflags(write=False)
        assert held(owned) is owned

    def test_non_finite_entry_named_by_its_index(self, name, held):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r} at index 1$"):
                held(np.array([0.1, bad, 0.3]))

    def test_matrix_rejected(self, name, held):
        with pytest.raises(ValueError, match=f"^{name} must be a one-dimensional vector$"):
            held(np.array([[0.1, 0.2, 0.3]]))


class TestSimulateAr:
    def test_iid_case_is_mean_plus_draws(self):
        # the warm-up draws come first and are dropped
        model = ArModel(coeffs=(), mean=3.0, innovation=Gaussian(2.0))
        sample = simulate_ar(model, n=6, seed=11)
        draws = substream(11).normal(0.0, 2.0, size=model.burn_in + 6)[model.burn_in:]
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
        # a Generator is drawn from in place, not reseeded
        stream = substream(9, 5)
        simulate_ar(ar1_model, n=20, seed=stream)
        c = simulate_ar(ar1_model, n=20, seed=stream)
        assert not np.array_equal(a.values, c.values)

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

    @pytest.mark.parametrize(
        "coeffs, expected",
        # the floor; 2**-53 at beta**b; the same at ten times the length
        [((), 100), ((0.5, -0.3), 100), ((0.999,), 36_719), ((0.9999,), 367_350)],
        ids=["order-0", "ar2", "ar1-0.999", "ar1-0.9999"],
    )
    def test_default_burn_in_follows_root_radius(self, coeffs, expected):
        model = ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))
        assert model.burn_in == expected
        # the simulation runs exactly that warm-up from a zero start
        n, p = 10, len(coeffs)
        eps = substream(1).normal(0.0, 1.0, size=expected + n + p)
        full = lfilter([1.0], np.concatenate(([1.0], -model.coeffs)), eps)
        np.testing.assert_array_equal(simulate_ar(model, n=n, seed=1).values, full[expected:])

    def test_bad_arguments(self, ar1_model):
        with pytest.raises(ValueError):
            simulate_ar(ar1_model, n=1)  # needs n >= p + 1

    def test_float_length_refused_before_drawing(self, ar1_model):
        # a float n would reach numpy as a draw count with the warm-up in it
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            simulate_ar(ar1_model, n=50.0)


def _ar_with_roots(*roots):
    """Coefficients of the AR model whose characteristic roots are ``roots``
    and, for each complex one, its conjugate."""
    full = [z for r in roots for z in ((r, np.conj(r)) if np.iscomplex(r) else (r,))]
    return tuple(-np.real(np.poly(full))[1:])


def _polar(radius, angle):
    return radius * complex(math.cos(angle), math.sin(angle))


# orders 1, 2 and 5 with real, complex and clustered roots, near the unit
# circle where the warm-up of 1000 + 100 p steps fell short and away from it
TRANSIENT_CASES = {
    "ar1-real": (0.5,),
    "ar1-near-negative": (-0.9999,),
    "ar2-real-near": _ar_with_roots(0.9995, 0.5),
    "ar2-complex-near": _ar_with_roots(_polar(0.9995, 0.3)),
    "ar2-clustered-near": _ar_with_roots(0.99, 0.9899),
    "ar5-mixed": _ar_with_roots(_polar(0.8, 0.7), _polar(0.95, 1.3), 0.5),
    "ar5-clustered": _ar_with_roots(0.92, _polar(0.92, 0.01), _polar(0.92, 0.02)),
}


class TestWarmUp:
    """The default warm-up starts every series stationary to double precision."""

    @pytest.mark.parametrize("name", sorted(TRANSIENT_CASES))
    def test_zero_start_transient_below_double_precision(self, name):
        # Filter one innovation sequence from a zero start 3b steps back and
        # from one b steps back.  The two differ by the free response of the
        # far run's state at the near start; taken on its own, that carries
        # none of the rounding of the innovations, which near the unit circle
        # alone moves the two runs apart by some eps * scale**2 (150 ulps of
        # the scale for the complex AR(2)).
        coeffs = np.array(TRANSIENT_CASES[name])
        model = ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))
        b, p = model.burn_in, coeffs.size
        a = np.concatenate(([1.0], -coeffs))
        far = lfilter([1.0], a, substream(41).normal(size=3 * b))
        state = far[2 * b - p : 2 * b][::-1]
        free = lfilter([1.0], a, np.zeros(b + 1), zi=lfiltic([1.0], a, state))[0]
        scale = math.sqrt(autocov_matrix(coeffs, 1.0)[0, 0])
        assert abs(free[b]) <= 4 * 2.0**-52 * scale
        assert abs(free[0]) > 2.0**-10 * scale  # the state was not already zero

    @pytest.mark.parametrize(
        "coeffs",
        # radius 0.9997: after 1000 + 100 p steps the first value had 0.51
        # (AR(1)) and 0.54 (AR(2)) of the stationary variance, 6 standard
        # errors short; the derived warm-up draws 37M innovations per case
        [(0.9997,), _ar_with_roots(0.9997, 0.5)],
        ids=["ar1", "ar2"],
    )
    def test_first_value_has_stationary_variance(self, coeffs):
        model = ArModel(coeffs=coeffs, mean=0.0, innovation=Gaussian(1.0))
        n_reps, p = 300, len(coeffs)
        first = np.array(
            [simulate_ar(model, n=p + 1, seed=substream(43, r)).values[0] for r in range(n_reps)]
        )
        target = autocov_matrix(np.array(coeffs), 1.0)[0, 0]
        # the first values are independent N(0, target): their mean square
        # has standard error target * sqrt(2 / n_reps)
        se = target * math.sqrt(2.0 / n_reps)
        assert abs(np.mean(first**2) - target) < 3.0 * se


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
        message = "^df must be finite and exceed 2 for a finite variance, got 2.0$"
        with pytest.raises(ValueError, match=message):
            StudentTLaw(2.0, 1.0)
        with pytest.raises(ValueError, match=f"^invalid law descriptor 'student:2,1': {message[1:]}"):
            parse_alternative_law("student:2,1", 1.0)
        with pytest.raises(ValueError):
            StudentTLaw(5, -1.0)
        with pytest.raises(ValueError):
            StudentTLaw(np.inf, 1.0)

    @pytest.mark.parametrize("build", [Gaussian, LaplaceLaw, UniformLaw, TwoPointLaw,
                                       lambda v: StudentTLaw(5, v)],
                             ids=["Gaussian", "LaplaceLaw", "UniformLaw", "TwoPointLaw",
                                  "StudentTLaw"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)

    @pytest.mark.parametrize(
        "build",
        [lambda: Gaussian(1e200), lambda: TwoPointLaw(1e200), lambda: UniformLaw(1e308),
         lambda: Mixture(sigma0=1e160, h=LaplaceLaw(1.0), n=100)],
        ids=["Gaussian", "TwoPointLaw", "UniformLaw", "Mixture"],
    )
    def test_overflowing_variance_rejected(self, build):
        # the variance (or the uniform half width) would be inf, and a
        # Python float's ** raised OverflowError wherever it was read
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize("df", [2.5, 3.0, 4.0, 5.0, 30.0, 1e6])
    def test_student_cdf_is_scipy_t_cdf_bitwise(self, df):
        # the law evaluates scipy.special.stdtr, which scipy.stats.t.cdf wraps
        law = StudentTLaw(df, 2.0)
        x = np.concatenate([
            substream(315).normal(0.0, 10.0, size=10_000),
            [np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 1e-300],
        ])
        expected = stats.t.cdf(x / law.scale, df)
        np.testing.assert_array_equal(law.cdf(x).view(np.uint64), expected.view(np.uint64))

    def test_lipschitz_flags(self):
        assert Gaussian(1.0).lipschitz_density
        assert LaplaceLaw(1.0).lipschitz_density
        assert StudentTLaw(5, 1.0).lipschitz_density
        assert not UniformLaw(1.0).lipschitz_density
        assert not TwoPointLaw(1.0).lipschitz_density


class TestDescriptors:
    def test_parse_alternative_scales_against_baseline(self):
        law = parse_alternative_law("gauss-scale:2.0", sigma0=1.5)
        assert isinstance(law, Gaussian)
        assert law.sigma == pytest.approx(3.0)

    def test_parse_absolute_families(self):
        # gauss:sigma is the absolute form of gauss-scale, independent of sigma0
        law = parse_alternative_law("gauss:2.0", sigma0=1.5)
        assert isinstance(law, Gaussian) and law.sigma == 2.0
        assert isinstance(parse_alternative_law("laplace:4.0", sigma0=1.0), LaplaceLaw)
        assert isinstance(parse_alternative_law("uniform:1.2", sigma0=1.0), UniformLaw)
        law = parse_alternative_law("student:5,4.0", sigma0=1.0)
        assert isinstance(law, StudentTLaw) and law.df == 5
        assert isinstance(parse_alternative_law("twopoint:1.0", sigma0=1.0), TwoPointLaw)

    @pytest.mark.parametrize("text", ["gauss-scale", "dirichlet:1.0", "student:5", "laplace:zero", "",
                                      "gauss-scale:inf", "laplace:inf", "gauss:1e200",
                                      "gauss-scale:1e160", "twopoint:1e200"])
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

    def test_stream_layout(self):
        # size uniforms flag the contaminated positions, then size normals
        # with scale sigma0, then one h draw per flagged position, in order
        mix = Mixture(sigma0=1.5, h=UniformLaw(0.5), n=25)
        vec = mix.sample(substream(41), size=30)
        rng = substream(41)
        flagged = rng.random(30) < mix.weight
        expected = rng.normal(0.0, 1.5, 30)
        expected[flagged] = mix.h.sample(rng, int(np.count_nonzero(flagged)))
        assert 0 < np.count_nonzero(flagged) < 30
        np.testing.assert_array_equal(vec, expected)

    def test_draws_follow_mixture_cdf(self):
        # weight 0.5 with distinct branch scales: a mis-scaled or dropped
        # branch moves the draws far from the mixture cdf
        mix = Mixture(sigma0=1.5, h=Gaussian(3.0), n=4)
        assert mix.weight == 0.5
        draws = mix.sample(substream(43), size=50_000)
        assert stats.kstest(draws, mix.cdf).pvalue > 0.01

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Mixture(sigma0=0.0, h=LaplaceLaw(1.0), n=100)
        with pytest.raises(ValueError):
            Mixture(sigma0=1.0, h=LaplaceLaw(1.0), n=1)
        for sigma0 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma0 must be positive and finite"):
                Mixture(sigma0=sigma0, h=LaplaceLaw(1.0), n=100)
        with pytest.raises(TypeError, match="^h must be a ZeroMeanLaw$"):
            Mixture(sigma0=1.0, h=2.0, n=100)

    def test_user_law_passthrough(self):
        # any zero-mean law drives the model directly, with no wrapper
        law = TwoPointLaw(2.0)
        model = ArModel(coeffs=(), mean=0.0, innovation=law)
        draws = simulate_ar(model, n=1000, seed=5).values
        assert set(np.unique(draws)) == {-2.0, 2.0}
        b = model.burn_in
        np.testing.assert_array_equal(draws, law.sample(substream(5), size=b + 1000)[b:])
        assert model.innovation.variance == pytest.approx(4.0)

    def test_gaussian_innovation(self):
        law = Gaussian(sigma=1.5)
        draws = law.sample(substream(6), size=50_000)
        assert abs(np.std(draws) - 1.5) < 0.02
        with pytest.raises(ValueError):
            Gaussian(sigma=-1.0)
