import numpy as np
import pytest
from scipy.special import ndtr

import arnorm.limit_law as limit_law
from arnorm import (
    CustomLaw,
    Gaussian,
    LaplaceLaw,
    LimitLawTable,
    ShiftSpec,
    StatKind,
    StudentTLaw,
    cov_eval,
    cov_matrix,
    load_table,
    local_shift,
    mc_p_value,
    quantile,
    save_table,
    simulate_limit_tables,
)
from arnorm.rng import derive_seed

from conftest import upper_quantile
from oracles import corrected_bridge_sup_check

SUP, OMEGA2 = StatKind.KOLMOGOROV, StatKind.OMEGA2
BOTH = (SUP, OMEGA2)


class TestCovKernel:
    def test_center_value(self):
        # at s = t = 1/2 the quantile is 0, so the kernel reduces to
        # 1/4 - pdf(0)^2 = 1/4 - 1/(2 pi)
        expected = 0.25 - 1.0 / (2.0 * np.pi)
        assert cov_eval(0.5, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_smaller_than_bridge_kernel(self):
        # estimating location and scale removes variance: the diagonal sits
        # strictly below the Brownian-bridge diagonal t(1 - t)
        t = np.linspace(0.05, 0.95, 19)
        diag = np.array([cov_eval(x, x) for x in t])
        assert np.all(diag < t * (1.0 - t))
        assert np.all(diag > 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s, t = rng.uniform(0.01, 0.99, size=2)
            assert cov_eval(s, t) == pytest.approx(cov_eval(t, s), rel=1e-12)

    def test_vanishes_at_endpoints(self):
        t = np.linspace(0.0, 1.0, 11)
        assert np.all(cov_eval(0.0, t) == 0.0)
        assert np.all(cov_eval(1.0, t) == 0.0)
        assert cov_eval(0.3, 0.0) == 0.0 and cov_eval(0.3, 1.0) == 0.0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            cov_eval(-0.1, 0.5)
        with pytest.raises(ValueError):
            cov_eval(0.5, 1.1)

    @pytest.mark.parametrize("grid_size", [16, 64, 256])
    def test_matrix_positive_semidefinite(self, grid_size):
        t = np.arange(1, grid_size) / grid_size
        kernel = cov_matrix(t)
        np.testing.assert_allclose(kernel, kernel.T, rtol=0, atol=0)
        eigvals = np.linalg.eigvalsh(kernel)
        assert eigvals.min() > -1e-8

    def test_matrix_matches_pointwise(self):
        t = np.array([0.2, 0.5, 0.9])
        kernel = cov_matrix(t)
        for i, s in enumerate(t):
            for j, u in enumerate(t):
                assert kernel[i, j] == pytest.approx(cov_eval(s, u), rel=1e-12)


class TestLocalShift:
    def test_null_contamination_is_exactly_zero(self):
        spec = ShiftSpec(h=Gaussian(1.5), sigma0=1.5)
        t = np.linspace(0.0, 1.0, 1001)
        assert np.all(local_shift(spec, t) == 0.0)

    def test_null_contamination_formula_without_shortcut(self):
        # same law expressed as a custom cdf, exercising the full formula:
        # the shift must vanish to rounding error
        law = CustomLaw(cdf=lambda x: ndtr(np.asarray(x) / 1.5),
                        sampler=lambda rng: rng.normal(0.0, 1.5),
                        variance=2.25, lipschitz_density=True)
        spec = ShiftSpec(h=law, sigma0=1.5)
        t = np.linspace(1e-3, 1.0 - 1e-3, 1000)
        assert np.max(np.abs(local_shift(spec, t))) < 1e-12

    def test_double_scale_value_at_one_sigma(self):
        # hand computation for contamination by a normal at twice the scale:
        # cdf term ndtr(0.5) - ndtr(1), variance term (3/2) pdf(1)
        spec = ShiftSpec(h=Gaussian(2.0), sigma0=1.0)
        expected = (ndtr(0.5) - ndtr(1.0)
                    + 1.5 * np.exp(-0.5) / np.sqrt(2.0 * np.pi))
        got = local_shift(spec, float(ndtr(1.0)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.213074, abs=5e-6)

    def test_endpoints_exactly_zero(self):
        spec = ShiftSpec(h=LaplaceLaw(4.0), sigma0=1.0)
        assert local_shift(spec, 0.0) == 0.0
        assert local_shift(spec, 1.0) == 0.0

    def test_domain_checked(self):
        spec = ShiftSpec(h=LaplaceLaw(4.0), sigma0=1.0)
        with pytest.raises(ValueError):
            local_shift(spec, 1.5)

    def test_sigma0_validated(self):
        with pytest.raises(ValueError):
            ShiftSpec(h=LaplaceLaw(1.0), sigma0=0.0)


def _tiny_table(samples, kind=StatKind.KOLMOGOROV):
    arr = np.sort(np.asarray(samples, dtype=float))
    return LimitLawTable(kind=kind, shift=None, samples=arr,
                         grid_size=2, n_reps=arr.size, seed=0)


class TestQuantileAndPValue:
    def test_nearest_rank_small_table(self):
        table = _tiny_table([1.0, 2.0, 3.0, 4.0])
        assert quantile(table, 0.25) == 3.0
        assert quantile(table, 0.5) == 2.0
        assert quantile(table, 0.75) == 1.0
        assert quantile(table, 0.01) == 4.0

    def test_alpha_domain(self):
        table = _tiny_table([1.0, 2.0])
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                quantile(table, bad)

    def test_p_value_convention(self):
        table = _tiny_table([1.0, 2.0, 3.0, 4.0])
        assert mc_p_value(table, 10.0) == pytest.approx(1.0 / 5.0)
        assert mc_p_value(table, 2.0) == pytest.approx(4.0 / 5.0)  # ties count
        assert mc_p_value(table, 2.5) == pytest.approx(3.0 / 5.0)
        assert mc_p_value(table, 0.5) == 1.0
        with pytest.raises(ValueError):
            mc_p_value(table, np.inf)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            _tiny_table([])  # empty sample
        with pytest.raises(ValueError):
            LimitLawTable(kind=StatKind.KOLMOGOROV, shift=None,
                          samples=np.array([2.0, 1.0]), grid_size=2,
                          n_reps=2, seed=0)  # unsorted
        with pytest.raises(ValueError):
            LimitLawTable(kind=StatKind.KOLMOGOROV, shift=None,
                          samples=np.array([1.0, 2.0]), grid_size=2,
                          n_reps=3, seed=0)  # length mismatch
        with pytest.raises(ValueError, match="finite"):
            LimitLawTable(kind=StatKind.KOLMOGOROV, shift=None,
                          samples=np.array([1.0, np.nan, 2.0]), grid_size=2,
                          n_reps=3, seed=0)  # NaN passes the sortedness check


class TestSimulation:
    def test_same_seed_reproduces(self):
        a = simulate_limit_tables((SUP,), None, 64, 300, seed=5)[SUP]
        b = simulate_limit_tables((SUP,), None, 64, 300, seed=5)[SUP]
        np.testing.assert_array_equal(a.samples, b.samples)
        c = simulate_limit_tables((SUP,), None, 64, 300, seed=6)[SUP]
        assert not np.array_equal(a.samples, c.samples)

    def test_samples_sorted_and_positive(self):
        table = simulate_limit_tables((OMEGA2,), None, 64, 500, seed=7)[OMEGA2]
        assert np.all(np.diff(table.samples) >= 0)
        assert table.samples[0] > 0.0
        assert table.n_reps == 500 and table.grid_size == 64

    def test_worker_count_does_not_change_results(self):
        # 6000 replications span two evaluation blocks, so two workers
        # genuinely split the work
        kwargs = dict(grid_size=64, n_reps=6000, seed=11)
        serial = simulate_limit_tables(BOTH, None, workers=1, **kwargs)
        parallel = simulate_limit_tables(BOTH, None, workers=2, **kwargs)
        for kind in BOTH:
            np.testing.assert_array_equal(serial[kind].samples, parallel[kind].samples)

    def test_null_mixture_shift_reproduces_null_table(self):
        spec = ShiftSpec(h=Gaussian(1.0), sigma0=1.0)
        null = simulate_limit_tables((OMEGA2,), None, 64, 400, seed=13)[OMEGA2]
        shifted = simulate_limit_tables((OMEGA2,), spec, 64, 400, seed=13)[OMEGA2]
        np.testing.assert_array_equal(null.samples, shifted.samples)

    def test_both_kinds_share_one_stream(self):
        # tables for the two statistics come from the same simulated paths,
        # so building them together or separately gives identical samples
        pair = simulate_limit_tables(BOTH, None, 64, 300, seed=17)
        single = simulate_limit_tables((SUP,), None, 64, 300, seed=17)[SUP]
        np.testing.assert_array_equal(pair[StatKind.KOLMOGOROV].samples, single.samples)

    def test_grid_refinement_stability(self):
        coarse = simulate_limit_tables(BOTH, None, 256, 10_000, seed=19)
        fine = simulate_limit_tables(BOTH, None, 1024, 10_000, seed=19)
        for kind in BOTH:
            q_c = quantile(coarse[kind], 0.05)
            q_f = quantile(fine[kind], 0.05)
            assert abs(q_c - q_f) < 0.02, kind

    def test_seed_stability_of_quantiles(self, null_tables, null_tables_alt_seed):
        for kind, tol in ((StatKind.KOLMOGOROV, 0.01), (StatKind.OMEGA2, 0.005)):
            for alpha in (0.10, 0.05, 0.01):
                qa = quantile(null_tables[kind], alpha)
                qb = quantile(null_tables_alt_seed[kind], alpha)
                assert abs(qa - qb) < tol, (kind, alpha)

    def test_critical_value_ranges(self, null_tables):
        # frozen plausibility windows for the production tables
        assert 0.85 < quantile(null_tables[StatKind.KOLMOGOROV], 0.05) < 0.92
        assert 0.115 < quantile(null_tables[StatKind.OMEGA2], 0.05) < 0.135

    def test_degenerate_kernel_guard(self, monkeypatch):
        limit_law._path_factor.cache_clear()
        monkeypatch.setattr(limit_law, "cov_matrix", lambda t: -np.eye(t.size))
        try:
            with pytest.raises(RuntimeError):
                simulate_limit_tables((SUP,), None, 7, 10, seed=0)
        finally:
            limit_law._path_factor.cache_clear()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_limit_tables((SUP,), None, 1, 100, seed=0)
        with pytest.raises(ValueError):
            simulate_limit_tables((SUP,), None, 64, 0, seed=0)


def _quantile_stderr(table, alpha):
    """Monte Carlo standard error of a table quantile, read off the table.

    Half the spread between the order statistics one binomial standard
    deviation either side of the nearest rank: distribution-free, and
    scaled by the table's own density near the quantile.
    """
    n = table.n_reps
    spread = np.sqrt(n * alpha * (1.0 - alpha))
    rank = np.ceil((1.0 - alpha) * n)
    lo = int(max(np.floor(rank - spread), 1))
    hi = int(min(np.ceil(rank + spread), n))
    return 0.5 * float(table.samples[hi - 1] - table.samples[lo - 1])


class TestContinuityCorrection:
    def test_sup_table_free_of_grid(self):
        # the sup over 63 grid points sits ~0.05 below the sup over 1023 at
        # both levels; with the continuity correction both estimate the sup
        # over [0, 1] and agree to Monte Carlo error (~0.003 at 5%)
        coarse, fine = (
            simulate_limit_tables((SUP,), None, grid, 40_000, seed=31)[SUP]
            for grid in (64, 1024)
        )
        for alpha in (0.05, 0.5):
            gap = abs(quantile(coarse, alpha) - quantile(fine, alpha))
            stderr = np.hypot(_quantile_stderr(coarse, alpha), _quantile_stderr(fine, alpha))
            assert gap <= 4.0 * stderr, (alpha, gap, stderr)

    def test_bridge_oracle_matches_exact_kolmogorov_law(self):
        # at grid 32 the raw bridge quantiles sit dozens of standard errors
        # below kstwobign; corrected, they agree within Monte Carlo error
        check = corrected_bridge_sup_check(32, 100_000, seed=37, alphas=(0.5, 0.1, 0.05))
        for alpha, (corrected, exact, stderr) in check.items():
            assert abs(corrected - exact) <= 4.0 * stderr, (alpha, corrected, exact)


def _limit_power(kind, shift, alpha, grid_size, n_reps, seed):
    """Share of shifted-table samples above the null table's critical value.

    The two tables come from independent derived streams, as in the power
    studies.
    """
    null = simulate_limit_tables((kind,), None, grid_size, n_reps, derive_seed(seed, 0))[kind]
    shifted = simulate_limit_tables((kind,), shift, grid_size, n_reps, derive_seed(seed, 1))[kind]
    return float(np.mean(shifted.samples > quantile(null, alpha)))


class TestAsymptoticPower:
    def test_null_contamination_recovers_level(self):
        spec = ShiftSpec(h=Gaussian(1.0), sigma0=1.0)
        power = _limit_power(SUP, spec, alpha=0.05, grid_size=128, n_reps=20_000, seed=3)
        # null and shifted tables use independent streams, so both carry
        # Monte Carlo noise: se ~ sqrt(2 * 0.05 * 0.95 / 20000) ~ 0.0022
        assert power == pytest.approx(0.05, abs=0.007)

    def test_strong_alternative_beats_level(self):
        spec = ShiftSpec(h=Gaussian(3.0), sigma0=1.0)
        power = _limit_power(OMEGA2, spec, alpha=0.05, grid_size=256, n_reps=20_000, seed=3)
        assert power > 0.5

    def test_power_increases_with_contaminating_scale(self):
        powers = []
        for scale in (1.0, 1.5, 2.0, 3.0):
            spec = ShiftSpec(h=Gaussian(scale), sigma0=1.0)
            powers.append(
                _limit_power(SUP, spec, alpha=0.05, grid_size=256, n_reps=20_000, seed=5)
            )
        for lo, hi in zip(powers, powers[1:]):
            assert hi > lo - 0.02  # nondecreasing up to Monte Carlo noise
        assert powers[-1] > powers[0] + 0.2


class TestTableSerialization:
    def test_roundtrip_null_table(self, tmp_path):
        table = simulate_limit_tables((SUP,), None, 64, 500, seed=23)[SUP]
        path = tmp_path / "null.table"
        save_table(table, path)
        back = load_table(path)
        np.testing.assert_array_equal(back.samples, table.samples)
        assert back.kind is table.kind
        assert back.grid_size == table.grid_size
        assert back.n_reps == table.n_reps
        assert back.seed == table.seed
        assert back.shift is None

    def test_roundtrip_shifted_table(self, tmp_path):
        spec = ShiftSpec(h=StudentTLaw(5, 4.0), sigma0=1.5)
        table = simulate_limit_tables((OMEGA2,), spec, 64, 400, seed=29)[OMEGA2]
        path = tmp_path / "shifted.table"
        save_table(table, path, comments=("made by the test suite",))
        back = load_table(path)
        np.testing.assert_array_equal(back.samples, table.samples)
        assert isinstance(back.shift.h, StudentTLaw)
        assert back.shift.h.df == 5
        assert back.shift.h.variance == 4.0
        assert back.shift.sigma0 == 1.5

    def test_loaded_table_serves_quantiles(self, tmp_path):
        table = simulate_limit_tables((SUP,), None, 64, 500, seed=23)[SUP]
        path = tmp_path / "t.table"
        save_table(table, path)
        back = load_table(path)
        assert quantile(back, 0.1) == quantile(table, 0.1)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0.5\n0.6\n")
        with pytest.raises(ValueError):
            load_table(path)

    def test_rejects_truncated_header(self, tmp_path):
        table = simulate_limit_tables((SUP,), None, 64, 100, seed=1)[SUP]
        path = tmp_path / "t.table"
        save_table(table, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].rsplit(" ", 2)[0]  # drop trailing header fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_table(path)

    def test_rejects_sample_count_mismatch(self, tmp_path):
        table = simulate_limit_tables((SUP,), None, 64, 100, seed=1)[SUP]
        path = tmp_path / "t.table"
        save_table(table, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError):
            load_table(path)
