import io
import math
import pickle
import re
import tracemalloc
from itertools import accumulate, product

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

import arnorm.limit_law as limit_law
from arnorm import Gaussian, StatKind, load_table, quantile, save_table, simulate_limit_tables
from arnorm.ar_process import LaplaceLaw, Mixture, StudentTLaw, ZeroMeanLaw
from arnorm.limit_law import (
    LimitLawTable,
    cov_matrix,
    local_shift,
    mc_p_value,
)
from arnorm.rng import derive_seed, map_replications, substream

from conftest import upper_quantile
from oracles import (
    corrected_bridge_sup_check,
    limit_functionals_by_outer_products,
    write_v1_table,
)

SUP, OMEGA2 = StatKind.KOLMOGOROV, StatKind.OMEGA2
BOTH = (SUP, OMEGA2)


def _kernel(s, t):
    """``c(s, t)`` at one pair of points, from scipy.stats' normal law."""
    qs, qt = stats.norm.ppf(s), stats.norm.ppf(t)
    a_s, a_t = stats.norm.pdf(qs), stats.norm.pdf(qt)
    return min(s, t) - s * t - a_s * a_t - 0.5 * qs * a_s * qt * a_t


@pytest.mark.parametrize("m", [2**k for k in range(2, 17)] + [1000, 3000])
def test_normal_quantile_within_ulps_of_scipy(m):
    # the kernel's quantiles come from the standard library, scipy's from
    # Cephes; on the grid points i / m they differ by a few ulp at most
    t = np.arange(1, m) / m
    q, reference = limit_law._ndtri(t), ndtri(t)
    assert np.max(np.abs(q - reference) / np.spacing(np.abs(reference))) <= 8
    assert q[m // 2 - 1] == 0.0  # t = 1/2
    if m & (m - 1) == 0:  # 1 - t is exact on a power-of-two grid
        np.testing.assert_array_equal(q, -q[::-1])


class TestCovKernel:
    def test_center_value(self):
        # at s = t = 1/2 the quantile is 0, so the kernel reduces to
        # 1/4 - pdf(0)^2 = 1/4 - 1/(2 pi)
        expected = 0.25 - 1.0 / (2.0 * np.pi)
        assert cov_matrix([0.5])[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_smaller_than_bridge_kernel(self):
        # estimating location and scale removes variance: the diagonal sits
        # strictly below the Brownian-bridge diagonal t(1 - t)
        t = np.linspace(0.05, 0.95, 19)
        diag = np.diag(cov_matrix(t))
        assert np.all(diag < t * (1.0 - t))
        assert np.all(diag > 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        kernel = cov_matrix(rng.uniform(0.01, 0.99, size=40))
        np.testing.assert_array_equal(kernel, kernel.T)

    def test_vanishes_at_endpoints(self):
        t = np.linspace(0.0, 1.0, 11)
        kernel = cov_matrix(t)
        assert np.all(kernel[[0, -1], :] == 0.0)
        assert np.all(kernel[:, [0, -1]] == 0.0)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            cov_matrix([-0.1, 0.5])
        with pytest.raises(ValueError):
            cov_matrix([0.5, 1.1])

    @pytest.mark.parametrize("t_grid", [0.5, [[0.1, 0.2], [0.3, 0.4]]], ids=["scalar", "matrix"])
    def test_grid_must_be_a_vector(self, t_grid):
        message = f"t_grid must be a one-dimensional vector, got shape {np.shape(t_grid)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cov_matrix(t_grid)

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
                assert kernel[i, j] == pytest.approx(_kernel(s, u), rel=1e-12)


class _NormalByCdf(ZeroMeanLaw):
    """``N(0, 1.5**2)`` as a law of no known family, so that
    :func:`local_shift` takes its full formula instead of its zero shortcut."""

    variance = 2.25
    lipschitz_density = True

    def cdf(self, x):
        return ndtr(np.asarray(x) / 1.5)

    def sample(self, rng, size):
        return rng.normal(0.0, 1.5, size)


class TestLocalShift:
    def test_null_contamination_is_exactly_zero(self):
        mixture = Mixture(sigma0=1.5, h=Gaussian(1.5), n=2000)
        t = np.linspace(0.0, 1.0, 1001)
        assert np.all(local_shift(mixture, t) == 0.0)

    def test_null_contamination_formula_without_shortcut(self):
        # same law through its cdf alone, exercising the full formula:
        # the shift must vanish to rounding error
        mixture = Mixture(sigma0=1.5, h=_NormalByCdf(), n=2000)
        t = np.linspace(1e-3, 1.0 - 1e-3, 1000)
        assert np.max(np.abs(local_shift(mixture, t))) < 1e-12

    def test_double_scale_value_at_one_sigma(self):
        # hand computation for contamination by a normal at twice the scale:
        # cdf term ndtr(0.5) - ndtr(1), variance term (3/2) pdf(1)
        mixture = Mixture(sigma0=1.0, h=Gaussian(2.0), n=2000)
        expected = (ndtr(0.5) - ndtr(1.0)
                    + 1.5 * np.exp(-0.5) / np.sqrt(2.0 * np.pi))
        got = local_shift(mixture, float(ndtr(1.0)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.213074, abs=5e-6)

    def test_endpoints_exactly_zero(self):
        mixture = Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=2000)
        assert local_shift(mixture, 0.0) == 0.0
        assert local_shift(mixture, 1.0) == 0.0

    def test_domain_checked(self):
        mixture = Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=2000)
        with pytest.raises(ValueError):
            local_shift(mixture, 1.5)

    @pytest.mark.parametrize("t, bad", [([0.2, 1.5, -1.0], 1.5), ([0.0, -0.25], -0.25),
                                        ([0.5, np.nan], np.nan)])
    def test_domain_message_shared_with_kernel(self, t, bad):
        # one rule, one message, naming the first point outside [0, 1]
        mixture = Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=2000)
        with pytest.raises(ValueError) as shift:
            local_shift(mixture, t)
        with pytest.raises(ValueError) as kernel:
            cov_matrix(t)
        assert str(shift.value) == str(kernel.value) == f"t must lie in [0, 1], got {bad!r}"

    def test_shift_must_be_a_mixture(self):
        with pytest.raises(TypeError, match="^shift must be a Mixture, got Gaussian$"):
            local_shift(Gaussian(2.0), 0.5)
        # refused before any path is drawn, by name
        with pytest.raises(TypeError, match="^shift must be a Mixture, got Gaussian$"):
            simulate_limit_tables(["omega2"], Gaussian(2.0), 16, 10, 0)

    def test_first_order_shift_ignores_n(self):
        t = np.linspace(0.0, 1.0, 101)
        shifts = [local_shift(Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=n), t)
                  for n in (2, 2000, 10**8)]
        np.testing.assert_array_equal(shifts[0], shifts[1])
        np.testing.assert_array_equal(shifts[0], shifts[2])


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

    def test_kind_name_is_held_as_its_kind(self):
        table = LimitLawTable("kolmogorov", None, [0.5, 1.0], 16, 2, 0)
        assert table.kind is SUP

    @pytest.mark.parametrize("kind", ["sup", "Kolmogorov", 0])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=f"^{kind!r} is not a valid StatKind$"):
            LimitLawTable(kind, None, [0.5, 1.0], 16, 2, 0)

    def test_shift_is_none_or_a_mixture(self):
        # any other shift claimed one that no simulation could have carried
        for shift in (Gaussian(2.0), "laplace:4"):
            message = f"^shift must be a Mixture, got {type(shift).__name__}$"
            with pytest.raises(TypeError, match=message):
                LimitLawTable(SUP, shift, [0.1, 0.2], 16, 2, 0)
        mixture = Mixture(sigma0=1.0, h=LaplaceLaw(4.0), n=100)
        assert LimitLawTable(SUP, None, [0.1, 0.2], 16, 2, 0).shift is None
        assert LimitLawTable(SUP, mixture, [0.1, 0.2], 16, 2, 0).shift is mixture


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

    def test_counts_must_be_integers(self):
        # a float grid would run and be stored as the table's grid_size
        float_count = "'float' object cannot be interpreted as an integer"
        with pytest.raises(TypeError, match=float_count):
            simulate_limit_tables((SUP,), None, 16.0, 50, seed=0)
        with pytest.raises(TypeError, match=float_count):
            simulate_limit_tables((SUP,), None, 16, 50, seed=0, workers=1.0)
        with pytest.raises(TypeError, match=float_count):
            LimitLawTable(SUP, None, [0.1, 0.2], 16.0, 2, 0)

    @pytest.mark.parametrize(
        "n_reps, seed, error, message",
        [(3.0, 0, TypeError, "'float' object cannot be interpreted as an integer"),
         (3, 1.5, TypeError, "'float' object cannot be interpreted as an integer"),
         (3, -1, ValueError, "^seed must be a non-negative integer, got -1$")],
        ids=["float-reps", "float-seed", "negative-seed"],
    )
    def test_header_fields_checked_as_the_loader_reads_them(self, tmp_path, n_reps, seed,
                                                            error, message):
        # such a table would save a header that load_table refuses
        with pytest.raises(error, match=message):
            LimitLawTable(SUP, None, [0.1, 0.2, 0.3], 16, n_reps, seed)
        table = LimitLawTable(SUP, None, [0.1, 0.2, 0.3], 16, np.int64(3), np.int64(7))
        save_table(table, tmp_path / "t.table")
        assert load_table(tmp_path / "t.table").seed == 7

    @staticmethod
    def _assert_workers_agree(n_reps):
        kwargs = dict(grid_size=64, n_reps=n_reps, seed=11)
        serial = simulate_limit_tables(BOTH, None, workers=1, **kwargs)
        for workers in (2, 3):
            parallel = simulate_limit_tables(BOTH, None, workers=workers, **kwargs)
            for kind in BOTH:
                np.testing.assert_array_equal(serial[kind].samples, parallel[kind].samples)

    def test_worker_count_does_not_change_results(self):
        self._assert_workers_agree(6000)

    def test_worker_split_off_block_boundary(self):
        # 301 replications end off a 64-replication block edge: two workers
        # split them at 128 and three at 64 and 192, each piece made of
        # whole blocks and the last ending on a partial one
        self._assert_workers_agree(301)

    @pytest.mark.parametrize("grid_size", [64, 512])
    def test_longer_run_extends_shorter(self, grid_size):
        # replication r's sample depends on (seed, r, grid) alone, so every
        # sample of a short run recurs in a longer run with the same seed,
        # also when the short run stops inside a block (300 = 4 * 64 + 44)
        short = simulate_limit_tables(BOTH, None, grid_size, 300, seed=47)
        long = simulate_limit_tables(BOTH, None, grid_size, 6000, seed=47)
        for kind in BOTH:
            assert np.all(np.isin(short[kind].samples, long[kind].samples)), kind

    @pytest.mark.parametrize("grid_size", [12000, 16384])
    def test_longer_run_extends_shorter_above_buffer(self, grid_size):
        # a stacked einsum sums a path longer than numpy's 8192-value buffer
        # in pieces that depend on the rows beside it, so such a path must
        # be assembled alone for a short run to recur in a longer one
        short = simulate_limit_tables(BOTH, None, grid_size, 3, seed=5)
        long = simulate_limit_tables(BOTH, None, grid_size, 4, seed=5)
        for kind in BOTH:
            assert np.all(np.isin(short[kind].samples, long[kind].samples)), kind

    def test_block_width_does_not_change_samples(self):
        # map_replications gives a path block at most 64 rows of one stream,
        # and the table's row count shrinks as the grid grows; any width
        # must give the values of one draw of each stream's rows, also at
        # grid 4096, where a block holds 8 rows and a stream's 64 are drawn
        # in 8 parts, and also under a shift, which rides the rank-k update
        # a block fills the first rows of one 64-row workspace, whatever its width
        shifts = (None, Mixture(sigma0=1.0, h=Gaussian(3.0), n=2000))
        for grid_size, shift in product((16, 64, 512, 4096), shifts):
            weights = limit_law._path_weights(grid_size, shift)
            args = (BOTH, weights, limit_law._Workspace(grid_size, 64))
            whole = map_replications(limit_law._path_block, args, 13, 100, 2**15 // grid_size)
            for start, stop in ((0, 64), (64, 100)):
                normals = substream(13, start // 64).standard_normal((stop - start, grid_size + 2))
                paths = limit_law._assemble_paths(  # in units of 1 / sqrt(m)
                    normals, weights, np.empty((stop - start, grid_size - 1)))
                sup = ((np.max(np.abs(paths), axis=1) + limit_law.SUP_CONTINUITY_BETA)
                       / math.sqrt(grid_size))
                omega2 = np.einsum("ij,ij->i", paths, paths) / grid_size**2
                np.testing.assert_array_equal(whole[SUP][start:stop], sup)
                np.testing.assert_array_equal(whole[OMEGA2][start:stop], omega2)
            for rows in (1, 7):
                part = map_replications(limit_law._path_block, args, 13, 100, rows)
                for kind in BOTH:
                    np.testing.assert_array_equal(part[kind], whole[kind])

    def test_workspace_copy_allocates_its_own(self):
        # a worker process gets the workspace's shape, not its 0.8 MB of buffers
        work = limit_law._Workspace(512, 64)
        sent = pickle.dumps(work)
        copy = pickle.loads(sent)
        assert len(sent) < 1000
        for name in ("normals", "paths", "abs_paths"):
            assert getattr(copy, name).shape == getattr(work, name).shape

    @pytest.mark.parametrize("grid_size", [16, 64, 512, 4096])
    @pytest.mark.parametrize("shift", [None, Mixture(sigma0=1.0, h=Gaussian(3.0), n=2000)],
                             ids=["null", "gauss-scale-3"])
    def test_samples_match_outer_product_oracle(self, grid_size, shift):
        # the rank-k update in units of 1 / sqrt(m) reorders the sums of the
        # oracle's outer products in the process's own units, so samples
        # agree to rounding; a wrong term, sign or scale moves them by far more
        tables = simulate_limit_tables(BOTH, shift, grid_size, 100, seed=31)
        oracle = limit_functionals_by_outer_products(grid_size, shift, 100, seed=31)
        for kind in BOTH:
            np.testing.assert_allclose(tables[kind].samples, np.sort(oracle[kind]),
                                       rtol=1e-14, atol=0)

    def test_null_mixture_shift_reproduces_null_table(self):
        mixture = Mixture(sigma0=1.0, h=Gaussian(1.0), n=2000)
        null = simulate_limit_tables((OMEGA2,), None, 64, 400, seed=13)[OMEGA2]
        shifted = simulate_limit_tables((OMEGA2,), mixture, 64, 400, seed=13)[OMEGA2]
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

    @pytest.mark.parametrize("grid_size", [2, 3, 64, 512])
    def test_paths_have_exact_kernel_covariance(self, grid_size):
        # the grid values are linear in the m + 2 normals of a replication;
        # fed the identity rows, the sampler returns the matrix M of that
        # map, so M.T @ M is the covariance of the sampled grid values and
        # must be the kernel matrix on the interior grid
        # in units of 1 / sqrt(m), hence the division by m
        weights = limit_law._path_weights(grid_size)
        paths = limit_law._assemble_paths(np.eye(grid_size + 2), weights,
                                          np.empty((grid_size + 2, grid_size - 1)))
        t = np.arange(1, grid_size) / grid_size
        np.testing.assert_allclose(paths.T @ paths / grid_size, cov_matrix(t),
                                   rtol=0, atol=1e-14)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_limit_tables((SUP,), None, 1, 100, seed=0)
        with pytest.raises(ValueError):
            simulate_limit_tables((SUP,), None, 64, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_limit_tables((SUP,), None, 64, 10, seed=0, workers=0)

    @pytest.mark.parametrize("kinds, message", [
        ([], "statistics must not be empty"),
        ((), "statistics must not be empty"),
        ("kolmogorov", "statistics must be a collection of names, not the string 'kolmogorov'"),
        (SUP, "statistics must be a collection of names, not the string "),
    ], ids=["empty-list", "empty-tuple", "name", "kind"])
    def test_selection_refused_before_any_stream(self, monkeypatch, kinds, message):
        def no_streams(*args, **kwargs):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(limit_law, "map_replications", no_streams)
        with pytest.raises(ValueError, match=f"^{message}"):
            simulate_limit_tables(kinds, None, 16, 10, 0)


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


def _limit_power(kind, shifts, alpha, grid_size, n_reps, seed):
    """Share of shifted-table samples above the null table's critical value,
    one per shift.

    The null table is built once; each shifted table comes from the same
    derived stream, independent of the null's, as in the power studies.
    """
    null = simulate_limit_tables((kind,), None, grid_size, n_reps, derive_seed(seed, 0))[kind]
    critical = quantile(null, alpha)
    return [
        float(np.mean(simulate_limit_tables((kind,), shift, grid_size, n_reps,
                                            derive_seed(seed, 1))[kind].samples > critical))
        for shift in shifts
    ]


class TestAsymptoticPower:
    def test_null_contamination_recovers_level(self):
        mixture = Mixture(sigma0=1.0, h=Gaussian(1.0), n=2000)
        [power] = _limit_power(SUP, [mixture], alpha=0.05, grid_size=128, n_reps=20_000, seed=3)
        # null and shifted tables use independent streams, so both carry
        # Monte Carlo noise: se ~ sqrt(2 * 0.05 * 0.95 / 20000) ~ 0.0022
        assert power == pytest.approx(0.05, abs=0.007)

    def test_strong_alternative_beats_level(self):
        mixture = Mixture(sigma0=1.0, h=Gaussian(3.0), n=2000)
        [power] = _limit_power(OMEGA2, [mixture], alpha=0.05, grid_size=256, n_reps=20_000,
                               seed=3)
        assert power > 0.5

    def test_power_increases_with_contaminating_scale(self):
        mixtures = [Mixture(sigma0=1.0, h=Gaussian(scale), n=2000)
                    for scale in (1.0, 1.5, 2.0, 3.0)]
        powers = _limit_power(SUP, mixtures, alpha=0.05, grid_size=256, n_reps=20_000, seed=5)
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

    def test_save_refuses_shifted_table(self, tmp_path):
        # the file format holds null laws only; shifted tables stay in memory
        mixture = Mixture(sigma0=1.5, h=StudentTLaw(5, 4.0), n=2000)
        table = simulate_limit_tables((OMEGA2,), mixture, 64, 400, seed=29)[OMEGA2]
        path = tmp_path / "shifted.table"
        with pytest.raises(ValueError, match="only null tables"):
            save_table(table, path)
        assert not path.exists()

    def test_writer_refuses_shifted_table(self):
        # the writer of `arnorm quantiles --out` keeps the same contract
        mixture = Mixture(sigma0=1.5, h=StudentTLaw(5, 4.0), n=2000)
        table = simulate_limit_tables((OMEGA2,), mixture, 16, 50, seed=29)[OMEGA2]
        out = io.BytesIO()
        with pytest.raises(ValueError, match="^only null tables can be saved; this one is shifted$"):
            limit_law._write_table(table, out)
        assert out.getvalue() == b""

    def test_loads_v1_null_file_from_earlier_release(self, tmp_path):
        # written by arnorm 0.1.0 before the format became null-only
        path = tmp_path / "old.table"
        path.write_text(
            "# limit-table v1 kind=omega2 grid_size=16 n_reps=3 seed=7 shift=none\n"
            "# made by arnorm 0.1.0\n"
            "0.01714550407092106\n0.04126951175426999\n0.1162914161394552\n"
        )
        back = load_table(path)
        assert (back.kind, back.grid_size, back.n_reps, back.seed) == (OMEGA2, 16, 3, 7)
        assert back.shift is None
        np.testing.assert_array_equal(
            back.samples, [0.01714550407092106, 0.04126951175426999, 0.1162914161394552]
        )
        # saved again, it is a v2 file of the same samples, fields and comments
        again = tmp_path / "again.table"
        save_table(back, again, comments=("made by arnorm 0.1.0",))
        assert again.read_bytes() == (
            b"# limit-table v2 kind=omega2 grid_size=16 n_reps=3 seed=7\n"
            b"# made by arnorm 0.1.0\n"
            b"# data: 3 float64 little-endian\n"
            + np.array(back.samples, dtype="<f8").tobytes()
        )

    def test_rejects_shifted_file(self, tmp_path):
        path = tmp_path / "shifted.table"
        path.write_text(
            "# limit-table v1 kind=omega2 grid_size=16 n_reps=1 seed=7 shift=laplace:4.0\n"
            "0.5\n"
        )
        with pytest.raises(ValueError, match="simulated under a shift, not the null"):
            load_table(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_line_named_by_file_line(self, tmp_path, bad):
        # the header and two comment lines come first: line 5 of the file is
        # the second sample
        path = tmp_path / "t.table"
        path.write_text(
            "# limit-table v1 kind=omega2 grid_size=16 n_reps=3 seed=7 shift=none\n"
            f"# made by hand\n#\n0.01\n{bad}\n0.3\n"
        )
        with pytest.raises(ValueError, match=rf"t.table: line 5 is not finite: '{bad}'$"):
            load_table(path)

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
        write_v1_table(path, table)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].rsplit(" ", 2)[0]  # drop trailing header fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_table(path)

    def test_unknown_kind_in_header_is_refused(self, tmp_path):
        path = tmp_path / "t.table"
        save_table(_tiny_table([0.5, 1.0]), path)
        path.write_bytes(path.read_bytes().replace(b"kind=kolmogorov", b"kind=sup", 1))
        message = f"{path}: 'sup' is not a valid StatKind"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_table(path)

    def test_rejects_sample_count_mismatch(self, tmp_path):
        table = simulate_limit_tables((SUP,), None, 64, 100, seed=1)[SUP]
        path = tmp_path / "t.table"
        write_v1_table(path, table)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError):
            load_table(path)


def _sorted_table(n_reps, seed):
    samples = np.sort(substream(seed).standard_normal(n_reps))
    return LimitLawTable(kind=OMEGA2, shift=None, samples=samples, grid_size=16,
                         n_reps=n_reps, seed=seed)


class TestTableV2:
    """The binary table file: a text header, then raw little-endian float64."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        # signed zeros, a subnormal and neighbours one ulp apart keep their bits
        samples = np.array([-1e308, -0.0, 0.0, 5e-324, 0.1, np.nextafter(0.1, 1.0), 1e308])
        table = LimitLawTable(kind=SUP, shift=None, samples=samples, grid_size=32,
                              n_reps=samples.size, seed=5)
        path = tmp_path / "t.table"
        save_table(table, path, comments=("two", "comments"))
        back = load_table(path)
        np.testing.assert_array_equal(back.samples.view(np.uint64), samples.view(np.uint64))
        assert (back.kind, back.grid_size, back.n_reps, back.seed) == (SUP, 32, 7, 5)

    def test_header_is_text_and_data_is_little_endian(self, tmp_path):
        table = _sorted_table(4, seed=45)
        path = tmp_path / "t.table"
        save_table(table, path)
        header, _, data = path.read_bytes().partition(b"# data: 4 float64 little-endian\n")
        assert header == b"# limit-table v2 kind=omega2 grid_size=16 n_reps=4 seed=45\n"
        assert data == table.samples.astype("<f8").tobytes()

    def test_loads_like_the_v1_text_of_the_same_table(self, tmp_path):
        table = _sorted_table(5000, seed=46)
        v1, v2 = tmp_path / "v1.table", tmp_path / "v2.table"
        write_v1_table(v1, table, comments=("made by hand",))
        save_table(table, v2, comments=("made by hand",))
        np.testing.assert_array_equal(load_table(v2).samples.view(np.uint64),
                                      load_table(v1).samples.view(np.uint64))


    @pytest.mark.parametrize("comment", ["two\nlines", "data: 4 float64 little-endian"],
                             ids=["newline", "data-line"])
    def test_save_refuses_comment_that_ends_the_header(self, tmp_path, comment):
        # either comment would write a file that the loader refuses or misreads
        table = _sorted_table(4, seed=47)
        path = tmp_path / "t.table"
        with pytest.raises(ValueError, match="newline or read as the data line"):
            save_table(table, path, comments=("fine", comment))
        assert not path.exists()
        fh = io.BytesIO()
        with pytest.raises(ValueError, match="newline or read as the data line"):
            limit_law._write_table(table, fh, comments=("fine", comment))
        assert fh.getvalue() == b""

    def test_data_line_of_another_size_is_a_plain_comment(self, tmp_path):
        table = _sorted_table(4, seed=47)
        path = tmp_path / "t.table"
        save_table(table, path, comments=("data: 5 float64 little-endian",))
        np.testing.assert_array_equal(load_table(path).samples, table.samples)

    def test_short_read_of_the_data_section_is_refused(self, tmp_path, monkeypatch):
        # the size check passed, but the file shrank before it was read
        table = _sorted_table(4, seed=48)
        path = tmp_path / "t.table"
        save_table(table, path)
        real_open = open

        class ShortReader(io.BufferedReader):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-8])

        def short_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return ShortReader(fh.detach()) if mode == "rb" else fh

        monkeypatch.setattr(limit_law, "open", short_open, raising=False)
        with pytest.raises(ValueError, match=r"t.table: read 24 bytes of a 32-byte data section"):
            load_table(path)


class TestSampleOwnership:
    """A table's samples are a read-only array, held by the rule every value
    object holds its vectors by (``tests/test_ar_process.py::TestFrozenVector``);
    loaded and simulated tables hand over arrays that the table keeps."""

    def test_caller_array_is_copied(self):
        samples = np.array([0.1, 0.2, 0.3])
        table = LimitLawTable(kind=SUP, shift=None, samples=samples, grid_size=16,
                              n_reps=3, seed=0)
        samples[0] = -1.0
        assert table.samples.tolist() == [0.1, 0.2, 0.3]
        assert not table.samples.flags.writeable

    def test_loaded_samples_are_read_only(self, tmp_path):
        path = tmp_path / "t.table"
        save_table(_sorted_table(100, seed=49), path)
        samples = load_table(path).samples
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0] = 0.0

    def test_simulated_samples_are_read_only(self):
        table = simulate_limit_tables((SUP,), None, 16, 50, seed=50)[SUP]
        assert not table.samples.flags.writeable

    def test_table_from_another_tables_samples_is_bit_identical(self, tmp_path):
        path = tmp_path / "t.table"
        save_table(_sorted_table(100, seed=51), path)
        table = load_table(path)
        again = LimitLawTable(kind=table.kind, shift=None, samples=table.samples,
                              grid_size=table.grid_size, n_reps=table.n_reps, seed=table.seed)
        np.testing.assert_array_equal(again.samples.view(np.uint64),
                                      table.samples.view(np.uint64))
        assert not again.samples.flags.writeable
        # a read-only float64 vector that owns its data is kept, not copied
        assert again.samples is table.samples

    def test_read_only_big_endian_vector_comes_out_native(self):
        samples = np.array([0.1, 0.2, 0.3], dtype=">f8")
        samples.setflags(write=False)
        table = LimitLawTable(kind=SUP, shift=None, samples=samples, grid_size=16,
                              n_reps=3, seed=0)
        assert table.samples.dtype == np.float64 and table.samples.dtype.isnative
        assert table.samples.flags.owndata and not table.samples.flags.writeable
        assert table.samples.tolist() == [0.1, 0.2, 0.3]

    def test_read_only_view_is_copied(self):
        # a view shares memory with an array that its owner may still write
        base = np.array([0.1, 0.2, 0.3, 0.4])
        view = base[:3]
        view.setflags(write=False)
        table = LimitLawTable(kind=SUP, shift=None, samples=view, grid_size=16,
                              n_reps=3, seed=0)
        base[0] = -1.0
        assert table.samples.tolist() == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize(
        "samples, message",
        [([0.2, 0.1], "sorted"), ([0.1, np.inf], "finite"), ([0.1], "n_reps")],
        ids=["unsorted", "non-finite", "count"],
    )
    def test_read_only_input_is_still_checked(self, samples, message):
        samples = np.array(samples)
        samples.setflags(write=False)
        with pytest.raises(ValueError, match=message):
            LimitLawTable(kind=SUP, shift=None, samples=samples, grid_size=16,
                          n_reps=2, seed=0)


class TestTableReadBatches:
    """v1 text tables long enough that the reader converts them in several batches."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "long.table"
        table = _sorted_table(20_000, seed=41)
        write_v1_table(path, table)
        return table, path

    @staticmethod
    def _batch_starts(path):
        # after the header, every batch is one readlines call of this size
        with open(path) as fh:
            fh.readline()
            sizes = list(iter(lambda: len(fh.readlines(limit_law._READ_BATCH_CHARS)), 0))
        return list(accumulate(sizes[:-1], initial=2))

    def test_round_trip_across_batches_is_bit_exact(self, saved):
        table, path = saved
        assert len(self._batch_starts(path)) >= 3
        back = load_table(path)
        np.testing.assert_array_equal(back.samples.view(np.uint64),
                                      table.samples.view(np.uint64))

    @pytest.mark.parametrize("bad, problem", [("nan", "not finite"), ("abc", "not a number")])
    def test_bad_first_line_of_last_batch_named(self, saved, bad, problem):
        _, path = saved
        lineno = self._batch_starts(path)[-1]
        lines = path.read_text().split("\n")
        lines[lineno - 1] = bad
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=rf"long.table: line {lineno} is {problem}: '{bad}'$"):
            load_table(path)

    def test_blank_line_at_batch_edge_loads(self, saved):
        table, path = saved
        edge = self._batch_starts(path)[1]
        lines = path.read_text().split("\n")
        lines.insert(edge - 1, "")
        path.write_text("\n".join(lines))
        np.testing.assert_array_equal(load_table(path).samples, table.samples)


def test_load_table_peak_memory_under_four_sample_arrays(tmp_path):
    # a v2 table's bytes are read straight into the one array the table
    # keeps, so its peak stays under one and a half float arrays of the
    # table's length; the text of a 100k-line v1 table is read in batches,
    # never held whole, and its peak stays under four
    n_reps = 100_000
    table = _sorted_table(n_reps, seed=43)
    for save in (save_table, write_v1_table):
        path = tmp_path / f"big-{save.__name__}.table"
        save(path=path, table=table)
        tracemalloc.start()
        try:
            load_table(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 1.5 if save is save_table else 4
        assert peak < bound * 8 * n_reps, (save.__name__, peak / (8 * n_reps))


def test_table_construction_peak_memory_under_one_and_a_half_sample_arrays():
    # the order check compares neighbours in place: besides the defensive
    # copy it allocates only boolean masks, no float array of differences
    n_reps = 100_000
    samples = np.sort(substream(44).standard_normal(n_reps))
    tracemalloc.start()
    try:
        LimitLawTable(kind=OMEGA2, shift=None, samples=samples, grid_size=64,
                      n_reps=n_reps, seed=44)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * samples.nbytes
