"""Independent numerical oracles used by the tests.

Everything here recomputes a target quantity through a different route
than the library takes (quadrature instead of closed forms, a directly
factored Brownian-bridge kernel instead of the residual-process kernel,
one ``float()`` per line instead of batched conversion), so agreement is
informative.  Two oracles instead fix the arithmetic, for results that
must agree bit for bit: :func:`fit_by_design_matrix` fits one series from
its column-stacked lag design, and :func:`pipeline_statistics_by_replication`
runs the simulate/fit/test pipeline one replication at a time through the
public single-series functions.  :func:`write_v1_table` writes a table in
the text format of earlier releases, which the loader still reads.

The residual EDF and the process evaluated from it (:func:`residual_edf`,
:func:`eval_process`), the residual-vs-innovation EDF gap
(:func:`innovation_edf_gap`) and the stationary autocovariance matrix
(:func:`autocov_matrix`, from the moving-average weights of
:func:`ma_coefficients`) are reference quantities that only tests use.
"""

import math
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, toeplitz
from scipy.signal import lfilter
from scipy.special import ndtri
from scipy.stats import kstwobign

from arnorm.ar_process import char_root_radius, simulate_ar
from arnorm.estimation import fit_ar
from arnorm.gof_tests import (
    _check_scale,
    kolmogorov_from_transforms,
    omega2_from_transforms,
    probability_transforms,
)
from arnorm.limit_law import SUP_CONTINUITY_BETA, StatKind
from arnorm.rng import substream

# Tail cutoff for the moving-average series in autocov_matrix.
_MA_TAIL_TOL = 1e-12


def write_v1_table(path, table, comments=()):
    """Write ``table`` as a ``limit-table v1`` text file, the format of
    earlier releases: the header with its ``shift=none`` field, the comments
    as ``#`` lines, then one ``repr`` sample per line."""
    lines = [
        f"limit-table v1 kind={table.kind.value} grid_size={table.grid_size} "
        f"n_reps={table.n_reps} seed={table.seed} shift=none",
        *comments,
    ]
    Path(path).write_text("".join(f"# {line}\n" for line in lines)
                          + "".join(f"{float(v)!r}\n" for v in table.samples))


def read_numbers_by_float(path):
    """The numbers of a text file by one ``float()`` call per line.

    The reference for the number files the library reads (tables and
    series): after universal-newline decoding, blank lines and lines that
    start with ``#`` (after stripping) are skipped and every other line must
    be one finite number.  The first line that is not raises ``ValueError``
    naming its 1-based line number in the file, worded as the library's.
    """
    values = []
    for lineno, raw in enumerate(Path(path).read_text().split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} is not a number: {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno} is not finite: {line!r}")
        values.append(value)
    return np.array(values, dtype=float)


def omega2_by_quadrature(fit, n_points=200_000):
    """Midpoint-rule evaluation of the integral form of the omega-square statistic.

    The statistic equals ``n * integral_0^1 (F_n(t) - t)^2 dt`` where
    ``F_n`` is the empirical fraction of residuals at or below
    ``s_hat * ndtri(t)``.  This evaluates the integral numerically from the
    raw residuals, bypassing the rank-based closed form entirely.
    """
    t = (np.arange(n_points) + 0.5) / n_points
    cutoffs = fit.s_hat * ndtri(t)
    ordered = np.sort(fit.residuals)
    edf = np.searchsorted(ordered, cutoffs, side="right") / fit.n
    return fit.n * float(np.mean((edf - t) ** 2))


def bridge_sup_quantiles(grid_size, n_reps, seed, alphas):
    """Upper quantiles of sup|B(t)| for a Brownian bridge B, by simulation.

    The bridge kernel ``min(s, t) - s t`` is factored directly here; the
    only shared machinery with the library is the seeded substream helper,
    used so the sample is reproducible.
    """
    t = np.arange(1, grid_size) / grid_size
    kernel = np.minimum(t[:, None], t[None, :]) - t[:, None] * t[None, :]
    eigvals, eigvecs = np.linalg.eigh(kernel)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    m = grid_size - 1
    sups = np.empty(n_reps)
    for lo in range(0, n_reps, 2048):
        hi = min(lo + 2048, n_reps)
        normals = np.empty((m, hi - lo))
        for col, rep in enumerate(range(lo, hi)):
            normals[:, col] = substream(seed, rep).standard_normal(m)
        sups[lo:hi] = np.max(np.abs(factor @ normals), axis=0)
    ordered = np.sort(sups)
    out = {}
    for alpha in alphas:
        rank = int(np.ceil((1.0 - alpha) * n_reps))
        out[alpha] = float(ordered[min(max(rank, 1), n_reps) - 1])
    return out


def corrected_bridge_sup_check(grid_size, n_reps, seed, alphas):
    """Continuity-corrected bridge sup quantiles against the exact Kolmogorov law.

    Adds the library's ``SUP_CONTINUITY_BETA / sqrt(grid_size)`` to the grid
    quantiles of :func:`bridge_sup_quantiles` and returns, per level, the
    triple ``(corrected, exact, stderr)``: the corrected simulated quantile,
    the exact upper quantile ``kstwobign.isf(alpha)`` of sup|B(t)| over
    [0, 1], and the Monte Carlo standard error of a simulated quantile,
    ``sqrt(alpha (1 - alpha) / n_reps) / density``, from the exact density.
    The bridge kernel carries no estimation terms, so this checks the
    constant independently of the residual-process kernel.
    """
    correction = SUP_CONTINUITY_BETA / math.sqrt(grid_size)
    simulated = bridge_sup_quantiles(grid_size, n_reps, seed, alphas)
    out = {}
    for alpha in alphas:
        exact = float(kstwobign.isf(alpha))
        stderr = math.sqrt(alpha * (1.0 - alpha) / n_reps) / float(kstwobign.pdf(exact))
        out[alpha] = (simulated[alpha] + correction, exact, stderr)
    return out


def fit_by_design_matrix(sample):
    """Coefficients and residuals of one series from its lag design matrix.

    The series is centered by its working-sample average and scaled by a
    power of two into [0.5, 1); each entry of the Gram matrix and the
    right-hand side of the column-stacked design ``X`` (column ``k`` is lag
    ``k + 1``) is the pairwise sum of a product of two columns, and the
    Cholesky system is solved by ``cho_solve``.  The residuals are ``y``
    minus the fitted values summed column by column, on the unscaled
    centered series, then less their average.
    """
    p, values = sample.p, sample.values
    n = values.size - p
    centered = values - float(np.mean(values[p:]))

    def design(v):
        return v[p:], np.column_stack([v[p - k : p - k + n] for k in range(1, p + 1)])

    if p == 0:
        return np.empty(0), centered - np.mean(centered)
    exponent = int(np.frexp(np.max(np.abs(centered)))[1])
    y, X = design(np.ldexp(centered, -exponent))
    gram = np.array([[np.sum(X[:, i] * X[:, j]) for j in range(p)] for i in range(p)])
    rhs = np.array([np.sum(X[:, i] * y) for i in range(p)])
    beta = cho_solve((np.linalg.cholesky(gram), True), rhs)
    y, X = design(centered)
    fitted = beta[0] * X[:, 0]
    for k in range(1, p):
        fitted += beta[k] * X[:, k]
    resid = y - fitted
    return beta, resid - np.mean(resid)


def pipeline_statistics_by_replication(model, n, kinds, n_reps, seed):
    """``pipeline_statistics`` one replication at a time.

    Replications come in blocks of 64: replication ``r`` simulates from
    ``substream(seed, r // 64)``, opened at ``r % 64 == 0`` and then drawn
    on by the block's later replications in order.  Each series then runs
    through :func:`fit_ar`, :func:`probability_transforms` and each
    statistic on its own.
    """
    out = {kind: np.empty(n_reps) for kind in kinds}
    for r in range(n_reps):
        if r % 64 == 0:
            stream = substream(seed, r // 64)
        sample = simulate_ar(model, n, seed=stream)
        transforms = probability_transforms(fit_ar(sample))
        for kind in kinds:
            if kind is StatKind.KOLMOGOROV:
                out[kind][r] = kolmogorov_from_transforms(transforms)
            else:
                out[kind][r] = omega2_from_transforms(transforms)
    return out


def residual_edf(fit, x):
    """Empirical distribution function of the residuals at ``x`` (vectorized)."""
    sorted_resid = np.sort(fit.residuals)
    x_arr = np.asarray(x, dtype=float)
    values = np.searchsorted(sorted_resid, x_arr, side="right") / fit.n
    if values.ndim == 0:
        return float(values)
    return values


def eval_process(fit, t_grid):
    """Evaluate ``sqrt(n) * (EDF(s_hat * quantile(t)) - t)`` on a grid.

    ``t_grid`` must be strictly increasing with all points in the open
    interval (0, 1).  The supremum of ``|values|`` over a fine grid lower
    bounds the supremum statistic (the process jumps between grid points).
    Returns the process values, one per grid point.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty vector")
    if np.any(t_grid <= 0.0) or np.any(t_grid >= 1.0):
        raise ValueError("grid points must lie strictly inside (0, 1)")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("grid points must be strictly increasing")
    _check_scale(fit.s_hat)
    x = fit.s_hat * ndtri(t_grid)
    return np.sqrt(fit.n) * (residual_edf(fit, x) - t_grid)


def innovation_edf_gap(fit, innovations):
    """Scaled sup-distance between residual EDF and recentred innovation EDF.

    Compares the EDF of the fitted residuals with the EDF of the true
    innovations shifted by their own sample mean, i.e. the expansion that
    links the residual process to the innovation process.  The value is
    ``sqrt(n) * sup_x |EDF_resid(x) - EDF_innov(x + mean(innovations))|``;
    it should shrink as the sample grows when the fitted model is the true
    one.
    """
    innovations = np.asarray(innovations, dtype=float)
    if innovations.size != fit.n:
        raise ValueError("need exactly one innovation per residual")
    a = np.sort(fit.residuals)
    b = np.sort(innovations - np.mean(innovations))
    points = np.concatenate([a, b])
    edf_a = np.searchsorted(a, points, side="right") / fit.n
    edf_b = np.searchsorted(b, points, side="right") / fit.n
    return float(np.sqrt(fit.n) * np.max(np.abs(edf_a - edf_b)))


def ma_coefficients(coeffs, m):
    """First ``m + 1`` moving-average weights of the stationary solution.

    Returns ``(ma_0, ..., ma_m)`` with ``ma_0 = 1`` and
    ``ma_j = coeffs[0] * ma_{j-1} + ... + coeffs[p-1] * ma_{j-p}`` (weights
    with negative index being zero); equivalently the impulse response of
    the AR filter.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    impulse = np.zeros(m + 1)
    impulse[0] = 1.0
    return lfilter([1.0], np.concatenate(([1.0], -coeffs)), impulse)


def autocov_matrix(coeffs, sigma0):
    """Covariance matrix of ``p`` consecutive values of the centered process.

    Entry ``(i, j)`` is ``Cov(u_t, u_{t+|i-j|})``, a symmetric Toeplitz
    matrix; it normalizes the asymptotic covariance of the least-squares
    coefficient estimate (which is ``sigma0**2`` times its inverse).

    Computed from the moving-average representation:
    ``Cov(u_t, u_{t+d}) = sigma0**2 * sum_m ma[m] * ma[m+d]``, with the
    series truncated once the geometric tail bound ``c * radius**m`` falls
    below 1e-12.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    p = coeffs.size
    if p == 0:
        return np.empty((0, 0))
    radius = char_root_radius(coeffs)
    if radius >= 1.0:
        raise ValueError("coefficients are not stationary")
    m = 128
    while True:
        ma = ma_coefficients(coeffs, m)
        powers = radius ** np.arange(m + 1) if radius > 0 else np.zeros(m + 1)
        positive = powers > 0
        if radius == 0:
            c = float(np.max(np.abs(ma)))
            break
        c = float(np.max(np.abs(ma[positive]) / powers[positive]))
        if c * radius**m < _MA_TAIL_TOL:
            break
        if m >= 1 << 22:
            raise ValueError("moving-average tail does not decay; check coefficients")
        m *= 2
    first_row = np.array(
        [sigma0**2 * float(np.dot(ma[: ma.size - d], ma[d:])) for d in range(p)]
    )
    return toeplitz(first_row)
