"""Normality tests built on the empirical distribution of fitted residuals.

Both statistics compare the residual empirical distribution, after scaling
by the estimated innovation standard deviation, with the standard normal
CDF.  In probability coordinates ``z_i = Phi(residual_(i) / s_hat)`` (order
statistics of the transformed residuals) they reduce to the classical
closed forms:

* supremum distance, scaled by sqrt(n):
  ``max_i max(|i/n - z_i|, |z_i - (i-1)/n|) * sqrt(n)``;
* integrated squared distance:
  ``sum_i (z_i - (2i-1)/(2n))**2 + 1/(12n)``.

Because the series mean, the autoregression coefficients, and the scale are
all estimated, the null distributions differ from the no-estimation EDF
tables; critical values and p-values come from the Monte Carlo tables of
:mod:`arnorm.limit_law`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateDataError
from .estimation import ResidualFit
from .limit_law import LimitLawTable, StatKind, mc_p_value, quantile

__all__ = [
    "GofResult",
    "probability_transforms",
    "kolmogorov_from_transforms",
    "omega2_from_transforms",
    "kolmogorov_stat",
    "omega2_stat",
    "residual_edf",
    "eval_process",
    "innovation_edf_gap",
]


@dataclass(frozen=True)
class GofResult:
    """Outcome of one test: the statistic plus optional table-based extras."""

    kind: StatKind
    value: float
    p_value: float | None = None
    critical_value: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError("statistic value must be nonnegative")
        if self.p_value is not None and not 0.0 < self.p_value <= 1.0:
            # 1.0 is attainable: the Monte Carlo convention returns
            # (n_reps + 1) / (n_reps + 1) when the observed value does not
            # exceed a single tabulated one
            raise ValueError("p_value must lie in (0, 1]")

    @property
    def rejected(self) -> bool | None:
        """Reject iff the statistic exceeds the critical value (if available)."""
        if self.critical_value is None:
            return None
        return self.value > self.critical_value


def _check_scale(s2_hat) -> None:
    """Reject scale estimates that are zero or overflow: the standardized
    residuals would be undefined, or all zero with every transform 0.5."""
    if not np.all(s2_hat > 0.0):
        raise DegenerateDataError("residual scale estimate is zero; series is degenerate")
    if not np.all(s2_hat < np.inf):
        raise DegenerateDataError("residual scale estimate overflows; rescale the series")


def _sorted_transforms(residuals: np.ndarray, s2_hat) -> np.ndarray:
    """Sorted ``Phi(residual / s_hat)`` along the last axis of ``residuals``,
    one scale estimate per row; see :func:`probability_transforms`."""
    _check_scale(s2_hat)
    return ndtr(np.sort(residuals, axis=-1) / np.sqrt(s2_hat)[..., None])


def probability_transforms(fit: ResidualFit) -> np.ndarray:
    """Sorted values ``Phi(residual / s_hat)``, the shared core of both tests.

    Raises :class:`~arnorm.errors.DegenerateDataError` when the scale
    estimate vanishes (all residuals zero) or overflows, since the
    transform is then undefined.
    """
    return _sorted_transforms(fit.residuals, fit.s2_hat)


def _value(x: np.ndarray):
    """A float for one series, the array for a stack of them."""
    return float(x) if x.ndim == 0 else x


def kolmogorov_from_transforms(z: np.ndarray):
    """Supremum statistic from sorted probability transforms.

    Works along the last axis: a stack of transform rows gives one value
    per row, and a single row gives a float.
    """
    n = z.shape[-1]
    grid = np.arange(1, n + 1) / n
    upper = np.max(grid - z, axis=-1)
    lower = np.max(z - grid + 1.0 / n, axis=-1)
    return _value(np.sqrt(n) * np.maximum(upper, lower))


def omega2_from_transforms(z: np.ndarray):
    """Integrated squared distance from sorted probability transforms,
    along the last axis like :func:`kolmogorov_from_transforms`."""
    n = z.shape[-1]
    centers = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return _value(np.sum(np.square(z - centers), axis=-1) + 1.0 / (12.0 * n))


def _finish(kind, value, table, alpha):
    if table is None:
        if alpha is not None:
            raise ValueError("alpha requires a limit table")
        return GofResult(kind=kind, value=value)
    if not isinstance(table, LimitLawTable):
        raise TypeError("table must be a LimitLawTable")
    if table.kind is not kind:
        raise ValueError(
            f"table holds the {table.kind.value} law, not {kind.value}"
        )
    critical = quantile(table, alpha) if alpha is not None else None
    return GofResult(
        kind=kind,
        value=value,
        p_value=mc_p_value(table, value),
        critical_value=critical,
        alpha=alpha,
    )


def kolmogorov_stat(
    fit: ResidualFit,
    table: LimitLawTable | None = None,
    alpha: float | None = None,
) -> GofResult:
    """Scaled supremum distance between residual EDF and the normal fit.

    With a null ``table`` the result also carries a Monte Carlo p-value,
    and with ``alpha`` a critical value and rejection verdict.
    """
    value = kolmogorov_from_transforms(probability_transforms(fit))
    return _finish(StatKind.KOLMOGOROV, value, table, alpha)


def omega2_stat(
    fit: ResidualFit,
    table: LimitLawTable | None = None,
    alpha: float | None = None,
) -> GofResult:
    """Integrated squared distance statistic; see :func:`kolmogorov_stat`."""
    value = omega2_from_transforms(probability_transforms(fit))
    return _finish(StatKind.OMEGA2, value, table, alpha)


def residual_edf(fit: ResidualFit, x):
    """Empirical distribution function of the residuals at ``x`` (vectorized)."""
    sorted_resid = np.sort(fit.residuals)
    x_arr = np.asarray(x, dtype=float)
    values = np.searchsorted(sorted_resid, x_arr, side="right") / fit.n
    if values.ndim == 0:
        return float(values)
    return values


def eval_process(fit: ResidualFit, t_grid) -> np.ndarray:
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
    _check_scale(fit.s2_hat)
    x = fit.s_hat * ndtri(t_grid)
    return np.sqrt(fit.n) * (residual_edf(fit, x) - t_grid)


def innovation_edf_gap(fit: ResidualFit, innovations: np.ndarray) -> float:
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
