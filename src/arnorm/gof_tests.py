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

The fit forms ``s_hat`` from residuals scaled by a power of two (see
:class:`~arnorm.estimation.ResidualFit`), so for finite residuals it never
overflows, and the statistics of a series rescaled by a power of two keep
their bits.

Because the series mean, the autoregression coefficients, and the scale are
all estimated, the null distributions differ from the no-estimation EDF
tables; critical values and p-values come from the Monte Carlo tables of
:mod:`arnorm.limit_law`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ar_process import _ndtr
from .estimation import ResidualFit
from .limit_law import LimitLawTable, StatKind, mc_p_value, quantile

__all__ = [
    "GofResult",
    "probability_transforms",
    "kolmogorov_from_transforms",
    "omega2_from_transforms",
    "kolmogorov_stat",
    "omega2_stat",
]


@dataclass(frozen=True)
class GofResult:
    """Outcome of one test against a limit table at level ``alpha``."""

    kind: StatKind
    value: float
    p_value: float
    critical_value: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError("statistic value must be nonnegative")
        if not 0.0 < self.p_value <= 1.0:
            # 1.0 is attainable: the Monte Carlo convention returns
            # (n_reps + 1) / (n_reps + 1) when the observed value does not
            # exceed a single tabulated one
            raise ValueError("p_value must lie in (0, 1]")

    @property
    def rejected(self) -> bool:
        """Reject iff the statistic exceeds the critical value."""
        return self.value > self.critical_value


def _sorted_transforms(residuals: np.ndarray, s_hat) -> np.ndarray:
    """Sorted ``Phi(residual / s_hat)`` along the last axis of ``residuals``,
    one positive scale estimate per row; see :func:`probability_transforms`."""
    return _ndtr(np.sort(residuals, axis=-1) / np.asarray(s_hat)[..., None])


def probability_transforms(fit: ResidualFit) -> np.ndarray:
    """Sorted values ``Phi(residual / s_hat)``, the shared core of both tests.

    ``s_hat`` is never zero: :class:`~arnorm.estimation.ResidualFit`
    refuses zero residuals, and :func:`~arnorm.estimation.fit_ar` also
    refuses residuals that are rounding noise.
    """
    return _sorted_transforms(fit.residuals, fit.s_hat)


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


def _statistic(kind: StatKind, z: np.ndarray):
    """The ``kind`` statistic from sorted probability transforms ``z``; each
    functional is looked up by its module name at the call."""
    if kind is StatKind.KOLMOGOROV:
        return kolmogorov_from_transforms(z)
    return omega2_from_transforms(z)


def _gof_result(z: np.ndarray, table: LimitLawTable, alpha: float, kind=None) -> GofResult:
    """The test of the statistic of ``table.kind`` on sorted probability
    transforms ``z``; ``kind``, when given, is the law the table must hold."""
    if not isinstance(table, LimitLawTable):
        raise TypeError("table must be a LimitLawTable")
    if kind is not None and table.kind is not kind:
        raise ValueError(f"table holds the {table.kind.value} law, not {kind.value}")
    value = _statistic(table.kind, z)
    return GofResult(table.kind, value, mc_p_value(table, value), quantile(table, alpha), alpha)


def kolmogorov_stat(fit: ResidualFit, table: LimitLawTable, alpha: float) -> GofResult:
    """Scaled supremum distance between residual EDF and the normal fit,
    with its Monte Carlo p-value from the null ``table`` and the table's
    level-``alpha`` critical value and verdict."""
    return _gof_result(probability_transforms(fit), table, alpha, StatKind.KOLMOGOROV)


def omega2_stat(fit: ResidualFit, table: LimitLawTable, alpha: float) -> GofResult:
    """Integrated squared distance statistic; see :func:`kolmogorov_stat`."""
    return _gof_result(probability_transforms(fit), table, alpha, StatKind.OMEGA2)
