"""Mean centering, conditional least squares, and residual extraction.

The fitting pipeline for a stretch ``v_{1-p}, ..., v_n`` is:

1. center by the working-sample average ``mean_hat = (1/n) * sum_{t=1}^n v_t``
   (pre-sample values are centered by the same constant);
2. regress the centered value at time ``t`` on its ``p`` centered lags over
   ``t = 1..n``, conditioning on the ``p`` pre-sample values;
3. form residuals and the scale estimate ``s2_hat = (1/n) * sum residuals**2``.

Because every time point is centered by the same constant, the coefficient
estimate and the residuals are invariant under shifts of the series mean,
and they scale exactly with the series under rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, toeplitz

from .ar_process import char_root_radius, ma_coefficients, SeriesSample
from .errors import DegenerateDataError

__all__ = [
    "MAX_ORDER",
    "ResidualFit",
    "ols_estimate",
    "residuals",
    "fit_ar",
    "autocov_matrix",
]

# Guard against runaway designs; the asymptotics here are fixed-order.
MAX_ORDER = 20

# Tail cutoff for the moving-average series in autocov_matrix.
_MA_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ResidualFit:
    """Fitted coefficients, residuals, and the innovation scale estimate.

    ``s2_hat`` is not an argument: it is the mean squared residual, set once
    at construction.
    """

    beta_hat: np.ndarray
    residuals: np.ndarray
    mean_hat: float = 0.0
    s2_hat: float = field(init=False)

    def __post_init__(self) -> None:
        beta = np.atleast_1d(np.array(self.beta_hat, dtype=float, copy=True))
        resid = np.array(self.residuals, dtype=float, copy=True)
        if resid.size == 0:
            raise ValueError("residuals must be nonempty")
        if not np.all(np.isfinite(resid)):
            raise ValueError("residuals must be finite")
        beta.setflags(write=False)
        resid.setflags(write=False)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "residuals", resid)
        object.__setattr__(self, "s2_hat", float(np.mean(np.square(resid))))

    @property
    def n(self) -> int:
        return int(self.residuals.size)

    @property
    def order(self) -> int:
        return int(self.beta_hat.size)

    @property
    def s_hat(self) -> float:
        return float(np.sqrt(self.s2_hat))


def _centered(sample: SeriesSample) -> tuple[np.ndarray, float]:
    """All ``n + p`` values minus the working-sample average, and that average."""
    mean_hat = float(np.mean(sample.values[sample.p :]))
    return sample.values - mean_hat, mean_hat


def _lag_design(values: np.ndarray, p: int):
    """Response ``y`` and lag matrix ``X`` for the conditional regression.

    Row ``t`` of ``X`` holds ``(values_{t-1}, ..., values_{t-p})`` in time
    units where the response runs over the last ``n`` entries.
    """
    n = values.size - p
    y = values[p:]
    X = np.column_stack([values[p - k : p - k + n] for k in range(1, p + 1)])
    return y, X


def ols_estimate(sample: SeriesSample) -> np.ndarray:
    """Least-squares AR coefficients of the centered series.

    The first ``p`` values condition the regression; no observations are
    lost beyond them.  Raises :class:`~arnorm.errors.DegenerateDataError`
    when the normal equations are singular (degenerate series).
    """
    p = sample.p
    if p > MAX_ORDER:
        raise ValueError(f"p must not exceed {MAX_ORDER}, got {p}")
    if p == 0:
        return np.empty(0)
    values, _ = _centered(sample)
    # beta_hat is scale-free: scaling exactly by a power of two into [0.5, 1)
    # keeps the Gram matrix of a series at 1e200 scale from overflowing
    exponent = int(np.frexp(np.max(np.abs(values)))[1])
    y, X = _lag_design(np.ldexp(values, -exponent), p)
    # einsum keeps the reduction order fixed regardless of BLAS threading,
    # so repeated fits are bit-identical
    gram = np.einsum("ti,tj->ij", X, X)
    rhs = np.einsum("ti,t->i", X, y)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            "singular normal equations: the series is degenerate for this order"
        ) from None
    return cho_solve((chol, True), rhs)


def residuals(sample: SeriesSample, beta_hat) -> ResidualFit:
    """Residuals of the lag regression of the centered series on ``beta_hat``.

    ``residual_t = u_t - sum_k beta_hat[k-1] * u_{t-k}`` for the ``n``
    working time points, where ``u`` is the series minus its working-sample
    average.  ``beta_hat`` may come from any estimator but must have
    ``sample.p`` entries.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, dtype=float))
    if beta_hat.size != sample.p:
        raise ValueError(
            f"beta_hat has {beta_hat.size} coefficients; the sample has order {sample.p}"
        )
    values, mean_hat = _centered(sample)
    if sample.p == 0:
        eps = values
    else:
        y, X = _lag_design(values, sample.p)
        eps = y - X @ beta_hat
    return ResidualFit(beta_hat=beta_hat, residuals=eps, mean_hat=mean_hat)


def fit_ar(sample: SeriesSample) -> ResidualFit:
    """Full pipeline: center, estimate coefficients, extract residuals."""
    return residuals(sample, ols_estimate(sample))


def autocov_matrix(coeffs, sigma0: float) -> np.ndarray:
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
