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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, toeplitz

from .ar_process import char_root_radius, ma_coefficients, SeriesSample
from .errors import EstimationError

__all__ = [
    "MAX_ORDER",
    "CenteredSeries",
    "ResidualFit",
    "AutocovMatrix",
    "center_series",
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
class CenteredSeries:
    """A series with its working-sample mean removed from every value."""

    values: np.ndarray
    p: int
    n: int
    mean_hat: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float, copy=True)
        if values.size != self.n + self.p:
            raise ValueError("expected n + p values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ResidualFit:
    """Fitted coefficients, residuals, and the innovation scale estimate.

    ``s2_hat`` must equal ``np.mean(residuals**2)`` exactly; the constructor
    enforces the identity so downstream statistics can rely on it.
    """

    beta_hat: np.ndarray
    residuals: np.ndarray
    s2_hat: float
    mean_hat: float = 0.0

    def __post_init__(self) -> None:
        beta = np.atleast_1d(np.array(self.beta_hat, dtype=float, copy=True))
        resid = np.array(self.residuals, dtype=float, copy=True)
        if resid.size == 0:
            raise ValueError("residuals must be nonempty")
        if not np.all(np.isfinite(resid)):
            raise ValueError("residuals must be finite")
        if self.s2_hat != float(np.mean(np.square(resid))):
            raise ValueError("s2_hat must equal the mean squared residual exactly")
        beta.setflags(write=False)
        resid.setflags(write=False)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "residuals", resid)

    @property
    def n(self) -> int:
        return int(self.residuals.size)

    @property
    def order(self) -> int:
        return int(self.beta_hat.size)

    @property
    def s_hat(self) -> float:
        return float(np.sqrt(self.s2_hat))


def center_series(sample: SeriesSample) -> CenteredSeries:
    """Subtract the working-sample average from all ``n + p`` values."""
    mean_hat = float(np.mean(sample.values[sample.p :]))
    return CenteredSeries(
        values=sample.values - mean_hat, p=sample.p, n=sample.n, mean_hat=mean_hat
    )


def _unwrap(centered, p):
    if isinstance(centered, CenteredSeries):
        values = centered.values
        if p is None:
            p = centered.p
        elif p != centered.p:
            raise ValueError("requested order does not match the series pre-sample length")
    else:
        values = np.asarray(centered, dtype=float)
        if p is None:
            raise ValueError("p is required when passing a raw vector")
    return values, int(p)


def _lag_design(values: np.ndarray, p: int):
    """Response ``y`` and lag matrix ``X`` for the conditional regression.

    Row ``t`` of ``X`` holds ``(values_{t-1}, ..., values_{t-p})`` in time
    units where the response runs over the last ``n`` entries.
    """
    n = values.size - p
    y = values[p:]
    X = np.column_stack([values[p - k : p - k + n] for k in range(1, p + 1)])
    return y, X


def ols_estimate(centered, p: int | None = None) -> np.ndarray:
    """Least-squares AR coefficients of a centered series.

    Accepts a :class:`CenteredSeries` (order taken from it) or a raw vector
    together with ``p``.  The first ``p`` entries condition the regression;
    no observations are lost beyond them.  Raises
    :class:`~arnorm.errors.EstimationError` when the normal equations are
    singular (degenerate series).
    """
    values, p = _unwrap(centered, p)
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p > MAX_ORDER:
        raise ValueError(f"p must not exceed {MAX_ORDER}")
    n = values.size - p
    if n < p + 1:
        raise ValueError("series too short: requires n >= p + 1")
    if p == 0:
        return np.empty(0)
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
        raise EstimationError(
            "singular normal equations: the series is degenerate for this order"
        ) from None
    return cho_solve((chol, True), rhs)


def residuals(centered, beta_hat, *, mean_hat: float | None = None) -> ResidualFit:
    """Residuals of the lag regression and the scale estimate.

    ``residual_t = values_t - sum_k beta_hat[k-1] * values_{t-k}`` for the
    ``n`` working time points; ``s2_hat`` is their mean square.
    """
    beta_hat = np.atleast_1d(np.asarray(beta_hat, dtype=float))
    values, p = _unwrap(centered, beta_hat.size)
    if mean_hat is None:
        mean_hat = centered.mean_hat if isinstance(centered, CenteredSeries) else 0.0
    if values.size - p < p + 1:
        raise ValueError("series too short: requires n >= p + 1")
    if p == 0:
        eps = values.copy()
    else:
        y, X = _lag_design(values, p)
        eps = y - X @ beta_hat
    s2_hat = float(np.mean(np.square(eps)))
    return ResidualFit(beta_hat=beta_hat, residuals=eps, s2_hat=s2_hat, mean_hat=float(mean_hat))


def fit_ar(sample: SeriesSample) -> ResidualFit:
    """Full pipeline: center, estimate coefficients, extract residuals."""
    centered = center_series(sample)
    beta_hat = ols_estimate(centered)
    return residuals(centered, beta_hat, mean_hat=centered.mean_hat)


@dataclass(frozen=True)
class AutocovMatrix:
    """Lag-covariance (Toeplitz) matrix of the stationary centered process.

    Entry ``(i, j)`` is ``Cov(u_t, u_{t+|i-j|})``; this matrix normalizes
    the asymptotic covariance of the least-squares coefficient estimate
    (which is ``sigma0**2`` times its inverse).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if entries.size:
            if not np.array_equal(entries, entries.T):
                raise ValueError("entries must be symmetric")
            if float(np.linalg.eigvalsh(entries)[0]) <= 0.0:
                raise ValueError("entries must be positive definite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])


def autocov_matrix(coeffs, sigma0: float) -> AutocovMatrix:
    """Covariance matrix of ``p`` consecutive values of the centered process.

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
        return AutocovMatrix(entries=np.empty((0, 0)))
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
    return AutocovMatrix(entries=toeplitz(first_row))
