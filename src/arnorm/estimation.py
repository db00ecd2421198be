"""Mean centering, conditional least squares, and residual extraction.

The fitting pipeline for a stretch ``v_{1-p}, ..., v_n`` is:

1. center by the working-sample average ``mean_hat = (1/n) * sum_{t=1}^n v_t``
   (pre-sample values are centered by the same constant);
2. regress the centered value at time ``t`` on its ``p`` centered lags over
   ``t = 1..n``, conditioning on the ``p`` pre-sample values;
3. form residuals less their average, and the scale estimate
   ``s_hat = sqrt((1/n) * sum residuals**2)``.  The regression has no
   intercept, and near a unit root the residual average grows to
   O(n**-1/2), which shifts the residual empirical process (Ling 1998,
   Ann. Statist. 26:741) and makes the tests over-reject;
4. refuse a degenerate fit: a zero ``s_hat``, or one at most ``2**-40`` of
   the smallest power of two above the series' largest magnitude, where
   the residuals are rounding noise and a test would turn on their last
   bits.

Because every time point is centered by the same constant, the coefficient
estimate and the residuals are invariant under shifts of the series mean,
and they scale exactly with the series under rescaling.  The fit and the
scale estimate work on values scaled by a power of two into [0.5, 1), which
is exact, so a series at 1e200 (or 1e-200) scale neither overflows nor
underflows their squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ar_process import SeriesSample, _frozen, _frozen_vector, _require_finite
from .errors import DegenerateDataError

__all__ = ["MAX_ORDER", "ResidualFit", "fit_ar"]

# Guard against runaway designs; the asymptotics here are fixed-order.
MAX_ORDER = 20

# The fit scales each series by the power of two that brings its largest
# magnitude into [0.5, 1); a residual scale at most this there is rounding
# noise.  Noiseless property-test draws leave at most 7e-16 of the magnitude.
_NOISE_FLOOR = 2.0**-40


@dataclass(frozen=True)
class ResidualFit:
    """Fitted coefficients, residuals, and the innovation scale estimate.

    ``s_hat`` is not an argument: it is the root mean square residual, set
    once at construction from the residuals scaled by the power of two that
    brings their largest magnitude into [0.5, 1), then scaled back.  That
    is exact, so the squares neither overflow nor underflow, and ``s_hat``
    has the bits of the unscaled formula wherever that is finite.  Zero
    residuals raise :class:`~arnorm.errors.DegenerateDataError`.  The
    vectors are held by :func:`~arnorm.ar_process._frozen_vector`.
    """

    beta_hat: np.ndarray
    residuals: np.ndarray
    mean_hat: float
    s_hat: float = field(init=False)

    def __post_init__(self) -> None:
        beta = _frozen_vector("beta_hat", np.atleast_1d(self.beta_hat))
        resid = _frozen_vector("residuals", self.residuals)
        if resid.size == 0:
            raise ValueError("residuals must be nonempty")
        _require_finite("mean_hat", self.mean_hat)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "residuals", resid)
        exponent = math.frexp(np.max(np.abs(resid)))[1]
        s_hat = math.ldexp(float(_root_mean_square(np.ldexp(resid, -exponent))), exponent)
        _check_scale(s_hat)
        object.__setattr__(self, "s_hat", s_hat)

    @property
    def n(self) -> int:
        return int(self.residuals.size)

    @property
    def order(self) -> int:
        return int(self.beta_hat.size)


def _check_max_order(p: int) -> None:
    if p > MAX_ORDER:
        raise ValueError(f"p must not exceed {MAX_ORDER}, got {p}")


def _root_mean_square(residuals: np.ndarray):
    """Root mean square residual along the last axis: the scale estimate ``s_hat``."""
    return np.sqrt(np.mean(np.square(residuals), axis=-1))


def _check_scale(s_hat, floor=0.0) -> None:
    """Refuse a zero scale estimate, then one at most ``floor``, row by row."""
    if not np.all(s_hat > 0.0):
        raise DegenerateDataError("residual scale estimate is zero; series is degenerate")
    if np.any(s_hat <= floor):
        raise DegenerateDataError(
            "residuals are rounding noise: the residual scale estimate is at most "
            "2**-40 of the power of two above the series' largest magnitude; "
            "series is noiseless for this order"
        )


def _centered_rows(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``n + p`` values minus its working-sample average, and the averages."""
    mean = np.mean(values[:, p:], axis=1)
    return values - mean[:, None], mean


def _lags(rows: np.ndarray, p: int) -> list[np.ndarray]:
    """Lag ``k`` of the last ``n`` entries of each row, for ``k = 1..p``."""
    n = rows.shape[1] - p
    return [rows[:, p - k : p - k + n] for k in range(1, p + 1)]


def _ols_rows(centered: np.ndarray, p: int) -> np.ndarray:
    """Least-squares coefficients of each centered row, as ``(rows, p)``."""
    _check_max_order(p)
    if p == 0:
        return np.empty((centered.shape[0], 0))
    lags = _lags(centered, p)
    # Every sum in the fit is numpy's pairwise sum along a row of products,
    # which calls no BLAS and gives a row the same bits in any block.  A
    # stacked einsum gives a row other bits than the row alone from about
    # n = 9000 on, and np.vecdot gives other bits under one and two BLAS
    # threads.
    gram = np.empty((centered.shape[0], p, p))
    rhs = np.empty((centered.shape[0], p))
    for i in range(p):
        for j in range(i + 1):
            gram[:, i, j] = gram[:, j, i] = np.sum(lags[i] * lags[j], axis=1)
        rhs[:, i] = np.sum(lags[i] * centered[:, p:], axis=1)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            "singular normal equations: the series is degenerate for this order"
        ) from None
    # beta = L^-T (L^-1 rhs): numpy solves each matrix of a stack on its
    # own, so a row has the bits of its fit alone, and LAPACK is reached
    # without loading SciPy's linear-algebra package
    half = np.linalg.solve(chol, rhs[:, :, None])
    return np.linalg.solve(np.swapaxes(chol, 1, 2), half)[:, :, 0]


def _residual_rows(centered: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``u_t - sum_k beta[k-1] * u_{t-k}`` over the last ``n`` entries of each row."""
    p = beta.shape[1]
    if p == 0:
        return centered
    lags = _lags(centered, p)
    fitted = beta[:, :1] * lags[0]
    for k in range(1, p):
        fitted += beta[:, k : k + 1] * lags[k]
    return centered[:, p:] - fitted


def _fit_rows(values: np.ndarray, p: int):
    """The stacked fit: center, estimate and take residuals of every row.

    ``values`` holds one stretch of ``n + p`` values per row, each finite
    as :class:`SeriesSample` makes it.  Each row is first scaled exactly
    by the power of two ``2**-e`` that brings its largest magnitude into
    [0.5, 1): the coefficients are scale-free, the Gram matrix of a series
    at 1e200 scale cannot overflow, and the noise floor is a fixed number.
    Returns the coefficients ``(rows, p)``, the recentred residuals
    ``(rows, n)`` and the working-sample averages ``(rows,)``, both in
    scaled units, the exponents ``e`` ``(rows,)``, and the scale estimates
    ``(rows,)``, scaled too; row ``r`` unscaled by ``ldexp`` equals
    :func:`fit_ar` of row ``r`` alone, bit for bit, and a degenerate row
    raises as its fit alone would.
    """
    exponent = np.frexp(np.max(np.abs(values), axis=1))[1]
    centered, mean = _centered_rows(np.ldexp(values, -exponent[:, None]), p)
    beta = _ols_rows(centered, p)
    resid = _residual_rows(centered, beta)
    resid -= np.mean(resid, axis=1, keepdims=True)
    scale = _root_mean_square(resid)
    _check_scale(scale, _NOISE_FLOOR)
    return beta, resid, mean, exponent, scale


def fit_ar(sample: SeriesSample) -> ResidualFit:
    """Full pipeline: center, estimate coefficients, extract residuals.

    Raises :class:`~arnorm.errors.DegenerateDataError` when the normal
    equations are singular, the scale estimate is zero, or the residuals
    are rounding noise (a degenerate series).
    """
    beta, resid, mean, exponent, _ = _fit_rows(sample.values[None], sample.p)
    return ResidualFit(beta_hat=beta[0], residuals=_frozen(np.ldexp(resid[0], exponent[0])),
                       mean_hat=float(np.ldexp(mean[0], exponent[0])))
