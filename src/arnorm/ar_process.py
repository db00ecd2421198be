"""Stationary autoregressive data generators and innovation laws.

The observed series is ``v_t = mean + u_t`` where the centered part follows

    u_t = coeffs[0] * u_{t-1} + ... + coeffs[p-1] * u_{t-p} + e_t

with i.i.d. zero-mean innovations ``e_t``.  Stationarity (all roots of the
characteristic polynomial strictly inside the unit circle) is enforced at
model construction, so every model in this package has a moving-average
representation ``u_t = sum_j ma[j] * e_{t-j}`` with geometrically decaying
weights.

Innovations follow any :class:`ZeroMeanLaw`: exact :class:`Gaussian` under
the null, or the root-n :class:`Mixture` that contaminates the Gaussian with
another zero-mean law at weight ``n**-0.5`` (the local alternative used by
the power experiments).
"""

from __future__ import annotations

import abc
import math
import operator
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .rng import substream

__all__ = [
    "ZeroMeanLaw",
    "Gaussian",
    "LaplaceLaw",
    "UniformLaw",
    "StudentTLaw",
    "TwoPointLaw",
    "parse_alternative_law",
    "Mixture",
    "ArModel",
    "SeriesSample",
    "char_root_radius",
    "MAX_BURN_IN",
    "simulate_ar",
]

# Margin used by the stationarity gate: the largest characteristic root must
# have modulus below 1 - _STATIONARITY_MARGIN.
_STATIONARITY_MARGIN = 1e-8

# The warm-up is never shorter than _BURN_IN_FLOOR steps; a model whose
# warm-up would exceed MAX_BURN_IN steps is refused.
_BURN_IN_FLOOR = 100
MAX_BURN_IN = 10**6


def _require_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value) -> None:
    """Reject a scale or variance parameter that is not positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_scale(name: str, value) -> None:
    """Reject a scale that is not positive and finite or whose square, the
    variance, overflows or falls below the smallest normal double."""
    _require_positive(name, value)
    variance = float(value) * float(value)
    if not variance < math.inf:
        raise ValueError(f"{name} must have a finite variance {name}**2, got {value!r}")
    if variance < sys.float_info.min:
        raise ValueError(f"{name} must have a variance {name}**2 of at least "
                         f"{sys.float_info.min!r}, got {value!r}")


def _check_order(p: int) -> None:
    if operator.index(p) < 0:
        raise ValueError(f"p must be non-negative, got {p}")


def _check_length(n: int, p: int) -> None:
    if operator.index(n) < p + 1:
        raise ValueError(f"series too short: requires n >= p + 1, got n = {n} and p = {p}")


def _frozen(vector: np.ndarray) -> np.ndarray:
    """``vector``, held by no one else, made read-only for :func:`_frozen_vector` to keep."""
    vector.setflags(write=False)
    return vector


def _frozen_vector(name: str, value) -> np.ndarray:
    """``value`` as the read-only, native float64 vector that ArModel,
    SeriesSample, ResidualFit and LimitLawTable hold.

    A read-only float64 vector owning its data, as :func:`_frozen` makes
    one, is kept; anything else is copied, so no caller's array or view
    aliases the object.  A value that is not one-dimensional or has a
    non-finite entry is refused, naming the first bad entry by its index.
    numpy lets an owner make its array writable again, so a kept array
    stays unchanged only while its owner never writes it.
    """
    vector = np.asarray(value, dtype=float)
    if vector.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if vector.flags.writeable or not vector.flags.owndata:
        vector = vector.copy()
    finite = np.isfinite(vector)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite, got {float(vector[i])!r} at index {i}")
    return _frozen(vector)


def _ndtr(x):
    """Standard normal CDF, ``scipy.special.ndtr``, imported on first use:
    ``scipy.special`` is most of a fresh process's start-up, and building
    null tables never needs it."""
    from scipy.special import ndtr

    return ndtr(x)


# ---------------------------------------------------------------------------
# zero-mean laws
# ---------------------------------------------------------------------------


class ZeroMeanLaw(abc.ABC):
    """A zero-mean probability law with known variance, CDF and sampler.

    Each law gives its ``variance`` as a field or a property (the mean is
    zero by construction).  ``lipschitz_density`` declares (it is not
    verified) that the law has a density whose derivative exists and is
    Lipschitz; the local-power limit theory is only guaranteed for
    contaminating laws where this holds.  Implementations must accept
    scalar or ndarray ``x`` in :meth:`cdf`.
    """

    lipschitz_density: bool = False

    @abc.abstractmethod
    def cdf(self, x):
        """Cumulative distribution function, vectorized over ``x``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw an ndarray of ``size`` values from ``rng``."""


@dataclass(frozen=True)
class Gaussian(ZeroMeanLaw):
    """Centered normal law with standard deviation ``sigma``.

    The null innovation law, and the contaminant of ``gauss-scale``
    alternatives.
    """

    sigma: float
    lipschitz_density = True

    def __post_init__(self) -> None:
        _require_scale("sigma", self.sigma)

    @property
    def variance(self) -> float:
        return self.sigma**2

    def cdf(self, x):
        return _ndtr(np.asarray(x, dtype=float) / self.sigma)

    def sample(self, rng, size):
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class LaplaceLaw(ZeroMeanLaw):
    """Centered Laplace law with the given variance (scale = sqrt(var/2))."""

    variance: float
    lipschitz_density = True

    def __post_init__(self) -> None:
        _require_positive("variance", self.variance)

    @property
    def scale(self) -> float:
        return math.sqrt(self.variance / 2.0)

    def cdf(self, x):
        z = np.asarray(x, dtype=float) / self.scale
        # clamp each branch argument so the unused side of the where never
        # overflows exp
        lower = 0.5 * np.exp(np.minimum(z, 0.0))
        upper = 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0))
        return np.where(z < 0, lower, upper)

    def sample(self, rng, size):
        return rng.laplace(0.0, self.scale, size)


@dataclass(frozen=True)
class UniformLaw(ZeroMeanLaw):
    """Uniform law on ``[-h, h]`` with ``h`` chosen to match the variance."""

    variance: float
    lipschitz_density = False  # density is discontinuous at the endpoints

    def __post_init__(self) -> None:
        _require_positive("variance", self.variance)
        _require_positive("half width", self.half_width)

    @property
    def half_width(self) -> float:
        return math.sqrt(3.0 * self.variance)

    def cdf(self, x):
        h = self.half_width
        return np.clip((np.asarray(x, dtype=float) + h) / (2.0 * h), 0.0, 1.0)

    def sample(self, rng, size):
        h = self.half_width
        return rng.uniform(-h, h, size)


@dataclass(frozen=True)
class StudentTLaw(ZeroMeanLaw):
    """Scaled Student-t law; ``df > 2`` so the requested variance is finite."""

    df: float
    variance: float
    lipschitz_density = True

    def __post_init__(self) -> None:
        if not 2.0 < self.df < math.inf:
            raise ValueError(
                f"df must be finite and exceed 2 for a finite variance, got {self.df!r}"
            )
        _require_positive("variance", self.variance)

    @property
    def scale(self) -> float:
        # Var(scale * T_df) = scale^2 * df / (df - 2)
        return math.sqrt(self.variance * (self.df - 2.0) / self.df)

    def cdf(self, x):
        from scipy.special import stdtr  # on first use, as in _ndtr

        return stdtr(self.df, np.asarray(x, dtype=float) / self.scale)

    def sample(self, rng, size):
        return self.scale * rng.standard_t(self.df, size)


@dataclass(frozen=True)
class TwoPointLaw(ZeroMeanLaw):
    """Symmetric two-point law on ``{-a, +a}`` (variance ``a**2``).

    Has no density; useful for exercising code paths outside the smooth
    local-power theory and for exact-arithmetic unit tests.
    """

    a: float
    lipschitz_density = False

    def __post_init__(self) -> None:
        _require_scale("a", self.a)

    @property
    def variance(self) -> float:
        return self.a**2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.a, 0.5, 1.0)
        return np.where(x < -self.a, 0.0, out)

    def sample(self, rng, size):
        return np.where(rng.random(size) < 0.5, self.a, -self.a)


# ---------------------------------------------------------------------------
# the text grammar of the built-in laws, used by the CLI
# ---------------------------------------------------------------------------


# The families with absolute parameters: a descriptor gives one number per
# field of the family's law, in order.
_LAW_FAMILIES = {"gauss": Gaussian, "laplace": LaplaceLaw, "uniform": UniformLaw,
                 "student": StudentTLaw, "twopoint": TwoPointLaw}


def parse_alternative_law(text: str, sigma0: float) -> ZeroMeanLaw:
    """Parse the CLI grammar for contaminating laws.

    ``gauss-scale:c`` means a centered normal with standard deviation
    ``c * sigma0`` (scale relative to the null); all other families take
    absolute parameters: ``gauss:sigma``, ``laplace:variance``,
    ``uniform:variance``, ``student:df,variance``, ``twopoint:a``.  A
    descriptor holds no whitespace, which ``float`` would strip.
    """
    family, _, tail = text.partition(":")
    law = _LAW_FAMILIES.get(family)
    try:
        # no family takes zero parameters, so a spaced descriptor matches none
        one_token = tail and [text] == text.split()
        params = [float(tok) for tok in tail.split(",")] if one_token else []
        if family == "gauss-scale" and len(params) == 1:
            _require_positive("scale", params[0])
            # name the product the user wrote, not Gaussian's sigma field
            sigma = params[0] * sigma0
            product = f"got {params[0]!r} * {sigma0!r} = {sigma!r}"
            if not (sigma > 0.0 and sigma * sigma < math.inf):
                raise ValueError("c * sigma0 must be positive with a finite variance "
                                 f"(c * sigma0)**2, {product}")
            if sigma * sigma < sys.float_info.min:
                raise ValueError("c * sigma0 must have a variance (c * sigma0)**2 of at least "
                                 f"{sys.float_info.min!r}, {product}")
            return Gaussian(sigma)
        if law is not None and len(params) == len(fields(law)):
            return law(*params)
    except ValueError as exc:
        raise ValueError(f"invalid law descriptor {text!r}: {exc}") from None
    raise ValueError(f"invalid law descriptor {text!r}")


# ---------------------------------------------------------------------------
# the root-n local alternative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mixture(ZeroMeanLaw):
    """Root-n contamination of a normal law: the finite-sample alternative.

    With probability ``n**-0.5`` a draw comes from the zero-mean law ``h``,
    otherwise from ``N(0, sigma0**2)``.  ``n`` is the nominal sample size of
    the experiment the mixture is coupled to; the weight is tied to it so
    the contamination vanishes at the root-n rate along the sequence of
    experiments.

    Stream layout of ``sample(rng, size)``: ``size`` uniforms (a position is
    contaminated where its uniform falls below the weight), then ``size``
    normals with scale ``sigma0``, then one ``h.sample(rng, k)`` call whose
    ``k`` draws fill the contaminated positions in order.  A longer draw
    therefore does not extend a shorter one from the same stream.
    """

    sigma0: float
    h: ZeroMeanLaw
    n: int

    def __post_init__(self) -> None:
        _require_scale("sigma0", self.sigma0)
        if operator.index(self.n) < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.h, ZeroMeanLaw):
            raise TypeError("h must be a ZeroMeanLaw")

    @property
    def weight(self) -> float:
        """Contamination weight ``n**-0.5``."""
        return float(self.n) ** -0.5

    @property
    def variance(self) -> float:
        w = self.weight
        return (1.0 - w) * self.sigma0**2 + w * self.h.variance

    def cdf(self, x):
        w = self.weight
        x = np.asarray(x, dtype=float)
        return (1.0 - w) * _ndtr(x / self.sigma0) + w * self.h.cdf(x)

    def sample(self, rng, size):
        contaminated = rng.random(size) < self.weight
        out = rng.normal(0.0, self.sigma0, size)
        out[contaminated] = self.h.sample(rng, int(np.count_nonzero(contaminated)))
        return out


# ---------------------------------------------------------------------------
# model and simulation
# ---------------------------------------------------------------------------


def char_root_radius(coeffs: np.ndarray) -> float:
    """Largest modulus among roots of ``z^p - c_1 z^{p-1} - ... - c_p``.

    Returns 0.0 for an empty coefficient vector (order-zero model).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        return 0.0
    return float(np.max(np.abs(np.roots(np.r_[1.0, -coeffs]))))


def _derived_burn_in(coeffs: np.ndarray, radius: float) -> int | None:
    """The warm-up of a stationary model, or None above ``MAX_BURN_IN``.

    The smallest ``b >= _BURN_IN_FLOOR`` with ``C * r**b < 2**-53``, where
    ``r`` is the root radius and ``C`` bounds ``|ma[j]| / r**j`` over the
    moving-average weights up to ``b``.  ``ma[j] / r**j`` is the impulse
    response of the filter with coefficients ``coeffs[k-1] / r**k``, whose
    roots lie on or inside the unit circle, so ``C`` is taken from that
    response without under- or overflow.  A radius below 1/2 counts as 1/2:
    the bound stays valid and the floor decides anyway.
    """
    r = max(radius, 0.5)
    decay = -math.log(r)
    digits = 53 * math.log(2.0)
    if digits / decay > MAX_BURN_IN:  # C >= ma[0] = 1
        return None
    scaled = coeffs / r ** np.arange(1, coeffs.size + 1)
    m = 128
    while True:
        impulse = np.zeros(m + 1)
        impulse[0] = 1.0
        c = float(np.max(np.abs(_ar_filter(scaled, impulse))))
        b = max(_BURN_IN_FLOOR, math.floor((digits + math.log(c)) / decay) + 1)
        if b > MAX_BURN_IN:
            return None
        if b <= m:
            return b
        m = max(2 * m, b)


@dataclass(frozen=True)
class ArModel:
    """Stationary AR(p) model: coefficients, series mean, innovation law.

    Construction fails unless every characteristic root has modulus below
    ``1 - 1e-8``; nothing downstream needs to re-check stationarity, and
    ``coeffs``, a scalar or vector, is held by :func:`_frozen_vector`.

    ``root_radius`` and ``burn_in`` are not arguments but derived here
    once: the largest modulus ``r`` of a characteristic root
    (:func:`char_root_radius`), and the warm-up :func:`simulate_ar` runs.
    The recursion starts from zeros, so ``b`` steps later the value still
    carries a transient of the zero start.  That transient is the free
    response of the filter to the stationary state ``b`` steps back: at
    most ``C * r**b`` times the stationary scale, where ``C`` bounds
    ``|ma[j]| / r**j`` over the moving-average weights.  ``burn_in`` is
    the smallest ``b`` of at least 100 steps with ``C * r**b < 2**-53``, so
    the first simulated value is stationary to double precision: 100 steps
    for ``beta = (0.5, -0.3)``, 36,719 for AR(1) at ``beta = 0.999`` and
    367,350 at ``beta = 0.9999``.  A model whose warm-up would exceed
    ``MAX_BURN_IN`` (10**6) steps (radius above about 0.99996 for AR(1))
    is refused, with a message naming the radius.
    """

    coeffs: np.ndarray
    mean: float
    innovation: ZeroMeanLaw
    burn_in: int = field(init=False)
    root_radius: float = field(init=False)

    def __post_init__(self) -> None:
        coeffs = _frozen_vector("coeffs", np.atleast_1d(self.coeffs))
        radius = char_root_radius(coeffs)
        if radius >= 1.0 - _STATIONARITY_MARGIN:
            raise ValueError(
                f"model is not stationary: characteristic root radius {radius:.6g} "
                f"is not below {1.0 - _STATIONARITY_MARGIN}"
            )
        _require_finite("mean", self.mean)
        object.__setattr__(self, "coeffs", coeffs)
        if not isinstance(self.innovation, ZeroMeanLaw):
            raise TypeError("innovation must be a ZeroMeanLaw")
        burn_in = _derived_burn_in(coeffs, radius)
        if burn_in is None:
            raise ValueError(
                f"the warm-up for characteristic root radius {radius:.10g} "
                f"exceeds {MAX_BURN_IN} steps"
            )
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "root_radius", radius)

    @property
    def order(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class SeriesSample:
    """A simulated or observed stretch ``v_{1-p}, ..., v_n`` of the series.

    The first ``p`` entries are the pre-sample values used to condition the
    least-squares fit; the last ``n = values.size - p`` are the working
    sample, so ``n >= p + 1`` needs at least ``2p + 1`` values.
    ``values`` is held by :func:`_frozen_vector`, and ``p`` as an ``int``.
    """

    values: np.ndarray
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", operator.index(self.p))
        _check_order(self.p)
        values = _frozen_vector("values", self.values)
        if values.size < 2 * self.p + 1:
            raise ValueError(
                f"series too short: requires at least 2p + 1 = {2 * self.p + 1} values, "
                f"got {values.size} values and p = {self.p}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        """Length of the working sample."""
        return int(self.values.size) - self.p

    @classmethod
    def from_values(cls, values, p: int) -> "SeriesSample":
        """Build a sample from raw values, treating the first ``p`` as pre-sample."""
        return cls(values=values, p=p)


def _ar_filter(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Run ``x`` through the all-pole filter ``1 / (1 - sum_k coeffs[k-1] B^k)``."""
    from scipy.signal import lfilter  # on first use: it loads scipy.stats, slow to import

    return lfilter([1.0], np.concatenate(([1.0], -coeffs)), x)


def simulate_ar(model: ArModel, n: int, seed: int | np.random.Generator = 0) -> SeriesSample:
    """Simulate ``n + p`` consecutive observations of the model.

    The recursion starts from zeros, runs for the model's ``burn_in``
    warm-up steps, and the last ``n + p`` values are returned as a
    :class:`SeriesSample` (so the fitting pipeline has its ``p`` pre-sample
    values).  Innovations are drawn in a single vectorized pass from
    ``seed`` (an integer, whose stream is ``substream(seed)``, or a
    Generator drawn from in place), so equal seeds give bit-identical
    output.
    """
    p = model.order
    _check_length(n, p)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    eps = model.innovation.sample(rng, model.burn_in + n + p)
    centered = _ar_filter(model.coeffs, eps)
    return SeriesSample(values=_frozen(model.mean + centered[model.burn_in:]), p=p)
