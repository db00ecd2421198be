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
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.signal import lfilter
from scipy.special import ndtr

from .rng import make_rng

__all__ = [
    "ZeroMeanLaw",
    "Gaussian",
    "LaplaceLaw",
    "UniformLaw",
    "StudentTLaw",
    "TwoPointLaw",
    "CustomLaw",
    "law_descriptor",
    "law_from_descriptor",
    "parse_alternative_law",
    "Mixture",
    "ArModel",
    "SeriesSample",
    "char_root_radius",
    "ma_coefficients",
    "default_burn_in",
    "simulate_ar",
]

# Margin used by the stationarity gate: the largest characteristic root must
# have modulus below 1 - _STATIONARITY_MARGIN.
_STATIONARITY_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# zero-mean laws
# ---------------------------------------------------------------------------


class ZeroMeanLaw(abc.ABC):
    """A zero-mean probability law with known variance, CDF and sampler.

    ``lipschitz_density`` declares (it is not verified) that the law has a
    density whose derivative exists and is Lipschitz; the local-power limit
    theory is only guaranteed for contaminating laws where this holds.
    Implementations must accept scalar or ndarray ``x`` in :meth:`cdf`.
    """

    lipschitz_density: bool = False

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Variance of the law (the mean is zero by construction)."""

    @abc.abstractmethod
    def cdf(self, x):
        """Cumulative distribution function, vectorized over ``x``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw one value (``size=None``) or an ndarray of ``size`` values."""


@dataclass(frozen=True)
class Gaussian(ZeroMeanLaw):
    """Centered normal law with standard deviation ``sigma``.

    The null innovation law, and the contaminant of ``gauss-scale``
    alternatives.
    """

    sigma: float
    lipschitz_density = True

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @property
    def variance(self) -> float:
        return self.sigma**2

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float) / self.sigma)

    def sample(self, rng, size=None):
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class LaplaceLaw(ZeroMeanLaw):
    """Centered Laplace law with the given variance (scale = sqrt(var/2))."""

    variance_: float
    lipschitz_density = True

    def __post_init__(self) -> None:
        if not self.variance_ > 0:
            raise ValueError("variance must be positive")

    @property
    def variance(self) -> float:
        return self.variance_

    @property
    def scale(self) -> float:
        return math.sqrt(self.variance_ / 2.0)

    def cdf(self, x):
        z = np.asarray(x, dtype=float) / self.scale
        # clamp each branch argument so the unused side of the where never
        # overflows exp
        lower = 0.5 * np.exp(np.minimum(z, 0.0))
        upper = 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0))
        return np.where(z < 0, lower, upper)

    def sample(self, rng, size=None):
        return rng.laplace(0.0, self.scale, size)


@dataclass(frozen=True)
class UniformLaw(ZeroMeanLaw):
    """Uniform law on ``[-h, h]`` with ``h`` chosen to match the variance."""

    variance_: float
    lipschitz_density = False  # density is discontinuous at the endpoints

    def __post_init__(self) -> None:
        if not self.variance_ > 0:
            raise ValueError("variance must be positive")

    @property
    def variance(self) -> float:
        return self.variance_

    @property
    def half_width(self) -> float:
        return math.sqrt(3.0 * self.variance_)

    def cdf(self, x):
        h = self.half_width
        return np.clip((np.asarray(x, dtype=float) + h) / (2.0 * h), 0.0, 1.0)

    def sample(self, rng, size=None):
        h = self.half_width
        return rng.uniform(-h, h, size)


@dataclass(frozen=True)
class StudentTLaw(ZeroMeanLaw):
    """Scaled Student-t law; ``df > 2`` so the requested variance is finite."""

    df: float
    variance_: float
    lipschitz_density = True

    def __post_init__(self) -> None:
        if not self.df > 2:
            raise ValueError("df must exceed 2 for a finite variance")
        if not self.variance_ > 0:
            raise ValueError("variance must be positive")

    @property
    def variance(self) -> float:
        return self.variance_

    @property
    def scale(self) -> float:
        # Var(scale * T_df) = scale^2 * df / (df - 2)
        return math.sqrt(self.variance_ * (self.df - 2.0) / self.df)

    def cdf(self, x):
        return stats.t.cdf(np.asarray(x, dtype=float) / self.scale, self.df)

    def sample(self, rng, size=None):
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
        if not self.a > 0:
            raise ValueError("a must be positive")

    @property
    def variance(self) -> float:
        return self.a**2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.a, 0.5, 1.0)
        return np.where(x < -self.a, 0.0, out)

    def sample(self, rng, size=None):
        if size is None:
            return self.a if rng.random() < 0.5 else -self.a
        return np.where(rng.random(size) < 0.5, self.a, -self.a)


class CustomLaw(ZeroMeanLaw):
    """Wrap a user-supplied CDF and sampler into a zero-mean law.

    The declared zero mean and ``variance`` are trusted, not verified.  The
    sampler takes a Generator and returns one draw; vector sampling falls
    back to a Python loop, so prefer the built-in laws in hot paths.
    """

    def __init__(self, cdf, sampler, variance: float, lipschitz_density: bool = False):
        if not variance > 0:
            raise ValueError("variance must be positive")
        self._cdf = cdf
        self._sampler = sampler
        self._variance = float(variance)
        self.lipschitz_density = bool(lipschitz_density)

    @property
    def variance(self) -> float:
        return self._variance

    def cdf(self, x):
        return self._cdf(x)

    def sample(self, rng, size=None):
        if size is None:
            return self._sampler(rng)
        return np.array([self._sampler(rng) for _ in range(size)])


# ---------------------------------------------------------------------------
# descriptors: text form of the built-in laws, used by the CLI and by the
# on-disk table format (absolute parameters, no context needed to rebuild)
# ---------------------------------------------------------------------------


def law_descriptor(law: ZeroMeanLaw) -> str:
    """Serialize a built-in law as ``family:p1[,p2]`` with absolute params."""
    if isinstance(law, Gaussian):
        return f"gauss:{float(law.sigma)!r}"
    if isinstance(law, LaplaceLaw):
        return f"laplace:{float(law.variance_)!r}"
    if isinstance(law, UniformLaw):
        return f"uniform:{float(law.variance_)!r}"
    if isinstance(law, StudentTLaw):
        return f"student:{float(law.df)!r},{float(law.variance_)!r}"
    if isinstance(law, TwoPointLaw):
        return f"twopoint:{float(law.a)!r}"
    raise ValueError(f"law of type {type(law).__name__} has no text descriptor")


def law_from_descriptor(text: str) -> ZeroMeanLaw:
    """Inverse of :func:`law_descriptor`."""
    family, _, tail = text.partition(":")
    try:
        params = [float(tok) for tok in tail.split(",")] if tail else []
    except ValueError as exc:
        raise ValueError(f"invalid law descriptor {text!r}: {exc}") from None
    try:
        if family == "gauss" and len(params) == 1:
            return Gaussian(params[0])
        if family == "laplace" and len(params) == 1:
            return LaplaceLaw(params[0])
        if family == "uniform" and len(params) == 1:
            return UniformLaw(params[0])
        if family == "student" and len(params) == 2:
            return StudentTLaw(params[0], params[1])
        if family == "twopoint" and len(params) == 1:
            return TwoPointLaw(params[0])
    except ValueError as exc:
        raise ValueError(f"invalid law descriptor {text!r}: {exc}") from None
    raise ValueError(f"invalid law descriptor {text!r}")


def parse_alternative_law(text: str, sigma0: float) -> ZeroMeanLaw:
    """Parse the CLI grammar for contaminating laws.

    ``gauss-scale:c`` means a centered normal with standard deviation
    ``c * sigma0`` (scale relative to the null); all other families take
    absolute parameters: ``laplace:variance``, ``uniform:variance``,
    ``student:df,variance``, ``twopoint:a``.
    """
    family, _, tail = text.partition(":")
    if family == "gauss-scale":
        try:
            (c,) = [float(tok) for tok in tail.split(",")] if tail else []
        except ValueError:
            raise ValueError(f"invalid law descriptor {text!r}") from None
        if not c > 0:
            raise ValueError(f"invalid law descriptor {text!r}: scale must be positive")
        return Gaussian(c * sigma0)
    return law_from_descriptor(text)


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

    Draw order contract: each draw consumes exactly one uniform (the branch
    indicator) followed by exactly one draw from the selected branch, so a
    vector of draws equals the sequence of single draws from the same
    stream.
    """

    sigma0: float
    h: ZeroMeanLaw
    n: int

    def __post_init__(self) -> None:
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError("n must be an integer >= 2")
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
        return (1.0 - w) * ndtr(x / self.sigma0) + w * self.h.cdf(x)

    def sample(self, rng, size=None):
        if size is None:
            if rng.random() < self.weight:
                return self.h.sample(rng)
            return rng.normal(0.0, self.sigma0)
        # scalar loop: the per-draw stream layout above is part of the
        # contract, so the branches cannot be batched
        w = self.weight
        s0 = self.sigma0
        uniform, normal, h_sample = rng.random, rng.normal, self.h.sample
        out = np.empty(size)
        for i in range(size):
            out[i] = h_sample(rng) if uniform() < w else normal(0.0, s0)
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
    roots = np.roots(np.r_[1.0, -coeffs])
    return float(np.max(np.abs(roots))) if roots.size else 0.0


@dataclass(frozen=True)
class ArModel:
    """Stationary AR(p) model: coefficients, series mean, innovation law.

    Construction fails unless every characteristic root has modulus below
    ``1 - 1e-8``; nothing downstream needs to re-check stationarity.
    """

    coeffs: np.ndarray
    mean: float
    innovation: ZeroMeanLaw

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.array(self.coeffs, dtype=float, copy=True))
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be a one-dimensional vector")
        if coeffs.size and not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        radius = char_root_radius(coeffs)
        if radius >= 1.0 - _STATIONARITY_MARGIN:
            raise ValueError(
                f"model is not stationary: characteristic root radius {radius:.6g} "
                f"is not below {1.0 - _STATIONARITY_MARGIN}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if not isinstance(self.innovation, ZeroMeanLaw):
            raise TypeError("innovation must be a ZeroMeanLaw")

    @property
    def order(self) -> int:
        return int(self.coeffs.size)


@dataclass(frozen=True)
class SeriesSample:
    """A simulated or observed stretch ``v_{1-p}, ..., v_n`` of the series.

    The first ``p`` entries are the pre-sample values used to condition the
    least-squares fit; the last ``n`` are the working sample.
    """

    values: np.ndarray
    p: int
    n: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1:
            raise ValueError("values must be a one-dimensional vector")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.n < self.p + 1:
            raise ValueError("series too short: requires n >= p + 1")
        if values.size != self.n + self.p:
            raise ValueError(
                f"expected {self.n + self.p} values (n + p), got {values.size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values, p: int) -> "SeriesSample":
        """Build a sample from raw values, treating the first ``p`` as pre-sample."""
        values = np.asarray(values, dtype=float)
        return cls(values=values, p=int(p), n=int(values.size) - int(p))


def ma_coefficients(coeffs: np.ndarray, m: int) -> np.ndarray:
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
    return lfilter([1.0], np.r_[1.0, -coeffs], impulse)


def default_burn_in(p: int) -> int:
    """Default warm-up length ``1000 + 100 p`` discarded before sampling.

    Long enough that the geometric start-up transient is far below double
    precision for any model passing the stationarity gate at realistic
    root radii; increase it explicitly for models with roots extremely
    close to the unit circle.
    """
    return 1000 + 100 * int(p)


def simulate_ar(
    model: ArModel,
    n: int,
    burn_in: int | None = None,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> SeriesSample:
    """Simulate ``n + p`` consecutive observations of the model.

    The recursion starts from zeros, runs for ``burn_in`` warm-up steps
    (default :func:`default_burn_in`), and the last ``n + p`` values are
    returned as a :class:`SeriesSample` (so the fitting pipeline has its
    ``p`` pre-sample values).  Innovations are drawn in a single vectorized
    pass from ``seed``, so equal seeds give bit-identical output.
    """
    p = model.order
    if n < p + 1:
        raise ValueError("series too short: requires n >= p + 1")
    if burn_in is None:
        burn_in = default_burn_in(p)
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    rng = make_rng(seed)
    eps = model.innovation.sample(rng, burn_in + n + p)
    centered = lfilter([1.0], np.r_[1.0, -model.coeffs], eps)
    values = model.mean + centered[burn_in:]
    return SeriesSample(values=values, p=p, n=n)
