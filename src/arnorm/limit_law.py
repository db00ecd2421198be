"""Limiting law of the residual empirical process and its functionals.

After fitting the mean, the autoregression coefficients, and the innovation
scale, the normalized empirical process of the residuals (plotted in
probability coordinates ``t = Phi(x / sigma0)``) converges to a centered
Gaussian process on [0, 1] with covariance kernel

    c(s, t) = min(s, t) - s * t - a(s) * a(t) - 0.5 * b(s) * b(t),

where ``a(t) = pdf(q_t)``, ``b(t) = q_t * pdf(q_t)`` and ``q_t`` is the
standard normal quantile of ``t``.  The two extra subtractions are the
price of estimating location/coefficients (the ``a`` term) and scale (the
``b`` term); they make the classical no-estimation tables inapplicable.

Under root-n contamination of the innovation law by a zero-mean law ``h``
(see :class:`~arnorm.ar_process.Mixture`), the same process acquires the
deterministic mean shift :func:`local_shift`, and asymptotic test power is
a tail probability of a functional of the shifted process.

Functionals are simulated on a uniform interior grid ``i / grid_size`` by
drawing grid marginals of the Gaussian process (eigenvalue factorization of
the kernel matrix), each replication from its own derived substream, so
tables are reproducible and worker-count independent.

The supremum over the grid points falls short of the supremum over all of
[0, 1], so every sup sample carries the first-order continuity correction
``SUP_CONTINUITY_BETA / sqrt(grid_size)``; tables and asymptotic power then
describe the continuous-time sup, not the grid.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .ar_process import Gaussian, ZeroMeanLaw, law_descriptor, law_from_descriptor
from .rng import substream

__all__ = [
    "SUP_CONTINUITY_BETA",
    "StatKind",
    "ShiftSpec",
    "LimitLawTable",
    "cov_eval",
    "cov_matrix",
    "local_shift",
    "simulate_limit_tables",
    "quantile",
    "mc_p_value",
    "save_table",
    "load_table",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Discrete-monitoring correction for the maximum of a process that moves
# locally like Brownian motion with unit diffusion: the maximum over a grid
# of step d falls short of the continuous maximum by beta * sqrt(d), with
# beta = -zeta(1/2) / sqrt(2 pi) (Asmussen, Glynn & Pitman 1995, Ann. Appl.
# Probab. 5:875; Broadie, Glasserman & Kou 1997, Math. Finance 7:325).  The
# limit process qualifies: the bridge part has unit diffusion and the
# estimation terms are smooth in the interior of [0, 1].
SUP_CONTINUITY_BETA = 0.5825971579390107

# A kernel matrix eigenvalue below this is a bug, not roundoff.
_PSD_TOL = -1e-8

# Replication block width: ~16 MB of path storage at grid 512.
_BLOCK = 4096


class StatKind(str, enum.Enum):
    """Which functional of the residual empirical process is used."""

    KOLMOGOROV = "kolmogorov"  # sup over t of |process|, scaled by sqrt(n)
    OMEGA2 = "omega2"  # integral over t of process**2


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _pdf_terms(t):
    """``pdf(q_t)`` and ``q_t * pdf(q_t)`` with ``q_t`` the normal quantile of ``t``.

    Both are extended by continuity to 0 at t in {0, 1}.
    """
    t = np.asarray(t, dtype=float)
    interior = (t > 0.0) & (t < 1.0)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    q = ndtri(t[interior])
    a[interior] = _normal_pdf(q)
    b[interior] = q * a[interior]
    return a, b


def cov_eval(s, t):
    """Covariance kernel of the limiting process, vectorized over s, t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any((s < 0) | (s > 1)) or np.any((t < 0) | (t > 1)):
        raise ValueError("kernel arguments must lie in [0, 1]")
    a_s, b_s = _pdf_terms(s)
    a_t, b_t = _pdf_terms(t)
    value = np.minimum(s, t) - s * t - a_s * a_t - 0.5 * b_s * b_t
    if value.ndim == 0:
        return float(value)
    return value


def cov_matrix(t_grid) -> np.ndarray:
    """Kernel matrix ``c(t_i, t_j)`` on a grid of points in [0, 1]."""
    t_grid = np.asarray(t_grid, dtype=float)
    return cov_eval(t_grid[:, None], t_grid[None, :])


@dataclass(frozen=True)
class ShiftSpec:
    """Root-n contamination driving the local mean shift.

    ``h`` is the contaminating zero-mean law; ``sigma0`` is the innovation
    standard deviation under the null the contamination is measured from.
    """

    h: ZeroMeanLaw
    sigma0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma0 < math.inf:
            raise ValueError("sigma0 must be positive and finite")
        if not isinstance(self.h, ZeroMeanLaw):
            raise TypeError("h must be a ZeroMeanLaw")


def local_shift(spec: ShiftSpec, t):
    """Deterministic mean shift of the limiting process at ``t`` in [0, 1].

    ``shift(t) = h.cdf(sigma0 * q_t) - t
    + 0.5 * q_t * pdf(q_t) * (h.variance / sigma0**2 - 1)``
    with ``q_t`` the standard normal quantile; the value is 0 at both
    endpoints by continuity (enforced exactly).  Identically zero when
    ``h`` is the null law ``N(0, sigma0**2)`` itself.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any((t_arr < 0) | (t_arr > 1)):
        raise ValueError("t must lie in [0, 1]")
    out = np.zeros_like(t_arr)
    if isinstance(spec.h, Gaussian) and spec.h.sigma == spec.sigma0:
        # Mixing the innovation law with itself changes nothing; return exact
        # zeros instead of round-trip noise so downstream tables stay
        # bit-reproducible against the unshifted ones.
        if out.ndim == 0:
            return float(out)
        return out
    interior = (t_arr > 0.0) & (t_arr < 1.0)
    q = ndtri(t_arr[interior])
    ratio = spec.h.variance / spec.sigma0**2
    out[interior] = (
        spec.h.cdf(spec.sigma0 * q)
        - t_arr[interior]
        + 0.5 * q * _normal_pdf(q) * (ratio - 1.0)
    )
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class LimitLawTable:
    """Sorted Monte Carlo sample of one functional's limiting law.

    ``shift`` is None for the null law.  ``seed`` is the root seed the
    samples were generated from; together with ``kind``, ``shift`` and
    ``grid_size`` it reproduces the table exactly.
    """

    kind: StatKind
    shift: ShiftSpec | None
    samples: np.ndarray
    grid_size: int
    n_reps: int
    seed: int

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float, copy=True)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty vector")
        if self.n_reps != samples.size:
            raise ValueError("n_reps must equal the number of samples")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(np.diff(samples) < 0):
            raise ValueError("samples must be sorted in ascending order")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@lru_cache(maxsize=8)
def _path_factor(grid_size: int):
    """Interior grid and a matrix A with ``A @ A.T`` equal to the kernel matrix.

    Eigenvalues in ``[-1e-8, 0)`` are clipped to zero (roundoff);  anything
    below that aborts, because the kernel is positive semidefinite in exact
    arithmetic and such an eigenvalue would mean the implementation is wrong.
    """
    t_grid = np.arange(1, grid_size) / grid_size
    kernel = cov_matrix(t_grid)
    eigvals, eigvecs = np.linalg.eigh(kernel)
    if float(eigvals[0]) < _PSD_TOL:
        raise RuntimeError(
            f"kernel matrix on grid {grid_size} has eigenvalue {eigvals[0]:.3e} "
            f"below {_PSD_TOL}; covariance kernel implementation is broken"
        )
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return t_grid, factor


def _functional_chunk(kinds, shift, grid_size, seed, n_reps, start, stop):
    """Functional samples for replications ``start..stop-1``.

    Replication ``r`` draws its grid normals from ``substream(seed, r)``,
    and the matrix products are evaluated in blocks aligned to global
    multiples of ``_BLOCK`` (``start`` must sit on a block boundary), so
    every replication goes through an identically shaped product and the
    result does not depend on how replications are split across workers.
    """
    t_grid, factor = _path_factor(grid_size)
    sup_correction = SUP_CONTINUITY_BETA / math.sqrt(grid_size)
    shift_values = local_shift(shift, t_grid)[:, None] if shift is not None else None
    m = grid_size - 1
    out = {kind: np.empty(stop - start) for kind in kinds}
    for block_start in range(start, stop, _BLOCK):
        block_stop = min(block_start + _BLOCK, stop, n_reps)
        normals = np.empty((m, block_stop - block_start))
        for j, rep in enumerate(range(block_start, block_stop)):
            normals[:, j] = substream(seed, rep).standard_normal(m)
        paths = factor @ normals
        if shift_values is not None:
            paths += shift_values
        sel = slice(block_start - start, block_stop - start)
        for kind in kinds:
            if kind is StatKind.KOLMOGOROV:
                out[kind][sel] = np.max(np.abs(paths), axis=0) + sup_correction
            else:
                out[kind][sel] = np.einsum("ij,ij->j", paths, paths) / grid_size
    return out


def simulate_limit_tables(
    kinds,
    shift: ShiftSpec | None,
    grid_size: int,
    n_reps: int,
    seed: int,
    workers: int = 1,
) -> dict[StatKind, LimitLawTable]:
    """Monte Carlo tables for several functionals from shared process paths.

    Both functionals of one replication are computed from the same simulated
    path, which is cheaper and makes cross-statistic comparisons share their
    Monte Carlo noise.  Sup samples include the continuity correction, so
    their law is that of the sup over [0, 1] for any grid fine enough for
    the first-order correction.  Output is bit-identical for any
    ``workers >= 1``.
    """
    kinds = tuple(StatKind(k) for k in kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate statistic kinds")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    # worker ranges must meet at _BLOCK boundaries so the product shapes
    # (and hence the float rounding) match the single-worker run exactly
    n_blocks = -(-n_reps // _BLOCK)
    if workers == 1 or n_blocks < 2:
        chunks = [_functional_chunk(kinds, shift, grid_size, seed, n_reps, 0, n_reps)]
    else:
        block_bounds = np.linspace(0, n_blocks, min(workers, n_blocks) + 1).astype(int)
        ranges = [
            (lo * _BLOCK, min(hi * _BLOCK, n_reps))
            for lo, hi in zip(block_bounds[:-1], block_bounds[1:])
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_functional_chunk, kinds, shift, grid_size, seed, n_reps, lo, hi)
                for lo, hi in ranges
            ]
            chunks = [f.result() for f in futures]
    tables = {}
    for kind in kinds:
        samples = np.sort(np.concatenate([chunk[kind] for chunk in chunks]))
        tables[kind] = LimitLawTable(
            kind=kind,
            shift=shift,
            samples=samples,
            grid_size=grid_size,
            n_reps=n_reps,
            seed=seed,
        )
    return tables


def quantile(table: LimitLawTable, alpha: float) -> float:
    """Upper ``alpha`` critical value: nearest-rank (1 - alpha) quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    rank = math.ceil((1.0 - alpha) * table.n_reps)
    rank = min(max(rank, 1), table.n_reps)
    return float(table.samples[rank - 1])


def mc_p_value(table: LimitLawTable, value: float) -> float:
    """Monte Carlo p-value ``(r + 1) / (n_reps + 1)``.

    ``r`` counts table samples at or above the observed value; the +1s keep
    the p-value strictly positive and make the test exact under the table
    law.  The value 1.0 is returned when the observation is at or below
    every tabulated sample.
    """
    if not np.isfinite(value):
        raise ValueError("value must be finite")
    r = table.n_reps - int(np.searchsorted(table.samples, value, side="left"))
    return (r + 1) / (table.n_reps + 1)


# ---------------------------------------------------------------------------
# persistence: plain-text tables that round-trip bit-exactly
# ---------------------------------------------------------------------------

_TABLE_MAGIC = "limit-table v1"


def save_table(table: LimitLawTable, path, comments=()) -> None:
    """Write a table as text: a header line, optional comments, one sample per line.

    Floats are written with ``repr`` so a load reproduces the array
    bit-exactly.
    """
    if table.shift is None:
        shift_field = "shift=none"
    else:
        shift_field = (
            f"shift={law_descriptor(table.shift.h)} "
            f"shift_sigma0={float(table.shift.sigma0)!r}"
        )
    header = (
        f"# {_TABLE_MAGIC} kind={table.kind.value} grid_size={table.grid_size} "
        f"n_reps={table.n_reps} seed={table.seed} {shift_field}\n"
    )
    with open(path, "w") as fh:
        fh.write(header)
        for line in comments:
            fh.write(f"# {line}\n")
        for value in table.samples:
            fh.write(f"{float(value)!r}\n")


def load_table(path) -> LimitLawTable:
    """Read a table written by :func:`save_table`."""
    with open(path) as fh:
        header = fh.readline()
        prefix = f"# {_TABLE_MAGIC} "
        if not header.startswith(prefix):
            raise ValueError(f"{path}: not a limit-table file")
        fields = {}
        for token in header[len(prefix) :].split():
            key, _, value = token.partition("=")
            fields[key] = value
        try:
            kind = StatKind(fields["kind"])
            grid_size = int(fields["grid_size"])
            n_reps = int(fields["n_reps"])
            seed = int(fields["seed"])
            shift_text = fields["shift"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed table header: {exc}") from None
        if shift_text == "none":
            shift = None
        else:
            try:
                sigma0 = float(fields["shift_sigma0"])
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: malformed table header: {exc}") from None
            shift = ShiftSpec(h=law_from_descriptor(shift_text), sigma0=sigma0)
        try:
            samples = [
                float(line) for line in map(str.strip, fh) if line and not line.startswith("#")
            ]
        except ValueError:
            # read again line by line, only to name the offending line
            fh.seek(0)
            for lineno, line in enumerate(map(str.strip, fh), start=1):
                try:
                    if line and not line.startswith("#"):
                        float(line)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno} is not a number: {line!r}"
                    ) from None
            raise
    try:
        return LimitLawTable(
            kind=kind,
            shift=shift,
            samples=np.asarray(samples, dtype=float),
            grid_size=grid_size,
            n_reps=n_reps,
            seed=seed,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
