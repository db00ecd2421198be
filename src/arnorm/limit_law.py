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

Functionals are simulated on the interior grid ``i / grid_size`` from
Durbin's (1973, Ann. Statist. 1:279) form ``X = B + a Z1 + 0.5 b Z2`` of the
process, with ``Z1 = int q dW`` and ``Z2 = int (q**2 - 1) dW`` on the Brownian
motion ``W`` of the bridge ``B``: O(grid_size) per path, each replication on
its own, drawn from the stream of its block of 64 (see
:func:`~arnorm.rng.map_replications`), so tables are reproducible,
worker-count independent, and extended by longer runs.  A path, in units
of ``1 / sqrt(grid_size)``, is the walk of its increments plus one rank-k
``einsum`` update, never BLAS, whose sums can move with its thread count.
Paths are assembled at most 64 and about 2**15 normals per call, so that
they stay in cache, in buffers allocated once per table call; a path
longer than numpy's buffer is assembled alone.  The normal quantiles of the
grid come from the standard library's ``statistics.NormalDist``, so
building a null table loads no scipy module.

The supremum over the grid points falls short of the supremum over all of
[0, 1], so every sup sample carries the first-order continuity correction
``SUP_CONTINUITY_BETA / sqrt(grid_size)``; tables and asymptotic power then
describe the continuous-time sup, not the grid.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import statistics
from dataclasses import dataclass

import numpy as np

from .ar_process import Gaussian, Mixture, _frozen, _frozen_vector
from .rng import REPLICATION_BLOCK, _checked_seed, map_replications

__all__ = [
    "SUP_CONTINUITY_BETA",
    "StatKind",
    "LimitLawTable",
    "cov_matrix",
    "local_shift",
    "simulate_limit_tables",
    "quantile",
    "mc_p_value",
    "save_table",
    "load_table",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = statistics.NormalDist()

# Discrete-monitoring correction for the maximum of a process that moves
# locally like Brownian motion with unit diffusion: the maximum over a grid
# of step d falls short of the continuous maximum by beta * sqrt(d), with
# beta = -zeta(1/2) / sqrt(2 pi) (Asmussen, Glynn & Pitman 1995, Ann. Appl.
# Probab. 5:875; Broadie, Glasserman & Kou 1997, Math. Finance 7:325).  The
# limit process qualifies: the bridge part has unit diffusion and the
# estimation terms are smooth in the interior of [0, 1].
SUP_CONTINUITY_BETA = 0.5825971579390107

# Grid size and replications of a limit table when the caller names none.
DEFAULT_GRID = 512
DEFAULT_REPS = 100_000


class StatKind(str, enum.Enum):
    """Which functional of the residual empirical process is used."""

    KOLMOGOROV = "kolmogorov"  # sup over t of |process|, scaled by sqrt(n)
    OMEGA2 = "omega2"  # integral over t of process**2


def _stat_kinds(kinds) -> tuple[StatKind, ...]:
    """``kinds`` as a tuple of :class:`StatKind`; a bare name, an empty
    selection and a kind named twice are refused."""
    if isinstance(kinds, str):
        raise ValueError(f"statistics must be a collection of names, not the string {kinds!r}")
    kinds = tuple(StatKind(k) for k in kinds)
    if not kinds:
        raise ValueError("statistics must not be empty")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"statistics must not repeat a name, got {[k.value for k in kinds]}")
    return kinds


def _check_grid_size(grid_size: int) -> None:
    if operator.index(grid_size) < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _ndtri(t):
    """Standard normal quantiles of a vector of points in (0, 1), by Wichura's
    AS 241 (1988, Appl. Statist. 37:477) as the standard library computes it:
    within a few ulp of the exact value, exactly 0 at one half, and
    antisymmetric about it wherever ``1 - t`` is exact."""
    return np.fromiter(map(_STANDARD_NORMAL.inv_cdf, t.tolist()), dtype=float, count=t.size)


def _pdf_terms(t):
    """The interior ``0 < t < 1`` of a grid, the normal quantiles ``q_t`` of
    its interior points, and ``a = pdf(q_t)`` and ``b = q_t * pdf(q_t)`` on
    the whole grid, extended by continuity to 0 at t in {0, 1}."""
    interior = (t > 0.0) & (t < 1.0)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    q = _ndtri(t[interior])
    a[interior] = _normal_pdf(q)
    b[interior] = q * a[interior]
    return interior, q, a, b


def _unit_grid(name: str, t) -> np.ndarray:
    """``t`` as a one-dimensional float vector of points in [0, 1]; another
    shape is refused, and so is a point outside, NaN among them, naming it."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector, got shape {t.shape}")
    bad = t[~((t >= 0.0) & (t <= 1.0))]
    if bad.size:
        raise ValueError(f"t must lie in [0, 1], got {float(bad[0])!r}")
    return t


def cov_matrix(t_grid) -> np.ndarray:
    """Covariance kernel ``c(t_i, t_j)`` of the limiting process on a grid
    of points in [0, 1]."""
    t = _unit_grid("t_grid", t_grid)
    s, u = t[:, None], t[None, :]
    _, _, a, b = _pdf_terms(t)
    return np.minimum(s, u) - s * u - a[:, None] * a[None, :] - 0.5 * b[:, None] * b[None, :]


def _check_shift(shift) -> None:
    if not isinstance(shift, Mixture):
        raise TypeError(f"shift must be a Mixture, got {type(shift).__name__}")


def local_shift(mixture: Mixture, t):
    """Deterministic mean shift of the limiting process on a grid ``t`` in [0, 1].

    ``shift(t) = h.cdf(sigma0 * q_t) - t + 0.5 * b(t) * (h.variance / sigma0**2 - 1)``
    with ``h`` and ``sigma0`` the root-n ``mixture``'s and ``q_t`` and ``b`` as
    in the kernel: the first-order term in ``n**-0.5``, so ``mixture.n`` is
    not used.  The value is 0 at both endpoints by continuity (enforced
    exactly).  Identically zero when ``h`` is the null law ``N(0, sigma0**2)``.
    """
    _check_shift(mixture)
    t = _unit_grid("t", t)
    out = np.zeros_like(t)
    # Mixing the innovation law with itself changes nothing; keep exact zeros
    # instead of round-trip noise so downstream tables stay bit-reproducible
    # against the unshifted ones.
    if not (isinstance(mixture.h, Gaussian) and mixture.h.sigma == mixture.sigma0):
        interior, q, _, b = _pdf_terms(t)
        ratio = mixture.h.variance / mixture.sigma0**2
        out[interior] = (mixture.h.cdf(mixture.sigma0 * q) - t[interior]
                         + 0.5 * b[interior] * (ratio - 1.0))
    return out


@dataclass(frozen=True)
class LimitLawTable:
    """Sorted Monte Carlo sample of one functional's limiting law.

    ``kind`` is held as a :class:`StatKind`: a kind's name is converted, and
    an unknown name is refused.
    ``shift`` is None for the null law, else the mixture whose
    :func:`local_shift` the samples carry (any other shift is a
    ``TypeError``); :func:`save_table` saves null tables only.
    ``seed`` is the root seed the samples were generated from; together with
    ``kind``, ``shift`` and ``grid_size`` it reproduces the table exactly.

    ``samples``, ``n_reps`` values in ascending order, is held by
    :func:`~arnorm.ar_process._frozen_vector`, which keeps loaded and simulated samples uncopied.
    """

    kind: StatKind
    shift: Mixture | None
    samples: np.ndarray
    grid_size: int
    n_reps: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", StatKind(self.kind))
        if self.shift is not None:
            _check_shift(self.shift)
        samples = _frozen_vector("samples", self.samples)
        if samples.size == 0:
            raise ValueError("samples must be a nonempty vector")
        if operator.index(self.n_reps) != samples.size:
            raise ValueError("n_reps must equal the number of samples")
        _check_grid_size(self.grid_size)
        _checked_seed(self.seed)
        if np.any(samples[1:] < samples[:-1]):
            raise ValueError("samples must be sorted in ascending order")
        object.__setattr__(self, "samples", samples)


def _path_weights(grid_size: int, shift: Mixture | None = None):
    """Cell weights, top-up factor and rank-k terms of the paths.

    With ``m`` cells of width ``1 / m``, the projection of ``int_cell q dW``
    on the cell's increment of ``W``, in units of ``1 / sqrt(m)``, has weight
    ``wa_i = sqrt(m) (a(t_{i-1}) - a(t_i))``, exact as ``a' = -q``; ``wb``
    likewise from ``b' = 1 - q**2``.  The rest of ``(Z1, Z2)`` is independent
    of the increments, with covariance ``[[1 - sum wa**2, -sum wa wb],
    [., 2 - sum wb**2]]`` and lower Cholesky factor ``(l11, l21, l22)``.
    ``terms`` holds ``-t``, ``a``, ``b / 2`` and any ``shift`` on the grid.
    """
    m = grid_size
    t = np.arange(m + 1) / m
    _, _, a, b = _pdf_terms(t)
    root_m = math.sqrt(m)
    wa = root_m * (a[:-1] - a[1:])
    wb = root_m * (b[:-1] - b[1:])
    l11 = math.sqrt(1.0 - math.fsum(wa * wa))
    l21 = -math.fsum(wa * wb) / l11
    l22 = math.sqrt(2.0 - math.fsum(wb * wb) - l21 * l21)
    terms = [-t[1:-1], a[1:-1], 0.5 * b[1:-1]]
    if shift is not None:
        terms.append(local_shift(shift, t[1:-1]))
    return wa, wb, (l11, l21, l22), np.array(terms)


class _Workspace:
    """The buffers of one table call's path blocks of at most ``rows`` rows:
    normals, paths and their absolute values, cut from one allocation.
    Every block fills them afresh, so no block allocates or frees an array
    the size of its paths, which would let the C heap hand its top back to
    the system and fault it in again block after block; a copy sent to a
    worker process allocates its own."""

    def __init__(self, grid_size: int, rows: int) -> None:
        self.args = (grid_size, rows)
        buffer = np.empty(3 * grid_size * rows)
        cut = rows * (grid_size + 2)
        self.normals = buffer[:cut].reshape(rows, grid_size + 2)
        self.paths, self.abs_paths = buffer[cut:].reshape(2, rows, grid_size - 1)

    def __reduce__(self):
        return _Workspace, self.args


def _assemble_paths(normals, weights, paths):
    """Paths in units of ``1 / sqrt(m)``, one per row of ``normals``, which
    holds the ``m`` cell increments of ``W`` (in those units) and the two
    top-up normals and is overwritten; they are written into ``paths`` and
    returned.  A path is the walk of its increments plus ``einsum`` of
    ``coef`` (columns: the walk's end, ``sqrt(m) Z1``, ``sqrt(m) Z2``, under
    a shift ``sqrt(m)``) with ``terms``; no step calls BLAS or mixes rows, so
    a path within numpy's buffer is free of its block.
    """
    wa, wb, (l11, l21, l22), terms = weights
    m = wa.size
    root_m = math.sqrt(m)
    increments, top_up = normals[:, :m], normals[:, m:]
    coef = np.empty((len(normals), len(terms)))
    z1 = np.einsum("ij,j->i", increments, wa) + l11 * top_up[:, 0]
    z2 = np.einsum("ij,j->i", increments, wb) + l21 * top_up[:, 0] + l22 * top_up[:, 1]
    coef[:, 1] = root_m * z1
    coef[:, 2] = root_m * z2
    coef[:, 3:] = root_m
    walk = np.cumsum(increments, axis=1, out=increments)
    coef[:, 0] = walk[:, -1]
    np.einsum("ik,kj->ij", coef, terms, out=paths)
    paths += walk[:, :-1]
    return paths


def _path_block(kinds, weights, work, stream, count):
    """Functional samples of the next ``count`` replications of ``stream``,
    assembled in the first ``count`` rows of the :class:`_Workspace`
    ``work``; one row-major draw of their rows of normals gives the values
    of row-wise draws."""
    m = weights[0].size
    normals = stream.standard_normal(out=work.normals[:count])
    paths = _assemble_paths(normals, weights, work.paths[:count])
    return {
        kind: (np.max(np.abs(paths, out=work.abs_paths[:count]), axis=1)
               + SUP_CONTINUITY_BETA) / math.sqrt(m)
        if kind is StatKind.KOLMOGOROV
        else np.einsum("ij,ij->i", paths, paths) / (m * m)
        for kind in kinds
    }


def simulate_limit_tables(
    kinds,
    shift: Mixture | None,
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
    ``workers >= 1``, and the samples of a run are among those of any run
    with more replications and the same seed.
    """
    kinds = _stat_kinds(kinds)
    _check_grid_size(grid_size)
    weights = _path_weights(grid_size, shift)
    # about 256 KB of normals per call, which stay in cache through
    # assembly and both functionals; a stacked einsum sums a row longer
    # than numpy's buffer piece by piece, in pieces that depend on the rows
    # beside it, so above the buffer a call holds one path
    rows = 1 if grid_size > np.getbufsize() else 2**15 // grid_size
    work = _Workspace(grid_size, min(rows, REPLICATION_BLOCK))
    samples = map_replications(_path_block, (kinds, weights, work), seed, n_reps, rows,
                               workers)
    for kind in kinds:
        # null paths are bounded; only a huge shift can overflow a functional
        if not np.all(np.isfinite(samples[kind])):
            raise ValueError(f"{kind.value} limit samples overflow under the shift")
    return {
        kind: LimitLawTable(kind=kind, shift=shift, samples=_frozen(np.sort(samples[kind])),
                            grid_size=grid_size, n_reps=n_reps, seed=seed)
        for kind in kinds
    }


def quantile(table: LimitLawTable, alpha: float) -> float:
    """Upper ``alpha`` critical value: nearest-rank (1 - alpha) quantile."""
    _check_alpha(alpha)
    rank = math.ceil((1.0 - alpha) * table.n_reps)
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
# persistence: a text header, then the samples as raw float64 bytes
# ---------------------------------------------------------------------------

_TABLE_MAGIC = "limit-table v2"
# Tables of earlier releases: the same header with a ``shift`` field, then one
# ``repr`` sample per line.
_TABLE_MAGIC_V1 = "limit-table v1"
# The fields that name a table, in the order of its file's first line, each
# with the parser of its text there; with its shift they reproduce a table.
_TABLE_FIELDS = {"kind": str, "grid_size": int, "n_reps": int, "seed": int}


def _table_identity(table: LimitLawTable) -> dict:
    """The :data:`_TABLE_FIELDS` of ``table``, its kind by name."""
    return {name: getattr(table, name) for name in _TABLE_FIELDS} | {"kind": table.kind.value}


def _data_line(n_reps: int) -> bytes:
    """The last header line of a table; its samples follow."""
    return f"# data: {n_reps} float64 little-endian\n".encode()


def save_table(table: LimitLawTable, path, comments=()) -> None:
    """Write a null table: ``#`` header lines, then its samples as raw
    little-endian float64, so a load reproduces the array bit-exactly.

    The first line names the kind, grid, reps and seed; each of ``comments``
    follows as a ``#`` line, and a ``# data: <n_reps> float64 little-endian``
    line ends the header.  The format holds null laws only; a shifted table
    is refused, and so is a comment that holds a newline or reads as the data
    line, which would end the header early; either is refused before the
    file is opened.
    """
    _table_header(table, comments)  # a refusal leaves the file untouched
    with open(path, "wb") as fh:
        _write_table(table, fh, comments)


def _write_table(table: LimitLawTable, fh, comments=()) -> None:
    """:func:`save_table` into a binary file that is already open for writing;
    a refused table or comment writes nothing."""
    fh.write(_table_header(table, comments))
    fh.write(table.samples.astype("<f8", copy=False))


def _table_header(table: LimitLawTable, comments) -> bytes:
    """The ``#`` lines of a table file up to and including its data line; a
    shifted table, which the format cannot hold, is refused."""
    if table.shift is not None:
        raise ValueError("only null tables can be saved; this one is shifted")
    data_line = _data_line(table.n_reps)
    fields = " ".join(f"{name}={value}" for name, value in _table_identity(table).items())
    lines = [f"# {_TABLE_MAGIC} {fields}\n".encode()]
    for comment in comments:
        line = f"# {comment}\n".encode()
        if "\n" in comment or line == data_line:
            raise ValueError(f"a table comment may not hold a newline or read as the "
                             f"data line, got {comment!r}")
        lines.append(line)
    return b"".join(lines) + data_line


# Text converted per batch by :func:`_read_numbers`: about 3000 table lines,
# so the strings of one batch, not of the whole file, are held at once.
_READ_BATCH_CHARS = 1 << 16


def _read_numbers(path) -> np.ndarray:
    """The numbers of a text file, one per line, skipping blank lines and
    ``#`` comments; the first line that is not a finite number is named by
    its line number in the file.

    A leading UTF-8 byte-order mark is skipped.  Bytes that are not UTF-8
    decode to U+FFFD, so such a line is named as not a number.  After the
    leading ``#`` lines (a table header or comments), the lines are read
    about 64 KB at a time and each batch is converted by one
    ``np.array(batch, dtype=float)`` call, which applies ``float``'s grammar
    and rounding.  A batch that does not convert, or holds a value that is
    not finite, sends the file through :func:`_read_numbers_by_line` instead.
    """
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        start = 0
        while fh.readline().startswith("#"):
            start = fh.tell()
        fh.seek(start)
        chunks = []
        while batch := fh.readlines(_READ_BATCH_CHARS):
            try:
                values = np.array(batch, dtype=float)
            except ValueError:
                return _read_numbers_by_line(fh, path)
            if not np.all(np.isfinite(values)):
                return _read_numbers_by_line(fh, path)
            chunks.append(values)
    return np.concatenate(chunks) if chunks else np.empty(0)


def _read_numbers_by_line(fh, path) -> np.ndarray:
    """:func:`_read_numbers` one line at a time from the start of the file,
    which allows blank lines and comments anywhere and names a bad line."""
    fh.seek(0)
    values = []
    for lineno, line in enumerate(map(str.strip, fh), start=1):
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} is not a number: {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno} is not finite: {line!r}")
        values.append(value)
    return np.array(values)


def _header_fields(line: bytes, path) -> tuple[str, dict[str, str]]:
    """The format magic and the ``key=value`` fields of a table's first line."""
    try:
        text = line.decode()
    except UnicodeDecodeError:
        text = ""
    for magic in (_TABLE_MAGIC, _TABLE_MAGIC_V1):
        prefix = f"# {magic} "
        if text.startswith(prefix):
            return magic, dict(token.partition("=")[::2] for token in text[len(prefix) :].split())
    raise ValueError(f"{path}: not a limit-table file")


def _read_samples(fh, path, n_reps: int) -> np.ndarray:
    """The samples after the comment lines and the data line of a table, read
    straight into one new array, which is returned read-only so that
    :class:`LimitLawTable` keeps it without a copy.

    The data section must hold exactly ``n_reps`` float64 values: its size
    is checked against the file's size before reading, and a read that comes
    up short (the file shrank meanwhile) is refused too.
    """
    data_line = _data_line(n_reps)
    line = fh.readline()
    while line != data_line:
        if not line.startswith(b"#"):
            raise ValueError(f"{path}: no {data_line.decode().strip()!r} line ends the header")
        line = fh.readline()
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 8 * n_reps:
        raise ValueError(
            f"{path}: the data section holds {size} bytes, but n_reps={n_reps} "
            f"needs {8 * n_reps}"
        )
    samples = np.empty(n_reps, dtype="<f8")
    read = fh.readinto(samples)
    if read != samples.nbytes:
        raise ValueError(f"{path}: read {read} bytes of a {samples.nbytes}-byte data section")
    return _frozen(samples)


def load_table(path) -> LimitLawTable:
    """Read a null table written by :func:`save_table`, or a ``limit-table v1``
    text table of an earlier release."""
    with open(path, "rb") as fh:
        magic, fields = _header_fields(fh.readline(), path)
        try:
            identity = {name: parse(fields[name]) for name, parse in _TABLE_FIELDS.items()}
            shift_text = fields["shift"] if magic == _TABLE_MAGIC_V1 else "none"
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed table header: {exc}") from None
        if shift_text != "none":
            raise ValueError(f"{path}: table was simulated under a shift, not the null")
        if magic == _TABLE_MAGIC_V1:
            samples = _read_numbers(path)
        else:
            samples = _read_samples(fh, path, identity["n_reps"])
    try:
        return LimitLawTable(shift=None, samples=samples, **identity)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
