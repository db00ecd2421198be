"""Monte Carlo size and power experiments for the residual normality tests.

One function, :func:`run_power_study`, runs every study.  Its alternative
is the innovation law of the spec's model: a root-n mixture
:class:`~arnorm.ar_process.Mixture` is a local alternative, and a
:class:`~arnorm.ar_process.Gaussian` is the null, so a size study is the
power study at zero shift.  A study couples three ingredients, each
simulated under its own seed derived from the study seed, so results are
reproducible and worker-count independent:

* a null limit table (critical values), seeded by ``derive_seed(seed, 0)``;
* under a mixture, a shifted limit table (asymptotic power), seeded by
  ``derive_seed(seed, 1)``;
* finite-sample replications of the simulate/fit/test pipeline, with
  replication ``r`` drawing from ``substream(derive_seed(seed, 2), r // 64)``
  after the replications of its block of 64 that come before it.

A study reports rates, not the replications behind them; the statistics of
a study are ``pipeline_statistics(model, n, kinds, n_reps,
derive_seed(seed, 2))`` for its spec.  :func:`write_power_csv`
writes a grid of studies as ``(alternative, spec, reports)`` cells.

:class:`ExperimentSpec` refuses any other innovation law, and a mixture
whose ``n`` is not the experiment sample size, since the contamination
weight is meaningful only on that scale.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .ar_process import ArModel, Gaussian, Mixture, simulate_ar
from .estimation import _check_max_order, _fit_rows
from .gof_tests import _sorted_transforms, _statistic
from .limit_law import (DEFAULT_GRID, DEFAULT_REPS, StatKind, _check_alpha, _check_grid_size,
                        _stat_kinds, quantile, simulate_limit_tables)
from .rng import _check_count, _checked_seed, derive_seed, map_replications

__all__ = [
    "ExperimentSpec",
    "PowerReport",
    "pipeline_statistics",
    "run_power_study",
    "write_power_csv",
]

_NULL_BRANCH = 0
_SHIFT_BRANCH = 1
_PIPELINE_BRANCH = 2

# Series values per pipeline block: 128 KB, so a block and the fit's
# temporaries stay in cache and its size never follows n_reps.
_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one size or power study; the statistics are named per call.

    The model's innovation must be a :class:`Gaussian` (a size study) or a
    :class:`Mixture` coupled to ``n`` (a power study).  Every bad field is
    refused here, before any table is simulated.
    """

    model: ArModel
    n: int
    n_reps: int
    alpha: float
    seed: int
    grid_size: int = DEFAULT_GRID
    limit_reps: int = DEFAULT_REPS

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if operator.index(self.n_reps) < 100:
            raise ValueError(f"n_reps must be at least 100, got {self.n_reps}")
        # n = 1 at order 0 leaves one residual, which is exactly zero
        if operator.index(self.n) < max(2, self.model.order + 1):
            raise ValueError(f"series too short: requires n >= max(2, p + 1), got {self.n}")
        _check_max_order(self.model.order)
        _checked_seed(self.seed)
        _check_grid_size(self.grid_size)
        _check_count("limit_reps", self.limit_reps)
        innovation = self.model.innovation
        if not isinstance(innovation, (Gaussian, Mixture)):
            raise ValueError(
                "the innovation must be Gaussian (a size study) or a Mixture "
                f"(a power study), got {type(innovation).__name__}"
            )
        if isinstance(innovation, Mixture) and innovation.n != self.n:
            raise ValueError(
                f"mixture is coupled to n = {innovation.n} but the experiment "
                f"samples n = {self.n}; the contamination weight would be wrong"
            )


@dataclass(frozen=True)
class PowerReport:
    """Result of one experiment for the statistic that keys it in the study's reports."""

    empirical_rejection_rate: float
    mc_stderr: float
    asymptotic_power: float
    asymptotic_stderr: float
    critical_value: float


def _pipeline_block(model, n, kinds, stream, count):
    """Test statistics of the next ``count`` pipeline replications of ``stream``.

    Each replication draws its series by one :func:`simulate_ar` call into
    a row of the block.  The fit, the transforms and both statistics then
    run once per block, and every row comes out as the fit and test of its
    series alone would give it; a degenerate row raises in the fit, as its
    fit alone would.  The statistics are scale-free, so they take the fit's
    residuals and scale estimates in its units, already scaled by a power
    of two.
    """
    values = np.array([simulate_ar(model, n, seed=stream).values for _ in range(count)])
    _, resid, _, _, scale = _fit_rows(values, model.order)
    transforms = _sorted_transforms(resid, scale)
    return {kind: _statistic(kind, transforms) for kind in kinds}


def pipeline_statistics(
    model: ArModel,
    n: int,
    kinds,
    n_reps: int,
    seed: int,
    workers: int = 1,
) -> dict[StatKind, np.ndarray]:
    """Simulate/fit/test statistics over independent replications.

    Replication ``r`` draws from ``substream(seed, r // 64)`` after the
    earlier replications of its block of 64, so the arrays are bit-identical
    for any ``workers >= 1``, and a shorter run is a prefix of a longer one.
    """
    args = (model, n, _stat_kinds(kinds))
    rows = _BLOCK_VALUES // (n + model.order)
    return map_replications(_pipeline_block, args, seed, n_reps, rows, workers)


def _binomial_stderr(rate: float, n_reps: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / n_reps))


def run_power_study(
    spec: ExperimentSpec, kinds, workers: int = 1
) -> dict[StatKind, PowerReport]:
    """Rejection rates of the spec's model, plus their asymptotic values.

    A :class:`Mixture` innovation is a root-n local alternative: its
    asymptotic power comes from a limit table shifted by
    :func:`~arnorm.limit_law.local_shift`.  A :class:`Gaussian` innovation
    is the null, a size study: only the null table is simulated, and the
    asymptotic rejection rate is ``alpha`` itself, with standard error 0.
    """
    kinds = _stat_kinds(kinds)
    null_tables = simulate_limit_tables(
        kinds,
        None,
        spec.grid_size,
        spec.limit_reps,
        derive_seed(spec.seed, _NULL_BRANCH),
        workers,
    )
    innovation = spec.model.innovation
    shift = innovation if isinstance(innovation, Mixture) else None
    if shift is not None:
        shifted_tables = simulate_limit_tables(
            kinds,
            shift,
            spec.grid_size,
            spec.limit_reps,
            derive_seed(spec.seed, _SHIFT_BRANCH),
            workers,
        )
    stats = pipeline_statistics(
        spec.model,
        spec.n,
        kinds,
        spec.n_reps,
        derive_seed(spec.seed, _PIPELINE_BRANCH),
        workers=workers,
    )
    reports = {}
    for kind in kinds:
        critical = quantile(null_tables[kind], spec.alpha)
        rate = float(np.mean(stats[kind] > critical))
        if shift is None:
            asym, asym_se = spec.alpha, 0.0
        else:
            asym = float(np.mean(shifted_tables[kind].samples > critical))
            asym_se = _binomial_stderr(asym, spec.limit_reps)
        reports[kind] = PowerReport(
            empirical_rejection_rate=rate,
            mc_stderr=_binomial_stderr(rate, spec.n_reps),
            asymptotic_power=asym,
            asymptotic_stderr=asym_se,
            critical_value=critical,
        )
    return reports


# ---------------------------------------------------------------------------
# CSV emission for experiment grids
# ---------------------------------------------------------------------------


def write_power_csv(cells, file) -> None:
    """Write one CSV row per report of each ``(alternative, spec, reports)`` cell.

    ``reports`` maps each statistic kind to its :class:`PowerReport`, in the
    order the rows appear; ``n``, ``alpha``, ``n_reps`` and ``seed`` come
    from the spec.  Floats use ``repr``, so they round-trip exactly.
    """
    file.write(
        "n,alternative,statistic,alpha,empirical_power,stderr,asymptotic_power,"
        "asymptotic_stderr,critical_value,n_reps,seed\n"
    )
    for alternative, spec, reports in cells:
        for kind, report in reports.items():
            values = (
                spec.n,
                alternative,
                kind.value,
                spec.alpha,
                report.empirical_rejection_rate,
                report.mc_stderr,
                report.asymptotic_power,
                report.asymptotic_stderr,
                report.critical_value,
                spec.n_reps,
                spec.seed,
            )
            file.write(
                ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)
                + "\n"
            )
