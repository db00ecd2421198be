"""Monte Carlo size and power experiments for the residual normality tests.

An experiment couples three ingredients, each with its own derived random
substream so results are reproducible and worker-count independent:

* a null limit table (critical values) — substream branch 0;
* under an alternative, a shifted limit table (asymptotic power) — branch 1;
* finite-sample replications of the simulate/fit/test pipeline — branch 2,
  with replication ``r`` drawing from its own child stream ``(2, r)``.

The alternative is the root-n mixture :class:`~arnorm.ar_process.Mixture`;
its coupling invariant (mixture ``n`` equals the experiment sample size) is
enforced, since the contamination weight is meaningful only on that scale.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ar_process import ArModel, Gaussian, Mixture, simulate_ar
from .estimation import fit_ar
from .gof_tests import (
    kolmogorov_from_transforms,
    omega2_from_transforms,
    probability_transforms,
)
from .limit_law import ShiftSpec, StatKind, quantile, simulate_limit_tables
from .rng import derive_seed, substream

__all__ = [
    "ExperimentSpec",
    "PowerReport",
    "PowerRow",
    "pipeline_statistics",
    "run_size_study",
    "run_power_study",
    "write_power_csv",
]

_NULL_BRANCH = 0
_SHIFT_BRANCH = 1
_PIPELINE_BRANCH = 2


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one size or power study; the statistics are named per call."""

    model: ArModel
    n: int
    n_reps: int
    alpha: float
    seed: int
    grid_size: int = 512
    limit_reps: int = 100_000
    burn_in: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.n_reps < 100:
            raise ValueError("n_reps must be at least 100")
        if self.n < self.model.order + 1:
            raise ValueError("series too short: requires n >= p + 1")
        if self.limit_reps < 1:
            raise ValueError("limit_reps must be at least 1")


@dataclass(frozen=True)
class PowerReport:
    """Result of one experiment for one statistic."""

    statistic_kind: StatKind
    empirical_rejection_rate: float
    mc_stderr: float
    asymptotic_power: float
    asymptotic_stderr: float
    critical_value: float
    n_reps: int
    statistics: np.ndarray | None = field(default=None, repr=False)


def _pipeline_chunk(model, n, burn_in, kinds, seed, start, stop):
    """Test statistics for pipeline replications ``start..stop-1``."""
    out = {kind: np.empty(stop - start) for kind in kinds}
    for j, rep in enumerate(range(start, stop)):
        sample = simulate_ar(model, n, burn_in=burn_in, seed=substream(seed, rep))
        transforms = probability_transforms(fit_ar(sample))
        for kind in kinds:
            if kind is StatKind.KOLMOGOROV:
                out[kind][j] = kolmogorov_from_transforms(transforms)
            else:
                out[kind][j] = omega2_from_transforms(transforms)
    return out


def pipeline_statistics(
    model: ArModel,
    n: int,
    kinds,
    n_reps: int,
    seed: int,
    burn_in: int | None = None,
    workers: int = 1,
) -> dict[StatKind, np.ndarray]:
    """Simulate/fit/test statistics over independent replications.

    Replication ``r`` uses the child stream ``substream(seed, r)``, so the
    arrays are bit-identical for any ``workers >= 1`` and any chunking.
    """
    kinds = tuple(StatKind(k) for k in kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate statistic kinds")
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or n_reps < 2 * workers:
        chunks = [_pipeline_chunk(model, n, burn_in, kinds, seed, 0, n_reps)]
    else:
        bounds = np.linspace(0, n_reps, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_pipeline_chunk, model, n, burn_in, kinds, seed, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            chunks = [f.result() for f in futures]
    return {
        kind: np.concatenate([chunk[kind] for chunk in chunks]) for kind in kinds
    }


def _binomial_stderr(rate: float, n_reps: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / n_reps))


def _run_study(spec, kinds, shift, workers, keep_statistics):
    kinds = tuple(StatKind(k) for k in kinds)
    null_tables = simulate_limit_tables(
        kinds,
        None,
        spec.grid_size,
        spec.limit_reps,
        derive_seed(spec.seed, _NULL_BRANCH),
        workers,
    )
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
        burn_in=spec.burn_in,
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
            statistic_kind=kind,
            empirical_rejection_rate=rate,
            mc_stderr=_binomial_stderr(rate, spec.n_reps),
            asymptotic_power=asym,
            asymptotic_stderr=asym_se,
            critical_value=critical,
            n_reps=spec.n_reps,
            statistics=stats[kind] if keep_statistics else None,
        )
    return reports


def run_size_study(
    spec: ExperimentSpec, kinds, workers: int = 1, keep_statistics: bool = False
) -> dict[StatKind, PowerReport]:
    """Null rejection rates for several statistics from shared replications.

    The model must have exact Gaussian innovations; the asymptotic rejection
    rate of a level-``alpha`` test is then ``alpha`` itself.
    """
    if not isinstance(spec.model.innovation, Gaussian):
        raise ValueError("size experiments require Gaussian innovations")
    return _run_study(spec, kinds, None, workers, keep_statistics)


def run_power_study(
    spec: ExperimentSpec, kinds, workers: int = 1, keep_statistics: bool = False
) -> dict[StatKind, PowerReport]:
    """Rejection rates under a root-n mixture, plus their asymptotic values.

    The model's innovation law must be a :class:`Mixture` whose ``n`` equals
    the experiment sample size; the induced limit shift is computed from the
    mixture's contaminating law.
    """
    innovation = spec.model.innovation
    if not isinstance(innovation, Mixture):
        raise ValueError("power experiments require Mixture innovations")
    if innovation.n != spec.n:
        raise ValueError(
            f"mixture is coupled to n = {innovation.n} but the experiment "
            f"samples n = {spec.n}; the contamination weight would be wrong"
        )
    shift = ShiftSpec(h=innovation.h, sigma0=innovation.sigma0)
    return _run_study(spec, kinds, shift, workers, keep_statistics)


# ---------------------------------------------------------------------------
# CSV emission for experiment grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerRow:
    """One line of a power-study table."""

    n: int
    alternative: str
    statistic: str
    alpha: float
    empirical_power: float
    stderr: float
    asymptotic_power: float
    asymptotic_stderr: float
    critical_value: float
    n_reps: int
    seed: int

    @classmethod
    def from_report(cls, n, alternative, alpha, seed, report: PowerReport) -> "PowerRow":
        return cls(
            n=n,
            alternative=alternative,
            statistic=report.statistic_kind.value,
            alpha=alpha,
            empirical_power=report.empirical_rejection_rate,
            stderr=report.mc_stderr,
            asymptotic_power=report.asymptotic_power,
            asymptotic_stderr=report.asymptotic_stderr,
            critical_value=report.critical_value,
            n_reps=report.n_reps,
            seed=seed,
        )


_CSV_COLUMNS = (
    "n",
    "alternative",
    "statistic",
    "alpha",
    "empirical_power",
    "stderr",
    "asymptotic_power",
    "asymptotic_stderr",
    "critical_value",
    "n_reps",
    "seed",
)


def write_power_csv(rows, file=None, header_comments=()) -> None:
    """Write power rows as CSV; floats use ``repr`` for exact round-trips."""
    fh = file if file is not None else sys.stdout
    for line in header_comments:
        fh.write(f"# {line}\n")
    fh.write(",".join(_CSV_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for column in _CSV_COLUMNS:
            value = getattr(row, column)
            cells.append(repr(float(value)) if isinstance(value, float) else str(value))
        fh.write(",".join(cells) + "\n")
