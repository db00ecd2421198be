"""Residual-based normality tests for stationary autoregressions.

The package simulates stationary AR(p) series with unknown mean, fits them
by mean centering plus conditional least squares, tests the fitted
residuals for normal innovations with supremum and integrated-square EDF
statistics, simulates the (estimation-adjusted) limiting null laws of both
statistics, and runs Monte Carlo experiments checking finite-sample
rejection rates against asymptotic local power under root-n mixture
alternatives.
"""

from .ar_process import ArModel, Gaussian, SeriesSample, simulate_ar
from .estimation import fit_ar
from .gof_tests import kolmogorov_stat, omega2_stat
from .limit_law import StatKind, load_table, quantile, save_table, simulate_limit_tables

__version__ = "0.1.0"

# SeriesSample and the names of the README quickstart; everything else is
# imported from its module (arnorm.ar_process, arnorm.estimation, ...).
__all__ = [
    "__version__",
    "ArModel",
    "Gaussian",
    "SeriesSample",
    "simulate_ar",
    "fit_ar",
    "kolmogorov_stat",
    "omega2_stat",
    "StatKind",
    "simulate_limit_tables",
    "quantile",
    "save_table",
    "load_table",
]
