"""Residual-based normality tests for stationary autoregressions.

The package simulates stationary AR(p) series with unknown mean, fits them
by mean centering plus conditional least squares, tests the fitted
residuals for normal innovations with supremum and integrated-square EDF
statistics, simulates the (estimation-adjusted) limiting null laws of both
statistics, and runs Monte Carlo experiments checking finite-sample
rejection rates against asymptotic local power under root-n mixture
alternatives.
"""

from .ar_process import (
    ArModel,
    CustomLaw,
    Gaussian,
    LaplaceLaw,
    Mixture,
    SeriesSample,
    StudentTLaw,
    TwoPointLaw,
    UniformLaw,
    ZeroMeanLaw,
    default_burn_in,
    ma_coefficients,
    simulate_ar,
)
from .errors import DegenerateDataError, EstimationError
from .estimation import (
    AutocovMatrix,
    CenteredSeries,
    ResidualFit,
    autocov_matrix,
    center_series,
    fit_ar,
    ols_estimate,
    residuals,
)
from .gof_tests import (
    EmpiricalProcessEval,
    GofResult,
    eval_process,
    innovation_edf_gap,
    kolmogorov_from_transforms,
    kolmogorov_stat,
    omega2_from_transforms,
    omega2_stat,
    probability_transforms,
    residual_edf,
)
from .limit_law import (
    SUP_CONTINUITY_BETA,
    LimitLawTable,
    ShiftSpec,
    StatKind,
    cov_eval,
    cov_matrix,
    load_table,
    local_shift,
    mc_p_value,
    quantile,
    save_table,
    simulate_limit_tables,
)
from .power_lab import (
    ExperimentSpec,
    PowerReport,
    PowerRow,
    pipeline_statistics,
    run_power_study,
    run_size_study,
    write_power_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # processes and laws
    "ArModel",
    "SeriesSample",
    "ZeroMeanLaw",
    "LaplaceLaw",
    "UniformLaw",
    "StudentTLaw",
    "TwoPointLaw",
    "CustomLaw",
    "Gaussian",
    "Mixture",
    "ma_coefficients",
    "default_burn_in",
    "simulate_ar",
    # estimation
    "CenteredSeries",
    "ResidualFit",
    "AutocovMatrix",
    "center_series",
    "ols_estimate",
    "residuals",
    "fit_ar",
    "autocov_matrix",
    # tests
    "GofResult",
    "EmpiricalProcessEval",
    "probability_transforms",
    "kolmogorov_from_transforms",
    "omega2_from_transforms",
    "kolmogorov_stat",
    "omega2_stat",
    "residual_edf",
    "eval_process",
    "innovation_edf_gap",
    # limit law
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
    "SUP_CONTINUITY_BETA",
    # experiments
    "ExperimentSpec",
    "PowerReport",
    "PowerRow",
    "pipeline_statistics",
    "run_size_study",
    "run_power_study",
    "write_power_csv",
    # errors
    "EstimationError",
    "DegenerateDataError",
]
