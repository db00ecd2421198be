"""Shared fixtures for the test suite.

The expensive Monte Carlo objects (limit-law tables, a null-hypothesis
statistic sample) are built once per session and reused by the module
tests and the acceptance suite.
"""

import numpy as np
import pytest

from arnorm import ArModel, Gaussian, StatKind
from arnorm.limit_law import simulate_limit_tables
from arnorm.power_lab import pipeline_statistics

# Root seeds for the session fixtures.  They are arbitrary but frozen:
# every expected value quoted in the tests was computed under them.
NULL_TABLE_SEED = 20240801
NULL_TABLE_SEED_ALT = 20240802
NULL_PIPELINE_SEED = 3

LIMIT_REPS = 100_000
GRID_SIZE = 512

ALL_KINDS = (StatKind.KOLMOGOROV, StatKind.OMEGA2)

# Stationary AR coefficients by order, for the bit-for-bit checks of the
# blocked fit and pipeline against one series at a time.
AR_COEFFS = {0: (), 1: (0.5,), 2: (0.5, -0.3), 5: (0.3, 0.1, -0.1, 0.05, 0.02)}

# Noiseless series whose spread is small against their level, so the fit
# refuses them by their largest magnitude: 200 values that differ only in
# their last bits (0.1 + k * ulp(0.1), k = 0, 1, 2), exact at every order,
# and a ramp at level 1000, exact at order 2.
LAST_BITS = 0.1 + np.spacing(0.1) * (np.arange(200) % 3)
OFFSET_RAMP = 1000.0 + 1e-6 * np.arange(402.0)

# 50 values 0.5 + 1.5 * 2**-41 * (-1)**t: at order 0 their residual scale,
# 1.5 * 2**-41, is above 2**-40 of their largest value but not of the power
# of two above it, 1, so the fit refuses them.
POWER_OF_TWO_GAP = 0.5 + 1.5 * 2.0**-41 * (-1.0) ** np.arange(50)


@pytest.fixture(scope="session")
def null_tables():
    """Null limit-law tables for both statistics (grid 512, 1e5 reps)."""
    return simulate_limit_tables(
        ALL_KINDS, None, GRID_SIZE, LIMIT_REPS, seed=NULL_TABLE_SEED
    )


@pytest.fixture(scope="session")
def null_tables_alt_seed():
    """Same tables under an independent seed, for seed-stability checks."""
    return simulate_limit_tables(
        ALL_KINDS, None, GRID_SIZE, LIMIT_REPS, seed=NULL_TABLE_SEED_ALT
    )


@pytest.fixture(scope="session")
def ar1_model():
    """Stationary AR(1) with coefficient 0.5 and standard normal innovations."""
    return ArModel(coeffs=[0.5], mean=0.0, innovation=Gaussian(1.0))


@pytest.fixture(scope="session")
def null_pipeline_stats(ar1_model):
    """Both statistics over 2000 simulated null samples of length n = 2000."""
    return pipeline_statistics(
        ar1_model, n=2000, kinds=ALL_KINDS, n_reps=2000, seed=NULL_PIPELINE_SEED
    )


def upper_quantile(samples, alpha):
    """Nearest-rank (1 - alpha) quantile, the same convention the tables use."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    rank = int(np.ceil((1.0 - alpha) * ordered.size))
    rank = min(max(rank, 1), ordered.size)
    return float(ordered[rank - 1])
