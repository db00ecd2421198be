"""Acceptance suite: the eight checks the package must satisfy end to end.

Each test prints one summary line of the form

    [acceptance] C<k> <name>: PASS/FAIL - <measured values>

so the full gate is readable from the -rA output in one screen.  Checks are
numbered C1-C8; the analysis behind tolerances (and behind any expected
failure) lives in the repository notes, not here.
"""

import numpy as np
import pytest

from arnorm import (
    ArModel,
    ExperimentSpec,
    Gaussian,
    LaplaceLaw,
    Mixture,
    ResidualFit,
    SeriesSample,
    ShiftSpec,
    StatKind,
    autocov_matrix,
    cov_matrix,
    fit_ar,
    innovation_edf_gap,
    kolmogorov_stat,
    local_shift,
    omega2_stat,
    quantile,
    run_power_study,
    simulate_ar,
)
from arnorm.cli import main as cli_main
from arnorm.rng import substream
from scipy.signal import lfilter

from conftest import upper_quantile
from oracles import omega2_by_quadrature

BOTH = (StatKind.KOLMOGOROV, StatKind.OMEGA2)
N = 2000
PIPELINE_REPS = 2000
GRID = 512
LIMIT_REPS = 100_000

POWER_SEED = 20240811
SIZE_SEED = 20240812
IID_POWER_SEED = 20240813
EDF_TREND_SEED = 20240814
KMATRIX_SEED = 20240815


def _report(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _power_spec(h, *, coeffs=(0.5,), seed=POWER_SEED):
    mixture = Mixture(sigma0=1.0, h=h, n=N)
    model = ArModel(coeffs=coeffs, mean=0.0, innovation=mixture)
    return ExperimentSpec(
        model=model, n=N, n_reps=PIPELINE_REPS, alpha=0.05, seed=seed,
        grid_size=GRID, limit_reps=LIMIT_REPS,
    )


@pytest.fixture(scope="module")
def strong_scale_reports():
    """Power study for contamination by a normal at three times the scale."""
    return run_power_study(_power_spec(Gaussian(3.0)), BOTH)


@pytest.fixture(scope="module")
def laplace_reports():
    """Power study for contamination by a Laplace law with variance 4."""
    return run_power_study(_power_spec(LaplaceLaw(4.0)), BOTH)


@pytest.fixture(scope="module")
def strong_scale_iid_reports():
    """The same strong-scale contamination driven through an i.i.d. pipeline."""
    return run_power_study(
        _power_spec(Gaussian(3.0), coeffs=(), seed=IID_POWER_SEED), BOTH
    )


def test_c1_null_quantiles_match_limit_table(null_tables, null_pipeline_stats):
    tols = {StatKind.KOLMOGOROV: 0.04, StatKind.OMEGA2: 0.02}
    worst = {kind: 0.0 for kind in BOTH}
    for kind in BOTH:
        for alpha in (0.10, 0.05, 0.01):
            finite_q = upper_quantile(null_pipeline_stats[kind], alpha)
            limit_q = quantile(null_tables[kind], alpha)
            worst[kind] = max(worst[kind], abs(finite_q - limit_q))
    ok = all(worst[kind] <= tols[kind] for kind in BOTH)
    _report(
        "C1 null quantiles vs limit table",
        ok,
        f"max gap sup-statistic {worst[StatKind.KOLMOGOROV]:.4f} (tol 0.04), "
        f"integral-statistic {worst[StatKind.OMEGA2]:.4f} (tol 0.02) "
        f"at levels 10/5/1%, n={N}, {PIPELINE_REPS} reps",
    )


def test_c2_local_power_matches_limit(strong_scale_reports, laplace_reports):
    cases = {
        "normal-scale-3": strong_scale_reports,
        "laplace-var-4": laplace_reports,
    }
    lines = []
    ok = True
    for label, reports in cases.items():
        for kind in BOTH:
            rep = reports[kind]
            gap = abs(rep.empirical_rejection_rate - rep.asymptotic_power)
            tol = 0.05 + 3.0 * float(
                np.hypot(rep.mc_stderr, rep.asymptotic_stderr)
            )
            good = gap <= tol
            ok = ok and good
            lines.append(
                f"{label}/{kind.value}: emp {rep.empirical_rejection_rate:.4f} "
                f"vs asym {rep.asymptotic_power:.4f}, gap {gap:.4f} "
                f"({'<=' if good else '>'} tol {tol:.4f})"
            )
    _report("C2 local power vs asymptotic power", ok, "; ".join(lines))


def test_c3_null_mixture_collapses():
    spec = ShiftSpec(h=Gaussian(1.0), sigma0=1.0)
    t = np.linspace(0.0, 1.0, 1000)
    max_shift = float(np.max(np.abs(local_shift(spec, t))))
    reports = run_power_study(
        _power_spec(Gaussian(1.0), seed=SIZE_SEED), BOTH
    )
    lines = [f"max |shift| {max_shift:.2e} (tol 1e-12)"]
    ok = max_shift < 1e-12
    for kind in BOTH:
        rep = reports[kind]
        gap = abs(rep.empirical_rejection_rate - 0.05)
        tol = 3.0 * rep.mc_stderr
        good = gap <= tol
        ok = ok and good
        lines.append(
            f"{kind.value} rate {rep.empirical_rejection_rate:.4f} "
            f"(|gap| {gap:.4f} {'<=' if good else '>'} 3se {tol:.4f})"
        )
    _report("C3 null contamination recovers the level", ok, "; ".join(lines))


def test_c4_power_free_of_ar_order(strong_scale_reports, strong_scale_iid_reports):
    lines = []
    ok = True
    for kind in BOTH:
        ar_rep = strong_scale_reports[kind]
        iid_rep = strong_scale_iid_reports[kind]
        gap = abs(ar_rep.empirical_rejection_rate - iid_rep.empirical_rejection_rate)
        tol = 0.05 + 3.0 * float(np.hypot(ar_rep.mc_stderr, iid_rep.mc_stderr))
        good = gap <= tol
        ok = ok and good
        lines.append(
            f"{kind.value}: AR {ar_rep.empirical_rejection_rate:.4f} vs "
            f"iid {iid_rep.empirical_rejection_rate:.4f}, gap {gap:.4f} "
            f"({'<=' if good else '>'} tol {tol:.4f})"
        )
    _report("C4 power independent of AR coefficients", ok, "; ".join(lines))


def test_c5_residual_edf_tracks_innovations():
    # median scaled sup-gap between the residual EDF and the recentred
    # innovation EDF must fall as n grows
    medians = {}
    for n in (500, 2000, 8000):
        burn = 1100
        gaps = []
        for rep in range(100):
            rng = substream(EDF_TREND_SEED, n, rep)
            eps = rng.normal(0.0, 1.0, size=burn + n + 1)
            u = lfilter([1.0], [1.0, -0.5], eps)
            sample = SeriesSample.from_values(1.0 + u[-(n + 1):], p=1)
            fit = fit_ar(sample)
            gaps.append(innovation_edf_gap(fit, eps[-n:]))
        medians[n] = float(np.median(gaps))
    ok = medians[500] > medians[2000] > medians[8000]
    _report(
        "C5 residual EDF approaches innovation EDF",
        ok,
        "medians " + ", ".join(f"n={n}: {m:.4f}" for n, m in medians.items()),
    )


def test_c6_shift_and_scale_invariances():
    model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
    lines = []

    # integer series, power-of-two working length: centering is exact, so
    # residuals must not depend on the added constant at all
    base = substream(61).integers(-8, 9, size=33).astype(float)
    fit_a = fit_ar(SeriesSample.from_values(base, p=1))
    fit_b = fit_ar(SeriesSample.from_values(base + 256.0, p=1))
    exact_resid = np.array_equal(fit_a.residuals, fit_b.residuals)
    lines.append(f"integer shift residuals bitwise equal: {exact_resid}")

    sample = simulate_ar(model, n=N, seed=62)
    fit0 = fit_ar(sample)
    d0, w0 = kolmogorov_stat(fit0).value, omega2_stat(fit0).value
    rel = lambda a, b: abs(a - b) / abs(b)

    fit_shift = fit_ar(SeriesSample.from_values(sample.values + 1234.56789, p=1))
    shift_dev = max(rel(kolmogorov_stat(fit_shift).value, d0),
                    rel(omega2_stat(fit_shift).value, w0))
    lines.append(f"float shift rel dev {shift_dev:.2e}")

    fit_double = fit_ar(SeriesSample.from_values(sample.values * 2.0, p=1))
    double_exact = (kolmogorov_stat(fit_double).value == d0
                    and omega2_stat(fit_double).value == w0)
    lines.append(f"doubling bitwise equal: {double_exact}")

    fit_scale = fit_ar(SeriesSample.from_values(sample.values * 3.7, p=1))
    scale_dev = max(rel(kolmogorov_stat(fit_scale).value, d0),
                    rel(omega2_stat(fit_scale).value, w0))
    lines.append(f"general scale rel dev {scale_dev:.2e}")

    ok = exact_resid and double_exact and shift_dev <= 1e-10 and scale_dev <= 1e-10
    _report("C6 location/scale invariance of the tests", ok, "; ".join(lines))


def test_c7_numerical_oracles():
    lines = []

    # closed-form integral statistic vs midpoint quadrature, 50 random cases
    rng = substream(20240816)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 200))
        resid = rng.normal(scale=float(rng.uniform(0.5, 2.0)), size=n)
        fit = ResidualFit(beta_hat=np.empty(0), residuals=resid,
                          s2_hat=float(np.mean(np.square(resid))))
        worst = max(worst, abs(omega2_stat(fit).value - omega2_by_quadrature(fit)))
    quad_ok = worst < 1e-4
    lines.append(f"integral statistic vs quadrature: worst {worst:.2e} (tol 1e-4)")

    # analytic pre-sample covariance matrix vs a long simulated series
    coeffs = np.array([0.5, 0.25])
    sigma0 = 1.3
    analytic = autocov_matrix(coeffs, sigma0).entries
    steps = 1_000_000
    eps = substream(KMATRIX_SEED).normal(0.0, sigma0, size=steps + 5000)
    series = lfilter([1.0], np.concatenate([[1.0], -coeffs]), eps)[5000:]
    k0 = float(np.mean(series * series))
    k1 = float(np.mean(series[:-1] * series[1:]))
    sim = np.array([[k0, k1], [k1, k0]])
    k_dev = float(np.max(np.abs(sim - analytic) / np.abs(analytic)))
    k_ok = k_dev < 0.01
    lines.append(f"autocovariance matrix vs simulation: rel dev {k_dev:.4f} (tol 0.01)")

    # limiting covariance kernel stays positive semidefinite on fine grids
    min_eig = np.inf
    for grid_size in (16, 64, 256, 512):
        t = np.arange(1, grid_size) / grid_size
        min_eig = min(min_eig, float(np.linalg.eigvalsh(cov_matrix(t)).min()))
    psd_ok = min_eig >= -1e-8
    lines.append(f"kernel min eigenvalue {min_eig:.2e} (tol -1e-8)")

    _report("C7 closed forms vs independent numerics", quad_ok and k_ok and psd_ok,
            "; ".join(lines))


def test_c8_byte_reproducibility(tmp_path):
    import json

    checks = {}

    # quantiles: rerun with the same seed, and with a different worker count
    base = ["quantiles", "--kind", "kolmogorov", "--grid", "64",
            "--reps", "6000", "--seed", "81"]
    paths = [tmp_path / f"q{i}.table" for i in range(3)]
    assert cli_main(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli_main(base + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert cli_main(base + ["--workers", "2", "--out", str(paths[2])]) == 0
    checks["quantiles"] = (paths[0].read_bytes() == paths[1].read_bytes()
                           == paths[2].read_bytes())

    # simulate: rerun reproduces the file
    sim = ["simulate", "--n", "500", "--beta", "0.5", "--seed", "82"]
    s_paths = [tmp_path / f"s{i}.txt" for i in range(2)]
    for p in s_paths:
        assert cli_main(sim + ["--out", str(p)]) == 0
    checks["simulate"] = s_paths[0].read_bytes() == s_paths[1].read_bytes()

    # test: same series, same cached tables, byte-identical report
    table = tmp_path / "cache.table"
    assert cli_main(["quantiles", "--kind", "kolmogorov", "--grid", "64",
                     "--reps", "4000", "--seed", "83", "--out", str(table)]) == 0
    table2 = tmp_path / "cache2.table"
    assert cli_main(["quantiles", "--kind", "omega2", "--grid", "64",
                     "--reps", "4000", "--seed", "83", "--out", str(table2)]) == 0
    r_paths = [tmp_path / f"r{i}.txt" for i in range(2)]
    for p in r_paths:
        assert cli_main(["test", str(s_paths[0]), "--p", "1",
                         "--table", str(table), "--table", str(table2),
                         "--out", str(p)]) == 0
    checks["test"] = r_paths[0].read_bytes() == r_paths[1].read_bytes()

    # power: worker count must not leak into the CSV
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": [120], "h": ["gauss-scale:2.0"], "beta": [0.5],
        "n_reps": 120, "limit_reps": 5000, "grid": 64, "seed": 84,
        "statistics": ["kolmogorov", "omega2"],
    }))
    c_paths = [tmp_path / f"c{i}.csv" for i in range(3)]
    assert cli_main(["power", str(config), "--workers", "1", "--out", str(c_paths[0])]) == 0
    assert cli_main(["power", str(config), "--workers", "1", "--out", str(c_paths[1])]) == 0
    assert cli_main(["power", str(config), "--workers", "2", "--out", str(c_paths[2])]) == 0
    checks["power"] = (c_paths[0].read_bytes() == c_paths[1].read_bytes()
                       == c_paths[2].read_bytes())

    ok = all(checks.values())
    _report("C8 byte-stable outputs across reruns and workers", ok,
            ", ".join(f"{name}: {'ok' if good else 'DIFFERS'}"
                      for name, good in checks.items()))
