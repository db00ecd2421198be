"""The three benchmark workloads, their inputs and their correctness gates.

Every workload is driven from one process with ``workers=1``.  Each exposes

* ``fixtures()`` -- input files too costly for the measuring process to make
  itself; run in a child process so they add nothing to its peak memory;
* ``prepare()`` -- untimed reads and reference values in the measuring process;
* ``warm()`` -- one small first call, paying the cold costs that ``setup_s``
  measures (imports are measured around it);
* ``op(i)`` -- the timed user-facing operation; ``i`` picks its input;
* ``check(i, result)`` -- untimed gates on one operation; returns the output
  bytes, whose digest is recorded, and a list of failures;
* ``run_checks()`` -- untimed gates that need work beyond the timed loop;
* ``step_marks`` -- ``(module, attribute)`` bindings whose calls split an
  operation into steps for the ``op_min_ms`` metric (none: one step).

The gate functions (``check_tables``, ``check_power_csv`` and
``check_test_report``) take plain outputs, so the smoke tests can feed them
planted defects.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Layer functions are looked up on their modules at call time, so the
# tracer's wrappers see the benchmark's own calls into each layer.
from arnorm import cli, limit_law
from arnorm.ar_process import ArModel, Gaussian, Mixture, SeriesSample, parse_alternative_law, simulate_ar
from arnorm.estimation import fit_ar
from arnorm.gof_tests import kolmogorov_stat, omega2_stat
from arnorm.limit_law import StatKind, load_table

KINDS = (StatKind.KOLMOGOROV, StatKind.OMEGA2)

# Stephens (1974, JASA 69:730): upper 5% point of the omega-square statistic
# with estimated mean and variance, given to three decimals.
OMEGA2_5PCT = 0.126
OMEGA2_5PCT_ROUNDING = 0.0005
# Grid-512 and fine-grid sup 5% points (0.887 and 0.909) both lie inside.
SUP_5PCT_RANGE = (0.85, 0.95)
# Order-statistic interval half-width, in binomial standard deviations.
MC_SIGMAS = 4.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures, ``SMOKE`` is for its tests."""

    grid: int
    table_reps: int
    twin_grid: int
    twin_reps: int
    power_n: tuple[int, ...]
    power_reps: int
    power_limit_reps: int
    test_table_reps: int
    test_n: int
    series_per_case: int
    setup_probes: int
    test_min_ops: int


FULL = Sizes(
    grid=512,
    # one 4096-rep block: many short operations per run, so the fastest
    # one is found even when other tenants slow the machine for seconds;
    # fewer reps would widen the omega-square gate's Monte Carlo interval
    table_reps=4096,
    # more than one 4096-rep block, so two workers really split the work
    twin_grid=64,
    twin_reps=2 * 4096 + 100,
    power_n=(500, 2000),
    # the pipeline at ExperimentSpec's minimum of 100 reps and 256-rep
    # tables keep a study near one second and its table steps short
    power_reps=100,
    power_limit_reps=256,
    test_table_reps=100_000,
    test_n=2000,
    series_per_case=2,
    setup_probes=3,
    # p90 needs at least ten samples beyond it
    test_min_ops=100,
)

SMOKE = Sizes(
    grid=512,
    table_reps=4096,
    twin_grid=16,
    twin_reps=4096 + 64,
    power_n=(50, 200),
    power_reps=100,
    power_limit_reps=256,
    test_table_reps=2048,
    test_n=200,
    series_per_case=1,
    setup_probes=1,
    test_min_ops=12,
)


def _quantile_interval(samples: np.ndarray, alpha: float) -> tuple[float, float]:
    """Distribution-free interval for the upper-``alpha`` point of a sorted sample."""
    n = samples.size
    half = MC_SIGMAS * math.sqrt(n * alpha * (1.0 - alpha))
    rank = math.ceil((1.0 - alpha) * n)
    lo = min(max(math.floor(rank - half), 1), n)
    hi = min(max(math.ceil(rank + half), 1), n)
    return float(samples[lo - 1]), float(samples[hi - 1])


def check_tables(samples: dict[StatKind, np.ndarray], n_reps: int) -> list[str]:
    """Shape, order and known quantiles of a pair of null tables."""
    failures = []
    for kind, values in samples.items():
        values = np.asarray(values)
        if values.shape != (n_reps,):
            failures.append(f"{kind.value}: {values.size} samples, expected {n_reps}")
            continue
        if not np.all(np.isfinite(values)):
            failures.append(f"{kind.value}: non-finite samples")
            continue
        if np.any(np.diff(values) < 0):
            failures.append(f"{kind.value}: samples not sorted")
            continue
        point = float(values[min(max(math.ceil(0.95 * n_reps), 1), n_reps) - 1])
        if kind is StatKind.OMEGA2:
            lo, hi = _quantile_interval(values, 0.05)
            if not lo - OMEGA2_5PCT_ROUNDING <= OMEGA2_5PCT <= hi + OMEGA2_5PCT_ROUNDING:
                failures.append(
                    f"omega2: 5% point {point:.5f} (interval {lo:.5f}..{hi:.5f}) "
                    f"misses {OMEGA2_5PCT}"
                )
        elif not SUP_5PCT_RANGE[0] <= point <= SUP_5PCT_RANGE[1]:
            failures.append(f"kolmogorov: 5% point {point:.5f} outside {SUP_5PCT_RANGE}")
    return failures


def check_power_csv(csv_text: str, expected_rows: int) -> list[str]:
    """Row count, rate ranges and shared critical values of an ``arnorm power`` CSV."""
    lines = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    if len(rows) != expected_rows:
        return [f"power CSV has {len(rows)} rows, expected {expected_rows}"]
    failures = []
    critical = {}
    for row in rows:
        for column in ("empirical_power", "asymptotic_power"):
            if not 0.0 <= float(row[column]) <= 1.0:
                failures.append(f"{column}={row[column]} outside [0, 1]")
        critical.setdefault(row["statistic"], set()).add(row["critical_value"])
    for statistic, values in sorted(critical.items()):
        if len(values) != 1:
            failures.append(f"{statistic}: critical_value differs across rows: {sorted(values)}")
    return failures


def check_test_report(exit_code: int, text: str, reference: dict[str, tuple[str, str]]) -> list[str]:
    """Exit code, bit-exact statistics and p-value range of one ``arnorm test`` report."""
    if exit_code != 0:
        return [f"arnorm test exited with {exit_code}"]
    failures = []
    seen = set()
    for line in text.splitlines():
        if not line.startswith("statistic="):
            continue
        fields = dict(token.split("=", 1) for token in line.split())
        kind = fields["statistic"]
        seen.add(kind)
        value, p_value = reference[kind]
        if fields["value"] != value:
            failures.append(f"{kind}: value {fields['value']} != reference {value}")
        if fields["p_value"] != p_value:
            failures.append(f"{kind}: p_value {fields['p_value']} != reference {p_value}")
        if not 0.0 < float(fields["p_value"]) <= 1.0:
            failures.append(f"{kind}: p_value {fields['p_value']} outside (0, 1]")
    if seen != set(reference):
        failures.append(f"report names statistics {sorted(seen)}, expected {sorted(reference)}")
    return failures


class Workload:
    name = ""
    # distinct inputs the operations cycle through; each output is digested
    n_inputs = 1
    min_ops = 3
    # whether fixtures() has work to do
    has_fixtures = False
    step_marks = ()

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work = Path(work)
        self.seed = seed
        self.sizes = sizes

    def input_key(self, i: int) -> int:
        return i % self.n_inputs

    def fixtures(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_checks(self) -> list[str]:
        return []

    def detail(self, durations: list[float], op_s: float) -> dict:
        """Workload-specific figures, named as users know them.

        ``op_s`` is the operation time of the ``op_min_ms`` metric, in
        seconds; figures derived from it use the same statistic.
        """
        return {}


class TableNull(Workload):
    """``arnorm quantiles --out`` for both statistics: one pair of null tables."""

    name = "table-null"

    def _paths(self, tag):
        return {kind: self.work / f"{tag}-{kind.value}.txt" for kind in KINDS}

    def _make(self, grid, reps, tag, workers=1):
        tables = limit_law.simulate_limit_tables(KINDS, None, grid, reps, self.seed, workers)
        paths = self._paths(tag)
        for kind in KINDS:
            limit_law.save_table(tables[kind], paths[kind])
        return tables, paths

    def warm(self):
        self._make(self.sizes.grid, 64, "warm")

    def op(self, i):
        return self._make(self.sizes.grid, self.sizes.table_reps, "table")

    def check(self, i, result):
        tables, paths = result
        data = b"".join(paths[kind].read_bytes() for kind in KINDS)
        samples = {kind: tables[kind].samples for kind in KINDS}
        return data, check_tables(samples, self.sizes.table_reps)

    def run_checks(self):
        s = self.sizes
        _, one = self._make(s.twin_grid, s.twin_reps, "twin-w1", workers=1)
        _, two = self._make(s.twin_grid, s.twin_reps, "twin-w2", workers=2)
        return [
            f"{kind.value}: workers=2 table differs from workers=1"
            for kind in KINDS
            if one[kind].read_bytes() != two[kind].read_bytes()
        ]

    def detail(self, durations, op_s):
        return {"table_reps_per_s": {"value": self.sizes.table_reps / op_s, "unit": "1/s"}}


class PowerGrid(Workload):
    """``arnorm power`` on a 2x2 grid of sample size and alternative, AR(2)."""

    name = "power-grid"
    # one step per pipeline replication (simulate, fit, test), a few ms
    # each; the six table calls fall inside the steps they interrupt.
    # simulate_ar is the public per-replication call, which the planned
    # changes to draws, streams and table reuse keep.
    step_marks = (("arnorm.power_lab", "simulate_ar"),)

    @property
    def expected_rows(self):
        return len(self.sizes.power_n) * 2 * len(KINDS)

    def _config(self, path, n, h, reps, limit_reps):
        config = {
            "n": list(n),
            "h": list(h),
            "beta": [0.5, -0.3],
            "mu": 2.0,
            "sigma0": 1.0,
            "alpha": 0.05,
            "n_reps": reps,
            "seed": self.seed,
            "grid": self.sizes.grid,
            "limit_reps": limit_reps,
            "statistics": [kind.value for kind in KINDS],
        }
        path.write_text(json.dumps(config))
        return path

    def prepare(self):
        s = self.sizes
        self.config = self._config(
            self.work / "power.json", s.power_n, ["none", "gauss-scale:3"], s.power_reps, s.power_limit_reps
        )

    def _run(self, config, out):
        return cli.main(["power", str(config), "--out", str(out)]), out

    def warm(self):
        config = self._config(self.work / "warm.json", [50], ["gauss-scale:3"], 100, 64)
        code, _ = self._run(config, self.work / "warm.csv")
        if code != 0:
            raise RuntimeError(f"warm-up arnorm power exited with {code}")

    def op(self, i):
        return self._run(self.config, self.work / "power.csv")

    def check(self, i, result):
        code, out = result
        if code != 0:
            return b"", [f"arnorm power exited with {code}"]
        data = out.read_bytes()
        return data, check_power_csv(data.decode(), self.expected_rows)

    def detail(self, durations, op_s):
        return {"study_s": {"value": op_s, "unit": "s"}}


# (order, coefficients) of the test series; all stationary
_TEST_MODELS = ((0, ()), (2, (0.5, -0.3)), (5, (0.3, -0.2, 0.1, 0.05, -0.1)))


class TestCached(Workload):
    """``arnorm test`` with two cached 100k-rep tables; one client, closed loop."""

    name = "test-cached"
    has_fixtures = True

    def __init__(self, work, seed, sizes):
        super().__init__(work, seed, sizes)
        self.tables = {kind: self.work / f"null-{kind.value}.txt" for kind in KINDS}
        # (series file, order, coefficients, innovations), cycled through in this order
        self.series = [
            (self.work / f"series-p{p}-{innovation}-{j}.txt", p, coeffs, innovation)
            for p, coeffs in _TEST_MODELS
            for innovation in ("gaussian", "mixture")
            for j in range(sizes.series_per_case)
        ]
        self.n_inputs = len(self.series)
        self.min_ops = max(sizes.test_min_ops, self.n_inputs)

    def fixtures(self):
        s = self.sizes
        tables = limit_law.simulate_limit_tables(KINDS, None, s.grid, s.test_table_reps, self.seed)
        for kind, path in self.tables.items():
            limit_law.save_table(tables[kind], path)
        for index, (path, _, coeffs, innovation) in enumerate(self.series):
            if innovation == "gaussian":
                law = Gaussian(1.0)
            else:
                law = Mixture(sigma0=1.0, h=parse_alternative_law("gauss-scale:3", 1.0), n=s.test_n)
            model = ArModel(coeffs=np.asarray(coeffs, dtype=float), mean=1.5, innovation=law)
            sample = simulate_ar(model, s.test_n, seed=np.random.default_rng([self.seed, index]))
            path.write_text("".join(f"{float(v)!r}\n" for v in sample.values))

    def prepare(self):
        tables = {kind: load_table(path) for kind, path in self.tables.items()}
        self.reference = []
        for path, p, _, _ in self.series:
            values = np.array([float(line) for line in path.read_text().split()])
            fit = fit_ar(SeriesSample.from_values(values, p))
            results = (
                kolmogorov_stat(fit, tables[StatKind.KOLMOGOROV], 0.05),
                omega2_stat(fit, tables[StatKind.OMEGA2], 0.05),
            )
            self.reference.append({r.kind.value: (repr(r.value), repr(r.p_value)) for r in results})

    def warm(self):
        code, _ = self.op(0)
        if code != 0:
            raise RuntimeError(f"warm-up arnorm test exited with {code}")

    def op(self, i):
        path, p, _, _ = self.series[self.input_key(i)]
        argv = ["test", str(path), "--p", str(p)]
        for table in self.tables.values():
            argv += ["--table", str(table)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, i, result):
        code, text = result
        return text.encode(), check_test_report(code, text, self.reference[self.input_key(i)])

    def detail(self, durations, op_s):
        ms = np.asarray(durations) * 1e3
        return {
            "test_p50_ms": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
            "test_p90_ms": {"value": float(np.percentile(ms, 90)), "unit": "ms"},
        }


WORKLOADS = {w.name: w for w in (TableNull, PowerGrid, TestCached)}
