"""Smoke tests of the benchmark itself: tiny sizes, and planted defects.

    python3 -m pytest perfbench -q

Each correctness gate is shown to pass on real output and to catch a
defect planted in a copy of it.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import bootstrap

bootstrap.limit_blas_threads()
bootstrap.import_arnorm()

import run  # noqa: E402
import workloads as wl  # noqa: E402
from arnorm import limit_law  # noqa: E402

SMOKE = wl.SMOKE


def _bench(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, str(bootstrap.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=bootstrap.ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload,table_calls", [("table-null", 1), ("power-grid", 6), ("test-cached", 0)])
def test_smoke_runs_are_correct(workload, table_calls):
    plain = _bench(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = _bench(workload, 1)
    assert traced["correct"]
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    assert traced["metrics"]["limit_law.simulate_limit_tables.calls"]["value"] == table_calls


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (bootstrap.ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "test-cached", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- table-null ---------------------------------------------------------------


@pytest.fixture(scope="module")
def null_samples():
    tables = limit_law.simulate_limit_tables(wl.KINDS, None, SMOKE.grid, SMOKE.table_reps, 11)
    return {kind: tables[kind].samples.copy() for kind in wl.KINDS}


def _planted(samples, kind, change):
    out = {k: v.copy() for k, v in samples.items()}
    out[kind] = change(out[kind])
    return out


def _swap(v):
    v[[10, 20]] = v[[20, 10]]
    return v


def _nan(v):
    v[-1] = np.nan
    return v


@pytest.mark.parametrize(
    "kind,change,expected",
    [
        (wl.StatKind.OMEGA2, _swap, "not sorted"),
        (wl.StatKind.KOLMOGOROV, _nan, "non-finite"),
        (wl.StatKind.OMEGA2, lambda v: v[:-1], "samples, expected"),
        (wl.StatKind.OMEGA2, lambda v: v * 1.1, "misses 0.126"),
        (wl.StatKind.KOLMOGOROV, lambda v: v * 1.1, "outside"),
    ],
)
def test_table_gates_catch_planted_defects(null_samples, kind, change, expected):
    assert wl.check_tables(null_samples, SMOKE.table_reps) == []
    failures = wl.check_tables(_planted(null_samples, kind, change), SMOKE.table_reps)
    assert any(expected in f for f in failures), failures


def test_twin_gate_catches_worker_dependent_output(tmp_path, monkeypatch):
    workload = wl.TableNull(tmp_path, 5, SMOKE)
    assert workload.run_checks() == []
    real = limit_law.simulate_limit_tables

    def perturbed(kinds, shift, grid, reps, seed, workers=1):
        tables = real(kinds, shift, grid, reps, seed, workers)
        if workers == 2:
            t = tables[wl.StatKind.OMEGA2]
            samples = t.samples.copy()
            samples[-1] = np.nextafter(samples[-1], np.inf)
            tables[t.kind] = limit_law.LimitLawTable(t.kind, t.shift, samples, t.grid_size, t.n_reps, t.seed)
        return tables

    monkeypatch.setattr(limit_law, "simulate_limit_tables", perturbed)
    assert workload.run_checks() == ["omega2: workers=2 table differs from workers=1"]


# -- power-grid ---------------------------------------------------------------


@pytest.fixture(scope="module")
def power_csv(tmp_path_factory):
    workload = wl.PowerGrid(tmp_path_factory.mktemp("power"), 3, SMOKE)
    workload.prepare()
    data, failures = workload.check(0, workload.op(0))
    assert failures == []
    return data.decode(), workload.expected_rows


def _edit_row(text, index, column, value):
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].split(",")
    cells = lines[header + 1 + index].split(",")
    cells[columns.index(column)] = value
    lines[header + 1 + index] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "plant,expected",
    [
        (lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n", "rows, expected"),
        (lambda t: _edit_row(t, 2, "empirical_power", "1.5"), "outside [0, 1]"),
        (lambda t: _edit_row(t, 3, "asymptotic_power", "-0.1"), "outside [0, 1]"),
        (lambda t: _edit_row(t, 4, "critical_value", "0.5"), "critical_value differs"),
    ],
)
def test_power_gates_catch_planted_defects(power_csv, plant, expected):
    text, rows = power_csv
    failures = wl.check_power_csv(plant(text), rows)
    assert any(expected in f for f in failures), failures


# -- test-cached --------------------------------------------------------------


@pytest.fixture(scope="module")
def test_report(tmp_path_factory):
    workload = wl.TestCached(tmp_path_factory.mktemp("test"), 4, SMOKE)
    workload.fixtures()
    workload.prepare()
    code, text = workload.op(1)
    assert workload.check(1, (code, text))[1] == []
    return code, text, workload.reference[1]


def _perturb_last_digit(text, field):
    out = []
    for line in text.splitlines():
        if line.startswith("statistic=omega2"):
            tokens = line.split()
            for i, token in enumerate(tokens):
                if token.startswith(field + "="):
                    digit = token[-1]
                    tokens[i] = token[:-1] + ("1" if digit != "1" else "2")
            line = " ".join(tokens)
        out.append(line)
    return "\n".join(out) + "\n"


def test_test_gates_catch_planted_defects(test_report):
    code, text, reference = test_report
    assert wl.check_test_report(2, text, reference) == ["arnorm test exited with 2"]
    failures = wl.check_test_report(code, _perturb_last_digit(text, "value"), reference)
    assert any("omega2: value" in f for f in failures), failures
    failures = wl.check_test_report(code, _perturb_last_digit(text, "p_value"), reference)
    assert any("omega2: p_value" in f for f in failures), failures
    bad = text.replace(f"p_value={reference['omega2'][1]}", "p_value=0.0")
    assert any("outside (0, 1]" in f for f in wl.check_test_report(code, bad, reference))


# -- digests ------------------------------------------------------------------


def test_digest_history_flags_changed_output(tmp_path):
    path = tmp_path / "digests.json"
    assert run.check_digest_history(path, "code", "w:1", "aaa") is None
    assert run.check_digest_history(path, "code", "w:1", "aaa") is None
    assert "differs" in run.check_digest_history(path, "code", "w:1", "bbb")
    assert run.check_digest_history(path, "other-code", "w:1", "bbb") is None


def test_run_loop_flags_nondeterministic_output():
    class Drifting(wl.Workload):
        def op(self, i):
            return i

        def check(self, i, result):
            return str(result).encode(), []

    workload = Drifting(".", 0, SMOKE)
    loop = run.run_loop(workload, 0.0)
    assert len(loop.durations) == workload.min_ops and len(loop.first) == 1
    assert loop.failures[0] == [] and all("differs" in f[0] for f in loop.failures[1:])


def test_step_minimum_sums_each_steps_fastest_time():
    assert run.step_minimum([3.0, 2.5], [[1.0, 2.0], [1.5, 1.0]]) == 2.0
    assert run.step_minimum([3.0, 2.5], []) == 2.5
    # operations that split differently fall back to the fastest whole one
    assert run.step_minimum([3.0, 2.5], [[3.0], [1.0, 1.5]]) == 2.5
