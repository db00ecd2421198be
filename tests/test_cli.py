import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arnorm
from arnorm import ar_process, estimation, gof_tests, limit_law, load_table, quantile, rng
from arnorm.ar_process import ArModel, Gaussian, LaplaceLaw, Mixture
from arnorm.cli import main
from arnorm.estimation import DegenerateDataError
from arnorm.rng import substream

from conftest import LAST_BITS, OFFSET_RAMP, POWER_OF_TWO_GAP
from oracles import write_v1_table


def _write_series(path, values):
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


def _run_cli(argv, cwd):
    """Run ``python -m arnorm`` in a fresh interpreter, so warnings reach stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "arnorm", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def small_tables(tmp_path_factory):
    """Modest null tables written once and reused by the test subcommand."""
    root = tmp_path_factory.mktemp("tables")
    paths = {}
    for kind in ("kolmogorov", "omega2"):
        out = root / f"{kind}.table"
        code = main([
            "quantiles", "--kind", kind, "--grid", "128",
            "--reps", "20000", "--seed", "77", "--out", str(out),
        ])
        assert code == 0
        paths[kind] = str(out)
    return paths


class TestSimulate:
    def test_deterministic_output_files(self, tmp_path):
        argv = ["simulate", "--n", "50", "--beta", "0.5", "--mu", "1.0", "--seed", "9"]
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_header_and_length(self, tmp_path, capsys):
        assert main(["simulate", "--n", "20", "--beta", "0.5", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert header[0].startswith("# arnorm ")
        assert any("config:" in l for l in header)
        assert any("seed: 1" in l for l in header)
        assert len(data) == 21  # n = 20 plus p = 1 pre-sample values
        np.array([float(v) for v in data])  # every line parses

    @pytest.mark.parametrize(
        "beta, warm_up",
        [("0.5", '{"burn_in": 100, "root_radius": 0.5}'),
         ("", '{"burn_in": 100, "root_radius": 0.0}')],
        ids=["derived", "order-0"],
    )
    def test_header_states_warm_up(self, capsys, beta, warm_up):
        assert main(["simulate", "--n", "20", "--beta", beta]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "burn_in" not in json.loads(lines[1].removeprefix("# config: "))
        assert lines[3] == f"# warm-up: {warm_up}"

    def test_burn_in_flag_refused(self, capsys):
        # the warm-up is the model's own; an old --burn-in is a usage error
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--n", "20", "--burn-in", "5"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --burn-in 5" in captured.err
        assert captured.out == ""

    def test_over_budget_radius_exits_2(self, capsys, monkeypatch):
        # 0.99999999 is refused as not stationary; at 0.9999999 the warm-up
        # would be 3.7e8 steps
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated an over-budget model")

        monkeypatch.setattr(arnorm.cli, "simulate_ar", must_not_run)
        assert main(["simulate", "--n", "30", "--beta", "0.9999999"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "arnorm: the warm-up for characteristic root radius 0.9999999 exceeds "
            "1000000 steps (--beta)\n"
        )
        assert captured.out == ""

    def test_mixture_alternative_accepted(self, capsys):
        code = main([
            "simulate", "--n", "30", "--beta", "0.4", "--h", "laplace:4.0",
            "--sigma0", "1.0", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "laplace" in out  # recorded in the header config

    def test_invalid_beta_exits_2(self, capsys):
        assert main(["simulate", "--n", "30", "--beta", "1.0"]) == 2
        assert "arnorm:" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["0.5,,0.3", "0.5,x", "0.5,"])
    def test_beta_token_not_a_number_exits_2(self, capsys, beta):
        # an empty token was skipped, so "0.5,,0.3" simulated AR(2)
        assert main(["simulate", "--n", "30", "--beta", beta]) == 2
        captured = capsys.readouterr()
        assert f"arnorm: --beta must be comma-separated numbers, got {beta!r}" in captured.err
        assert captured.out == ""

    def test_empty_beta_is_order_0(self, capsys):
        assert main(["simulate", "--n", "20", "--beta", "", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert '"beta": []' in lines[1] and '"p": 0' in lines[1]
        assert len([l for l in lines if not l.startswith("#")]) == 20

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_mu_exits_2(self, capsys, value):
        assert main(["simulate", "--n", "30", f"--mu={value}"]) == 2
        captured = capsys.readouterr()
        assert f"arnorm: mu must be finite, got {value} (--mu)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("h", [None, "gauss-scale:3"])
    def test_non_finite_sigma0_exits_2(self, capsys, value, h):
        argv = ["simulate", "--n", "30", "--sigma0", value]
        assert main(argv + (["--h", h] if h else [])) == 2
        captured = capsys.readouterr()
        message = f"sigma0 must be positive and finite, got {value} (--sigma0)"
        assert f"arnorm: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [(["--n", "1", "--h", "laplace:4"], "n must be an integer >= 2, got 1 (--n)"),
         (["--n", "3", "--beta", "0.1,0.1,0.1"],
          "series too short: requires n >= p + 1, got n = 3 and p = 3 (--n)"),
         (["--beta", "0.5,nan"], "coeffs must be finite, got nan at index 1 (--beta)"),
         (["--sigma0", "1e200"],
          "sigma0 must have a finite variance sigma0**2, got 1e+200 (--sigma0)"),
         (["--sigma0", "1e154", "--h", "gauss-scale:2"],
          "invalid law descriptor 'gauss-scale:2': c * sigma0 must be positive with a "
          "finite variance (c * sigma0)**2, got 2.0 * 1e+154 = 2e+154"),
         (["--h", "student:2,1"],
          "invalid law descriptor 'student:2,1': df must be finite and exceed 2 for a "
          "finite variance, got 2.0")],
        ids=["n-mixture", "n-below-order", "beta-nan", "sigma0-overflow",
             "scale-product-overflow", "student-df"],
    )
    def test_bad_flag_named_before_simulating(self, capsys, monkeypatch, flags, message):
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated with a bad flag")

        monkeypatch.setattr(arnorm.cli, "simulate_ar", must_not_run)
        # a repeated --n overrides the first
        assert main(["simulate", "--n", "30", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"arnorm: {message}\n"
        assert captured.out == ""


class TestTest:
    def test_gaussian_series_not_rejected(self, tmp_path, capsys, small_tables):
        series = tmp_path / "series.txt"
        _write_series(series, substream(123).normal(0.0, 1.0, size=2000))
        code = main([
            "test", str(series), "--p", "0", "--alpha", "0.05",
            "--table", small_tables["kolmogorov"], "--table", small_tables["omega2"],
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=not-rejected" in out
        assert out.count("statistic=") == 2
        assert "n=2000" in out

    def test_skewed_series_rejected(self, tmp_path, capsys, small_tables):
        rng = substream(124)
        series = tmp_path / "series.txt"
        _write_series(series, rng.exponential(1.0, size=2000))
        code = main([
            "test", str(series), "--p", "0",
            "--table", small_tables["kolmogorov"], "--table", small_tables["omega2"],
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=rejected" in out
        assert "verdict=not-rejected" not in out

    def test_pipeline_roundtrip_through_files(self, tmp_path, capsys, small_tables):
        series = tmp_path / "sim.txt"
        assert main([
            "simulate", "--n", "1500", "--beta", "0.5", "--seed", "5",
            "--out", str(series),
        ]) == 0
        code = main([
            "test", str(series), "--p", "1",
            "--table", small_tables["kolmogorov"], "--table", small_tables["omega2"],
        ])
        assert code == 0
        assert "verdict=not-rejected" in capsys.readouterr().out

    def test_report_written_to_file(self, tmp_path, small_tables):
        series = tmp_path / "series.txt"
        _write_series(series, substream(125).normal(size=500))
        report = tmp_path / "report.txt"
        code = main([
            "test", str(series), "--p", "0", "--table", small_tables["kolmogorov"],
            "--table", small_tables["omega2"], "--out", str(report),
        ])
        assert code == 0
        text = report.read_text()
        assert "p_value=" in text and "critical_value=" in text

    def _report(self, capsys, series, p, tables):
        capsys.readouterr()
        code = main(["test", str(series), "--p", str(p),
                     "--table", tables["kolmogorov"], "--table", tables["omega2"]])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _statistics(text):
        lines = [l for l in text.splitlines() if l.startswith("statistic=")]
        return {l.split()[0]: float(l.split()[1].partition("=")[2]) for l in lines}

    def _scaled_reports(self, tmp_path, capsys, tables, factor):
        model = arnorm.ArModel((0.5,), 1.5, arnorm.Gaussian(1.0))
        values = arnorm.simulate_ar(model, 400, seed=133).values
        plain, scaled = tmp_path / "plain.txt", tmp_path / "scaled.txt"
        _write_series(plain, values)
        _write_series(scaled, factor * values)
        for p in (0, 1):
            yield self._report(capsys, plain, p, tables), self._report(capsys, scaled, p, tables)

    @pytest.mark.parametrize("factor", [2.0**600, 2.0**-600, 2.0**1021],
                             ids=["2**600", "2**-600", "2**1021"])
    def test_power_of_two_scale_keeps_statistic_bytes(self, tmp_path, capsys, small_tables,
                                                       factor):
        # the fit and the scale estimate work on values scaled by a power of
        # two, which is exact; unscaled, 2**600 overflowed the squares and
        # 2**-600 flushed them to zero
        for plain, scaled in self._scaled_reports(tmp_path, capsys, small_tables, factor):
            assert plain[0] == scaled[0] == 0, scaled[2]
            assert ([l for l in scaled[1].splitlines() if l.startswith("statistic=")]
                    == [l for l in plain[1].splitlines() if l.startswith("statistic=")])

    def test_huge_scale_series_matches_unscaled(self, tmp_path, capsys, small_tables):
        # at 1e200 the mean square overflowed: --p 0 printed a verdict from transforms
        # that were all 0.5, and --p 1 failed in the Cholesky solve
        for plain, scaled in self._scaled_reports(tmp_path, capsys, small_tables, 1e200):
            assert plain[0] == scaled[0] == 0, scaled[2]
            want, got = self._statistics(plain[1]), self._statistics(scaled[1])
            assert set(got) == {"statistic=kolmogorov", "statistic=omega2"}
            for kind, value in want.items():
                assert got[kind] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["test", str(tmp_path / "nope.txt"), "--reps", "100"]) == 2
        assert "arnorm:" in capsys.readouterr().err

    def test_unparseable_line_reported_with_number(self, tmp_path, capsys):
        series = tmp_path / "bad.txt"
        series.write_text("1.0\n2.0\nnot-a-number\n4.0\n")
        assert main(["test", str(series), "--reps", "100"]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize("bad", ["inf", "nan", "-Infinity"])
    def test_non_finite_line_reported_with_number(self, tmp_path, bad):
        series = tmp_path / "bad.txt"
        values = substream(129).normal(size=6)
        series.write_text("".join(f"{float(v)!r}\n" for v in values) + f"{bad}\n")
        proc = _run_cli(["test", str(series), "--grid", "16", "--reps", "100"], tmp_path)
        assert proc.returncode == 2
        assert "line 7" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_comments_and_blanks_tolerated(self, tmp_path, capsys, small_tables):
        series = tmp_path / "ok.txt"
        values = substream(126).normal(size=300)
        series.write_text("# header\n\n" + "".join(f"{float(v)!r}\n" for v in values))
        code = main([
            "test", str(series), "--p", "0", "--table", small_tables["kolmogorov"],
            "--table", small_tables["omega2"],
        ])
        assert code == 0

    def test_constant_series_exits_3(self, tmp_path, capsys):
        series = tmp_path / "flat.txt"
        _write_series(series, np.full(50, 3.0))
        assert main(["test", str(series), "--p", "1", "--reps", "100"]) == 3
        assert "arnorm:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, p, message",
        [(np.full(50, 3.0), 0, "residual scale estimate is zero"),
         (np.full(50, 3.0), 1, "singular normal equations"),
         # noiseless at order 2: the residuals are rounding noise, at RMS
         # 5.1e-15 and 5.5e-17, and a verdict on them depends on last bits
         (np.arange(41.0), 2, "residuals are rounding noise"),
         (1e200 * np.arange(41.0), 2, "residuals are rounding noise"),
         (1e-200 * np.arange(41.0), 2, "residuals are rounding noise"),
         (np.append(np.tile([1.0, -1.0], 20), 1.0), 2, "residuals are rounding noise"),
         # noiseless against the series' level, not its spread
         (OFFSET_RAMP, 2, "residuals are rounding noise"),
         (LAST_BITS, 0, "residuals are rounding noise"),
         (LAST_BITS, 1, "residuals are rounding noise"),
         (POWER_OF_TWO_GAP, 0, "of the power of two above the series' largest magnitude")],
        ids=["p0-zero-scale", "p1-singular", "ramp-p2-noise", "ramp-1e200-p2-noise",
             "ramp-1e-200-p2-noise", "alternating-p2-noise", "offset-ramp-p2-noise",
             "last-bits-p0-noise", "last-bits-p1-noise", "power-of-two-gap-p0-noise"],
    )
    def test_degenerate_series_exits_before_tables(self, tmp_path, capsys, monkeypatch,
                                                   values, p, message):
        # the fit and its scale are checked before the default tables are
        # simulated, which would take seconds
        calls = []
        monkeypatch.setattr(arnorm.cli, "simulate_limit_tables",
                            lambda *args, **kwargs: calls.append(args))
        series = tmp_path / "degenerate.txt"
        _write_series(series, values)
        assert main(["test", str(series), "--p", str(p)]) == 3
        assert message in capsys.readouterr().err
        assert calls == []

    def test_degenerate_residuals_exit_3(self, tmp_path, capsys):
        # alternating series: centers to itself exactly and the lag-1 fit is
        # noiseless, so every residual is zero or rounding noise
        series = tmp_path / "exact.txt"
        _write_series(series, np.append(np.tile([1.0, -1.0], 20), 1.0))
        assert main(["test", str(series), "--p", "1", "--reps", "100"]) == 3

    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        _write_series(series, substream(127).normal(size=100))
        assert main(["test", str(series), "--alpha", "1.5", "--reps", "100"]) == 2

    def test_too_short_series_exits_2(self, tmp_path, capsys):
        # fewer values than p: the message counts values, never a negative n
        series = tmp_path / "short.txt"
        _write_series(series, [1.0, 2.0, 3.0])
        assert main(["test", str(series), "--p", "5", "--reps", "100"]) == 2
        assert capsys.readouterr().err == (
            f"arnorm: {series}: series too short: requires at least 2p + 1 = 11 values, "
            "got 3 values and p = 5 (--p)\n"
        )

    def test_too_short_series_names_file_sizes_and_flag(self, tmp_path, capsys):
        series = tmp_path / "ten.txt"
        _write_series(series, np.arange(10.0))
        assert main(["test", str(series), "--p", "9", "--reps", "100"]) == 2
        assert capsys.readouterr().err == (
            f"arnorm: {series}: series too short: requires at least 2p + 1 = 19 values, "
            "got 10 values and p = 9 (--p)\n"
        )

    def test_nan_in_table_file_exits_2(self, tmp_path, capsys, small_tables):
        # a v1 text table, which names a bad line by its number
        table = tmp_path / "kolmogorov.table"
        write_v1_table(table, load_table(small_tables["kolmogorov"]), comments=("by hand",))
        lines = table.read_text().splitlines()
        middle = len(lines) // 2
        assert not lines[middle].startswith("#")
        lines[middle] = "nan"
        table.write_text("\n".join(lines) + "\n")
        series = tmp_path / "series.txt"
        _write_series(series, substream(130).normal(size=200))
        code = main([
            "test", str(series), "--table", str(table), "--table", small_tables["omega2"],
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{table}: line {middle + 1} is not finite: 'nan'" in err

    def test_non_numeric_table_line_reported_with_number(self, tmp_path, capsys, small_tables):
        # a v1 text table, which names a bad line by its number
        table = tmp_path / "kolmogorov.table"
        write_v1_table(table, load_table(small_tables["kolmogorov"]), comments=("by hand",))
        lines = table.read_text().splitlines()
        middle = len(lines) // 2
        assert not lines[middle].startswith("#")
        lines[middle] = "abc"
        table.write_text("\n".join(lines) + "\n")
        series = tmp_path / "series.txt"
        _write_series(series, substream(130).normal(size=200))
        code = main([
            "test", str(series), "--table", str(table), "--table", small_tables["omega2"],
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{table}: line {middle + 1} is not a number: 'abc'" in err

    def test_simulated_tables_match_quantiles_tables(self, tmp_path, capsys, small_tables):
        # without --table, the null tables are simulated from the same grid,
        # reps and seed that `arnorm quantiles` wrote small_tables with
        series = tmp_path / "series.txt"
        _write_series(series, substream(131).normal(size=400))
        capsys.readouterr()
        assert main([
            "test", str(series), "--table", small_tables["kolmogorov"],
            "--table", small_tables["omega2"],
        ]) == 0
        cached = capsys.readouterr().out
        assert main([
            "test", str(series), "--grid", "128", "--reps", "20000", "--seed", "77",
        ]) == 0
        simulated = capsys.readouterr().out

        def statistic_lines(text):
            return [l for l in text.splitlines() if l.startswith("statistic=")]

        assert len(statistic_lines(cached)) == 2
        assert statistic_lines(simulated) == statistic_lines(cached)

    def test_header_reports_table_provenance(self, tmp_path, capsys):
        # the header names each table's own grid, reps and seed, not the
        # --grid/--reps/--seed defaults
        paths = {}
        for kind in ("kolmogorov", "omega2"):
            paths[kind] = str(tmp_path / f"{kind}.table")
            assert main(["quantiles", "--kind", kind, "--grid", "64", "--reps", "5000",
                         "--seed", "3", "--out", paths[kind]]) == 0
        series = tmp_path / "series.txt"
        _write_series(series, substream(132).normal(size=300))

        def table_headers(argv):
            capsys.readouterr()
            assert main(["test", str(series), *argv]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert not any(l.startswith("# seed:") for l in lines)
            return [json.loads(l[len("# table: "):]) for l in lines
                    if l.startswith("# table: ")]

        loaded = table_headers(["--table", paths["kolmogorov"], "--table", paths["omega2"]])
        assert loaded == [
            {"kind": kind, "source": paths[kind], "grid_size": 64, "n_reps": 5000, "seed": 3}
            for kind in ("kolmogorov", "omega2")
        ]
        mixed = table_headers(["--table", paths["omega2"], "--grid", "32",
                               "--reps", "500", "--seed", "5"])
        assert mixed == [
            {"kind": "kolmogorov", "source": "simulated", "grid_size": 32,
             "n_reps": 500, "seed": 5},
            {"kind": "omega2", "source": paths["omega2"], "grid_size": 64,
             "n_reps": 5000, "seed": 3},
        ]

    def test_duplicate_table_kind_rejected(self, tmp_path, capsys, small_tables):
        series = tmp_path / "series.txt"
        _write_series(series, substream(128).normal(size=100))
        code = main([
            "test", str(series), "--table", small_tables["kolmogorov"],
            "--table", small_tables["kolmogorov"],
        ])
        assert code == 2

    @pytest.mark.parametrize("kind, message", [
        ("truncated", "the data section holds 159992 bytes, but n_reps=20000 needs 160000"),
        ("trailing", "the data section holds 160001 bytes, but n_reps=20000 needs 160000"),
        ("no-data-line", "no '# data: 20000 float64 little-endian' line ends the header"),
        pytest.param("nan", "samples must be finite, got nan at index 10000",
                     id="nan-samples must be finite"),
        ("unsorted", "samples must be sorted in ascending order"),
    ])
    def test_v2_table_defect_exits_2_naming_the_file(self, tmp_path, capsys, small_tables,
                                                     kind, message):
        data_line = b"# data: 20000 float64 little-endian\n"
        header, found, data = Path(small_tables["kolmogorov"]).read_bytes().partition(data_line)
        assert found and len(data) == 8 * 20_000
        if kind == "truncated":
            data = data[:-8]
        elif kind == "trailing":
            data += b"\0"
        elif kind == "no-data-line":
            data_line = b"# no data line\n"
        else:
            samples = np.frombuffer(data, dtype="<f8").copy()
            if kind == "nan":
                samples[10_000] = np.nan
            else:
                samples[[10_000, 10_001]] = samples[[10_001, 10_000]]
            data = samples.tobytes()
        table = tmp_path / "kolmogorov.table"
        table.write_bytes(header + data_line + data)
        series = tmp_path / "series.txt"
        _write_series(series, substream(130).normal(size=200))
        code = main([
            "test", str(series), "--table", str(table), "--table", small_tables["omega2"],
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"arnorm: {table}: {message}\n"

    def test_v1_and_v2_tables_give_the_same_report(self, tmp_path, capsys, small_tables):
        # the report names each table's path, so both formats sit at one path
        series = tmp_path / "series.txt"
        _write_series(series, substream(131).normal(size=500))
        paths = {kind: tmp_path / f"{kind}.table" for kind in small_tables}
        for kind, path in paths.items():
            path.write_bytes(Path(small_tables[kind]).read_bytes())
        argv = ["test", str(series), "--p", "1", "--table", str(paths["kolmogorov"]),
                "--table", str(paths["omega2"])]
        assert main(argv) == 0
        from_v2 = capsys.readouterr().out
        for kind, path in paths.items():
            write_v1_table(path, load_table(small_tables[kind]))
            assert path.read_text().startswith("# limit-table v1 ")
        assert main(argv) == 0
        assert capsys.readouterr().out == from_v2

    @pytest.mark.parametrize("case", ["series", "v1-table"])
    def test_non_utf8_line_named_by_number(self, tmp_path, capsys, small_tables, case):
        bad = tmp_path / "bad.txt"
        body = b"0.5\n0.25\n\xff\xfe1.0\n0.75\n"
        series = tmp_path / "series.txt"
        _write_series(series, substream(132).normal(size=200))
        if case == "series":
            bad.write_bytes(body)
            argv = ["test", str(bad), "--table", small_tables["kolmogorov"],
                    "--table", small_tables["omega2"]]
            lineno = 3
        else:
            bad.write_bytes(b"# limit-table v1 kind=kolmogorov grid_size=16 n_reps=4 seed=7 "
                            b"shift=none\n" + body)
            argv = ["test", str(series), "--table", str(bad), "--table", small_tables["omega2"]]
            lineno = 4
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"arnorm: {bad}: line {lineno} is not a number: ")

    def test_residuals_transformed_and_scale_checked_once(self, tmp_path, capsys, monkeypatch,
                                                           small_tables):
        # both statistics come from one set of sorted transforms, and the
        # fit checks the scale once
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(gof_tests, "_sorted_transforms")
        counted(estimation, "_fit_rows")
        series = tmp_path / "series.txt"
        _write_series(series, substream(134).normal(size=300))
        code, _, err = self._report(capsys, series, 1, small_tables)
        assert code == 0, err
        assert sorted(calls) == ["_fit_rows", "_sorted_transforms"]

    def test_byte_order_mark_skipped(self, tmp_path, capsys, small_tables):
        # "UTF-8 with BOM" files, as some editors and spreadsheets save them
        series = tmp_path / "series.txt"
        text = "".join(f"{float(v)!r}\n" for v in substream(135).normal(size=300))
        series.write_text(text)
        plain = self._report(capsys, series, 1, small_tables)
        series.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert self._report(capsys, series, 1, small_tables) == plain
        assert plain[0] == 0

    def test_byte_order_mark_before_header_lines(self, tmp_path, capsys, small_tables):
        series = tmp_path / "series.txt"
        text = "".join(f"{float(v)!r}\n" for v in substream(136).normal(size=300))
        series.write_bytes(b"\xef\xbb\xbf# exported\n# x\n" + text.encode())
        assert main(["test", str(series), "--table", small_tables["kolmogorov"],
                     "--table", small_tables["omega2"]]) == 0
        assert "n=300 " in capsys.readouterr().out

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path, capsys):
        series = tmp_path / "bad.txt"
        series.write_bytes(b"\xef\xbb\xbf1.0\n2.0\n3.0\nnot-a-number\n5.0\n")
        assert main(["test", str(series), "--reps", "100"]) == 2
        assert capsys.readouterr().err == (
            f"arnorm: {series}: line 4 is not a number: 'not-a-number'\n"
        )

    @pytest.mark.parametrize("first_line", [
        b"# limit-table v2 kind=kolmogorov\xff grid_size=16 n_reps=1 seed=7\n",
        b"# limit-table v1 kind=kolmogorov grid_size=16 n_reps=1 seed=7 shift=\xff\n",
        b"\x7fELF\x02\x01\x01\x00\xff\xfe\n",
    ], ids=["v2", "v1", "binary"])
    def test_undecodable_table_header_is_not_a_table(self, tmp_path, capsys, small_tables,
                                                     first_line):
        table = tmp_path / "bad.table"
        table.write_bytes(first_line + b"# data: 1 float64 little-endian\n" + bytes(8))
        series = tmp_path / "series.txt"
        _write_series(series, substream(133).normal(size=200))
        assert main(["test", str(series), "--table", str(table),
                     "--table", small_tables["omega2"]]) == 2
        assert capsys.readouterr().err == f"arnorm: {table}: not a limit-table file\n"

    def test_shifted_table_file_rejected(self, tmp_path, capsys, small_tables):
        # the header of a shifted table as earlier releases wrote it
        shifted = tmp_path / "shifted.table"
        shifted.write_text(
            "# limit-table v1 kind=kolmogorov grid_size=16 n_reps=1 seed=7 "
            "shift=laplace:4.0 shift_sigma0=1.0\n0.5\n"
        )
        series = tmp_path / "series.txt"
        _write_series(series, substream(129).normal(size=100))
        code = main(["test", str(series), "--table", str(shifted),
                     "--table", small_tables["omega2"]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{shifted}: table was simulated under a shift, not the null" in captured.err


class TestQuantiles:
    def test_summary_lists_three_levels(self, capsys):
        code = main(["quantiles", "--kind", "kolmogorov", "--grid", "64",
                     "--reps", "2000", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        for alpha in ("0.1", "0.05", "0.01"):
            assert f"alpha={alpha}" in out

    def test_table_file_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "k.table"
        code = main(["quantiles", "--kind", "omega2", "--grid", "64",
                     "--reps", "2000", "--seed", "4", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        table = load_table(out)
        assert table.n_reps == 2000
        line = next(l for l in stdout.splitlines() if l.startswith("alpha=0.05 "))
        printed = float(line.split("critical_value=")[1])
        assert printed == quantile(table, 0.05)

    def test_deterministic_files(self, tmp_path):
        argv = ["quantiles", "--kind", "kolmogorov", "--grid", "64",
                "--reps", "3000", "--seed", "5"]
        a, b = tmp_path / "a.table", tmp_path / "b.table"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invisible_in_output(self, tmp_path):
        # two workers split the 6000 replications between them; the file
        # must not change
        base = ["quantiles", "--kind", "kolmogorov", "--grid", "64",
                "--reps", "6000", "--seed", "6"]
        a, b = tmp_path / "w1.table", tmp_path / "w2.table"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_reps_exits_2(self, capsys):
        assert main(["quantiles", "--kind", "kolmogorov", "--reps", "0"]) == 2


class TestSharedParser:
    """One process builds the parser once; no call may leave state in it."""

    def test_calls_in_one_process_print_what_fresh_processes_print(
        self, tmp_path, capsys, monkeypatch, small_tables
    ):
        monkeypatch.setenv("COLUMNS", "80")  # the same usage width in both
        series = tmp_path / "series.txt"
        _write_series(series, substream(136).normal(size=300))
        tables = [small_tables["kolmogorov"], small_tables["omega2"]]
        with_tables = ["test", str(series), "--p", "1",
                       "--table", tables[0], "--table", tables[1]]
        no_tables = ["test", str(series), "--grid", "16", "--reps", "200"]
        bad_flag = ["test", str(series), "--no-such-flag"]
        loaded = []
        monkeypatch.setattr("arnorm.cli.load_table",
                            lambda path: loaded.append(path) or load_table(path))
        # (argv, exit code, the tables the call loads); an earlier call's
        # --table flags must not leak into a later call
        calls = [(with_tables, 0, tables), (no_tables, 0, []), (bad_flag, 2, []),
                 (with_tables, 0, tables)]
        for argv, expected_code, expected_loads in calls:
            fresh = _run_cli(argv, cwd=tmp_path)
            assert fresh.returncode == expected_code, fresh.stderr
            del loaded[:]
            capsys.readouterr()
            if expected_code == 2:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                code = exc.value.code
            else:
                code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert loaded == expected_loads, argv
            if argv is no_tables:
                assert captured.out.count('"source": "simulated"') == 2

    def test_help_text_is_unchanged_by_earlier_calls(self, tmp_path, capsys, monkeypatch,
                                                     small_tables):
        monkeypatch.setenv("COLUMNS", "80")
        series = tmp_path / "series.txt"
        _write_series(series, substream(137).normal(size=200))
        assert main(["test", str(series), "--table", small_tables["kolmogorov"],
                     "--table", small_tables["omega2"]]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["test", "--help"])
        assert exc.value.code == 0
        fresh = _run_cli(["test", "--help"], cwd=tmp_path)
        assert capsys.readouterr().out == fresh.stdout
        assert fresh.stdout.startswith("usage: arnorm test [-h] [--p P] [--alpha ALPHA]")
        assert "--table PATH" in fresh.stdout


def _power_config(tmp_path, **overrides):
    config = {
        "n": [200],
        "h": ["gauss-scale:2.0"],
        "beta": [0.5],
        "alpha": 0.05,
        "n_reps": 150,
        "seed": 11,
        "grid": 128,
        "limit_reps": 5000,
        "statistics": ["kolmogorov", "omega2"],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestPower:
    def test_csv_written_with_rows(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["power", str(_power_config(tmp_path)), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        headers = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any("config:" in l for l in headers)
        assert rows[0].startswith("n,alternative,statistic,")
        assert len(rows) == 3  # header plus one row per statistic
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[0] == "200"
            assert 0.0 <= float(fields[4]) <= 1.0

    def test_cross_product_of_n_and_h(self, tmp_path):
        out = tmp_path / "grid.csv"
        config = _power_config(
            tmp_path, n=[150, 250], h=["gauss-scale:2.0", "none"],
            statistics=["kolmogorov"], n_reps=100, limit_reps=2000,
        )
        assert main(["power", str(config), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 4
        labels = {tuple(r.split(",")[:2]) for r in rows}
        assert labels == {
            ("150", "gauss-scale:2.0"), ("150", "none"),
            ("250", "gauss-scale:2.0"), ("250", "none"),
        }

    def test_none_alternative_reports_level_as_asymptote(self, tmp_path):
        out = tmp_path / "size.csv"
        config = _power_config(tmp_path, h=["none"], statistics=["omega2"],
                               n_reps=100, limit_reps=2000)
        assert main(["power", str(config), "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        fields = row.split(",")
        assert float(fields[6]) == 0.05  # asymptotic power equals the level
        assert float(fields[7]) == 0.0

    def test_worker_count_invisible_in_csv(self, tmp_path):
        config = _power_config(tmp_path, n_reps=120, limit_reps=5000)
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["power", str(config), "--workers", "1", "--out", str(a)]) == 0
        assert main(["power", str(config), "--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_smooth_alternative_is_flagged(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        config = _power_config(tmp_path, h=["twopoint:1.0"],
                               statistics=["kolmogorov"], n_reps=100,
                               limit_reps=2000)
        assert main(["power", str(config), "--out", str(out)]) == 0
        text = out.read_text()
        assert "no Lipschitz density" in text
        assert "outside the local-power guarantee" in text

    def test_smooth_alternative_not_flagged(self, tmp_path):
        out = tmp_path / "grid.csv"
        config = _power_config(tmp_path, n_reps=100, limit_reps=2000,
                               statistics=["kolmogorov"])
        assert main(["power", str(config), "--out", str(out)]) == 0
        assert "no Lipschitz density" not in out.read_text()

    def test_missing_required_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"h": ["none"]}))
        assert main(["power", str(config)]) == 2
        assert "missing required field: n" in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        config = _power_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["typo_field"] = 1
        config.write_text(json.dumps(raw))
        assert main(["power", str(config)]) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["power", str(config)]) == 2

    def test_non_object_json_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(arnorm.cli, "run_power_study",
                            lambda *args, **kwargs: calls.append(args))
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["power", str(config)]) == 2
        assert f"{config}: config must be a JSON object" in capsys.readouterr().err
        assert calls == []

    def test_bad_alternative_descriptor_exits_2(self, tmp_path, capsys):
        config = _power_config(tmp_path, h=["dirichlet:1"])
        assert main(["power", str(config)]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beta", "0"),
            ("beta", [0.5, "0.2"]),
            ("n", 200.0),
            ("n", [200, True]),
            ("h", None),
            ("statistics", [1]),
            ("mu", "1e300"),
            ("mu", float("nan")),
            ("sigma0", True),
            ("alpha", "0.05"),
            ("n_reps", 150.0),
            ("seed", True),
            ("grid", "128"),
            ("limit_reps", 5000.5),
        ],
        ids=["beta-string", "beta-string-item", "n-float", "n-bool-item", "h-null",
             "statistics-number", "mu-string", "mu-nan", "sigma0-bool", "alpha-string",
             "n_reps-float", "seed-bool", "grid-string", "limit_reps-float"],
    )
    def test_mistyped_field_exits_2(self, tmp_path, capsys, field, value):
        config = _power_config(tmp_path, **{field: value})
        assert main(["power", str(config)]) == 2
        assert f"{config}: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "seed must be a non-negative integer, got -1"),
            ("grid", 1, "grid_size must be at least 2, got 1"),
            ("limit_reps", 0, "limit_reps must be at least 1, got 0"),
            ("n_reps", 99, "n_reps must be at least 100, got 99"),
            ("alpha", 1, "alpha must lie strictly between 0 and 1, got 1"),
            ("sigma0", 0, "sigma0 must be positive and finite, got 0"),
            ("sigma0", 1e200, "sigma0 must have a finite variance sigma0**2, got 1e+200"),
            ("sigma0", 1e154, "invalid law descriptor 'gauss-scale:2.0': c * sigma0 must be "
             "positive with a finite variance (c * sigma0)**2, got 2.0 * 1e+154 = 2e+154"),
        ],
        ids=["seed", "grid", "limit_reps", "n_reps", "alpha", "sigma0", "sigma0-variance",
             "scale-product-variance"],
    )
    def test_out_of_range_field_names_config(self, tmp_path, capsys, monkeypatch, field,
                                             value, message):
        # ExperimentSpec owns the ranges; each still fails before any table,
        # whether the first cell is a size or a power study
        calls = []
        monkeypatch.setattr(arnorm.power_lab, "simulate_limit_tables",
                            lambda *args, **kwargs: calls.append(args))
        config = _power_config(tmp_path, h=["none", "gauss-scale:2.0"], **{field: value})
        assert main(["power", str(config)]) == 2
        assert f"arnorm: {config}: {message}" in capsys.readouterr().err
        assert calls == []

    def test_empty_statistics_exits_2(self, tmp_path, capsys):
        config = _power_config(tmp_path, statistics=[])
        assert main(["power", str(config)]) == 2

    @pytest.mark.parametrize("field", ["n", "h"])
    def test_empty_grid_axis_exits_2(self, tmp_path, capsys, field):
        # an empty axis would otherwise write a CSV with a header and no rows
        config = _power_config(tmp_path, **{field: []})
        assert main(["power", str(config)]) == 2
        assert f"{config}: {field} must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"beta": [1.5]}, "not stationary"),
            ({"h": "bogus:1"}, "invalid law descriptor 'bogus:1'"),
            # float() strips whitespace: the run wrote a note and rows split across lines
            ({"h": "twopoint:1\n"}, "invalid law descriptor 'twopoint:1\\n'\n"),
            ({"statistics": ["foo"]}, "'foo' is not a valid StatKind"),
            ({"statistics": ["omega2", "omega2"]}, "statistics must not repeat a name"),
            ({"n": [200, 1]}, "n must be an integer >= 2"),
            ({"n": [3], "beta": [0.2, 0.1, 0.1]}, "series too short"),
            ({"n": [1], "h": "none"}, "series too short"),
            ({"beta": [0.01] * 21}, "p must not exceed 20, got 21\n"),
        ],
        ids=["non-stationary", "bad-law", "spaced-law", "unknown-statistic", "repeated-statistic",
             "mixture-n-1", "n-below-order", "size-n-1", "order-above-limit"],
    )
    def test_bad_cell_fails_before_any_table(self, tmp_path, capsys, monkeypatch,
                                             overrides, message):
        # every cell of the grid is built and checked before the first study
        # simulates a table
        calls = []
        monkeypatch.setattr(arnorm.power_lab, "simulate_limit_tables",
                            lambda *args, **kwargs: calls.append(args))
        config = _power_config(tmp_path, **overrides)
        assert main(["power", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"arnorm: {config}: ")
        assert message in captured.err
        assert captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("h", ["gauss:1e200", "gauss-scale:1e160", "twopoint:1e200"])
    def test_overflowing_variance_is_an_invalid_law(self, tmp_path, capsys, monkeypatch, h):
        # the law's variance overflowed when first read, with a traceback
        calls = []
        monkeypatch.setattr(arnorm.power_lab, "simulate_limit_tables",
                            lambda *args, **kwargs: calls.append(args))
        config = _power_config(tmp_path, h=h, n_reps=100, limit_reps=200, grid=16)
        assert main(["power", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"arnorm: {config}: invalid law descriptor {h!r}: ")
        assert "finite variance" in captured.err
        assert captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("h", ["laplace:1e308", "student:3,1e308"])
    def test_overflowing_shifted_table_names_the_alternative(self, tmp_path, capsys, h):
        # the variance is finite, but the omega-square functional of the
        # shifted paths overflows
        config = _power_config(tmp_path, h=h, n_reps=100, limit_reps=200, grid=16)
        assert main(["power", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"arnorm: {config}: {h}: omega2 limit samples overflow under the shift\n"
        )
        assert captured.out == ""


    def test_header_states_warm_up(self, tmp_path):
        out = tmp_path / "grid.csv"
        config = _power_config(tmp_path, n_reps=100, limit_reps=200, grid=16)
        assert main(["power", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "burn_in" not in json.loads(lines[1].removeprefix("# config: "))
        warm_up = json.loads(lines[3].removeprefix("# warm-up: "))
        assert warm_up == {"burn_in": 100, "root_radius": 0.5}

    def test_burn_in_field_refused(self, tmp_path, capsys, monkeypatch):
        # the warm-up is the model's own; an old burn_in field is unknown
        calls = []
        monkeypatch.setattr(arnorm.power_lab, "simulate_limit_tables",
                            lambda *args, **kwargs: calls.append(args))
        config = _power_config(tmp_path, burn_in=5)
        assert main(["power", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"arnorm: {config}: unknown config field: burn_in\n"
        assert captured.out == "" and calls == []

    def test_over_budget_radius_names_config(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(arnorm.power_lab, "simulate_limit_tables",
                            lambda *args, **kwargs: calls.append(args))
        config = _power_config(tmp_path, beta=[0.9999999])
        assert main(["power", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"arnorm: {config}: the warm-up for characteristic root radius 0.9999999 "
            "exceeds 1000000 steps\n"
        )
        assert captured.out == "" and calls == []

    def test_overflowing_scale_estimate_is_scaled_away(self, tmp_path):
        # unscaled, the residuals of a 1e154-scale series overflow their
        # mean square, with numpy warnings on stderr
        config = _power_config(tmp_path, h="laplace:1e308", statistics=["kolmogorov"],
                               n_reps=100, limit_reps=200, grid=16)
        proc = _run_cli(["power", str(config)], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        row = proc.stdout.splitlines()[-1].split(",")
        assert row[1:3] == ["laplace:1e308", "kolmogorov"]

    @pytest.mark.parametrize("h", ["none", "gauss-scale:2.0"])
    def test_degenerate_study_names_config_and_alternative(self, tmp_path, capsys,
                                                           monkeypatch, h):
        # size and power cells run through the same study function
        def degenerate(*args, **kwargs):
            raise DegenerateDataError("residual scale estimate is zero")

        monkeypatch.setattr(arnorm.cli, "run_power_study", degenerate)
        config = _power_config(tmp_path, h=[h])
        assert main(["power", str(config)]) == 3
        assert capsys.readouterr().err == (
            f"arnorm: {config}: {h}: residual scale estimate is zero\n"
        )


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["simulate", "quantiles", "test", "power"])
    def test_bad_out_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # --out is opened first: a typo in its directory costs no simulation
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated before --out was opened")

        for module, name in [(arnorm.cli, "simulate_limit_tables"), (arnorm.cli, "simulate_ar"),
                             (arnorm.power_lab, "simulate_limit_tables")]:
            monkeypatch.setattr(module, name, must_not_run)
        series = tmp_path / "series.txt"
        _write_series(series, substream(137).normal(size=60))
        argv = {
            "simulate": ["simulate", "--n", "30"],
            "quantiles": ["quantiles", "--kind", "omega2", "--grid", "16", "--reps", "100"],
            "test": ["test", str(series), "--grid", "16", "--reps", "100"],
            "power": ["power", str(_power_config(tmp_path, n_reps=100, limit_reps=100, grid=16))],
        }[command]
        out = tmp_path / "missing" / "out.txt"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "No such file or directory" in captured.err and str(out) in captured.err

    @pytest.mark.parametrize("command", ["test", "quantiles"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--grid", "1", "grid_size must be at least 2, got 1 (--grid)"),
         ("--reps", "0", "n_reps must be at least 1, got 0 (--reps)"),
         ("--workers", "0", "workers must be at least 1, got 0 (--workers)"),
         ("--seed", "-1", "seed must be a non-negative integer, got -1 (--seed)")],
        ids=["grid-1", "reps-0", "workers-0", "seed-negative"],
    )
    def test_bad_table_flag_exits_2_before_the_series_is_read(self, tmp_path, capsys, command,
                                                              flag, value, message):
        # a constant series would exit 3 once read: the table flags are
        # checked first by both commands that build tables
        series = tmp_path / "flat.txt"
        _write_series(series, np.full(50, 3.0))
        argv = {
            "test": ["test", str(series), "--p", "1"],
            "quantiles": ["quantiles", "--kind", "omega2"],
        }[command]
        assert main(argv + [flag, value]) == 2
        assert capsys.readouterr().err == f"arnorm: {message}\n"

    def test_bad_workers_named_before_the_power_config_is_read(self, tmp_path, capsys):
        # the config path names no file: --workers is checked before it is opened
        missing = tmp_path / "missing.json"
        assert main(["power", str(missing), "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "arnorm: workers must be at least 1, got 0 (--workers)\n"

    def test_p_above_limit_named_before_the_series_is_read(self, tmp_path, capsys):
        # the series path names no file: --p is checked before it is opened
        missing = tmp_path / "missing.txt"
        assert main(["test", str(missing), "--p", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "arnorm: p must not exceed 20, got 21 (--p)\n"

    @pytest.mark.parametrize("case", ["test-series", "test-table", "power-config"])
    def test_out_naming_an_input_is_refused(self, tmp_path, capsys, monkeypatch, case):
        # opening --out would empty the input before it is read
        table = tmp_path / "o.txt"
        assert main(["quantiles", "--kind", "omega2", "--grid", "16", "--reps", "100",
                     "--out", str(table)]) == 0
        series = tmp_path / "s.txt"
        _write_series(series, substream(138).normal(size=60))
        config = _power_config(tmp_path, n_reps=100, limit_reps=100, grid=16)
        argv, target = {
            "test-series": (["test", str(series), "--grid", "16", "--reps", "100"], series),
            "test-table": (["test", str(series), "--table", str(table)], table),
            "power-config": (["power", str(config)], config),
        }[case]
        before = target.read_bytes()
        for module in (arnorm.cli, arnorm.power_lab):
            monkeypatch.setattr(module, "simulate_limit_tables", None)
        capsys.readouterr()
        # the same file under another spelling of its path
        alias = os.path.join(tmp_path, ".", target.name)
        assert main(argv + ["--out", alias]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"arnorm: --out {alias} names the input file {target}" in captured.err
        assert target.read_bytes() == before

    @pytest.mark.parametrize("command", ["simulate", "quantiles", "test", "power"])
    def test_negative_seed_named_in_error(self, tmp_path, capsys, command):
        series = tmp_path / "series.txt"
        _write_series(series, substream(136).normal(size=60))
        argv = {
            "simulate": ["simulate", "--n", "30", "--seed", "-1"],
            "quantiles": ["quantiles", "--kind", "omega2", "--grid", "16", "--reps", "100",
                          "--seed", "-1"],
            "test": ["test", str(series), "--grid", "16", "--reps", "100", "--seed", "-1"],
            "power": ["power", str(_power_config(tmp_path, n_reps=100, limit_reps=100,
                                                 grid=16, seed=-1))],
        }[command]
        # a config field is reported under the config file's path
        where = f"{argv[1]}: " if command == "power" else ""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"arnorm: {where}seed must be a non-negative integer, got -1" in captured.err
        if command != "power":
            assert "got -1 (--seed)" in captured.err
        assert "verdict=" not in captured.out

    def test_module_invocation(self):
        proc = _run_cli(["--help"], cwd=None)
        assert proc.returncode == 0
        assert "quantiles" in proc.stdout

    def test_test_command_leaves_scipy_stats_and_signal_unloaded(self, tmp_path,
                                                                  small_tables):
        # scipy.stats, scipy.signal and scipy.linalg cost most of the start-up
        # of a fresh process; the fit reaches LAPACK through numpy, the
        # statistics load scipy.special alone, and only simulation needs
        # scipy.signal, which it loads itself
        series = tmp_path / "series.txt"
        _write_series(series, substream(135).normal(size=300))
        argv = ["test", str(series), "--p", "1",
                "--table", small_tables["kolmogorov"], "--table", small_tables["omega2"]]
        script = (
            "import contextlib, io, sys\n"
            "import arnorm, arnorm.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert arnorm.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.signal', 'scipy.stats')\n"
            "             if m in sys.modules))\n"
            "model = arnorm.ArModel((0.5,), 0.0, arnorm.Gaussian(1.0))\n"
            "sample = arnorm.simulate_ar(model, 50, seed=1)\n"
            "print(sample.values.size, 'scipy.signal' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "51 True"]

    def test_import_and_quantiles_load_no_scipy(self, tmp_path):
        # scipy.special is most of a fresh process's start-up; the limit
        # law takes its normal quantiles from the standard library, so a
        # null table is built and written without any scipy module
        script = (
            "import contextlib, io, sys\n"
            "import arnorm, arnorm.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "for kind in ('kolmogorov', 'omega2'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert arnorm.cli.main(['quantiles', '--kind', kind, '--grid', '64',\n"
            "                                '--reps', '300', '--out', kind]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]

    @pytest.mark.parametrize("kind", ["kolmogorov", "omega2"])
    def test_table_bytes_free_of_loaded_scipy(self, tmp_path, kind):
        # the quantiles never come from scipy, so a process that has
        # imported scipy.special writes the same table as one that has not
        env = dict(os.environ, PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
        tables = []
        for preload in ("", "import scipy.special\n"):
            out = tmp_path / f"{kind}-{len(preload)}.table"
            argv = ["quantiles", "--kind", kind, "--grid", "64", "--reps", "300",
                    "--seed", "5", "--out", str(out)]
            script = (
                f"{preload}import contextlib, io, sys\n"
                "import arnorm.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert arnorm.cli.main({argv!r}) == 0\n"
                "print('scipy.special' in sys.modules)\n"
            )
            proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == [str(bool(preload))]
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("kind", ["kolmogorov", "omega2"])
    def test_table_bytes_free_of_blas_threads(self, tmp_path, kind):
        # path sampling calls no BLAS, so the BLAS thread count of a fresh
        # process cannot move a bit of the table
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{kind}-{threads}.table"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "arnorm", "quantiles", "--kind", kind,
                 "--grid", "256", "--reps", "2000", "--seed", "20240801",
                 "--out", str(out)],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_test_report_free_of_blas_threads(self, tmp_path):
        # every sum of the fit is a pairwise row sum and no BLAS product,
        # so the BLAS thread count of a fresh process cannot move a bit of
        # the report, also for a long series of high order
        env = dict(os.environ, PYTHONPATH=str(Path(arnorm.__file__).parents[1]))
        assert main(["simulate", "--n", "20000", "--beta", "0.3,0.1,-0.1,0.05,0.02",
                     "--seed", "6", "--out", str(tmp_path / "s.txt")]) == 0
        reports = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "arnorm", "test", "s.txt", "--p", "5",
                 "--grid", "32", "--reps", "500", "--seed", "5"],
                cwd=tmp_path, env=dict(env, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(proc.stdout)
        assert "n=20000 p=5" in reports[0]
        assert reports[0] == reports[1]

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def _message(check) -> str:
    """The message of the ``ValueError`` that ``check()`` raises."""
    with pytest.raises(ValueError) as info:
        check()
    return str(info.value)


@pytest.mark.parametrize(
    "owner, argv, config, config_owner",
    [
        (lambda: limit_law._check_grid_size(1),
         ["quantiles", "--kind", "omega2", "--grid", "1"], {"grid": 1}, None),
        (lambda: rng._check_count("n_reps", 0),
         ["quantiles", "--kind", "omega2", "--reps", "0"], {"limit_reps": 0},
         lambda: rng._check_count("limit_reps", 0)),
        (lambda: rng._check_count("workers", 0),
         ["power", "missing.json", "--workers", "0"], None, None),
        (lambda: rng._checked_seed(-1), ["simulate", "--n", "30", "--seed", "-1"],
         {"seed": -1}, None),
        (lambda: ar_process._check_order(-1), ["test", "missing.txt", "--p", "-1"], None, None),
        (lambda: estimation._check_max_order(21), ["test", "missing.txt", "--p", "21"],
         {"beta": [0.01] * 21}, None),
        (lambda: limit_law._check_alpha(1.5), ["test", "missing.txt", "--alpha", "1.5"],
         {"alpha": 1.5}, None),
        (lambda: ArModel((0.9999999,), 0.0, Gaussian(1.0)),
         ["simulate", "--n", "30", "--beta", "0.9999999"], {"beta": [0.9999999]}, None),
        (lambda: ar_process._check_length(3, 3),
         ["simulate", "--beta", "0.1,0.1,0.1", "--n", "3"], None, None),
        (lambda: Mixture(1.0, LaplaceLaw(4.0), 1), ["simulate", "--h", "laplace:4", "--n", "1"],
         {"n": [1], "h": "laplace:4"}, None),
        (lambda: ar_process._require_finite("mu", float("nan")),
         ["simulate", "--n", "30", "--mu", "nan"], {"mu": float("nan")}, None),
        (lambda: ar_process._require_scale("sigma0", 1e200),
         ["simulate", "--n", "30", "--sigma0", "1e200"], {"sigma0": 1e200}, None),
    ],
    ids=["grid", "reps", "workers", "seed", "p-negative", "p-above-limit", "alpha", "burn-in",
         "n-below-order", "n-mixture", "mu", "sigma0"],
)
def test_one_message_per_rule(tmp_path, capsys, monkeypatch, owner, argv, config,
                              config_owner):
    # the owner's message, with the flag after it on the command line and
    # the config path before it in a study; no input file exists, and
    # nothing may be simulated
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated with a bad value")

    for module, name in [(arnorm.cli, "simulate_ar"), (arnorm.cli, "simulate_limit_tables"),
                         (arnorm.power_lab, "simulate_limit_tables")]:
        monkeypatch.setattr(module, name, must_not_run)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"arnorm: {_message(owner)} ({argv[-2]})\n")
    if config is not None:
        path = _power_config(tmp_path, **config)
        assert main(["power", str(path)]) == 2
        message = _message(config_owner or owner)
        assert capsys.readouterr().err == f"arnorm: {path}: {message}\n"
