import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arnorm
from arnorm import load_table, quantile
from arnorm.cli import main
from arnorm.rng import substream


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

    def test_degenerate_residuals_exit_3(self, tmp_path, capsys):
        # alternating series: centers to itself exactly and the lag-1 fit is
        # noiseless, so every residual vanishes
        series = tmp_path / "exact.txt"
        _write_series(series, np.append(np.tile([1.0, -1.0], 20), 1.0))
        assert main(["test", str(series), "--p", "1", "--reps", "100"]) == 3

    def test_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        _write_series(series, substream(127).normal(size=100))
        assert main(["test", str(series), "--alpha", "1.5", "--reps", "100"]) == 2

    def test_too_short_series_exits_2(self, tmp_path, capsys):
        series = tmp_path / "short.txt"
        _write_series(series, [1.0, 2.0, 3.0])
        assert main(["test", str(series), "--p", "5", "--reps", "100"]) == 2

    def test_nan_in_table_file_exits_2(self, tmp_path, capsys, small_tables):
        table = tmp_path / "kolmogorov.table"
        lines = Path(small_tables["kolmogorov"]).read_text().splitlines()
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
        assert str(table) in err and "finite" in err

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

    def test_duplicate_table_kind_rejected(self, tmp_path, capsys, small_tables):
        series = tmp_path / "series.txt"
        _write_series(series, substream(128).normal(size=100))
        code = main([
            "test", str(series), "--table", small_tables["kolmogorov"],
            "--table", small_tables["kolmogorov"],
        ])
        assert code == 2


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
        # 6000 replications span two scheduling blocks, so two workers
        # genuinely split the work; the file must not change
        base = ["quantiles", "--kind", "kolmogorov", "--grid", "64",
                "--reps", "6000", "--seed", "6"]
        a, b = tmp_path / "w1.table", tmp_path / "w2.table"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_reps_exits_2(self, capsys):
        assert main(["quantiles", "--kind", "kolmogorov", "--reps", "0"]) == 2


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
        ],
        ids=["beta-string", "beta-string-item", "n-float", "n-bool-item", "h-null",
             "statistics-number"],
    )
    def test_mistyped_field_exits_2(self, tmp_path, capsys, field, value):
        config = _power_config(tmp_path, **{field: value})
        assert main(["power", str(config)]) == 2
        assert f"{config}: {field} must be" in capsys.readouterr().err

    def test_empty_statistics_exits_2(self, tmp_path, capsys):
        config = _power_config(tmp_path, statistics=[])
        assert main(["power", str(config)]) == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "arnorm", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "quantiles" in proc.stdout

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
