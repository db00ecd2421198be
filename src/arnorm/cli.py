"""Command-line interface.

Subcommands
-----------
``test``       run both normality tests on a series read from a text file
``quantiles``  simulate a null limit table and report critical values
``power``      run a grid of size/power experiments from a JSON config
``simulate``   dump a simulated series for use in pipelines

Every run prints the library version, the resolved configuration, and the
seed; identical invocations produce byte-identical output.  The
``--workers`` flag changes wall time only, never output bytes.  Exit codes:
0 success, 2 invalid input or configuration, 3 degenerate data (the fit or
the test statistic is undefined for the given series).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .ar_process import (
    ArModel,
    Gaussian,
    Mixture,
    SeriesSample,
    parse_alternative_law,
    simulate_ar,
)
from .errors import DegenerateDataError, EstimationError
from .estimation import fit_ar
from .gof_tests import kolmogorov_stat, omega2_stat
from .limit_law import (
    StatKind,
    load_table,
    quantile,
    save_table,
    simulate_limit_tables,
)
from .power_lab import (
    ExperimentSpec,
    PowerRow,
    run_power_study,
    run_size_study,
    write_power_csv,
)

_REPORT_ALPHAS = (0.10, 0.05, 0.01)

_POWER_DEFAULTS = {
    "beta": [],
    "mu": 0.0,
    "sigma0": 1.0,
    "alpha": 0.05,
    "n_reps": 1000,
    "seed": 0,
    "grid": 512,
    "limit_reps": 100_000,
    "burn_in": None,
    "statistics": ["kolmogorov", "omega2"],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arnorm",
        description="Residual-based normality tests for stationary autoregressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a series for normal innovations")
    p_test.add_argument("series", help="text file, one observation per line")
    p_test.add_argument("--p", type=int, default=0, help="autoregression order")
    p_test.add_argument("--alpha", type=float, default=0.05, help="test level")
    p_test.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="PATH",
        help="null limit table file (repeatable, one per statistic)",
    )
    p_test.add_argument("--grid", type=int, default=512, help="limit-table grid size")
    p_test.add_argument(
        "--reps", type=int, default=100_000, help="limit-table replications"
    )
    p_test.add_argument("--seed", type=int, default=0, help="limit-table seed")
    p_test.add_argument("--workers", type=int, default=1, help="parallel workers")
    p_test.add_argument("--out", help="also write the report to this file")
    p_test.set_defaults(func=_cmd_test)

    p_quant = sub.add_parser("quantiles", help="simulate a null limit table")
    p_quant.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in StatKind],
        help="which statistic's limit law to simulate",
    )
    p_quant.add_argument("--grid", type=int, default=512, help="grid size")
    p_quant.add_argument("--reps", type=int, default=100_000, help="replications")
    p_quant.add_argument("--seed", type=int, default=0, help="root seed")
    p_quant.add_argument("--workers", type=int, default=1, help="parallel workers")
    p_quant.add_argument("--out", help="write the full table to this file")
    p_quant.set_defaults(func=_cmd_quantiles)

    p_power = sub.add_parser("power", help="run size/power experiments from JSON")
    p_power.add_argument("config", help="JSON experiment configuration")
    p_power.add_argument("--workers", type=int, default=1, help="parallel workers")
    p_power.add_argument("--out", help="write the CSV here instead of stdout")
    p_power.set_defaults(func=_cmd_power)

    p_sim = sub.add_parser("simulate", help="dump a simulated series")
    p_sim.add_argument("--n", type=int, required=True, help="working sample size")
    p_sim.add_argument(
        "--beta", default="", help="comma-separated autoregression coefficients"
    )
    p_sim.add_argument("--mu", type=float, default=0.0, help="series mean")
    p_sim.add_argument(
        "--sigma0", type=float, default=1.0, help="innovation standard deviation"
    )
    p_sim.add_argument(
        "--h",
        default=None,
        metavar="LAW",
        help="contaminate innovations with this law at weight n**-0.5 "
        "(e.g. gauss-scale:3.0, laplace:4.0, student:5,4.0, twopoint:1.0)",
    )
    p_sim.add_argument("--burn-in", type=int, default=None, help="warm-up length")
    p_sim.add_argument("--seed", type=int, default=0, help="root seed")
    p_sim.add_argument("--out", help="write the series here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EstimationError, DegenerateDataError) as exc:
        print(f"arnorm: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"arnorm: {exc}", file=sys.stderr)
        return 2


def _header_lines(command: str, config: dict, seed: int) -> list[str]:
    """Deterministic provenance header; excludes fields (out, workers) that
    must not affect output bytes."""
    return [
        f"arnorm {__version__} {command}",
        "config: " + json.dumps(config, sort_keys=True),
        f"seed: {seed}",
    ]


def _emit(lines, out_path) -> None:
    text = "".join(f"# {line}\n" for line in lines[0]) + "".join(
        f"{line}\n" for line in lines[1]
    )
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _read_series(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno} is not a number: {line!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno} is not finite: {line!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no observations found")
    return np.asarray(values, dtype=float)


def _resolve_tables(args) -> dict[StatKind, "object"]:
    """Load tables given on the command line, then build the missing kinds."""
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    tables = {}
    for path in args.table:
        table = load_table(path)
        if table.shift is not None:
            raise ValueError(f"{path}: table was simulated under a shift, not the null")
        if table.kind in tables:
            raise ValueError(f"{path}: duplicate table for {table.kind.value}")
        tables[table.kind] = table
    missing = [kind for kind in StatKind if kind not in tables]
    if missing:
        tables.update(
            simulate_limit_tables(missing, None, args.grid, args.reps, args.seed, args.workers)
        )
    return tables


def _cmd_test(args) -> int:
    if args.p < 0:
        raise ValueError("--p must be nonnegative")
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie strictly between 0 and 1")
    values = _read_series(args.series)
    sample = SeriesSample.from_values(values, args.p)
    tables = _resolve_tables(args)
    fit = fit_ar(sample)
    results = [
        kolmogorov_stat(fit, tables[StatKind.KOLMOGOROV], args.alpha),
        omega2_stat(fit, tables[StatKind.OMEGA2], args.alpha),
    ]
    config = {
        "command": "test",
        "series": args.series,
        "p": args.p,
        "alpha": args.alpha,
        "grid": args.grid,
        "reps": args.reps,
        "tables": sorted(args.table),
    }
    body = [
        f"n={sample.n} p={sample.p} mean_hat={fit.mean_hat!r} s_hat={fit.s_hat!r}"
    ]
    for res in results:
        verdict = "rejected" if res.rejected else "not-rejected"
        body.append(
            f"statistic={res.kind.value} value={res.value!r} "
            f"p_value={res.p_value!r} alpha={res.alpha!r} "
            f"critical_value={res.critical_value!r} verdict={verdict}"
        )
    _emit((_header_lines("test", config, args.seed), body), args.out)
    return 0


def _cmd_quantiles(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    kind = StatKind(args.kind)
    table = simulate_limit_tables(
        (kind,), None, args.grid, args.reps, args.seed, args.workers
    )[kind]
    config = {
        "command": "quantiles",
        "kind": kind.value,
        "grid": args.grid,
        "reps": args.reps,
    }
    header = _header_lines("quantiles", config, args.seed)
    body = [
        f"alpha={alpha!r} critical_value={quantile(table, alpha)!r}"
        for alpha in _REPORT_ALPHAS
    ]
    sys.stdout.write(
        "".join(f"# {line}\n" for line in header) + "".join(f"{line}\n" for line in body)
    )
    if args.out:
        save_table(table, args.out, comments=header + body)
    return 0


def _load_power_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for name in ("n", "h"):
        if name not in raw:
            raise ValueError(f"{path}: missing required field: {name}")
    unknown = set(raw) - set(_POWER_DEFAULTS) - {"n", "h"}
    if unknown:
        raise ValueError(f"{path}: unknown config field: {sorted(unknown)[0]}")
    config = dict(_POWER_DEFAULTS)
    config.update(raw)

    def listed(name, types, what, scalar_ok=True):
        value = config[name]
        if scalar_ok and not isinstance(value, list):
            value = [value]
        if not isinstance(value, list) or not all(
            isinstance(v, types) and not isinstance(v, bool) for v in value
        ):
            raise ValueError(f"{path}: {name} must be {what}")
        return value

    config["n"] = listed("n", int, "an integer or a list of integers")
    config["h"] = listed("h", str, "a string or a list of strings")
    config["statistics"] = listed("statistics", str, "a string or a list of strings")
    if not config["statistics"]:
        raise ValueError(f"{path}: statistics must name at least one statistic")
    beta = listed("beta", (int, float), "a list of numbers", scalar_ok=False)
    config["beta"] = [float(v) for v in beta]
    if config["burn_in"] is not None:
        config["burn_in"] = int(config["burn_in"])
    return config


def _cmd_power(args) -> int:
    config = _load_power_config(args.config)
    kinds = tuple(StatKind(name) for name in config["statistics"])
    sigma0 = float(config["sigma0"])
    notes = [
        f"note: {h_text} has no Lipschitz density; the asymptotic-power "
        "comparison is outside the local-power guarantee"
        for h_text in config["h"]
        if h_text != "none" and not parse_alternative_law(h_text, sigma0).lipschitz_density
    ]
    rows = []
    for n in config["n"]:
        for h_text in config["h"]:
            if h_text == "none":
                innovation = Gaussian(sigma0)
            else:
                innovation = Mixture(
                    sigma0=sigma0, h=parse_alternative_law(h_text, sigma0), n=n
                )
            model = ArModel(
                coeffs=np.asarray(config["beta"], dtype=float),
                mean=float(config["mu"]),
                innovation=innovation,
            )
            spec = ExperimentSpec(
                model=model,
                n=n,
                n_reps=int(config["n_reps"]),
                alpha=float(config["alpha"]),
                seed=int(config["seed"]),
                grid_size=int(config["grid"]),
                limit_reps=int(config["limit_reps"]),
                burn_in=config["burn_in"],
            )
            if h_text == "none":
                reports = run_size_study(spec, kinds, workers=args.workers)
            else:
                reports = run_power_study(spec, kinds, workers=args.workers)
            for kind in kinds:
                rows.append(
                    PowerRow.from_report(
                        n, h_text, spec.alpha, spec.seed, reports[kind]
                    )
                )
    header = _header_lines("power", {"command": "power", **config}, int(config["seed"]))
    header.extend(notes)
    if args.out:
        with open(args.out, "w") as fh:
            write_power_csv(rows, fh, header_comments=header)
    else:
        write_power_csv(rows, sys.stdout, header_comments=header)
    return 0


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be positive")
    beta = (
        np.asarray([float(tok) for tok in args.beta.split(",") if tok.strip()], dtype=float)
        if args.beta
        else np.empty(0)
    )
    if not args.sigma0 > 0:
        raise ValueError("--sigma0 must be positive")
    if args.h is None:
        innovation = Gaussian(args.sigma0)
    else:
        innovation = Mixture(
            sigma0=args.sigma0, h=parse_alternative_law(args.h, args.sigma0), n=args.n
        )
    model = ArModel(coeffs=beta, mean=args.mu, innovation=innovation)
    sample = simulate_ar(model, args.n, burn_in=args.burn_in, seed=args.seed)
    config = {
        "command": "simulate",
        "n": args.n,
        "beta": [float(b) for b in beta],
        "mu": args.mu,
        "sigma0": args.sigma0,
        "h": args.h,
        "burn_in": args.burn_in,
        "p": sample.p,
    }
    header = _header_lines("simulate", config, args.seed)
    body = [repr(float(v)) for v in sample.values]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("".join(f"# {line}\n" for line in header))
            fh.write("".join(f"{line}\n" for line in body))
    else:
        sys.stdout.write("".join(f"# {line}\n" for line in header))
        sys.stdout.write("".join(f"{line}\n" for line in body))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
