"""Command-line interface.

Subcommands
-----------
``test``       run both normality tests on a series read from a text file
``quantiles``  simulate a null limit table and report critical values
``power``      run a grid of size/power experiments from a JSON config
``simulate``   dump a simulated series for use in pipelines

Every run prints the library version, the resolved configuration, and the
seed (``test`` prints each table's kind, grid, reps, seed and source
instead); identical invocations produce byte-identical output.  The
``--workers`` flag changes wall time only, never output bytes.  ``--out`` is
opened before any work, so a bad path fails at once, and it may not name an
input file.  Exit codes:
0 success, 2 invalid input or configuration, or a size that memory cannot
hold, 3 degenerate data (the fit refuses the series: its normal equations
are singular, or its residuals are zero or rounding noise).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import __version__, ar_process, estimation, limit_law, rng
from .ar_process import (
    ArModel,
    Gaussian,
    Mixture,
    SeriesSample,
    parse_alternative_law,
    simulate_ar,
)
from .estimation import DegenerateDataError, fit_ar
from .gof_tests import _gof_result, probability_transforms
from .limit_law import (
    DEFAULT_GRID,
    DEFAULT_REPS,
    StatKind,
    _read_numbers,
    _stat_kinds,
    _write_table,
    load_table,
    quantile,
    simulate_limit_tables,
)
from .power_lab import ExperimentSpec, run_power_study, write_power_csv

_REPORT_ALPHAS = (0.10, 0.05, 0.01)

_POWER_DEFAULTS = {
    "beta": [],
    "mu": 0.0,
    "sigma0": 1.0,
    "alpha": 0.05,
    "n_reps": 1000,
    "seed": 0,
    "grid": DEFAULT_GRID,
    "limit_reps": DEFAULT_REPS,
    "statistics": [kind.value for kind in StatKind],
}

# The library check that owns each numeric flag's rule, by the flag's
# argparse dest: a flag is checked by the call, and gets the message, that
# the library's own use of the value makes.
_FLAG_CHECKS = (
    ("p", ar_process._check_order), ("p", estimation._check_max_order),
    ("alpha", limit_law._check_alpha), ("grid", limit_law._check_grid_size),
    ("reps", functools.partial(rng._check_count, "n_reps")),
    ("workers", functools.partial(rng._check_count, "workers")),
    ("seed", rng._checked_seed),
    ("mu", functools.partial(ar_process._require_finite, "mu")),
    ("sigma0", functools.partial(ar_process._require_scale, "sigma0")),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then shared by
    every :func:`main` call of the process: parsing keeps no state in it."""
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
    _add_table_flags(p_test)
    p_test.add_argument("--out", help="also write the report to this file")
    p_test.set_defaults(func=_cmd_test)

    p_quant = sub.add_parser("quantiles", help="simulate a null limit table")
    p_quant.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in StatKind],
        help="which statistic's limit law to simulate",
    )
    _add_table_flags(p_quant)
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
    p_sim.add_argument("--seed", type=int, default=0, help="root seed")
    p_sim.add_argument("--out", help="write the series here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _add_table_flags(parser) -> None:
    """The flags of a null limit table built on the fly."""
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID, help="limit-table grid size")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS, help="limit-table replications")
    parser.add_argument("--seed", type=int, default=0, help="limit-table seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers")


@contextlib.contextmanager
def _named(before="", after=""):
    """Wrap the message of a ``ValueError`` or ``DegenerateDataError`` raised
    inside in ``before`` and ``after``, keeping which of the two it is."""
    try:
        yield
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{before}{exc}{after}") from None
    except ValueError as exc:
        raise ValueError(f"{before}{exc}{after}") from None


def _check_flags(args) -> None:
    """Check each flag of :data:`_FLAG_CHECKS` that is set, naming the flag."""
    for dest, check in _FLAG_CHECKS:
        value = getattr(args, dest, None)
        if value is not None:
            with _named(after=" (--" + dest.replace("_", "-") + ")"):
                check(value)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a bad flag exits before any input is opened or anything simulated
        _check_flags(args)
        _check_out_is_not_input(args)
        with _opened_out(args.out) as out:
            return args.func(args, out)
    except DegenerateDataError as exc:
        print(f"arnorm: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"arnorm: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it could not make; Python's own names none
        print(f"arnorm: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 2


def _header_lines(config: dict, seed: int | None) -> list[str]:
    """Deterministic provenance header of ``config["command"]``; excludes
    fields (out, workers) that must not affect output bytes.  ``seed=None``
    omits the seed line, for commands whose seeds belong to their tables."""
    lines = [
        f"arnorm {__version__} {config['command']}",
        "config: " + json.dumps(config, sort_keys=True),
    ]
    if seed is not None:
        lines.append(f"seed: {seed}")
    return lines


def _warm_up_line(model) -> str:
    """The header line of the warm-up the model's simulations run."""
    used = {"burn_in": model.burn_in, "root_radius": model.root_radius}
    return "warm-up: " + json.dumps(used, sort_keys=True)


def _check_out_is_not_input(args) -> None:
    """Refuse an ``--out`` naming an input file, which opening it would empty."""
    if args.out is None or not os.path.exists(args.out):
        return
    inputs = [getattr(args, "series", None), getattr(args, "config", None)]
    for path in filter(None, inputs + getattr(args, "table", [])):
        if os.path.samefile(path, args.out):
            raise ValueError(f"--out {args.out} names the input file {path}")


def _opened_out(path):
    """The ``--out`` file, opened before the subcommand does any work so that
    a bad path fails at once; None without ``--out``."""
    return contextlib.nullcontext() if path is None else open(path, "w")


def _text(header, body) -> str:
    return "".join(f"# {line}\n" for line in header) + "".join(f"{line}\n" for line in body)


def _resolve_tables(args) -> tuple[dict, dict]:
    """Load tables given on the command line, then build the missing kinds.

    Returns the tables by kind and, by kind, where each came from: its file
    path, or ``"simulated"`` for a kind built on the fly.
    """
    tables, sources = {}, {}
    for path in args.table:
        table = load_table(path)
        if table.kind in tables:
            raise ValueError(f"{path}: duplicate table for {table.kind.value}")
        tables[table.kind] = table
        sources[table.kind] = path
    missing = [kind for kind in StatKind if kind not in tables]
    if missing:
        tables.update(
            simulate_limit_tables(missing, None, args.grid, args.reps, args.seed, args.workers)
        )
        sources.update(dict.fromkeys(missing, "simulated"))
    return tables, sources


def _cmd_test(args, out) -> int:
    values = _read_numbers(args.series)
    with _named(f"{args.series}: ", " (--p)"):
        sample = SeriesSample.from_values(values, args.p)
    # a degenerate series exits before any table is loaded or simulated
    fit = fit_ar(sample)
    transforms = probability_transforms(fit)
    tables, sources = _resolve_tables(args)
    config = {
        "command": "test",
        "series": args.series,
        "p": args.p,
        "alpha": args.alpha,
    }
    header = _header_lines(config, None)
    body = [f"n={sample.n} p={sample.p} mean_hat={fit.mean_hat!r} s_hat={fit.s_hat!r}"]
    for kind in StatKind:
        provenance = {**limit_law._table_identity(tables[kind]), "source": sources[kind]}
        header.append("table: " + json.dumps(provenance, sort_keys=True))
        res = _gof_result(transforms, tables[kind], args.alpha)
        verdict = "rejected" if res.rejected else "not-rejected"
        body.append(
            f"statistic={res.kind.value} value={res.value!r} "
            f"p_value={res.p_value!r} alpha={res.alpha!r} "
            f"critical_value={res.critical_value!r} verdict={verdict}"
        )
    text = _text(header, body)
    sys.stdout.write(text)
    if out:
        out.write(text)
    return 0


def _cmd_quantiles(args, out) -> int:
    (table,) = simulate_limit_tables(
        (args.kind,), None, args.grid, args.reps, args.seed, args.workers
    ).values()
    config = {
        "command": "quantiles",
        "kind": args.kind,
        "grid": args.grid,
        "reps": args.reps,
    }
    header = _header_lines(config, args.seed)
    body = [
        f"alpha={alpha!r} critical_value={quantile(table, alpha)!r}"
        for alpha in _REPORT_ALPHAS
    ]
    sys.stdout.write(_text(header, body))
    if out:
        # samples follow the table's text header as raw bytes
        _write_table(table, out.buffer, comments=header + body)
    return 0


def _load_power_config(path) -> dict:
    """The config at ``path`` with its defaults; the caller names the file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    for name in ("n", "h"):
        if name not in raw:
            raise ValueError(f"missing required field: {name}")
    unknown = set(raw) - set(_POWER_DEFAULTS) - {"n", "h"}
    if unknown:
        raise ValueError(f"unknown config field: {sorted(unknown)[0]}")
    config = dict(_POWER_DEFAULTS)
    config.update(raw)

    def typed(value, types):
        return isinstance(value, types) and not isinstance(value, bool)

    def listed(name, types, what, scalar_ok=True):
        value = config[name]
        if scalar_ok and not isinstance(value, list):
            value = [value]
        if not isinstance(value, list) or not all(typed(v, types) for v in value):
            raise ValueError(f"{name} must be {what}")
        return value

    config["n"] = listed("n", int, "an integer or a list of integers")
    config["h"] = listed("h", str, "a string or a list of strings")
    config["statistics"] = listed("statistics", str, "a string or a list of strings")
    for name in ("n", "h"):
        if not config[name]:
            raise ValueError(f"{name} must not be empty")
    beta = listed("beta", (int, float), "a list of numbers", scalar_ok=False)
    config["beta"] = [float(v) for v in beta]
    for name in ("mu", "sigma0", "alpha"):
        if not typed(config[name], (int, float)):
            raise ValueError(f"{name} must be a number")
    for name in ("n_reps", "seed", "grid", "limit_reps"):
        if not typed(config[name], int):
            raise ValueError(f"{name} must be an integer")
    # the ranges are checked by their owners, through _power_grid
    return config


def _power_grid(config) -> tuple[tuple, list, list]:
    """The statistic kinds, the ``(alternative, spec)`` cells in run order,
    and the ``# note:`` lines, built from a loaded config."""
    kinds = _stat_kinds(config["statistics"])
    ar_process._require_finite("mu", config["mu"])
    ar_process._require_scale("sigma0", config["sigma0"])
    sigma0 = float(config["sigma0"])
    laws = [None if h == "none" else parse_alternative_law(h, sigma0) for h in config["h"]]
    notes = [
        f"note: {h_text} has no Lipschitz density; the asymptotic-power "
        "comparison is outside the local-power guarantee"
        for h_text, law in zip(config["h"], laws)
        if law is not None and not law.lipschitz_density
    ]
    cells = []
    for n in config["n"]:
        for h_text, law in zip(config["h"], laws):
            innovation = Gaussian(sigma0) if law is None else Mixture(sigma0=sigma0, h=law, n=n)
            model = ArModel(
                coeffs=config["beta"],
                mean=float(config["mu"]),
                innovation=innovation,
            )
            spec = ExperimentSpec(
                model=model,
                n=n,
                n_reps=config["n_reps"],
                alpha=config["alpha"],
                seed=config["seed"],
                grid_size=config["grid"],
                limit_reps=config["limit_reps"],
            )
            cells.append((h_text, spec))
    return kinds, cells, notes


def _cmd_power(args, out) -> int:
    # every cell is checked before the first study simulates anything
    with _named(f"{args.config}: "):
        config = _load_power_config(args.config)
        kinds, cells, notes = _power_grid(config)
    results = []
    for h_text, spec in cells:
        with _named(f"{args.config}: {h_text}: "):
            results.append((h_text, spec, run_power_study(spec, kinds, workers=args.workers)))
    header = _header_lines({"command": "power", **config}, config["seed"])
    # every cell shares the coefficients, and so the warm-up
    header.append(_warm_up_line(cells[0][1].model))
    header.extend(notes)
    file = out or sys.stdout
    file.write(_text(header, []))
    write_power_csv(results, file)
    return 0


def _cmd_simulate(args, out) -> int:
    try:
        beta = np.array([float(tok) for tok in args.beta.split(",")] if args.beta else [])
    except ValueError:
        raise ValueError(
            f"--beta must be comma-separated numbers, got {args.beta!r}"
        ) from None
    law = None if args.h is None else parse_alternative_law(args.h, args.sigma0)
    with _named(after=" (--n)"):
        ar_process._check_length(args.n, beta.size)
        innovation = Gaussian(args.sigma0) if law is None else Mixture(args.sigma0, law, args.n)
    with _named(after=" (--beta)"):
        model = ArModel(coeffs=beta, mean=args.mu, innovation=innovation)
    sample = simulate_ar(model, args.n, seed=args.seed)
    config = {
        "command": "simulate",
        "n": args.n,
        "beta": [float(b) for b in beta],
        "mu": args.mu,
        "sigma0": args.sigma0,
        "h": args.h,
        "p": sample.p,
    }
    header = _header_lines(config, args.seed) + [_warm_up_line(model)]
    body = [repr(float(v)) for v in sample.values]
    (out or sys.stdout).write(_text(header, body))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
