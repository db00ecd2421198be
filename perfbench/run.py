"""arnorm benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload table-null --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped but
the workload's step marks (:class:`tracing.StepMarks`).
``--trace 1`` alternates untraced and traced operations: the traced ones
give the per-layer metrics, and the fastest of each kind give the tracing
overhead.  Either way every operation passes the workload's correctness
gates, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Operation time (``op_min_ms``) is the sum over an operation's steps of
each step's fastest time in the run; most workloads have one step, so it
is the fastest operation.  On a shared machine the host slows by up to 2x,
for fractions of a second and for stretches of tens of seconds, which moves
a run's median by 20-40% between runs; interference only ever adds time,
so fastest times are the figures that repeat.  Set-up is probed before the
timed loop.  The median and p90 are kept in the result file.

The run also updates ``.perfbench_out/results/<workload>-seed<seed>.json``,
which holds both kinds of metric, the output digest and the machine, and
``.perfbench_out/digests.json``, where a changed digest for the same code,
workload and seed counts as a failure.  ``--smoke`` runs tiny sizes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap

OUT = Path(".perfbench_out")

END_TO_END = {"setup_s": "s", "op_min_ms": "ms", "peak_rss_mb": "MB"}

# span-name.statistic; statistics are per traced operation (see Tracer.summary)
PER_LAYER = (
    "rng.substream.calls",
    "rng.substream.busy_s",
    "rng.derive_seed.calls",
    "limit_law.simulate_limit_tables.calls",
    "limit_law.simulate_limit_tables.busy_s",
    "limit_law.simulate_limit_tables.self_s",
    "limit_law.save_table.busy_s",
    "limit_law.load_table.calls",
    "limit_law.load_table.busy_s",
    "ar_process.simulate_ar.gaussian.calls",
    "ar_process.simulate_ar.gaussian.us_per_call",
    "ar_process.simulate_ar.mixture.calls",
    "ar_process.simulate_ar.mixture.us_per_call",
    "estimation.fit_ar.us_per_call",
    "gof_tests.probability_transforms.us_per_call",
    "gof_tests.kolmogorov_from_transforms.us_per_call",
    "gof_tests.omega2_from_transforms.us_per_call",
    "gof_tests.kolmogorov_stat.us_per_call",
    "gof_tests.omega2_stat.us_per_call",
    "power_lab.pipeline_statistics.busy_s",
    "power_lab.pipeline_statistics.self_s",
    "power_lab.run_power_study.busy_s",
    "power_lab.run_power_study.self_s",
    "power_lab.run_size_study.busy_s",
    "power_lab.run_size_study.self_s",
    "cli.main.busy_s",
    "cli.main.self_s",
    "trace.overhead_ratio",
)

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "us_per_call": "us", "overhead_ratio": "ratio"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy) -> int | None:
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": bootstrap.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(numpy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def code_digest() -> str:
    """SHA-256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted(bootstrap.SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(bootstrap.ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _child(task: str, args, timeout: float) -> str:
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), task,
           "--workload", args.workload, "--seed", str(args.seed), "--work", str(args.work)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"child {task} failed ({done.returncode}): {done.stderr.strip()}")
    return done.stdout


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine is right now.

    Not a figure of arnorm.  On a shared host the whole machine speeds up
    and slows down for minutes at a time; set beside the op times, this
    tells that drift apart from a change in the program.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def setup_probe(args) -> float:
    """``setup_s`` of one fresh process."""
    return json.loads(_child("setup", args, 120).splitlines()[-1])["setup_s"]


@dataclass
class Loop:
    durations: list = field(default_factory=list)  # wall seconds per operation
    traced: list = field(default_factory=list)  # whether each operation was traced
    first: dict = field(default_factory=dict)  # input key -> digest of its first output
    failures: list = field(default_factory=list)  # per operation, its failed checks
    calibration: list = field(default_factory=list)  # calibration_ms, about once a second
    steps: list = field(default_factory=list)  # per marked operation, its step durations


def step_minimum(durations: list, steps: list) -> float:
    """Seconds of one operation: the sum over its steps of each step's fastest time.

    Without steps (or if operations split into different numbers of steps)
    it is the fastest whole operation.  The operations repeat the same
    work, so step ``k`` of every operation is the same step.
    """
    if not steps or len({len(s) for s in steps}) != 1:
        return min(durations)
    return sum(min(step) for step in zip(*steps))


def run_loop(workload, seconds: float, tracer=None, marks=None) -> Loop:
    """Closed loop, one client: operations back to back until time and ``min_ops`` are met.

    With a tracer, odd operations are traced.  With ``marks`` (a
    :class:`tracing.StepMarks`, only without a tracer) every operation is
    split into steps at the marked calls.  :func:`calibration_ms` runs
    between operations about once a second.
    """
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < workload.min_ops or time.perf_counter() < deadline:
        if time.perf_counter() - start >= len(loop.calibration):
            loop.calibration.append(calibration_ms())
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.install(i)
        if marks:
            marks.install()
        t0 = time.perf_counter()
        result = workload.op(i)
        t1 = time.perf_counter()
        elapsed = t1 - t0
        if marks:
            marks.uninstall()
            bounds = [t0, *marks.times, t1]
            loop.steps.append([b - a for a, b in zip(bounds, bounds[1:])])
        if on:
            tracer.uninstall()
        loop.durations.append(elapsed)
        loop.traced.append(on)
        data, problems = workload.check(i, result)
        digest = hashlib.sha256(data).hexdigest()
        if loop.first.setdefault(workload.input_key(i), digest) != digest:
            problems.append("output differs from the first op on the same input")
        loop.failures.append([f"op {i}: {p}" for p in problems])
        i += 1
    return loop


def check_digest_history(path: Path, code: str, key: str, digest: str) -> str | None:
    """Record ``digest``; a different one recorded for the same code and key is a failure."""
    history = _read_json(path)
    seen = history.setdefault(code, {}).setdefault(key, digest)
    _write_json(path, history)
    if seen != digest:
        return f"output digest {digest} differs from {seen} recorded for the same code"
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("table-null", "power-grid", "test-cached"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.limit_blas_threads()
    try:
        bootstrap.import_arnorm()
    except bootstrap.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads
    from tracing import StepMarks, Tracer

    # the package prints the paths it is given, so keep them relative to the root
    os.chdir(bootstrap.ROOT)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    size_tag = "smoke" if args.smoke else "full"
    args.work = OUT / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.work, args.seed, sizes)

    if workload.has_fixtures:
        _child("fixtures", args, 170)
    workload.prepare()
    workload.warm()
    run_failures = workload.run_checks()

    if args.trace:
        tracer, marks = Tracer(), None
        setup = []
    else:
        tracer = None
        marks = StepMarks(workload.step_marks) if workload.step_marks else None
        # before the timed loop, so that the whole window holds operations
        setup = [setup_probe(args) for _ in range(sizes.setup_probes)]
    loop = run_loop(workload, args.seconds, tracer, marks)
    durations, traced = loop.durations, loop.traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256("".join(loop.first[k] for k in sorted(loop.first)).encode()).hexdigest()
    code = code_digest()
    machine = machine_info()
    # table bytes depend on the BLAS thread count, so it is part of the key
    mismatch = check_digest_history(
        OUT / "digests.json",
        code,
        f"{args.workload}:{size_tag}:blas-threads={machine['blas_threads']}:{args.seed}",
        digest,
    )
    failures = [run_failures] + loop.failures + [[mismatch] if mismatch else []]
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for problem in [p for f in failures for p in f][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    untraced = [d for d, t in zip(durations, traced) if not t]
    ms = np.asarray(untraced) * 1e3
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}.json"
    record = _read_json(result_path)
    if record.get("code_sha256") != code or record.get("sizes") != size_tag:
        record = {}
    record.update(
        workload=args.workload,
        seed=args.seed,
        sizes=size_tag,
        code_sha256=code,
        output_sha256=digest,
        machine=machine,
    )
    run = {
        "seconds": args.seconds,
        "ops": len(durations),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "op_ms": [d * 1e3 for d in durations],
        "op_p50_ms": float(np.median(ms)),
        "calibration_ms": {"min": min(loop.calibration), "median": statistics.median(loop.calibration)},
    }
    if ms.size >= 100:
        run["op_p90_ms"] = float(np.percentile(ms, 90))
    if args.trace == 0:
        op_s = step_minimum(untraced, loop.steps)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_min_ms": {"value": op_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        run.update(
            setup_probes_s=setup,
            op_fastest_ms=float(ms.min()),
            steps_per_op=len(loop.steps[0]) if loop.steps else 1,
            detail=workload.detail(untraced, op_s),
        )
        record["end_to_end"] = metrics
        record["untraced_run"] = run
    else:
        on = [d for d, t in zip(durations, traced) if t]
        spans = tracer.summary(len(on))
        tracer.save(OUT / "results" / f"{args.workload}-seed{args.seed}-spans.npz")
        metrics = {}
        for name in PER_LAYER:
            span, stat = name.rsplit(".", 1)
            if name == "trace.overhead_ratio":
                value = min(on) / min(untraced)
            else:
                value = spans.get(span, {}).get(stat, 0.0)
            metrics[name] = {"value": value, "unit": _UNITS[stat]}
        run.update(
            traced_ops=len(on),
            untraced_ops=len(untraced),
            overhead_ratio_of_medians=float(np.median(on) / np.median(untraced)),
            spans=spans,
        )
        record["per_layer"] = metrics
        record["traced_run"] = run
    _write_json(result_path, record)

    shown = dict(metrics)
    if args.trace == 0:
        shown.update(run["detail"])
        shown["op_p50_ms"] = {"value": run["op_p50_ms"], "unit": "ms"}
    shown["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    shown["calibration_ms"] = {"value": run["calibration_ms"]["min"], "unit": "ms"}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} ops={len(durations)} "
          f"output_sha256={digest[:16]}")
    for name, metric in shown.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
