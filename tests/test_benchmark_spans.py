"""Every per-layer span that BENCHMARK.json reports names a traced function.

The benchmark's tracer wraps the functions a layer lists in ``__all__``
(``cli`` has none; its one traced function is ``main``) and reports 0.0 for
a span that was never recorded, so renaming or un-exporting a traced
function would silently empty its metric instead of failing.  The same
holds for a caller that reaches a traced function without looking it up by
its module name, as a dict of functions built at import would.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from arnorm import ArModel, Gaussian, StatKind, cli, power_lab, simulate_ar

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
TRACING_PY = ROOT / "perfbench" / "tracing.py"
VARIANTS = (".gaussian", ".mixture")
# Spans of functions deleted on purpose whose metrics BENCHMARK.json still
# lists, so they read 0 until the benchmark's next change retires them
# (ROADMAP item 3): run_power_study now runs the size cells too.
RETIRED = {"power_lab.run_size_study"}


def _spans():
    spans = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        span = metric["name"].rsplit(".", 1)[0]
        if span == "trace":  # trace.overhead_ratio is a ratio of timings, not a span
            continue
        for variant in VARIANTS:
            span = span.removesuffix(variant)
        spans.add(span)
    return sorted(spans)


def test_benchmark_reports_spans():
    assert _spans()


@pytest.mark.parametrize("span", sorted(set(_spans()) - RETIRED))
def test_span_is_a_public_function(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"arnorm.{layer}")
    assert name in (getattr(module, "__all__", None) or ["main"])
    obj = getattr(module, name)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__


@pytest.mark.parametrize("span", sorted(RETIRED))
def test_retired_span_is_gone(span):
    # a retired span must still be listed (else its entry here goes too)
    # and its function must be gone, not merely un-exported
    assert span in _spans()
    layer, name = span.split(".")
    assert not hasattr(importlib.import_module(f"arnorm.{layer}"), name)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_test_layer_spans_record_calls(tmp_path, capsys):
    model = ArModel(coeffs=(0.5,), mean=0.0, innovation=Gaussian(1.0))
    series = tmp_path / "series.txt"
    series.write_text("".join(f"{float(v)!r}\n" for v in simulate_ar(model, 300, seed=3).values))
    tracer = _load_tracing().Tracer()
    tracer.install(0)
    try:
        power_lab.pipeline_statistics(model, 200, tuple(StatKind), 100, seed=5)
        assert cli.main(["test", str(series), "--p", "1", "--grid", "16", "--reps", "200"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary(1)
    for span in ("probability_transforms", "kolmogorov_from_transforms",
                 "omega2_from_transforms"):
        assert summary.get(f"gof_tests.{span}", {}).get("calls", 0) > 0, span
