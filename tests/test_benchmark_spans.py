"""Every per-layer span that BENCHMARK.json reports names a traced function.

The benchmark's tracer wraps the functions a layer lists in ``__all__``
(``cli`` has none; its one traced function is ``main``) and reports 0.0 for
a span that was never recorded, so renaming or un-exporting a traced
function would silently empty its metric instead of failing.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
VARIANTS = (".gaussian", ".mixture")


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


@pytest.mark.parametrize("span", _spans())
def test_span_is_a_public_function(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"arnorm.{layer}")
    assert name in (getattr(module, "__all__", None) or ["main"])
    obj = getattr(module, name)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
