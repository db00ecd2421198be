"""Spans around the public functions of each arnorm layer, recorded from outside.

The package itself is not instrumented.  :class:`Tracer` replaces each
layer's public functions by thin wrappers while an operation is traced and
puts the originals back afterwards.  A module that imported a function by
name (``from .rng import substream``) looks it up in its own namespace, so
the wrapper is installed under every name that any arnorm module binds to
the original.

Each span is one row of five in-memory columns (name id, parent row,
operation id, start, end); nothing is written until :meth:`Tracer.save`.
A span's self time is its duration minus the durations of its direct
children.

:class:`StepMarks` is much lighter: it only notes the time of each call to
a few named bindings, which splits an untraced operation into steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np
from arnorm.ar_process import Mixture

# The layers, in the package's import order; ``cli`` has no ``__all__``,
# its only public function is ``main``.
LAYERS = ("rng", "ar_process", "estimation", "gof_tests", "limit_law", "power_lab", "cli")


def _public_functions(module):
    names = getattr(module, "__all__", None) or ["main"]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _column(values: array, dtype) -> np.ndarray:
    # a copy, so the array stays free to grow
    return np.frombuffer(values, dtype=dtype).copy()


def _innovation_kind(args, kwargs):
    model = args[0] if args else kwargs["model"]
    return "mixture" if isinstance(model.innovation, Mixture) else "gaussian"


# Functions whose span name carries a variant derived from the arguments.
_VARIANTS = {"ar_process.simulate_ar": _innovation_kind}


class Tracer:
    """Records spans for every public arnorm function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._patches = self._build_patches()

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, span_name, fn):
        variant = _VARIANTS.get(span_name)
        fixed_id = self._name_id(span_name) if variant is None else None
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if variant is None:
                nid = fixed_id
            else:
                nid = self._name_id(f"{span_name}.{variant(args, kwargs)}")
            row = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op_id.append(self._op)
            self.end.append(0.0)
            stack.append(row)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[row] = clock()
                stack.pop()

        return wrapper

    def _build_patches(self):
        """``(module, attribute, original, wrapper)`` for every binding to patch."""
        package = sys.modules["arnorm"]
        modules = [package] + [sys.modules[f"arnorm.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            for name, fn in _public_functions(sys.modules[f"arnorm.{layer}"]):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        patches = []
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patches.append((module, attr, value, wrappers[id(value)][1]))
        return patches

    def install(self, op: int) -> None:
        self._op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self, n_ops: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self seconds, each per traced operation."""
        if n_ops < 1:
            raise ValueError("need at least one traced operation")
        names = _column(self.name_id, np.int32)
        parent = _column(self.parent, np.int32)
        duration = _column(self.end, float) - _column(self.start, float)
        child = parent >= 0
        children_s = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - children_s, minlength=k)
        return {
            name: {
                "calls": int(calls[i]) / n_ops,
                "busy_s": float(busy[i]) / n_ops,
                "self_s": float(own[i]) / n_ops,
                "us_per_call": float(busy[i]) / int(calls[i]) * 1e6 if calls[i] else 0.0,
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span: name table plus one row per span."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=_column(self.name_id, np.int32),
            parent=_column(self.parent, np.int32),
            op_id=_column(self.op_id, np.int32),
            start=_column(self.start, float),
            end=_column(self.end, float),
        )


class StepMarks:
    """Notes the time of every call to the given ``(module, attribute)`` bindings.

    One list append per call, with no span, parent or name: on
    ``power-grid`` its 400 marks per operation cost under 0.1% of it.
    """

    def __init__(self, bindings):
        self.times: list[float] = []
        self._patches = []
        for module_name, attr in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original)))

    def _wrap(self, fn):
        note = self.times.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note(clock())
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        self.times.clear()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
