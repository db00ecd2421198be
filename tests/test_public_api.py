"""Each layer's ``__all__`` names only what the layer defines.

A stale ``__all__`` entry, left behind when a function is deleted or moved,
makes ``from arnorm.<layer> import *`` fail; nothing else would notice it.
"""

import importlib
import pkgutil

import pytest

import arnorm

MODULES = ["arnorm"] + [
    f"arnorm.{info.name}" for info in pkgutil.iter_modules(arnorm.__path__)
    if info.name != "__main__"
]


def test_every_layer_is_listed():
    assert {"arnorm.rng", "arnorm.ar_process", "arnorm.estimation", "arnorm.gof_tests",
            "arnorm.limit_law", "arnorm.power_lab", "arnorm.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if attr not in namespace] == []
