"""The README's ``python`` examples run as written, every ``arnorm.`` path
it names exists, and its list of law descriptors is the grammar's."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from arnorm.ar_process import _LAW_FAMILIES

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
PATHS = sorted(set(re.findall(r"\barnorm(?:\.[A-Za-z_]\w*)+", TEXT)))


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_names_package_paths():
    assert "arnorm.limit_law" in PATHS


@pytest.mark.parametrize("path", PATHS)
def test_named_path_imports(path):
    # the module is the path's first two parts; any further parts are
    # attributes of it, as in ``arnorm.estimation.DegenerateDataError``
    package, module, *attrs = path.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)


def test_law_grammar_forms_match_the_family_table():
    # a family added to or dropped from the grammar changes this list too
    listing = re.search(r"one text grammar for laws\s*\((.*?)\)", TEXT, re.S).group(1)
    forms = dict(re.findall(r"`([\w-]+):([\w,]+)`", listing))
    assert sorted(forms) == sorted(["gauss-scale", *_LAW_FAMILIES])
    for family, law in _LAW_FAMILIES.items():
        assert len(forms[family].split(",")) == len(dataclasses.fields(law))
