"""The package's lazy exports: every public name resolves, on first use, to
the object its defining module holds, and `drglab.catalog` stays the
function however the catalog submodule was imported."""

import importlib
import subprocess
import sys

import pytest

import drglab

CATALOG_NAMES = ("CatalogEntry", "catalog", "recompute_entry")


def home(name: str):
    module = "catalog" if name in CATALOG_NAMES else drglab._LAZY[name]
    return importlib.import_module(f"drglab.{module}")


def test_every_name_is_its_modules_object():
    assert sorted(drglab.__all__) == sorted([*CATALOG_NAMES, *drglab._LAZY])
    assert len(set(drglab.__all__)) == len(drglab.__all__)
    listed = dir(drglab)
    for name in drglab.__all__:
        assert getattr(drglab, name) is getattr(home(name), name), name
        assert name in listed


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from drglab import *", namespace)
    for name in drglab.__all__:
        assert namespace[name] is getattr(home(name), name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'drglab' has no attribute 'no_such_name'$"):
        drglab.no_such_name


# in a fresh process: the catalog submodule imported first, then names and
# submodules taken from the package before anything else loaded them
FRESH_PROBE = """
import sys
import drglab.catalog
import drglab
print(drglab.catalog is sys.modules["drglab.catalog"].catalog, callable(drglab.catalog))
print("drglab.analysis" in sys.modules)
from drglab import analysis
print(analysis is sys.modules["drglab.analysis"])
from drglab import analyze_array
print(analyze_array is analysis.analyze_array, drglab.analyze_array is analyze_array)
"""


def test_catalog_stays_the_function_in_a_fresh_process():
    result = subprocess.run([sys.executable, "-c", FRESH_PROBE], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["True True", "False", "True", "True True"]
