import importlib
import pkgutil

import pytest

import overlapfem

MODULES = sorted(m.name for m in pkgutil.iter_modules(overlapfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # Tools that wrap every public function look each __all__ name up.
    module = importlib.import_module("overlapfem." + name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
