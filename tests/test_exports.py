import importlib
import pkgutil

import pytest

import vecperm

MODULES = sorted(m.name for m in pkgutil.iter_modules(vecperm.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deleted name must leave the module's export list too
    module = importlib.import_module(f"vecperm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"vecperm.{name}.__all__ names missing attributes: {missing}"
