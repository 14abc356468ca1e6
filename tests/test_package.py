"""Every name in a module's ``__all__`` exists, so ``from mblft.x import *``
works after code is deleted."""
import importlib
import pkgutil

import pytest

import mblft

MODULES = ["mblft"] + [
    f"mblft.{m.name}" for m in pkgutil.iter_modules(mblft.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})
