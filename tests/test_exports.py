"""Every exported name resolves, so stale `__all__` entries fail fast."""

import importlib
import pkgutil

import pytest

import steinberg_lab

MODULES = ["steinberg_lab"] + [f"steinberg_lab.{m.name}"
                               for m in pkgutil.iter_modules(steinberg_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    namespace = {}
    exec(f"from {name} import *", namespace)
