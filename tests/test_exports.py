"""Every exported name resolves, so stale `__all__` entries fail fast."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_numpy():
    """numpy serves only the float64 route of the relation sweep, which
    `verify_relations` imports on that branch alone."""
    code = "import sys, steinberg_lab, steinberg_lab.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(steinberg_lab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"
