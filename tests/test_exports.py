"""Every name that an openset3d module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import openset3d

MODULES = sorted(m.name for m in pkgutil.iter_modules(openset3d.__path__, "openset3d."))


def test_the_modules_are_found():
    assert {"openset3d.autodiff", "openset3d.training", "openset3d.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
