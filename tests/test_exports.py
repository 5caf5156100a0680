"""Every name that an openset3d module lists in __all__ resolves, and
importing the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_importing_every_module_leaves_scipy_stats_unloaded():
    # scipy.stats adds about 34 MB of resident memory to a scoring process
    # (its rankdata would give the same midranks as metrics._midranks)
    src = str(Path(openset3d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import importlib, sys\nfor name in {MODULES!r}:\n"
            "    importlib.import_module(name)\nprint('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
