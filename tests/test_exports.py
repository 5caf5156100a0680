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


def _fresh_python(code):
    """Standard output of `code` run in a new interpreter that imports this
    checkout's package."""
    src = str(Path(openset3d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_every_module_leaves_scipy_stats_unloaded():
    # scipy.stats adds about 34 MB of resident memory to a scoring process
    # (its rankdata would give the same midranks as metrics._midranks)
    code = (f"import importlib, sys\nfor name in {MODULES!r}:\n"
            "    importlib.import_module(name)\nprint('scipy.stats' in sys.modules)")
    assert _fresh_python(code) == "False"


def test_importing_the_package_loads_no_module():
    # the modules are the import path, so the package itself pulls in nothing
    code = ("import sys\nimport openset3d\n"
            "print(sorted(m for m in sys.modules if m.startswith('openset3d.')))\n"
            "import openset3d.metrics\nprint('scipy' in sys.modules)")
    assert _fresh_python(code).splitlines() == ["[]", "False"]
