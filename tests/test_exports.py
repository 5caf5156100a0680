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


def test_importing_every_module_leaves_scipy_spatial_unloaded():
    # Qhull (scipy.spatial) adds about 33 MB of resident memory and 0.3 s of
    # import time; only a process that cuts a partial view needs it
    code = (f"import importlib, sys\nfor name in {MODULES!r}:\n"
            "    importlib.import_module(name)\nprint('scipy.spatial' in sys.modules)")
    assert _fresh_python(code) == "False"


def test_pretraining_scoring_and_the_cli_parser_leave_scipy_spatial_unloaded():
    code = """import sys
from openset3d.cli import build_parser
from openset3d.data import generate_dataset, tiny_manifest
from openset3d.training import TrainConfig, evaluate_open_set, init_state, run_pretrain
dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=8, points_per_cloud=32))
config = TrainConfig(phase1_epochs=1, phase2_epochs=0, batch_size=8, seed=2, feat_dim=8,
                     point_widths=(8, 8), proj_hidden=())
state = run_pretrain(init_state(dataset, config), dataset, config, 1)
row, _ = evaluate_open_set(state.model, dataset.test_known, dataset.test_unknown)
parser = build_parser()
parser.format_help()
parser.parse_args(["eval", "--dataset", "d", "--out", "o", "--checkpoint", "c"])
print(len(state.rows), 0.0 <= row["auroc"] <= 1.0, 'scipy.spatial' in sys.modules)"""
    assert _fresh_python(code) == "1 True False"


def test_cutting_a_partial_view_loads_scipy_spatial():
    code = """import sys
import numpy as np
from openset3d.saliency import view_geometry
before = 'scipy.spatial' in sys.modules
rng = np.random.default_rng(0)
cloud = rng.normal(size=(32, 3))
views = view_geometry(cloud, 1, rng, (2.0, 3.0))
print(before, 'scipy.spatial' in sys.modules, views[0][1])"""
    assert _fresh_python(code) == "False True False"


def test_a_degenerate_hull_raises_scipys_qhull_error():
    # the tracer counts HPR fallbacks by catching scipy.spatial.QhullError
    code = """import numpy as np
from openset3d.saliency import hidden_point_removal
line = np.outer(np.linspace(-1.0, 1.0, 16), [1.0, 0.5, -0.25])
try:
    hidden_point_removal(line, np.array([3.0, 0.0, 0.0]))
except Exception as exc:
    import scipy.spatial
    print(type(exc).__name__, isinstance(exc, scipy.spatial.QhullError))"""
    assert _fresh_python(code) == "QhullError True"


def test_importing_the_package_loads_no_module():
    # the modules are the import path, so the package itself pulls in nothing
    code = ("import sys\nimport openset3d\n"
            "print(sorted(m for m in sys.modules if m.startswith('openset3d.')))\n"
            "import openset3d.metrics\nprint('scipy' in sys.modules)")
    assert _fresh_python(code).splitlines() == ["[]", "False"]
