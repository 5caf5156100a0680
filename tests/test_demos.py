"""Every demo script runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
FULL_PIPELINE = "06_full_pipeline.py"


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_the_demos_are_found():
    assert len(DEMOS) == 6 and DEMOS[-1].name == FULL_PIPELINE


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name != FULL_PIPELINE],
                         ids=lambda p: p.stem)
def test_demo_runs(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr


@pytest.mark.slow
def test_full_pipeline_demo_runs():
    done = run_demo(ROOT / "demos" / FULL_PIPELINE)
    assert done.returncode == 0, done.stderr
