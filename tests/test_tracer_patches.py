"""The benchmark's tracer patches library names that still exist and puts
every one of them back.

`perfbench/tracing.py` wraps library functions by attribute name and raises
KeyError for a name the library no longer defines; this test catches such a
rename in the default test run.
"""

import gc
import importlib.util
import inspect
from pathlib import Path

import openset3d.autodiff as ad
import openset3d.data as data
import openset3d.encoder as enc
import openset3d.experiments as ex
import openset3d.saliency as sal
import openset3d.training as tr_mod

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every attribute of the library modules and of the classes they define."""
    modules = (ad, data, enc, ex, sal, tr_mod)
    classes = [obj for m in modules for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__ == m.__name__]
    return {owner: dict(vars(owner)) for owner in (*modules, *classes)}


def _changed(before):
    """(owner, name) of each attribute added, removed or rebound since `before`."""
    out = set()
    for owner, attrs in before.items():
        now = vars(owner)
        out |= {(owner.__name__, n) for n in attrs.keys() ^ now.keys()}
        out |= {(owner.__name__, n) for n in attrs.keys() & now.keys() if attrs[n] is not now[n]}
    return out


def test_install_and_restore_leave_the_library_as_it_was():
    tracing = _load_tracing()
    before, callbacks = _snapshot(), list(gc.callbacks)
    restore = tracing.install(tracing.Tracer())
    try:
        patched = _changed(before)
    finally:
        restore()
    ops = tracing.ENCODER_OPS + tracing.SMALL_OPS
    assert {("openset3d.autodiff", op) for op in ops} | {("Tape", "backward")} <= patched
    assert _changed(before) == set()
    assert gc.callbacks == callbacks

    restore = tracing.install_setup(tracing.Tracer())
    try:
        assert _changed(before) == {("openset3d.data", "random_instance")}
    finally:
        restore()
    assert _changed(before) == set()
