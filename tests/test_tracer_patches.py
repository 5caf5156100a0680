"""The benchmark's tracer patches library names that still exist and puts
every one of them back.

`perfbench/tracing.py` wraps library functions by attribute name and raises
KeyError for a name the library no longer defines, and its counters read
what the wrapped functions return; these tests catch a rename, or a changed
return value, in the default test run.
"""

import gc
import importlib.util
import inspect
import sys
import time
from pathlib import Path

import pytest

import openset3d.autodiff as ad
import openset3d.data as data
import openset3d.encoder as enc
import openset3d.experiments as ex
import openset3d.saliency as sal
import openset3d.training as tr_mod

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
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
    tracing = _load("tracing")
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


def test_a_traced_tiny_desk_seed_unit_runs_clean():
    # every wrapper's counter runs on what the library returns (count_hinge
    # reads margin_loss's result as a scalar); a failure inside the unit is
    # recorded as a problem rather than raised
    tracing, workloads = _load("tracing"), _load("workloads")
    plan = workloads.Plan.make("desk_seed", 31, size="tiny")
    inputs, _ = workloads.setup(plan)
    tr = tracing.Tracer()
    restore = tracing.install(tr, ex.ablation_grid(inputs.config))
    try:
        unit = workloads.run_unit(plan, inputs, time.perf_counter, tracer=tr)
    finally:
        restore()
    assert unit.problems == [] and unit.failed == 0
    metrics = tracing.layer_metrics(tr, 0)
    assert metrics["margins.triplets"] > 0
    assert metrics["margins.pseudo_features_calls"] == metrics["margins.triplets"]


@pytest.mark.parametrize("workload", ["pretrain", "desk_seed", "score"])
def test_an_untraced_tiny_unit_of_each_workload_runs_clean(tmp_path, workload):
    # perfbench/ is outside the default test paths; this runs the library
    # calls its units make, so a changed signature fails here
    workloads = _load("workloads")
    plan = workloads.Plan.make(workload, 31, size="tiny")
    inputs, _ = workloads.setup(plan, checkpoint_path=tmp_path / "setup.ckpt")
    unit = workloads.run_unit(plan, inputs, time.perf_counter)
    assert unit.problems == [] and unit.failed == 0
    if workload == "desk_seed":
        assert set(unit.fingerprint) == {*ex.VARIANT_ORDER, "outcome"}
