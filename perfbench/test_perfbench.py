"""Self-tests of the benchmark: span maths, seeding, and a tiny smoke run.

Run with ``python3 -m pytest -q perfbench`` from the root of the repository.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_subtract_merged_children_and_absorbed_time():
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0.5],
        ["a", 1.0, 4.0, 0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0, 0.0],  # overlaps a: the union 1..6 is covered once
        ["a.child", 2.0, 3.0, 1, 0, 0.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0])


def test_nested_self_times_add_up_to_the_root():
    spans = [["root", 0.0, 8.0, -1, 0, 0.0], ["x", 1.0, 5.0, 0, 0, 1.0],
             ["y", 2.0, 3.0, 1, 0, 0.0], ["z", 6.0, 7.5, 0, 1, 0.0]]
    selfs = tracing.self_times(spans)
    assert sum(selfs) + 1.0 == pytest.approx(8.0)  # plus the absorbed second


def test_tracer_records_parents_and_rejects_out_of_order_close():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("bench.unit")
    tr.op_id = 3
    inner = tr.open("training.adam_step")
    tr.close(inner)
    tr.close(outer)
    assert tr.spans == [["bench.unit", 0.0, 3.0, -1, -1, 0.0],
                        ["training.adam_step", 1.0, 2.0, 0, 3, 0.0]]
    outer = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_percentile_interpolates_like_numpy():
    values = list(range(1, 11))
    assert tracing.percentile(values, 50) == pytest.approx(5.5)
    assert tracing.percentile(values, 95) == pytest.approx(9.55)
    assert tracing.percentile([4, 1, 3, 2], 25) == pytest.approx(1.75)
    assert tracing.percentile([7.0], 95) == 7.0
    assert tracing.percentile(values, 50) == statistics.median(values)
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


def _tiny_run(workload, seed):
    plan = workloads.Plan.make(workload, seed, "tiny")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    inputs, setup_print = workloads.setup(plan, checkpoint_path=out / f"test-{seed}.ckpt")
    (out / f"test-{seed}.ckpt").unlink(missing_ok=True)
    unit = workloads.run_unit(plan, inputs, time.perf_counter)
    return setup_print, unit


@pytest.mark.parametrize("workload", ["pretrain", "score"])
def test_second_seed_changes_inputs_and_fingerprints(workload):
    setup_a, unit_a = _tiny_run(workload, 1)
    setup_b, unit_b = _tiny_run(workload, 2)
    again, unit_again = _tiny_run(workload, 1)
    assert setup_a == again and unit_a.fingerprint == unit_again.fingerprint
    assert setup_a["dataset"] != setup_b["dataset"]
    assert unit_a.fingerprint["model"] != unit_b.fingerprint["model"]
    assert unit_a.fingerprint != unit_b.fingerprint
    assert unit_a.failed == 0 and unit_b.failed == 0


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(workload, trace, seed=3):
    proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload_prints_every_metric(workload, trace, smoke_runs):
    info, result = smoke_runs[workload, trace] = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fingerprints_and_exact_counters_repeat_across_runs(smoke_runs):
    for trace in (0, 1):
        if ("desk_seed", trace) not in smoke_runs:
            smoke_runs["desk_seed", trace] = _smoke("desk_seed", trace)
        info, result = _smoke("desk_seed", trace)
        first_info, first = smoke_runs["desk_seed", trace]
        assert info["fingerprint"] == first_info["fingerprint"]
        if trace:
            for name in tracing.EXACT:
                assert result["metrics"][name] == first["metrics"][name], name
            assert result["metrics"]["margins.triplets"]["value"] > 0
            assert result["metrics"]["saliency.hpr_calls"]["value"] > 0


def _group_is_empty(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("interrupt", [False, True])
def test_leaves_no_process_behind(interrupt):
    # the run and every process it starts share a new process group, which
    # must be empty once the run has ended, also when it is terminated
    seconds = "20" if interrupt else "0.5"
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain", "--seed", "4",
         "--seconds", seconds, "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    if interrupt:
        time.sleep(4)  # set-up is done and the body is running
        proc.terminate()
    code = proc.wait(timeout=170)
    assert (code != 0) if interrupt else (code == 0)
    assert _group_is_empty(proc.pid)
    assert not list((HERE / "out").glob("pretrain-s4-*.pkl"))


def test_refuses_to_run_without_the_library_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(["--workload", "pretrain", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
