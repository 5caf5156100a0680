"""The partial views built in a forked worker equal the serial views bit for
bit, on any CPU count, and no worker outlives the call that forked it."""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import openset3d
from openset3d import saliency, training
from openset3d.data import generate_dataset, tiny_manifest
from openset3d.encoder import Model
from openset3d.saliency import normalize_scores, partial_views
from openset3d.training import (
    STREAM_VIEWS,
    TrainConfig,
    build_decomposition_caches,
    init_state,
    stream_rng,
)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                                reason="the view worker needs os.fork and CPU affinity")

CONFIG = TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=8, seed=4, feat_dim=16,
                     point_widths=(12, 16), proj_hidden=(), views_per_object=3)
# a collinear cloud is coplanar with every camera: its hull degenerates, so
# each of its views takes the plane-crop fallback and one more normal draw
LINE = np.outer(np.linspace(-1.0, 1.0, 48), np.array([1.0, 0.5, -0.25]))
LINE_POS = 5  # odd, so the worker crops it when one forks


@pytest.fixture(scope="module")
def setup():
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=12,
                                             points_per_cloud=48))
    records = list(dataset.train_known)
    records[LINE_POS] = dataclasses.replace(records[LINE_POS], points=LINE)
    return init_state(dataset, CONFIG).model, records


def use_cpus(monkeypatch, count):
    """Make `count` CPUs usable, as far as the view worker can tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def record_forks(monkeypatch):
    """The pids of the processes forked from here on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def assert_views_equal_the_serial_views(caches, records):
    assert list(caches.views) == [r.object_id for r in records]
    for pos, rec in enumerate(records):
        normalized = normalize_scores(caches.saliency.scores[rec.object_id])
        reference = partial_views(rec.points, normalized, CONFIG.views_per_object,
                                  stream_rng(CONFIG.seed, STREAM_VIEWS, pos), CONFIG.view_radius)
        got = caches.views[rec.object_id]
        assert len(got) == len(reference)
        for view, ref in zip(got, reference):
            assert view.indices.dtype == ref.indices.dtype
            assert view.indices.tobytes() == ref.indices.tobytes()
            assert view.used_fallback is ref.used_fallback
            assert np.float64(view.overall_score).tobytes() == np.float64(ref.overall_score).tobytes()


def own_positions(monkeypatch, records):
    """The positions whose views this process crops, in order; a worker's
    calls stay in the worker."""
    own = []
    geometry = saliency.view_geometry

    def counted(points, *args):
        own.append(next(i for i, r in enumerate(records) if r.points is points))
        return geometry(points, *args)

    monkeypatch.setattr(saliency, "view_geometry", counted)
    return own


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_worker_views_equal_the_serial_views_bit_for_bit(monkeypatch, setup, cpus):
    model, records = setup
    use_cpus(monkeypatch, cpus)
    pids = record_forks(monkeypatch)
    own = own_positions(monkeypatch, records)
    caches = build_decomposition_caches(model, records, CONFIG)
    monkeypatch.undo()
    shares = min(cpus, 2)  # at most one worker, on any CPU count
    assert len(pids) == shares - 1
    assert own == list(range(0, len(records), shares))
    assert_views_equal_the_serial_views(caches, records)
    assert all(v.used_fallback for v in caches.views[records[LINE_POS].object_id])
    assert not any(v.used_fallback for v in caches.views[records[LINE_POS + 1].object_id])
    assert_reaped(pids)


def scoring_helper_alive():
    return any(t.name.startswith("openset3d-score") for t in threading.enumerate())


def test_the_scoring_helper_is_joined_before_the_view_worker_forks(monkeypatch, setup):
    _, records = setup
    # widths that are multiples of 8, so two CPUs split each scoring pass
    model = Model(num_known=2, feat_dim=16, point_widths=(8, 16), proj_hidden=(), seed=4)
    use_cpus(monkeypatch, 2)
    training.score_records(model, records)
    assert scoring_helper_alive()
    alive_after_fork = []
    fork = os.fork

    def checking_fork():
        pid = fork()
        if pid:  # the helper, once joined, cannot have come back
            alive_after_fork.append(scoring_helper_alive())
        return pid

    monkeypatch.setattr(os, "fork", checking_fork)
    caches = build_decomposition_caches(model, records, CONFIG)
    assert alive_after_fork == [False]
    use_cpus(monkeypatch, 1)
    serial = build_decomposition_caches(model, records, CONFIG)
    assert alive_after_fork == [False]
    for rec in records:
        assert caches.saliency.scores[rec.object_id].tobytes() == \
            serial.saliency.scores[rec.object_id].tobytes()
        for view, ref in zip(caches.views[rec.object_id], serial.views[rec.object_id],
                             strict=True):
            assert view.indices.tobytes() == ref.indices.tobytes()
            assert np.float64(view.overall_score).tobytes() == \
                np.float64(ref.overall_score).tobytes()


def test_a_forked_child_scores_on_two_cpus_like_its_parent(monkeypatch, setup):
    _, records = setup
    model = Model(num_known=2, feat_dim=16, point_widths=(8, 16), proj_hidden=(), seed=4)
    use_cpus(monkeypatch, 2)
    expected = training.predict_logits(model, records).tobytes()
    assert scoring_helper_alive()
    pid = os.fork()
    if pid == 0:  # the child starts its own helper; a hang ends in SIGALRM
        code = 1
        try:
            signal.alarm(60)
            same = training.predict_logits(model, records).tobytes() == expected
            code = 0 if same and scoring_helper_alive() else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_no_worker_forks_for_a_single_record(monkeypatch, setup):
    model, records = setup
    use_cpus(monkeypatch, 3)
    pids = record_forks(monkeypatch)
    own = own_positions(monkeypatch, records[:1])
    caches = build_decomposition_caches(model, records[:1], CONFIG)
    monkeypatch.undo()
    assert pids == []
    assert own == [0]
    assert_views_equal_the_serial_views(caches, records[:1])


def test_a_worker_exception_reaches_the_caller_and_no_worker_is_left(monkeypatch, setup):
    model, records = setup
    use_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    geometry = training.view_geometry
    bad = records[LINE_POS].points  # in the worker's share, pos % 2 == 1

    def failing(points, *args):
        if points is bad:
            raise KeyError("no camera for this cloud")
        return geometry(points, *args)

    monkeypatch.setattr(training, "view_geometry", failing)
    with pytest.raises(KeyError) as info:
        build_decomposition_caches(model, records, CONFIG)
    assert str(info.value) == str(KeyError("no camera for this cloud"))
    assert len(pids) == 1
    assert_reaped(pids)


def test_a_failure_in_the_saliency_pass_reaps_the_running_workers(monkeypatch, setup):
    model, records = setup
    use_cpus(monkeypatch, 3)
    pids = record_forks(monkeypatch)

    def failing(*_args):
        raise RuntimeError("saliency pass failed")

    monkeypatch.setattr(training, "build_saliency_cache", failing)
    with pytest.raises(RuntimeError, match="saliency pass failed"):
        build_decomposition_caches(model, records, CONFIG)
    assert len(pids) == 1
    assert_reaped(pids)


def test_a_killed_worker_raises_in_the_caller_instead_of_hanging(monkeypatch, setup):
    model, records = setup
    use_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    geometry = training.view_geometry
    bad = records[LINE_POS].points

    def killed(points, *args):
        if points is bad:  # as the OOM killer would
            os.kill(os.getpid(), signal.SIGKILL)
        return geometry(points, *args)

    monkeypatch.setattr(training, "view_geometry", killed)
    with pytest.raises(RuntimeError, match="the view worker ended without its views"):
        build_decomposition_caches(model, records, CONFIG)
    assert len(pids) == 1
    assert_reaped(pids)


def test_a_worker_whose_parent_is_gone_sends_nothing_and_exits(setup):
    _, records = setup
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            os.close(read_fd)
            # -1 is never the parent pid, so the worker sees its parent gone
            code = training._view_worker(write_fd, -1, records, CONFIG,
                                         range(1, len(records), 2))
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.read() == b""
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


TRAIN_CHECKSUM = """
import os, sys
from openset3d.data import generate_dataset, tiny_manifest
from openset3d.training import TrainConfig, train
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
config = TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=8, seed=4, feat_dim=16,
                     point_widths=(12, 16), proj_hidden=(), views_per_object=3)
dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=12, points_per_cloud=48))
print(len(os.sched_getaffinity(0)), train(dataset, config).model.checksum())
"""


def test_a_run_pinned_to_one_cpu_trains_the_same_model():
    src = str(Path(openset3d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = {}
    for mode in ("pinned", "free"):
        done = subprocess.run([sys.executable, "-c", TRAIN_CHECKSUM, mode], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        cpus, checksum = done.stdout.split()
        out[mode] = int(cpus), checksum
    assert out["pinned"][0] == 1
    assert out["pinned"][1] == out["free"][1]
