"""Inputs, set-up and timed units of the three benchmark workloads.

Each workload runs in one process with a single client in a closed loop:
the next optimizer step or request starts after the previous one returns.
A *unit* is the fixed amount of work one timed body does; it always starts
from the same state, so every unit of one seed must end with the same
fingerprint.

- ``pretrain``: ``run_pretrain`` epochs from a fresh model.  Encoder,
  autodiff and Adam only; saliency, synthesis, margins, HPR and the variant
  fan-out do no work, so changes to them should show no change here.
- ``desk_seed``: one seed of ``experiments.run_seed`` with shortened epochs:
  phase 1, the saliency cache, HPR partial views, all five phase-2 variants
  and open-set evaluation.  The only workload where HPR, ``mix`` and the
  margin triplets do real work.
- ``score``: forward-only open-set scoring with a model pretrained briefly
  in set-up and round-tripped through a checkpoint file.  Requests score 32
  test clouds each; the unit ends with one full-split ``evaluate_open_set``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("pretrain", "desk_seed", "score")


@dataclass
class Plan:
    """Sizes of one workload run; ``size`` is ``desk`` or the ``tiny`` smoke size."""

    workload: str
    seed: int
    size: str = "desk"
    pretrain_epochs: int = 6  # pretrain unit
    seed_epochs: tuple = (1, 1)  # desk_seed unit: phase-1, phase-2 epochs
    setup_epochs: int = 2  # score set-up pretraining
    requests: int = 100  # score unit
    request_size: int = 32
    setups: int = 5  # set-up repetitions per run, for the setup_s median

    @classmethod
    def make(cls, workload: str, seed: int, size: str = "desk") -> "Plan":
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        if size == "desk":
            return cls(workload, seed)
        if size == "tiny":
            return cls(workload, seed, size, pretrain_epochs=2, setup_epochs=1,
                       requests=4, request_size=8, setups=2)
        raise ValueError(f"unknown size {size!r}")

    def manifest(self):
        from openset3d.data import default_manifest, tiny_manifest

        if self.size == "tiny":
            return tiny_manifest(seed=self.seed, instances_per_class=20, points_per_cloud=48)
        # the desk manifest of tests/test_acceptance.py, seeded by the workload
        manifest = default_manifest(seed=self.seed)
        manifest.noise, manifest.scale_jitter, manifest.tilt = 0.03, 0.22, 0.5
        return manifest

    def config(self):
        """The desk config of tests/test_acceptance.py, seeded by the workload.

        ``pretrain`` and ``score`` keep its 45 + 30 epoch schedule and run the
        first epochs of it; ``desk_seed`` shortens both phases.
        """
        from openset3d.training import TrainConfig

        p1, p2 = self.seed_epochs if self.workload == "desk_seed" else (45, 30)
        if self.size == "tiny":
            return TrainConfig(phase1_epochs=p1, phase2_epochs=p2, batch_size=8,
                               seed=self.seed, feat_dim=16, point_widths=(12, 16),
                               proj_hidden=(), learning_rate=0.01, views_per_object=3)
        return TrainConfig(
            phase1_epochs=p1, phase2_epochs=p2, batch_size=32, seed=self.seed,
            feat_dim=64, point_widths=(32, 64), proj_hidden=(),
            learning_rate=0.01, alpha=0.05, beta=0.25, gamma=0.02,
            view_high_thresh=0.65, view_low_thresh=0.5, views_per_object=8,
        )


@dataclass
class Inputs:
    """What set-up hands to the timed body."""

    dataset: object
    config: object
    model: object = None  # score: the checkpoint-loaded model
    setup_rows: list = field(default_factory=list)  # score: set-up pretraining report
    requests: list = field(default_factory=list)  # score: record index lists


@dataclass
class UnitResult:
    wall: float
    ops: int
    failed: int
    clouds: int
    fingerprint: dict
    latencies: list
    problems: list
    quality: tuple | None = None  # (auroc, acc) of the unit's final model


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def setup(plan: Plan, tracer=None, checkpoint_path=None) -> tuple[Inputs, dict]:
    """Generate the inputs from the workload seed and, for ``score``, pretrain
    and round-trip the model through a checkpoint file.

    Returns the inputs and the set-up fingerprint (which must be identical
    for every set-up of one seed).
    """
    from openset3d import checkpoint, data, training

    def span(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    dataset = span("data.generate", data.generate_dataset, plan.manifest())
    config = plan.config()
    inputs = Inputs(dataset=dataset, config=config)
    fingerprint = {"dataset": sha256_text(repr([
        (r.object_id, r.points.tobytes().hex()) for r in dataset.records[:: max(1, len(dataset.records) // 64)]
    ]))}
    if plan.workload == "score":
        state = training.init_state(dataset, config)
        training.run_pretrain(state, dataset, config, plan.setup_epochs)
        span("checkpoint.save", checkpoint.save_checkpoint, checkpoint_path, state.model)
        inputs.model = span("checkpoint.load", checkpoint.load_checkpoint, checkpoint_path)
        inputs.setup_rows = list(state.rows)
        if inputs.model.checksum() != state.model.checksum():
            raise RuntimeError("checkpoint round trip changed the model")
        pool = len(dataset.test_known) + len(dataset.test_unknown)
        rng = np.random.default_rng([plan.seed, 0x5C0E])
        inputs.requests = [
            rng.choice(pool, size=plan.request_size, replace=False).tolist()
            for _ in range(plan.requests)
        ]
        fingerprint["setup_model"] = inputs.model.checksum()
        fingerprint["setup_report"] = sha256_text(training.report_csv_text(state.rows))
        fingerprint["requests"] = sha256_text(repr(inputs.requests))
    return inputs, fingerprint


# ----------------------------------------------------------------------
# step clock: per-op latency of the training workloads


class StepClock:
    """Latency of each optimizer step, taken between consecutive ``Adam.step``
    returns within one epoch.  The first step of an epoch is dropped: what
    precedes it (validation, caches, branch copies) is not part of a step.
    """

    def __init__(self, clock):
        self.clock = clock
        self.latencies: list[float] = []
        self._last = None

    def install(self):
        import openset3d.training as tr_mod

        orig = tr_mod.Adam.__dict__["step"]

        def step(opt, *args, **kwargs):
            try:
                return orig(opt, *args, **kwargs)
            finally:
                now = self.clock()
                if self._last is not None:
                    self.latencies.append(now - self._last)
                self._last = now

        tr_mod.Adam.step = step

        def restore():
            tr_mod.Adam.step = orig

        return restore

    def progress(self, _row) -> None:
        self._last = None


def _finite_rows(rows) -> bool:
    return all(math.isfinite(float(r[k])) for r in rows
               for k in ("l_cls", "l_h", "l_s", "l_m", "total"))


def _finite_params(model) -> bool:
    return all(np.isfinite(v).all() for v in model.params.values())


def _quality(row) -> tuple:
    return float(row["auroc"]), float(row["acc"])


# ----------------------------------------------------------------------
# units


def run_unit(plan: Plan, inputs: Inputs, clock, tracer=None, want_quality=False) -> UnitResult:
    """One timed unit of the plan's workload; failures are counted, not raised."""
    steps = StepClock(clock) if tracer is None else None
    restore_steps = steps.install() if steps is not None else (lambda: None)

    def progress(row):
        if steps is not None:
            steps.progress(row)
        if tracer is not None:
            tracer.progress(row)

    root = tracer.open("bench.unit") if tracer is not None else None
    try:
        if plan.workload == "pretrain":
            result = _pretrain_unit(plan, inputs, clock, progress, want_quality)
        elif plan.workload == "desk_seed":
            result = _desk_seed_unit(plan, inputs, clock, progress, tracer)
        else:
            result = _score_unit(plan, inputs, clock, tracer)
    finally:
        if tracer is not None:
            tracer.close(root)
        restore_steps()
    if steps is not None and plan.workload != "score":
        result.latencies = steps.latencies
    return result


def _steps_per_epoch(inputs: Inputs) -> int:
    return math.ceil(len(inputs.dataset.train_known) / inputs.config.batch_size)


def _pretrain_unit(plan, inputs, clock, progress, want_quality) -> UnitResult:
    import openset3d.training as tr_mod

    ds, cfg = inputs.dataset, inputs.config
    ops = plan.pretrain_epochs * _steps_per_epoch(inputs)
    problems = []
    t0 = clock()
    try:
        state = tr_mod.init_state(ds, cfg)
        tr_mod.run_pretrain(state, ds, cfg, plan.pretrain_epochs, progress)
    except Exception as exc:  # a failed unit fails all its steps
        return UnitResult(clock() - t0, ops, ops, 0, {}, [], [f"pretrain: {exc!r}"])
    wall = clock() - t0
    if not _finite_rows(state.rows) or not _finite_params(state.model):
        problems.append("pretrain: non-finite loss or parameter")
    fingerprint = {"model": state.model.checksum(),
                   "report": sha256_text(tr_mod.report_csv_text(state.rows))}
    quality = None
    if want_quality:
        row, _ = tr_mod.evaluate_open_set(state.model, ds.test_known, ds.test_unknown)
        quality = _quality(row)
    return UnitResult(wall, ops, ops if problems else 0,
                      plan.pretrain_epochs * len(ds.train_known), fingerprint, [],
                      problems, quality)


def _desk_seed_unit(plan, inputs, clock, progress, tracer) -> UnitResult:
    import openset3d.experiments as ex
    from openset3d.training import report_csv_text

    ds, cfg = inputs.dataset, inputs.config
    grid = ex.ablation_grid(cfg)
    p1, p2 = cfg.phase1_epochs, cfg.phase2_epochs
    ops = (p1 + len(grid) * p2) * _steps_per_epoch(inputs)
    branches = []
    orig = ex.run_combined

    def run_combined(state, dataset, config, *args, **kwargs):
        out = orig(state, dataset, config, *args, **kwargs)
        branches.append((config, out))
        return out

    ex.run_combined = run_combined
    problems = []
    t0 = clock()
    try:
        if tracer is None:
            outcome = ex.run_seed(ds, cfg, progress=progress)
        else:
            outcome = tracer.call("experiments.run_seed", ex.run_seed, ds, cfg,
                                  progress=progress)
    except Exception as exc:
        return UnitResult(clock() - t0, ops, ops, 0, {}, [], [f"desk_seed: {exc!r}"])
    finally:
        ex.run_combined = orig
    wall = clock() - t0
    fingerprint = {}
    for name, vcfg in grid.items():
        state = next((s for c, s in branches if c == vcfg), None)
        if state is None:
            problems.append(f"desk_seed: variant {name} did not run")
            continue
        if not _finite_rows(state.rows) or not _finite_params(state.model):
            problems.append(f"desk_seed: non-finite loss or parameter in {name}")
        fingerprint[name] = {"model": state.model.checksum(),
                             "report": sha256_text(report_csv_text(state.rows))}
    metrics = [outcome.baseline] + [outcome.variants[k] for k in grid]
    if not all(math.isfinite(v) for m in metrics for v in dataclasses.astuple(m)):
        problems.append("desk_seed: non-finite open-set metric")
    fingerprint["outcome"] = sha256_text(repr(outcome))
    full = outcome.variants["full"]
    return UnitResult(wall, ops, ops if problems else 0,
                      (p1 + len(grid) * p2) * len(ds.train_known), fingerprint, [],
                      problems, (full.auroc, full.acc))


def _score_unit(plan, inputs, clock, tracer) -> UnitResult:
    import openset3d.training as tr_mod

    ds, model = inputs.dataset, inputs.model
    pool = list(ds.test_known) + list(ds.test_unknown)
    latencies, problems, confidences = [], [], []
    failed = 0
    t0 = clock()
    for req_id, picks in enumerate(inputs.requests):
        records = [pool[i] for i in picks]
        if tracer is not None:
            tracer.op_id = req_id
        r0 = clock()
        try:
            if tracer is None:
                samples = tr_mod.score_records(model, records)
            else:
                samples = tracer.call("training.score_records", tr_mod.score_records,
                                      model, records)
        except Exception as exc:
            failed += 1
            problems.append(f"request {req_id}: {exc!r}")
            continue
        finally:
            latencies.append(clock() - r0)
        values = [s.confidence for s in samples]
        if len(values) != len(records) or not all(math.isfinite(v) for v in values):
            failed += 1
            problems.append(f"request {req_id}: missing or non-finite score")
        confidences.append([(s.object_id, s.confidence) for s in samples])
    if tracer is not None:
        tracer.op_id = len(inputs.requests)
    try:
        row, samples = tr_mod.evaluate_open_set(model, ds.test_known, ds.test_unknown)
    except Exception as exc:
        failed += 1
        problems.append(f"full evaluation: {exc!r}")
        row, samples = None, []
    wall = clock() - t0
    quality = None
    if row is not None:
        quality = _quality(row)
        # a cloud scores the same in a 32-cloud request as in a 256-cloud chunk
        full = {s.object_id: s.confidence for s in samples}
        worst = max((abs(c - full[oid]) for req in confidences for oid, c in req),
                    default=0.0)
        if not all(math.isfinite(v) for v in (row["auroc"], row["acc"], row["fpr95"])):
            failed += 1
            problems.append("full evaluation: non-finite metric")
        elif worst > 1e-9:
            failed += 1
            problems.append(f"request scores differ from full-split scores by {worst:.3g}")
    fingerprint = {"model": model.checksum(),
                   "report": sha256_text(tr_mod.report_csv_text(inputs.setup_rows)),
                   "scores": sha256_text(repr(confidences)),
                   "full_eval": sha256_text(repr(row))}
    clouds = len(inputs.requests) * plan.request_size + len(pool)
    return UnitResult(wall, len(inputs.requests) + 1, failed, clouds, fingerprint,
                      latencies, problems, quality)
