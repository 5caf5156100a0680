"""Loss surfaces, two-phase training behavior, and determinism contracts."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.data import ConfigError, generate_dataset, tiny_manifest
from openset3d.encoder import Model
from openset3d.training import (
    TrainConfig,
    TrainingDiverged,
    cls_loss,
    evaluate_closed_set,
    evaluate_open_set,
    high_saliency_loss,
    init_state,
    predict_logits,
    report_csv_text,
    run_combined,
    run_pretrain,
    total_loss,
    train,
)

from _micro import make_micro_setup


def tiny_dataset():
    return generate_dataset(tiny_manifest(seed=3, instances_per_class=20,
                                          points_per_cloud=48))


def tiny_config(**overrides):
    base = dict(
        phase1_epochs=2, phase2_epochs=2, batch_size=8, seed=0,
        feat_dim=16, point_widths=(12, 16), proj_hidden=(),
        views_per_object=3, learning_rate=0.002,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ----------------------------------------------------------------------
# loss operations


def test_cls_loss_uniform_logits():
    assert cls_loss(np.zeros(5), 2) == pytest.approx(np.log(5.0), abs=1e-12)


def test_cls_loss_frozen_oracle_value():
    # direct evaluation of -log(e^1 / (e^1 + 4 e^-1))
    logits = np.array([1.0, -1.0, -1.0, -1.0, -1.0])
    expected = -np.log(np.e / (np.e + 4.0 / np.e))
    assert cls_loss(logits, 0) == pytest.approx(expected, abs=1e-12)
    assert cls_loss(logits, 0) == pytest.approx(0.4326529029917916, abs=1e-12)


def test_cls_loss_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-1, 1, 6)
    base = cls_loss(logits, 3)
    for shift in (-5.0, 0.3, 11.0):
        assert cls_loss(logits + shift, 3) == pytest.approx(base, abs=1e-12)


def test_cls_loss_rejects_unknown_label():
    with pytest.raises(ValueError, match="reserved"):
        cls_loss(np.zeros(5), 4)  # index 4 is the unknown slot for C=4
    with pytest.raises(ValueError):
        cls_loss(np.zeros(5), -1)


def test_high_saliency_loss_full_object_equals_cls_loss():
    model = Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(), seed=1)
    rng = np.random.default_rng(1)
    cloud = rng.uniform(-1, 1, (20, 3))
    from openset3d.encoder import normalize_cloud
    cloud = normalize_cloud(cloud)
    tape = ad.Tape()
    bound = model.bind(tape)
    _, f = bound.encode(cloud)
    direct = cls_loss(bound.logits(f), 1)
    via_part, _ = high_saliency_loss(bound, cloud, 1)
    assert via_part.item() == pytest.approx(direct.item(), abs=1e-12)


def test_total_loss_weighted_sum():
    assert total_loss(1.0, 0.5, 0.7, 2.0, 0.1, 0.01, 0.3) == pytest.approx(1.657)
    assert total_loss(1.3, 9.0, 9.0, 9.0, 0.0, 0.0, 0.0) == 1.3
    assert total_loss(0.0, 0.0, 0.0, 0.0, 0.1, 0.01, 0.3) == 0.0


def test_total_loss_tensor_path():
    tape = ad.Tape()
    terms = [tape.leaf(np.asarray(v)) for v in (1.0, 0.5, 0.7, 2.0)]
    out = total_loss(*terms, 0.1, 0.01, 0.3)
    assert out.item() == pytest.approx(1.657)


# ----------------------------------------------------------------------
# configuration validation


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="pos_weight"):
        TrainConfig(pos_weight=2.0, neg_weight=1.0).validate()
    with pytest.raises(ConfigError, match="threshold"):
        TrainConfig(view_high_thresh=0.2, view_low_thresh=0.5).validate()
    with pytest.raises(ConfigError, match="eps"):
        TrainConfig(eps=0.7, eps_known=0.5).validate()
    with pytest.raises(ConfigError, match="mix_count"):
        TrainConfig(mix_count=1).validate()
    TrainConfig().validate()  # defaults are valid


# ----------------------------------------------------------------------
# whole-pipeline gradient check (micro model)


def test_full_pipeline_gradient_check_micro():
    setup = make_micro_setup(h=1e-5)
    worst = ad.grad_check(setup.loss_and_grad, setup.theta0, h=1e-5)
    assert worst <= 1e-3


# ----------------------------------------------------------------------
# training behavior


def test_phase1_reaches_high_accuracy_on_separable_classes():
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=40,
                                             points_per_cloud=64))
    config = tiny_config(phase1_epochs=60, phase2_epochs=0, learning_rate=0.01)
    result = train(dataset, config)
    acc, _ = evaluate_closed_set(result.model, dataset.val_known)
    assert acc >= 0.99


def test_validation_loss_decreases_from_initialization():
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=6, phase2_epochs=0)
    state = init_state(dataset, config)
    logits0 = predict_logits(state.model, dataset.val_known)
    before = np.mean([cls_loss(row, r.class_index)
                      for row, r in zip(logits0, dataset.val_known)])
    result = train(dataset, config)
    logits1 = predict_logits(result.model, dataset.val_known)
    after = np.mean([cls_loss(row, r.class_index)
                     for row, r in zip(logits1, dataset.val_known)])
    assert after < before


def test_training_deterministic_under_seed():
    dataset = tiny_dataset()
    config = tiny_config()
    a = train(dataset, config)
    b = train(dataset, config)
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])
    assert report_csv_text(a.rows) == report_csv_text(b.rows)


def test_zero_weights_phase2_equals_continued_pretraining():
    dataset = tiny_dataset()
    cfg_a = tiny_config(phase1_epochs=2, phase2_epochs=2, alpha=0.0, beta=0.0, gamma=0.0)
    cfg_b = tiny_config(phase1_epochs=4, phase2_epochs=0)
    a = train(dataset, cfg_a)
    b = train(dataset, cfg_b)
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])
    assert report_csv_text(a.rows) == report_csv_text(b.rows)


def test_divergence_aborts_with_epoch():
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=1, phase2_epochs=0)
    state = init_state(dataset, config)
    # poison a post-relu parameter so the loss itself goes non-finite
    state.model.params["proj0.b"][:] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        run_pretrain(state, dataset, config, 1)
    assert err.value.epoch == 0


def test_nan_training_cloud_aborts_training():
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=1, phase2_epochs=0)
    state = init_state(dataset, config)
    dataset.train_known[3].points[7, 2] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        run_pretrain(state, dataset, config, 1)
    assert err.value.epoch == 0


def test_step_tapes_are_freed_without_the_cyclic_collector(monkeypatch):
    made = []

    class RecordingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(ad, "Tape", RecordingTape)
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=1, phase2_epochs=0)
    state = init_state(dataset, config)
    gc.disable()
    try:
        run_pretrain(state, dataset, config, 1)
        assert len(made) > 1
        assert all(ref() is None for ref in made)
        made.clear()
        state.model.infer_batch([r.points for r in dataset.val_known[:4]])
        assert len(made) == 1
        assert made[0]() is None
    finally:
        gc.enable()


def test_combined_phase_without_caches_rejected():
    dataset = tiny_dataset()
    config = tiny_config()
    state = init_state(dataset, config)
    with pytest.raises(ConfigError, match="caches"):
        run_combined(state, dataset, config, 1, caches=None)


def test_full_combined_phase_runs_and_reports_all_terms():
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=2, phase2_epochs=2)
    result = train(dataset, config)
    assert len(result.rows) == 4
    last = result.rows[-1]
    for key in ("l_cls", "l_h", "l_s", "l_m", "total", "val_acc"):
        assert np.isfinite(last[key])
    assert last["l_h"] > 0 and last["l_s"] > 0  # module terms really ran
    assert result.caches is not None
    assert len(result.caches.saliency) == len(dataset.train_known)
    assert all(len(v) == config.views_per_object
               for v in result.caches.views.values())


def test_online_saliency_mode_runs():
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=1, phase2_epochs=1, saliency_mode="online",
                         views_per_object=2)
    result = train(dataset, config)
    assert result.caches is None  # nothing cached in online mode
    assert np.isfinite(result.rows[-1]["total"])


def test_ablation_variants_run():
    dataset = tiny_dataset()
    base = tiny_config(phase1_epochs=1, phase2_epochs=1)
    for variant in (
        dataclasses.replace(base, use_tsd=False),
        dataclasses.replace(base, use_gss=False),
        dataclasses.replace(base, use_sms=False),
        dataclasses.replace(base, alpha=0.0, beta=0.0, gamma=0.0),
    ):
        result = train(dataset, variant)
        assert np.isfinite(result.rows[-1]["total"])
    no_gss = train(dataset, dataclasses.replace(base, use_gss=False))
    assert no_gss.rows[-1]["l_s"] == 0.0


def test_evaluate_open_set_row_schema():
    dataset = tiny_dataset()
    config = tiny_config(phase1_epochs=2, phase2_epochs=0)
    result = train(dataset, config)
    row, samples = evaluate_open_set(result.model, dataset.test_known,
                                     dataset.test_unknown, "mls")
    assert set(row) == {"method", "split", "auroc", "fpr95", "acc", "macc"}
    assert row["method"] == "mls" and row["split"] == "test"
    assert 0.0 <= row["auroc"] <= 1.0
    assert len(samples) == len(dataset.test_known) + len(dataset.test_unknown)


def test_report_csv_layout():
    dataset = tiny_dataset()
    result = train(dataset, tiny_config(phase1_epochs=1, phase2_epochs=1))
    text = report_csv_text(result.rows)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,l_cls,l_h,l_s,l_m,total,val_acc"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
