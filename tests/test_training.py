"""Loss surfaces, two-phase training behavior, and determinism contracts."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from openset3d import autodiff as ad, training
from openset3d.data import ConfigError, generate_dataset, tiny_manifest
from openset3d.encoder import Model
from openset3d.experiments import VARIANT_ORDER, ablation_grid, run_seed
from openset3d.saliency import Part
from openset3d.training import (
    TrainConfig,
    TrainingDiverged,
    _decompose_batch,
    batch_loss,
    evaluate_closed_set,
    evaluate_open_set,
    init_state,
    predict_logits,
    report_csv_text,
    run_combined,
    run_pretrain,
    train,
)

from _micro import CONFIG, MicroSetup


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
# loss operations: the classification terms are ad.soft_cross_entropy
# against one-hot rows, and batch_loss assembles what the trainer steps on


def cross_entropy(logits, target):
    """The loss of one logits row against one target row, as a batch of one."""
    tape = ad.Tape()
    return float(ad.soft_cross_entropy(tape.leaf(logits[None]), target[None]).data[0])


def mean_cls_loss(logits, records):
    tape = ad.Tape()
    targets = np.eye(logits.shape[1])[[r.class_index for r in records]]
    return ad.mean_all(ad.soft_cross_entropy(tape.leaf(logits), targets)).item()


def test_cls_loss_uniform_logits():
    assert cross_entropy(np.zeros(5), np.eye(5)[2]) == pytest.approx(np.log(5.0), abs=1e-12)


def test_cls_loss_frozen_oracle_value():
    # direct evaluation of -log(e^1 / (e^1 + 4 e^-1))
    logits = np.array([1.0, -1.0, -1.0, -1.0, -1.0])
    expected = -np.log(np.e / (np.e + 4.0 / np.e))
    assert cross_entropy(logits, np.eye(5)[0]) == pytest.approx(expected, abs=1e-12)
    assert cross_entropy(logits, np.eye(5)[0]) == pytest.approx(0.4326529029917916, abs=1e-12)


def test_cls_loss_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-1, 1, 6)
    base = cross_entropy(logits, np.eye(6)[3])
    for shift in (-5.0, 0.3, 11.0):
        assert cross_entropy(logits + shift, np.eye(6)[3]) == pytest.approx(base, abs=1e-12)


def test_cls_loss_rejects_unknown_label():
    setup = MicroSetup(14)
    for bad in (3, -1):  # 3 is the unknown slot for C=3; -1 would wrap onto it
        batch = [dataclasses.replace(setup.batch[0], class_index=bad), setup.batch[1]]
        with pytest.raises(ValueError, match="reserved"):
            batch_loss(setup.model.bind(ad.Tape()), batch, None, None, CONFIG, None, None)


def test_high_saliency_loss_full_object_equals_cls_loss():
    # a high part that is the whole (normalized) object is classified like it
    setup = MicroSetup(14)
    setup.highs = [Part(r.points, r.class_index, r.object_id) for r in setup.batch]
    _, _, (l_cls, l_h, _, _) = setup.evaluate(setup.theta0)
    assert l_h.item() == pytest.approx(l_cls.item(), abs=1e-12)


def test_total_loss_weighted_sum():
    setup = MicroSetup(14)
    config = dataclasses.replace(CONFIG, alpha=0.7, beta=0.2, gamma=0.05)
    _, total, terms = setup.evaluate(setup.theta0, config)
    l_cls, l_h, l_s, l_m = (t.item() for t in terms)
    assert min(l_cls, l_h, l_s, l_m) > 0.0
    assert total.item() == pytest.approx(l_cls + 0.7 * l_h + 0.2 * l_s + 0.05 * l_m,
                                         rel=1e-14)
    # a zero weight drops its term; no parts leave the classification term alone
    _, total, terms = setup.evaluate(setup.theta0, dataclasses.replace(config, alpha=0.0))
    l_cls, l_h, l_s, l_m = (t.item() for t in terms)
    assert total.item() == pytest.approx(l_cls + 0.2 * l_s + 0.05 * l_m, rel=1e-14)
    bound = setup.model.bind(ad.Tape())
    total, terms = batch_loss(bound, setup.batch, None, None, config, None, None)
    assert terms[1:] == (None, None, None)
    assert total is terms[0]


def test_total_loss_tensor_path():
    # the total's parameter gradient is the weighted sum of the terms' gradients
    setup = MicroSetup(14)
    weights = (1.0, CONFIG.alpha, CONFIG.beta, CONFIG.gamma)

    def grads_of(pick):
        bound, total, terms = setup.evaluate(setup.theta0)
        bound.tape.backward(pick(total, terms))
        return bound.param_grads()

    whole = grads_of(lambda total, terms: total)
    parts = [grads_of(lambda total, terms, i=i: terms[i]) for i in range(4)]
    for name, g in whole.items():
        expected = sum(w * part[name] for w, part in zip(weights, parts))
        assert np.allclose(g, expected, rtol=1e-10, atol=1e-13)


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
    # the CLI coerces train.proj_hidden=16 to (16.0,), which Model builds as 16
    TrainConfig(feat_dim=16.0, point_widths=(12.0, 16), proj_hidden=(16.0,)).validate()


@pytest.mark.parametrize("bad, message", [
    (dict(margin=-1.0), "margin"),
    (dict(margin=float("nan")), "margin"),
    (dict(pos_weight=-0.5), "pos_weight"),
    (dict(views_per_object=0), "views_per_object"),
    (dict(view_radius=(0.0, -1.0)), "view_radius"),
    (dict(view_radius=(2.0, 1.0)), "view_radius"),
    (dict(view_radius=(1.5,)), "view_radius"),
    (dict(p_replace=3.0), "p_replace"),
    (dict(p_replace=-0.1), "p_replace"),
    (dict(beta=float("nan")), "loss weights"),
    (dict(learning_rate=float("nan")), "learning rate"),
    (dict(eps=float("nan")), "smoothing"),
    (dict(feat_dim=0), "feat_dim"),
    (dict(feat_dim=float("inf")), "feat_dim"),
    (dict(point_widths=(0, 8)), "point_widths"),
    (dict(point_widths=()), "point_widths"),
    (dict(point_widths=(12, float("nan"))), "point_widths"),
    (dict(proj_hidden=(16.5,)), "proj_hidden"),
    (dict(proj_hidden=(float("inf"),)), "proj_hidden"),
    (dict(phase1_epochs=float("nan")), "phase1_epochs"),
    (dict(phase1_epochs=2.5), "phase1_epochs"),
    (dict(phase2_epochs=float("nan")), "phase2_epochs"),
    (dict(phase2_epochs=2.5), "phase2_epochs"),
    (dict(batch_size=float("nan")), "batch_size"),
    (dict(batch_size=2.5), "batch_size"),
    (dict(mix_count=float("nan")), "mix_count"),
    (dict(mix_count=2.5), "mix_count"),
    (dict(views_per_object=float("nan")), "views_per_object"),
    (dict(views_per_object=2.5), "views_per_object"),
    (dict(noise_weights=(float("nan"),)), "noise_weights"),
    (dict(noise_weights=(0.1, float("inf"))), "noise_weights"),
    (dict(noise_weights=(-0.1,)), "noise_weights"),
    # inf passes every range check; each would diverge or overflow mid-run
    (dict(learning_rate=float("inf")), "learning_rate"),
    (dict(margin=float("inf")), "margin"),
    (dict(neg_weight=float("inf")), "neg_weight"),
    (dict(alpha=float("inf")), "alpha"),
    (dict(beta=float("inf")), "beta"),
    (dict(gamma=float("inf")), "gamma"),
    (dict(view_radius=(1.5, float("inf"))), "view_radius"),
])
def test_config_validation_rejects_before_phase_1(bad, message):
    config = tiny_config(**bad)
    with pytest.raises(ConfigError, match=message):
        config.validate()
    epochs = []
    with pytest.raises(ConfigError, match=message):
        train(tiny_dataset(), config, progress=epochs.append)
    assert epochs == []  # rejected before the first pretrain epoch


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
    before = mean_cls_loss(logits0, dataset.val_known)
    result = train(dataset, config)
    logits1 = predict_logits(result.model, dataset.val_known)
    after = mean_cls_loss(logits1, dataset.val_known)
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
        assert made == []  # scoring records no tape at all
    finally:
        gc.enable()


def test_combined_phase_without_caches_rejected():
    dataset = tiny_dataset()
    config = tiny_config()
    state = init_state(dataset, config)
    with pytest.raises(ConfigError, match="caches"):
        run_combined(state, dataset, config, caches=None)


def test_combined_phase_sizes_the_noise_scale_from_the_model():
    # a model whose feat_dim differs from the config's: the margin term's
    # running std follows the model, so the run equals one with a matching config
    dataset = tiny_dataset()
    config = tiny_config(use_tsd=False)
    state = init_state(dataset, config)
    run_pretrain(state, dataset, config, 1)
    runs = []
    for feat_dim in (config.feat_dim, 256):
        branch = state.copy()
        run_combined(branch, dataset, dataclasses.replace(config, feat_dim=feat_dim),
                     caches=None)
        runs.append((branch.model.checksum(), report_csv_text(branch.rows)))
    assert runs[0] == runs[1]


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
    assert len(result.caches.saliency.scores) == len(dataset.train_known)
    assert all(len(v) == config.views_per_object
               for v in result.caches.views.values())


def test_a_last_batch_too_small_to_mix_adds_no_synthesis_term(monkeypatch):
    # 56 training clouds in batches of 9 leave a last batch of 2, below
    # mix_count 3: that step draws no pseudo-unknown, and the run stays finite
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=40,
                                             points_per_cloud=48))
    config = tiny_config(batch_size=9)
    assert len(dataset.train_known) == 56 and config.mix_count == 3
    terms = []

    def recording(*args):
        terms.append(synthesis_loss(*args))
        return terms[-1]

    synthesis_loss = training._synthesis_loss
    monkeypatch.setattr(training, "_synthesis_loss", recording)
    result = train(dataset, config)
    assert terms.count(None) == config.phase2_epochs
    assert len(terms) == 7 * config.phase2_epochs  # ceil(56 / 9) steps per epoch
    for row in result.rows:
        assert all(np.isfinite(value) for value in row.values())


def test_a_tsd_run_is_byte_identical_with_a_row_major_pooled_layer(monkeypatch):
    # views replace high parts, so the stacked high-part batches have ragged
    # row counts that are not multiples of 8; at the desk's last-layer shape
    # (32 -> 64) the channel-major product matches x @ w there only because
    # of its zero padding
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=40,
                                             points_per_cloud=96))
    config = tiny_config(phase1_epochs=1, phase2_epochs=2, batch_size=16, point_widths=(32, 64),
                         view_high_thresh=0.1, view_low_thresh=0.05)
    real_decompose, real_linear = training.tunable_decompose, ad.linear
    swaps, rows = [], []

    def decompose(*args, **kwargs):
        high, low = real_decompose(*args, **kwargs)
        swaps.append(any(high.source_indices is v.indices for v in args[5]))
        return high, low

    def spy(x, w, b, relu=False, channel_major=False):
        if channel_major:
            rows.append(x.shape[0])
        return real_linear(x, w, b, relu, channel_major)

    def run(layer):
        with monkeypatch.context() as patch:
            patch.setattr(training, "tunable_decompose", decompose)
            patch.setattr(ad, "linear", layer)
            result = train(dataset, config)
        return result.model.checksum(), report_csv_text(result.rows)

    channel_major = run(spy)
    assert any(swaps) and any(n % 8 and n > 500 for n in rows)
    assert channel_major == run(lambda x, w, b, relu=False, channel_major=False:
                                real_linear(x, w, b, relu))


def test_a_combined_epoch_calls_mix_once_per_step(monkeypatch):
    # each step draws all of its pseudo-unknowns, one per real sample, in one call
    dataset = tiny_dataset()
    config = tiny_config(use_tsd=False, phase2_epochs=1)
    state = init_state(dataset, config)
    real, calls = training.mix, []

    def spy(groups, *args):
        calls.append(len(groups))
        return real(groups, *args)

    monkeypatch.setattr(training, "mix", spy)
    run_combined(state, dataset, config, caches=None)
    n = len(dataset.train_known)
    steps = [min(config.batch_size, n - start) for start in range(0, n, config.batch_size)]
    assert calls == [size for size in steps if size >= config.mix_count]
    assert len(calls) == len(steps) > 1


def test_no_tsd_parts_are_a_random_split():
    # use_tsd=False: each record's low part is the first floor(n / mix_count)
    # points of a uniform permutation drawn from the TSD generator, and
    # nothing else is drawn from it
    dataset = tiny_dataset()
    config = tiny_config(use_tsd=False)
    batch = dataset.train_known[:5]
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    highs, lows = _decompose_batch(batch, config, None, rng)
    for rec, high, low in zip(batch, highs, lows):
        n = len(rec.points)
        perm = ref.permutation(n)
        cut = n // config.mix_count
        for part, idx in ((low, np.sort(perm[:cut])), (high, np.sort(perm[cut:]))):
            assert np.array_equal(part.source_indices, idx)
            assert np.array_equal(part.points, rec.points[idx])
            assert (part.label, part.source_id) == (rec.class_index, rec.object_id)
    assert rng.random() == ref.random()


def test_ablation_variants_run():
    dataset = tiny_dataset()
    base = tiny_config(phase1_epochs=1, phase2_epochs=1)
    for variant in (
        dataclasses.replace(base, use_tsd=False),
        dataclasses.replace(base, beta=0.0),
        dataclasses.replace(base, gamma=0.0),
        dataclasses.replace(base, alpha=0.0, beta=0.0, gamma=0.0),
    ):
        result = train(dataset, variant)
        assert np.isfinite(result.rows[-1]["total"])


def test_ablation_grid_variants_change_only_their_own_fields():
    base = tiny_config(phase1_epochs=1, phase2_epochs=1)
    grid = ablation_grid(base)
    assert tuple(grid) == VARIANT_ORDER
    expected = {
        "full": {},
        "no_tsd": {"use_tsd": False},
        "no_gss": {"beta": 0.0},
        "no_sms": {"gamma": 0.0},
        "none": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0},
    }
    for name, variant in grid.items():
        changed = {f.name: getattr(variant, f.name) for f in dataclasses.fields(base)
                   if getattr(variant, f.name) != getattr(base, f.name)}
        assert changed == expected[name], name
    # a zero beta drops the synthesis term and leaves the margin term running
    row = train(tiny_dataset(), grid["no_gss"]).rows[-1]
    assert row["l_s"] == 0.0
    assert row["l_m"] > 0.0


def test_a_grid_entry_reads_caches_only_if_full_does():
    # run_seed builds the caches from the full config alone, and a phase 2 of
    # no epochs reads none
    for alpha, beta, gamma, use_tsd, phase2_epochs in itertools.product(
            (0.0, 0.5), (0.0, 0.5), (0.0, 0.5), (True, False), (0, 3)):
        full = tiny_config(alpha=alpha, beta=beta, gamma=gamma, use_tsd=use_tsd,
                           phase2_epochs=phase2_epochs)
        expected = use_tsd and phase2_epochs > 0 and max(alpha, beta, gamma) > 0
        assert full.needs_cache() == expected, full
        assert any(v.needs_cache() for v in ablation_grid(full).values()) == expected, full


def test_run_seed_without_phase_2_builds_no_saliency_cache(monkeypatch):
    def refuse(*_args):
        raise AssertionError("built a saliency cache for a phase that reads none")

    monkeypatch.setattr(training, "build_saliency_cache", refuse)
    outcome = run_seed(tiny_dataset(), tiny_config(phase1_epochs=1, phase2_epochs=0))
    assert tuple(outcome.variants) == VARIANT_ORDER
    assert all(m == outcome.baseline for m in outcome.variants.values())


def test_a_mix_count_above_the_cloud_size_fails_before_phase_1():
    rows = []
    with pytest.raises(ConfigError, match="mix_count 49 exceeds the dataset's 48 points"):
        train(tiny_dataset(), tiny_config(mix_count=49), progress=rows.append)
    assert rows == []


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


def test_a_clouds_logits_do_not_depend_on_its_place_in_the_split():
    # at one past a chunk multiple the last cloud was scored alone, where
    # numpy's one-row product rounds differently from a pass of two or more
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=40,
                                             points_per_cloud=40))
    records = [r for r in dataset.records if r.known][: training.PREDICT_CHUNK + 1]
    assert len(records) == training.PREDICT_CHUNK + 1
    model = Model(num_known=2, feat_dim=16, point_widths=(16, 24), proj_hidden=(), seed=5)
    one_pass = model.infer_batch([r.points for r in records])
    assert predict_logits(model, records).tobytes() == one_pass.tobytes()


def test_scoring_no_records_gives_no_rows():
    model = Model(num_known=2, feat_dim=8, point_widths=(8,), proj_hidden=(), seed=0)
    logits = predict_logits(model, [])
    assert logits.shape == (0, 3) and logits.dtype == np.float64
    assert training.score_records(model, []) == []
    assert training.score_records(model, [], "msp") == []


def test_report_csv_layout():
    dataset = tiny_dataset()
    result = train(dataset, tiny_config(phase1_epochs=1, phase2_epochs=1))
    text = report_csv_text(result.rows)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,l_cls,l_h,l_s,l_m,total,val_acc"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
