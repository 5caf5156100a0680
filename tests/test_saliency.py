"""Decomposition module: saliency scores, sorted splits, and partial views."""

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.encoder import Model
from openset3d.saliency import (
    PartialView,
    gradcam_scores,
    hidden_point_removal,
    normalize_scores,
    partial_views,
    saliency_maps_batch,
    split_by_saliency,
    tunable_decompose,
)


def small_model(seed=0):
    return Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(), seed=seed)


def sphere_points(n, rng, radius=1.0):
    v = rng.normal(size=(n, 3))
    return radius * v / np.linalg.norm(v, axis=1, keepdims=True)


# ----------------------------------------------------------------------
# score aggregation


def test_gradcam_hand_example():
    acts = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    grads = np.tile([1.0, -1.0], (3, 1))
    # channel weights (1, -1); weighted sums (1, -2, 0); relu clamps
    assert np.array_equal(gradcam_scores(acts, grads), [1.0, 0.0, 0.0])


def test_gradcam_zero_gradients_give_zero_scores():
    acts = np.random.default_rng(0).uniform(-1, 1, (7, 4))
    assert np.array_equal(gradcam_scores(acts, np.zeros_like(acts)), np.zeros(7))


def test_gradcam_never_negative():
    rng = np.random.default_rng(1)
    for _ in range(30):
        scores = gradcam_scores(rng.normal(size=(9, 5)), rng.normal(size=(9, 5)))
        assert scores.min() >= 0.0


def test_point_feature_gradient_matches_finite_differences():
    # the gradient saliency consumes: d(true-class logit)/d(per-point features),
    # checked on a frozen pool + projection + cosine head with A as the input
    rng = np.random.default_rng(2)
    a0 = rng.uniform(-1, 1, (6, 5)) + 0.1
    w = rng.uniform(-1, 1, (5, 4))
    b = rng.uniform(-1, 1, 4)
    bank = rng.uniform(0.2, 1.0, (3, 4))

    def logit_c(a_value):
        pooled = a_value.max(axis=0)
        feat = pooled @ w + b
        return (feat @ bank[1]) / (np.linalg.norm(feat) * np.linalg.norm(bank[1]))

    tape = ad.Tape()
    a = tape.leaf(a0)
    pooled = ad.max_pool_groups(a, [len(a0)])  # (1, d)
    feat = ad.linear(pooled, tape.leaf(w), tape.leaf(b))
    logits = ad.cosine_logits(feat, tape.leaf(bank))  # (1, 3)
    tape.backward(ad.sum_all(ad.pick_rows(logits, [1])))
    numeric = np.zeros_like(a0)
    h = 1e-6
    for i in range(a0.size):
        up, dn = a0.copy(), a0.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        numeric.flat[i] = (logit_c(up) - logit_c(dn)) / (2 * h)
    err = np.abs(a.grad - numeric) / np.maximum(1.0, np.abs(numeric))
    assert err.max() < 1e-4


def test_saliency_map_on_model_is_nonnegative_and_sized():
    model = small_model()
    rng = np.random.default_rng(3)
    cloud = sphere_points(24, rng)
    scores = saliency_maps_batch(model, [cloud], [1])[0]
    assert scores.shape == (24,)
    assert scores.min() >= 0.0
    normalized = normalize_scores(scores)
    assert normalized.min() >= 0.0 and normalized.max() <= 1.0


def test_saliency_map_rejects_unknown_class():
    model = small_model()
    cloud = sphere_points(10, np.random.default_rng(4))
    with pytest.raises(ValueError, match="class"):
        saliency_maps_batch(model, [cloud], [3])  # 3 == unknown slot for C=3


def test_saliency_batch_rejects_labels_outside_the_known_classes():
    # -1 would wrap onto the unknown logit and C is the unknown logit itself
    model = small_model()
    rng = np.random.default_rng(4)
    clouds = [sphere_points(10, rng) for _ in range(2)]
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"known class indices 0..2, got {bad}"):
            saliency_maps_batch(model, clouds, [0, bad])


def test_saliency_permutation_equivariance():
    model = small_model()
    rng = np.random.default_rng(5)
    cloud = sphere_points(30, rng)
    perm = rng.permutation(30)
    base = saliency_maps_batch(model, [cloud], [0])[0]
    permuted = saliency_maps_batch(model, [cloud[perm]], [0])[0]
    assert np.allclose(base[perm], permuted, rtol=0, atol=1e-12)


def test_saliency_batch_matches_single():
    model = small_model()
    rng = np.random.default_rng(6)
    clouds = [sphere_points(n, rng) for n in (8, 12, 5)]
    labels = [0, 1, 2]
    batch = saliency_maps_batch(model, clouds, labels)
    for cloud, label, scores in zip(clouds, labels, batch):
        single = saliency_maps_batch(model, [cloud], [label])[0]
        assert np.allclose(scores, single, rtol=0, atol=1e-12)


def test_normalize_scores_constant_collapses_to_zero():
    assert np.array_equal(normalize_scores(np.full(5, 3.3)), np.zeros(5))
    spread = normalize_scores(np.array([1.0, 3.0, 2.0]))
    assert spread.min() == 0.0 and spread.max() == 1.0


# ----------------------------------------------------------------------
# sorted split


def test_split_floor_sizes():
    scores = np.arange(10.0)
    low, high = split_by_saliency(scores, 3)
    assert len(low) == 3 and len(high) == 7


def test_split_all_equal_takes_lowest_indices():
    low, _ = split_by_saliency(np.zeros(9), 3)
    assert np.array_equal(low, [0, 1, 2])


def test_split_hand_case():
    # scores (5,1,4,2,3,0): ascending order is indices 5,1,3,4,2,0 and
    # floor(6/3) = 2, so the low part holds indices {1, 5} (scores 1, 0)
    low, _ = split_by_saliency(np.array([5.0, 1.0, 4.0, 2.0, 3.0, 0.0]), 3)
    assert set(low.tolist()) == {1, 5}


def test_split_rejects_small_clouds():
    with pytest.raises(ValueError):
        split_by_saliency(np.ones(2), 3)
    with pytest.raises(ValueError):
        split_by_saliency(np.ones(5), 1)


def test_split_partition_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(4, 200))
        mix_count = int(rng.integers(2, min(n, 8) + 1))
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        low, high = split_by_saliency(scores, mix_count)
        assert len(low) == n // mix_count
        assert len(np.intersect1d(low, high)) == 0
        assert len(np.union1d(low, high)) == n
        if len(low):
            assert scores[low].max() <= scores[high].min()


# ----------------------------------------------------------------------
# partial views


def test_partial_views_rejects_tiny_clouds():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="4 points"):
        partial_views(np.zeros((1, 3)), np.zeros(1), 2, rng)


def test_partial_views_uniform_saliency_scores_half():
    rng = np.random.default_rng(10)
    cloud = sphere_points(100, rng)
    views = partial_views(cloud, np.full(100, 0.5), 4, rng)
    assert all(v.overall_score == pytest.approx(0.5) for v in views)


def test_partial_views_indices_are_original_points():
    rng = np.random.default_rng(11)
    cloud = sphere_points(80, rng)
    for view in partial_views(cloud, np.linspace(0, 1, 80), 6, rng):
        assert view.indices.min() >= 0 and view.indices.max() < 80
        assert len(np.unique(view.indices)) == len(view.indices)


def test_partial_views_seed_reproducible():
    cloud = sphere_points(60, np.random.default_rng(12))
    sal = np.linspace(0, 1, 60)
    a = partial_views(cloud, sal, 5, np.random.default_rng(99))
    b = partial_views(cloud, sal, 5, np.random.default_rng(99))
    for va, vb in zip(a, b):
        assert np.array_equal(va.indices, vb.indices)
        assert va.overall_score == vb.overall_score


def test_partial_views_degenerate_fallback_flagged():
    # collinear points: the flipped cloud is coplanar with the camera, so
    # the hull degenerates and the plane-crop fallback must kick in
    rng = np.random.default_rng(13)
    line = np.outer(np.linspace(-1, 1, 30), np.array([1.0, 0.5, -0.25]))
    views = partial_views(line, np.full(30, 0.5), 3, rng)
    assert all(v.used_fallback for v in views)
    assert all(len(v.indices) > 0 for v in views)


def test_hidden_point_removal_sphere_band():
    rng = np.random.default_rng(14)
    cloud = sphere_points(500, rng)
    visible = hidden_point_removal(cloud, np.array([3.0, 0.0, 0.0]))
    frac = len(visible) / 500
    assert 0.35 <= frac <= 0.65
    # visible points should sit mostly on the camera side
    assert cloud[visible, 0].mean() > 0.2


# ----------------------------------------------------------------------
# tunable decomposition


def make_views(scores):
    return [PartialView(indices=np.arange(5 + i), overall_score=s) for i, s in enumerate(scores)]


def test_tunable_decompose_limits_reproduce_pure_split():
    rng = np.random.default_rng(15)
    cloud = sphere_points(30, rng)
    raw = rng.random(30)
    views = make_views([0.1, 0.5, 0.9])
    high, low = tunable_decompose(cloud, raw, 3, 1.0, 0.0, views, rng,
                                  label=2, source_id="obj")
    base_low, base_high = split_by_saliency(raw, 3)
    assert np.array_equal(low.source_indices, base_low)
    assert np.array_equal(high.source_indices, base_high)
    assert np.array_equal(low.points, cloud[base_low])
    assert low.label == 2 and low.source_id == "obj"


def test_tunable_decompose_replaces_both_parts():
    rng = np.random.default_rng(16)
    cloud = sphere_points(20, rng)
    raw = rng.random(20)
    views = make_views([0.2, 0.9])
    high, low = tunable_decompose(cloud, raw, 4, 0.8, 0.3, views, rng)
    assert len(high.points) == len(views[1].indices)  # 0.9 > 0.8: high <- that view
    assert len(low.points) == len(views[0].indices)  # 0.2 < 0.3: low <- that view
    assert np.array_equal(high.source_indices, views[1].indices)
    assert np.array_equal(low.source_indices, views[0].indices)


def test_tunable_decompose_near_limit_thresholds_replace_everything():
    rng = np.random.default_rng(17)
    cloud = sphere_points(20, rng)
    raw = rng.random(20)
    views = make_views([0.4, 0.6])
    eps = 1e-9
    high, low = tunable_decompose(cloud, raw, 4, 0.0 + eps, 1.0 - eps, views, rng)
    lengths = {len(v.indices) for v in views}
    assert len(high.points) in lengths and len(low.points) in lengths


def test_tunable_decompose_validates_thresholds():
    rng = np.random.default_rng(18)
    cloud = sphere_points(12, rng)
    raw = np.ones(12)
    with pytest.raises(ValueError, match="threshold"):
        tunable_decompose(cloud, raw, 3, 1.3, 0.6, [], rng)
    with pytest.raises(ValueError, match="threshold"):
        tunable_decompose(cloud, raw, 3, 0.8, -0.1, [], rng)
