"""Pseudo-unknown synthesis: transforms, label algebra, and the mix op."""

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.saliency import Part
from openset3d.synthesis import (
    TransformParams,
    _yaw_matrix,
    apply_transform,
    mix,
    pseudo_label,
    sample_transform,
)

def invert_transform(points, tp: TransformParams) -> np.ndarray:
    """Undo translate/rotate/scale; jitter is additive noise and stays."""
    pts = np.asarray(points, dtype=np.float64) - tp.offset
    pts = pts @ _yaw_matrix(tp.angle)  # transpose of the forward rotation
    return pts / tp.scale


def gss_loss(logits, soft_label) -> float:
    """The synthesis term of one sample: soft cross-entropy on a tape leaf,
    as a batch of one row."""
    tape = ad.Tape()
    rows = ad.soft_cross_entropy(tape.leaf(np.asarray(logits)[None]),
                                 np.asarray(soft_label)[None])
    return float(rows.data[0])


def random_part(rng, n=20, label=0, source="obj"):
    return Part(points=rng.uniform(-1, 1, (n, 3)), label=label, source_id=source,
                source_indices=np.arange(n))


# ----------------------------------------------------------------------
# standard transforms


def test_transform_seeded_reproducible():
    pts = np.random.default_rng(0).uniform(-1, 1, (15, 3))
    a = apply_transform(pts, sample_transform(15, np.random.default_rng(42)))
    b = apply_transform(pts, sample_transform(15, np.random.default_rng(42)))
    assert np.array_equal(a, b)


def test_transform_identity_configuration():
    pts = np.random.default_rng(1).uniform(-1, 1, (10, 3))
    tp = TransformParams(scale=1.0, angle=0.0, offset=np.zeros(3), jitter=np.zeros((10, 3)))
    assert np.allclose(apply_transform(pts, tp), pts, atol=1e-15)
    out = apply_transform(pts, sample_transform(10, np.random.default_rng(0)))
    assert out.shape == pts.shape


def test_transform_scaling_scales_distance_matrix():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, (12, 3))
    tp = TransformParams(scale=float(rng.uniform(0.8, 1.2)), angle=0.0,
                         offset=np.zeros(3), jitter=np.zeros((12, 3)))
    moved = apply_transform(pts, tp)

    def dists(p):
        return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)

    assert np.allclose(dists(moved), tp.scale * dists(pts), atol=1e-12)


def test_transform_rotation_preserves_distance_matrix():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (12, 3))
    tp = TransformParams(scale=1.0, angle=float(rng.uniform(0.0, 2.0 * np.pi)),
                         offset=rng.uniform(-0.2, 0.2, size=3), jitter=np.zeros((12, 3)))
    moved = apply_transform(pts, tp)

    def dists(p):
        return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)

    assert np.allclose(dists(moved), dists(pts), atol=1e-12)


def test_transform_inverse_round_trip():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (9, 3))
    tp = sample_transform(9, rng)
    moved = apply_transform(pts, tp) - tp.jitter
    assert np.allclose(invert_transform(moved, tp), pts, atol=1e-12)


# ----------------------------------------------------------------------
# pseudo labels


def test_pseudo_label_worked_example():
    label = pseudo_label({0: 2, 1: 1}, num_known=4, eps=0.1, eps_known=0.1, mix_count=3)
    expected = [0.091667, 0.058333, 0.025, 0.025, 0.8]
    assert np.allclose(label, expected, atol=1e-6)
    assert abs(label.sum() - 1.0) <= 1e-9


def test_pseudo_label_no_smoothing_is_one_hot_unknown():
    label = pseudo_label({2: 3}, num_known=5, eps=0.0, eps_known=0.0, mix_count=3)
    assert np.array_equal(label, np.eye(6)[5])


def test_pseudo_label_sums_to_one_randomized():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        counts = {}
        for _ in range(m):
            cls = int(rng.integers(c))
            counts[cls] = counts.get(cls, 0) + 1
        eps = float(rng.uniform(0, 0.4))
        eps_known = float(rng.uniform(0, 0.4))
        label = pseudo_label(counts, c, eps, eps_known, m)
        assert abs(label.sum() - 1.0) <= 1e-9
        assert label.min() >= 0.0
        if eps_known > 0:
            absent = [i for i in range(c) if i not in counts]
            for present in counts:
                for miss in absent:
                    assert label[present] > label[miss]


def test_pseudo_label_unknown_entry_dominates():
    label = pseudo_label({0: 1, 1: 2}, num_known=4, eps=0.15, eps_known=0.2, mix_count=3)
    assert label.argmax() == 4  # eps + eps_known < 0.5 keeps unknown on top


def test_pseudo_label_validation():
    with pytest.raises(ValueError, match="mix_count"):
        pseudo_label({0: 1}, num_known=3, eps=0.1, eps_known=0.1, mix_count=3)
    with pytest.raises(ValueError, match="eps"):
        pseudo_label({0: 3}, num_known=3, eps=0.6, eps_known=0.5, mix_count=3)
    with pytest.raises(ValueError, match="class"):
        pseudo_label({7: 3}, num_known=3, eps=0.1, eps_known=0.1, mix_count=3)


# ----------------------------------------------------------------------
# mix


def test_mix_resamples_to_requested_count():
    rng = np.random.default_rng(6)
    parts = [random_part(rng, 50, 0, "a"), random_part(rng, 50, 1, "b")]
    sample = mix(parts, 100, num_known=4, eps=0.1, eps_known=0.1, rng=rng)
    assert sample.points.shape == (100, 3)
    assert sample.source_counts == {0: 1, 1: 1}


def test_mix_all_parts_same_class():
    rng = np.random.default_rng(7)
    parts = [random_part(rng, 20, 3, f"obj{i}") for i in range(3)]
    sample = mix(parts, 30, num_known=5, eps=0.1, eps_known=0.1, rng=rng)
    assert sample.source_counts == {3: 3}
    assert sample.soft_label[3] == pytest.approx(0.1 / 5 + 0.1)


def test_mix_points_come_from_transformed_union():
    rng = np.random.default_rng(8)
    parts = [random_part(rng, 25, 0, "a"), random_part(rng, 25, 1, "b"),
             random_part(rng, 25, 2, "c")]
    sample = mix(parts, 40, num_known=4, eps=0.1, eps_known=0.1, rng=rng)
    # rebuild the union from provenance and check exact membership
    union = np.vstack([
        apply_transform(parts[i].points, prov.transform)
        for i, prov in enumerate(sample.provenance)
    ])
    restored = sample.points * sample.radius + sample.center
    for row, union_row in zip(restored, sample.resample_indices):
        assert np.allclose(row, union[union_row], atol=1e-9)


def test_mix_inverse_transform_recovers_source_points():
    rng = np.random.default_rng(9)
    parts = [random_part(rng, 30, 0, "a"), random_part(rng, 30, 1, "b")]
    sample = mix(parts, 45, num_known=3, eps=0.1, eps_known=0.1, rng=rng)
    restored = sample.points * sample.radius + sample.center
    for row, union_row in zip(restored, sample.resample_indices):
        part_idx = next(
            i for i, prov in enumerate(sample.provenance)
            if prov.point_range[0] <= union_row < prov.point_range[1]
        )
        prov = sample.provenance[part_idx]
        local = union_row - prov.point_range[0]
        unjittered = row - prov.transform.jitter[local]
        original = invert_transform(unjittered[None], prov.transform)[0]
        assert np.allclose(original, parts[part_idx].points[local], atol=1e-9)


def test_mix_normalizes_output():
    rng = np.random.default_rng(10)
    parts = [random_part(rng, 40, 0, "a"), random_part(rng, 40, 1, "b")]
    sample = mix(parts, 80, num_known=2, eps=0.05, eps_known=0.05, rng=rng)
    radius = np.linalg.norm(sample.points, axis=1).max()
    assert radius <= 1.0 + 1e-12


def test_mix_rejects_duplicate_sources():
    rng = np.random.default_rng(11)
    parts = [random_part(rng, 10, 0, "same"), random_part(rng, 10, 1, "same")]
    with pytest.raises(ValueError, match="distinct"):
        mix(parts, 20, num_known=3, eps=0.1, eps_known=0.1, rng=rng)


def test_mix_rejects_single_part():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="two parts"):
        mix([random_part(rng)], 10, num_known=3, eps=0.1, eps_known=0.1, rng=rng)


def test_mix_rejects_an_empty_part():
    rng = np.random.default_rng(5)
    empty = Part(points=np.zeros((0, 3)), label=1, source_id="empty",
                 source_indices=np.arange(0))
    with pytest.raises(ValueError, match="empty part"):
        mix([random_part(rng), empty], 16, num_known=3, eps=0.1, eps_known=0.1, rng=rng)


# ----------------------------------------------------------------------
# synthesis loss


def test_gss_loss_uniform_logits_one_hot():
    label = np.eye(5)[4]
    assert gss_loss(np.zeros(5), label) == pytest.approx(np.log(5.0), abs=1e-12)


def test_gss_loss_matching_distribution_equals_entropy():
    rng = np.random.default_rng(13)
    logits = rng.uniform(-1, 1, 6)
    probs = np.exp(logits) / np.exp(logits).sum()
    entropy = -(probs * np.log(probs)).sum()
    assert gss_loss(logits, probs) == pytest.approx(entropy, abs=1e-12)


def test_gss_loss_frozen_oracle_value():
    # independent log-sum-exp oracle value for the worked label against
    # logits (0.1, 0.2, 0.3, 0.4, 0.9)
    label = pseudo_label({0: 2, 1: 1}, num_known=4, eps=0.1, eps_known=0.1, mix_count=3)
    loss = gss_loss(np.array([0.1, 0.2, 0.3, 0.4, 0.9]), label)
    assert loss == pytest.approx(1.2734740391623967, abs=1e-4)


def test_gss_loss_gibbs_inequality():
    rng = np.random.default_rng(14)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        logits = rng.uniform(-2, 2, k)
        label = rng.dirichlet(np.ones(k))
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        entropy = -(label * np.log(label)).sum()
        assert gss_loss(logits, label) >= entropy - 1e-9
    # equality iff the softmax matches the label
    logits = rng.uniform(-1, 1, 5)
    probs = np.exp(logits) / np.exp(logits).sum()
    entropy = -(probs * np.log(probs)).sum()
    assert gss_loss(logits, probs) == pytest.approx(entropy, abs=1e-9)


def test_gss_loss_tensor_path_matches_float_path():
    rng = np.random.default_rng(15)
    logits = rng.uniform(-1, 1, 5)
    label = rng.dirichlet(np.ones(5))
    tape = ad.Tape()
    leaf = tape.leaf(logits[None])  # one sample is a batch of one row
    tensor_loss = ad.sum_all(ad.soft_cross_entropy(leaf, label[None]))
    m = logits.max()
    lse = np.log(np.exp(logits - m).sum()) + m
    assert tensor_loss.item() == pytest.approx(lse * label.sum() - (label * logits).sum(),
                                               abs=1e-12)
    tape.backward(tensor_loss)  # differentiable path stays intact
    softmax = np.exp(logits - m) / np.exp(logits - m).sum()
    assert np.allclose(leaf.grad[0], softmax * label.sum() - label, atol=1e-12)
