"""Pseudo-unknown synthesis: transforms, label algebra, and the batched mix op."""

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.saliency import Part
from openset3d.synthesis import (
    JITTER_CLIP,
    JITTER_SIGMA,
    MAX_OFFSET,
    SCALE_RANGE,
    apply_transforms,
    mix,
    pseudo_label,
)
from openset3d.training import TrainConfig, draw_synthetic


def invert_transform(points, scale, angle, offset) -> np.ndarray:
    """Undo translate/rotate/scale; jitter is additive noise and stays."""
    c, s = np.cos(angle), np.sin(angle)
    pts = np.asarray(points, dtype=np.float64) - offset
    unrotated = np.stack([pts[:, 0] * c + pts[:, 1] * s,
                          -pts[:, 0] * s + pts[:, 1] * c, pts[:, 2]], axis=1)
    return unrotated / scale


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


def random_groups(rng, sizes, num_known=4):
    """One group per row of `sizes`, each part from its own source."""
    return [[random_part(rng, n, int(rng.integers(num_known)), f"s{i}/p{m}")
             for m, n in enumerate(row)] for i, row in enumerate(sizes)]


def replay(groups, synth, s):
    """Sample s's (union, points) rebuilt from its provenance alone, with the
    arithmetic SyntheticBatch documents."""
    jitter = synth.jitter[synth.union_start[s] : synth.union_start[s + 1]]
    union = np.vstack([
        apply_transforms(part.points, synth.scale[s, m], synth.angle[s, m],
                         synth.offset[s, m], jitter[lo:hi])
        for m, (part, (lo, hi)) in enumerate(zip(groups[s], synth.point_range[s]))
    ])
    return union, (union[synth.resample_indices[s]] - synth.center[s]) / synth.radius[s]


# ----------------------------------------------------------------------
# transforms


def test_transform_seeded_reproducible():
    rng = np.random.default_rng(0)
    groups = random_groups(rng, [(15, 12), (9, 20)])
    a = mix(groups, 24, 4, 0.1, 0.1, np.random.default_rng(42))
    b = mix(groups, 24, 4, 0.1, 0.1, np.random.default_rng(42))
    for field in ("points", "scale", "angle", "offset", "jitter", "resample_indices"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_transform_identity_configuration():
    pts = np.random.default_rng(1).uniform(-1, 1, (10, 3))
    assert np.array_equal(apply_transforms(pts, 1.0, 0.0, np.zeros(3), np.zeros((10, 3))), pts)
    out = apply_transforms(pts, 1.1, 0.3, np.full(3, 0.1), np.zeros((10, 3)))
    assert out.shape == pts.shape


def test_transform_scaling_scales_distance_matrix():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, (12, 3))
    scale = float(rng.uniform(0.8, 1.2))
    moved = apply_transforms(pts, scale, 0.0, np.zeros(3), np.zeros((12, 3)))

    def dists(p):
        return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)

    assert np.allclose(dists(moved), scale * dists(pts), atol=1e-12)


def test_transform_rotation_preserves_distance_matrix():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (12, 3))
    moved = apply_transforms(pts, 1.0, float(rng.uniform(0.0, 2.0 * np.pi)),
                             rng.uniform(-0.2, 0.2, size=3), np.zeros((12, 3)))

    def dists(p):
        return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)

    assert np.allclose(dists(moved), dists(pts), atol=1e-12)
    assert np.array_equal(moved[:, 2] - moved[0, 2], pts[:, 2] - pts[0, 2])  # yaw keeps z


def test_transform_inverse_round_trip():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (9, 3))
    groups = [[Part(pts, 0, "a"), random_part(rng, 5, 1, "b")]]
    synth = mix(groups, 14, 2, 0.1, 0.1, rng)
    scale, angle, offset = synth.scale[0, 0], synth.angle[0, 0], synth.offset[0, 0]
    jitter = synth.jitter[:9]
    moved = apply_transforms(pts, scale, angle, offset, jitter) - jitter
    assert np.allclose(invert_transform(moved, scale, angle, offset), pts, atol=1e-12)


def test_per_part_draws_stay_in_their_ranges():
    rng = np.random.default_rng(16)
    synth = mix(random_groups(rng, [(30, 30, 30)] * 40), 64, 4, 0.1, 0.1, rng)
    assert SCALE_RANGE[0] <= synth.scale.min() and synth.scale.max() < SCALE_RANGE[1]
    assert 0.0 <= synth.angle.min() and synth.angle.max() < 2.0 * np.pi
    assert np.abs(synth.offset).max() < MAX_OFFSET
    assert np.abs(synth.jitter).max() <= JITTER_CLIP
    assert 0.8 * JITTER_SIGMA < synth.jitter.std() < 1.2 * JITTER_SIGMA


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
    synth = mix([parts], 100, num_known=4, eps=0.1, eps_known=0.1, rng=rng)
    assert synth.points.shape == (1, 100, 3)
    assert synth.part_labels.tolist() == [[0, 1]]


def test_mix_all_parts_same_class():
    rng = np.random.default_rng(7)
    parts = [random_part(rng, 20, 3, f"obj{i}") for i in range(3)]
    synth = mix([parts], 30, num_known=5, eps=0.1, eps_known=0.1, rng=rng)
    assert synth.part_labels.tolist() == [[3, 3, 3]]
    assert synth.soft_labels[0, 3] == pytest.approx(0.1 / 5 + 0.1)


def test_mix_points_come_from_transformed_union():
    rng = np.random.default_rng(8)
    groups = random_groups(rng, [(25, 25, 25), (10, 40, 7), (3, 3, 30)])
    synth = mix(groups, 40, num_known=4, eps=0.1, eps_known=0.1, rng=rng)
    for s in range(len(groups)):
        union, _ = replay(groups, synth, s)
        restored = synth.points[s] * synth.radius[s] + synth.center[s]
        assert np.allclose(restored, union[synth.resample_indices[s]], atol=1e-9)
        assert np.allclose(synth.center[s], union.mean(axis=0), atol=1e-12)
        assert synth.radius[s] == pytest.approx(
            np.linalg.norm(union - synth.center[s], axis=1).max(), abs=1e-12)


def test_mix_replays_each_sample_bit_for_bit():
    rng = np.random.default_rng(17)
    sizes = rng.integers(1, 60, size=(12, 3))
    groups = random_groups(rng, sizes)
    synth = mix(groups, 48, num_known=4, eps=0.1, eps_known=0.1, rng=rng)
    assert synth.points.shape == (12, 48, 3)
    assert np.array_equal(np.diff(synth.union_start), sizes.sum(axis=1))
    for s in range(len(groups)):
        _, points = replay(groups, synth, s)
        assert np.array_equal(points, synth.points[s])
        assert synth.source_ids[s] == [p.source_id for p in groups[s]]
        for m, part in enumerate(groups[s]):
            assert synth.source_indices[s][m] is part.source_indices


def test_mix_inverse_transform_recovers_source_points():
    rng = np.random.default_rng(9)
    groups = random_groups(rng, [(30, 30), (12, 50)], num_known=3)
    synth = mix(groups, 45, num_known=3, eps=0.1, eps_known=0.1, rng=rng)
    for s, parts in enumerate(groups):
        jitter = synth.jitter[synth.union_start[s] : synth.union_start[s + 1]]
        restored = synth.points[s] * synth.radius[s] + synth.center[s]
        for row, union_row in zip(restored, synth.resample_indices[s]):
            m = next(m for m, (lo, hi) in enumerate(synth.point_range[s]) if lo <= union_row < hi)
            local = union_row - synth.point_range[s, m, 0]
            original = invert_transform((row - jitter[union_row])[None], synth.scale[s, m],
                                        synth.angle[s, m], synth.offset[s, m])[0]
            assert np.allclose(original, parts[m].points[local], atol=1e-9)


def test_mix_normalizes_output():
    rng = np.random.default_rng(10)
    groups = random_groups(rng, [(40, 40)] * 5, num_known=2)
    synth = mix(groups, 80, num_known=2, eps=0.05, eps_known=0.05, rng=rng)
    radius = np.linalg.norm(synth.points, axis=2).max(axis=1)
    assert (radius <= 1.0 + 1e-12).all()


def test_mix_resamples_with_replacement_only_below_n_out():
    rng = np.random.default_rng(18)
    n_out = 30
    # unions of n_out - 1, n_out and n_out + 1 rows, twice over
    groups = random_groups(rng, [(14, 15), (15, 15), (15, 16)] * 2)
    synth = mix(groups, n_out, num_known=4, eps=0.1, eps_known=0.1, rng=rng)
    for s, size in enumerate([29, 30, 31] * 2):
        kept = synth.resample_indices[s]
        assert kept.min() >= 0 and kept.max() < size
        assert np.array_equal(kept, np.sort(kept))
        distinct = len(np.unique(kept))
        assert distinct < n_out if size < n_out else distinct == n_out
    assert np.array_equal(synth.resample_indices[1], np.arange(n_out))  # all of an n_out union


def test_mix_soft_labels_equal_pseudo_label_of_the_counts():
    rng = np.random.default_rng(19)
    groups = random_groups(rng, [(8, 9, 10)] * 30, num_known=3)
    synth = mix(groups, 20, num_known=3, eps=0.15, eps_known=0.2, rng=rng)
    for s, parts in enumerate(groups):
        counts = {}
        for part in parts:
            counts[part.label] = counts.get(part.label, 0) + 1
        assert synth.part_labels[s].tolist() == [p.label for p in parts]
        assert np.array_equal(synth.soft_labels[s], pseudo_label(counts, 3, 0.15, 0.2, 3))


def test_mix_draws_in_the_documented_order():
    rng = np.random.default_rng(20)
    groups = random_groups(rng, [(12, 13), (30, 30)])  # 25 rows < 26 <= 60 rows
    synth = mix(groups, 26, 4, 0.1, 0.1, np.random.default_rng(5))
    twin = np.random.default_rng(5)
    rows = twin.uniform(size=(4, 5))
    jitter = np.clip(twin.normal(0.0, JITTER_SIGMA, size=(85, 3)), -JITTER_CLIP, JITTER_CLIP)
    keys = twin.random(60)  # only the sample drawn without replacement has keys
    with_replacement = np.sort(twin.integers(0, 25, size=26))
    assert np.allclose(synth.scale.ravel(), 0.8 + 0.4 * rows[:, 0], atol=1e-15)
    assert np.allclose(synth.angle.ravel(), 2.0 * np.pi * rows[:, 1], atol=1e-15)
    assert np.allclose(synth.offset.reshape(4, 3), -0.2 + 0.4 * rows[:, 2:], atol=1e-15)
    assert np.array_equal(synth.jitter, jitter)
    assert np.array_equal(synth.resample_indices[0], with_replacement)
    assert np.array_equal(synth.resample_indices[1], np.sort(np.argsort(keys)[:26]))


def test_draw_synthetic_mixes_distinct_lows_per_sample():
    rng = np.random.default_rng(21)
    lows = [random_part(rng, 10, i % 4, f"obj{i}") for i in range(6)]
    config = TrainConfig(mix_count=3)
    synth = draw_synthetic(lows, 32, 4, config, np.random.default_rng(3), 200)
    assert synth.points.shape == (200, 32, 3)
    ids = np.array(synth.source_ids)
    assert all(len(set(row)) == 3 for row in ids)
    assert set(ids.ravel()) == {p.source_id for p in lows}  # every low gets picked
    with pytest.raises(ValueError, match="need 3 low parts"):
        draw_synthetic(lows[:2], 32, 4, config, rng, 1)


def test_mix_rejects_duplicate_sources():
    rng = np.random.default_rng(11)
    good = [random_part(rng, 10, 0, "x"), random_part(rng, 10, 1, "y")]
    parts = [random_part(rng, 10, 0, "same"), random_part(rng, 10, 1, "same")]
    with pytest.raises(ValueError, match="distinct"):
        mix([good, parts], 20, num_known=3, eps=0.1, eps_known=0.1, rng=rng)


def test_mix_rejects_single_part():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="two parts"):
        mix([[random_part(rng)]], 10, num_known=3, eps=0.1, eps_known=0.1, rng=rng)


def test_mix_rejects_an_empty_part():
    rng = np.random.default_rng(5)
    empty = Part(points=np.zeros((0, 3)), label=1, source_id="empty",
                 source_indices=np.arange(0))
    with pytest.raises(ValueError, match="empty part"):
        mix([[random_part(rng), empty]], 16, num_known=3, eps=0.1, eps_known=0.1, rng=rng)


def test_mix_rejects_uneven_groups_and_unknown_classes():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError, match="same number of parts"):
        mix(random_groups(rng, [(5, 5), (5, 5, 5)]), 8, 4, 0.1, 0.1, rng)
    with pytest.raises(ValueError, match="outside the known range"):
        mix([[random_part(rng, 5, 0, "a"), random_part(rng, 5, 4, "b")]], 8, 4, 0.1, 0.1, rng)
    with pytest.raises(ValueError, match="at least one group"):
        mix([], 8, 4, 0.1, 0.1, rng)


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
