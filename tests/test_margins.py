"""Margin separation: pseudo-features, triplet assembly, hinge loss."""

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.encoder import Model
from openset3d.margins import (
    RunningStd,
    Triplet,
    build_triplet,
    margin_loss,
    pseudo_features,
)

# paper-reported weighting: pos 0.01, neg 1.0, margin 10
POS_W, NEG_W, MARGIN = 0.01, 1.0, 10.0


def separated_model(num_known=4, dim=8):
    """Head whose prototypes are orthonormal axes: trivially well-trained."""
    model = Model(num_known=num_known, feat_dim=dim, point_widths=(4, 6),
                  proj_hidden=(), seed=0)
    bank = np.zeros((num_known + 1, dim))
    for i in range(num_known + 1):
        bank[i, i] = 1.0
    model.params["prototypes"] = bank
    return model


# ----------------------------------------------------------------------
# pseudo features


def test_pseudo_features_zero_weight_is_identity():
    model = separated_model()
    anchor = model.params["prototypes"][2] * 3.0  # correctly classified by construction
    out = pseudo_features(anchor, [0.0], model, 2, np.random.default_rng(0))
    assert np.array_equal(out, anchor)


def test_pseudo_features_can_return_none():
    model = separated_model()
    anchor = model.params["prototypes"][1]
    rng = np.random.default_rng(1)
    results = [
        pseudo_features(anchor, [50.0], model, 1, rng) for _ in range(50)
    ]
    assert any(r is None for r in results)  # huge noise: filter empties out sometimes


def test_pseudo_features_acceptance_rate_on_separated_head():
    model = separated_model()
    rng = np.random.default_rng(2)
    accepted = 0
    for _ in range(1000):
        cls = int(rng.integers(4))
        anchor = model.params["prototypes"][cls] + rng.normal(0, 0.01, 8)
        if pseudo_features(anchor, [0.01], model, cls, rng) is not None:
            accepted += 1
    assert accepted >= 900


def test_pseudo_features_seeded_deterministic():
    model = separated_model()
    anchor = model.params["prototypes"][0] * 2.0
    a = pseudo_features(anchor, [0.1, 0.2], model, 0, np.random.default_rng(7))
    b = pseudo_features(anchor, [0.1, 0.2], model, 0, np.random.default_rng(7))
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# triplet assembly


def test_build_triplet_no_replacement_when_p_zero():
    rng = np.random.default_rng(3)
    anchor, pos, neg = np.ones(4), np.full(4, 2.0), np.full(4, 3.0)
    t = build_triplet((anchor, 0), pos, (neg, 1), np.zeros(4), 0.0, rng)
    assert t.replacement == "none"
    assert np.array_equal(t.positive, pos) and np.array_equal(t.negative, neg)


def test_build_triplet_no_replacement_without_pseudo():
    rng = np.random.default_rng(4)
    t = build_triplet((np.ones(4), 0), np.ones(4), (np.zeros(4), 2), None, 1.0, rng)
    assert t.replacement == "none"


def test_build_triplet_rejects_same_class_negative():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="different class"):
        build_triplet((np.ones(4), 1), np.ones(4), (np.zeros(4), 1), None, 0.5, rng)


def test_build_triplet_replacement_split_is_binomial():
    rng = np.random.default_rng(6)
    pseudo = np.full(4, 9.0)
    counts = {"positive": 0, "negative": 0}
    for _ in range(10_000):
        t = build_triplet((np.ones(4), 0), np.ones(4), (np.zeros(4), 1), pseudo, 1.0, rng)
        counts[t.replacement] += 1
    assert counts["positive"] + counts["negative"] == 10_000
    # fair coin: within 3 sigma = 150 of the 5000/5000 split
    assert abs(counts["positive"] - 5000) <= 150


# ----------------------------------------------------------------------
# margin loss


def hinge(anchor, positive, negative, pos_w=POS_W, neg_w=NEG_W, margin=MARGIN):
    """margin_loss of a triplet whose anchor is a tape leaf; the array
    members become constant leaves, as a pseudo-feature does in training."""
    tape = ad.Tape()
    triplet = Triplet(tape.leaf(anchor), positive, negative, "none")
    return margin_loss(triplet, pos_w, neg_w, margin).item()


def test_margin_loss_paper_weighted_example():
    # d(a,p) = 2, d(a,n) = 5 -> 0.01*2 - 1.0*5 + 10 = 5.02
    assert hinge(np.zeros(1), np.array([2.0]), np.array([5.0])) == pytest.approx(
        5.02, abs=1e-12)


def test_margin_loss_clamps_at_zero():
    assert hinge(np.zeros(1), np.array([1.0]), np.array([1000.0])) == 0.0


def test_margin_loss_degenerate_triplet_equals_margin():
    a = np.array([0.3, -0.4])
    assert hinge(a, a.copy(), a.copy()) == pytest.approx(MARGIN)


def test_margin_loss_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        assert hinge(rng.normal(size=6), rng.normal(size=6), rng.normal(size=6)) >= 0.0


def test_margin_loss_monotonicity():
    rng = np.random.default_rng(8)
    anchor = rng.normal(size=5)
    direction = rng.normal(size=5)
    direction /= np.linalg.norm(direction)
    negative = anchor + 2.0 * direction
    # moving the positive farther from the anchor never lowers the loss
    values = [hinge(anchor, anchor + dist * direction, negative, 0.5, 1.0, 2.0)
              for dist in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # moving the negative farther never raises it
    positive = anchor + 0.5 * direction
    values = [hinge(anchor, positive, anchor + dist * direction, 0.5, 1.0, 2.0)
              for dist in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_margin_loss_gradient_steps_shrink_active_hinge():
    rng = np.random.default_rng(9)
    anchor = rng.normal(size=6)
    positive = anchor + rng.normal(0, 2.0, 6)
    negative = anchor + rng.normal(0, 0.1, 6)

    def pre_hinge(a):
        return (0.5 * np.linalg.norm(a - positive)
                - 1.0 * np.linalg.norm(a - negative) + 1.0)

    assert pre_hinge(anchor) > 0  # hinge starts active
    current = anchor.copy()
    for _ in range(100):
        before = pre_hinge(current)
        if before <= 0:
            break
        tape = ad.Tape()
        leaf = tape.leaf(current)
        t = Triplet(leaf, tape.leaf(positive), tape.leaf(negative), "none")
        loss = margin_loss(t, 0.5, 1.0, 1.0)
        tape.backward(loss)
        current = current - 0.01 * leaf.grad
        assert pre_hinge(current) < before  # strict decrease while active


def test_margin_loss_tensor_path_matches_float_path():
    rng = np.random.default_rng(10)
    a, p, n = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    plain = max(0.0, POS_W * np.linalg.norm(a - p) - NEG_W * np.linalg.norm(a - n) + MARGIN)
    tape = ad.Tape()
    tensor = margin_loss(Triplet(tape.leaf(a), p, (tape.leaf(n)), "none"),
                         POS_W, NEG_W, MARGIN)
    assert tensor.item() == pytest.approx(plain, abs=1e-12)


def test_margin_loss_validation():
    tape = ad.Tape()
    t = Triplet(tape.leaf(np.zeros(2)), np.ones(2), np.ones(2), "none")
    with pytest.raises(ValueError, match="nonnegative"):
        margin_loss(t, -0.1, 1.0, 1.0)
    bad = Triplet(tape.leaf(np.array([np.nan, 0.0])), np.ones(2), np.ones(2), "none")
    with pytest.raises(ValueError, match="finite"):
        margin_loss(bad, 0.1, 1.0, 1.0)
    with pytest.raises(TypeError, match="tape"):
        margin_loss(Triplet(np.zeros(2), np.ones(2), np.ones(2), "none"), 0.1, 1.0, 1.0)


# ----------------------------------------------------------------------
# running std


def test_running_std_starts_at_batch_then_smooths():
    tracker = RunningStd(3, momentum=0.5)
    assert np.array_equal(tracker.value, np.ones(3))
    batch1 = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
    tracker.update(batch1)
    assert np.allclose(tracker.value, [1.0, 2.0, 3.0])
    tracker.update(np.zeros((4, 3)))
    assert np.allclose(tracker.value, [0.5, 1.0, 1.5])
