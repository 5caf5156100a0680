"""Margin separation: pseudo-features, triplet assembly, hinge loss."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openset3d import autodiff as ad
from openset3d import training
from openset3d.encoder import Model
from openset3d.margins import (
    RunningStd,
    build_triplet,
    margin_loss,
    pseudo_features,
)
from openset3d.training import TrainConfig

# paper-reported weighting: pos 0.01, neg 1.0, margin 10
POS_W, NEG_W, MARGIN = 0.01, 1.0, 10.0
# the running std before its first update: noise of std = weight
UNIT_STD = np.ones(8)


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
    out = pseudo_features(anchor, [0.0], model, 2, np.random.default_rng(0), UNIT_STD)
    assert np.array_equal(out, anchor)


def test_pseudo_features_can_return_none():
    model = separated_model()
    anchor = model.params["prototypes"][1]
    rng = np.random.default_rng(1)
    results = [
        pseudo_features(anchor, [50.0], model, 1, rng, UNIT_STD) for _ in range(50)
    ]
    assert any(r is None for r in results)  # huge noise: filter empties out sometimes


def test_pseudo_features_acceptance_rate_on_separated_head():
    model = separated_model()
    rng = np.random.default_rng(2)
    accepted = 0
    for _ in range(1000):
        cls = int(rng.integers(4))
        anchor = model.params["prototypes"][cls] + rng.normal(0, 0.01, 8)
        if pseudo_features(anchor, [0.01], model, cls, rng, UNIT_STD) is not None:
            accepted += 1
    assert accepted >= 900


def test_pseudo_features_without_noise_weights_draws_nothing():
    model = separated_model()
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    assert pseudo_features(model.params["prototypes"][0], (), model, 0, rng, UNIT_STD) is None
    assert rng.bit_generator.state == state


def test_pseudo_features_seeded_deterministic():
    model = separated_model()
    anchor = model.params["prototypes"][0] * 2.0
    a = pseudo_features(anchor, [0.1, 0.2], model, 0, np.random.default_rng(7), UNIT_STD)
    b = pseudo_features(anchor, [0.1, 0.2], model, 0, np.random.default_rng(7), UNIT_STD)
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
    """margin_loss of one triplet: a batch of one, every member a tape leaf."""
    tape = ad.Tape()
    rows = (tape.leaf(np.atleast_2d(m)) for m in (anchor, positive, negative))
    return margin_loss(*rows, pos_w, neg_w, margin).item()


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
        leaf = tape.leaf(current[None])
        loss = margin_loss(leaf, tape.leaf(positive[None]), tape.leaf(negative[None]),
                           0.5, 1.0, 1.0)
        tape.backward(loss)
        current = current - 0.01 * leaf.grad[0]
        assert pre_hinge(current) < before  # strict decrease while active


def test_margin_loss_tensor_path_matches_float_path():
    rng = np.random.default_rng(10)
    a, p, n = rng.normal(size=(3, 5, 4))
    plain = np.mean([
        max(0.0, POS_W * np.linalg.norm(ai - pi) - NEG_W * np.linalg.norm(ai - ni) + MARGIN)
        for ai, pi, ni in zip(a, p, n)
    ])
    tape = ad.Tape()
    tensor = margin_loss(tape.leaf(a), tape.leaf(p), tape.leaf(n), POS_W, NEG_W, MARGIN)
    assert tensor.shape == ()
    assert tensor.item() == pytest.approx(plain, abs=1e-12)


def test_margin_loss_validation():
    tape = ad.Tape()
    ones = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        margin_loss(tape.leaf(np.zeros((3, 2))), ones, ones, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        margin_loss(tape.leaf(np.zeros((3, 2))), ones, ones, 0.1, -1.0, 1.0)
    # one non-finite row among the batch's anchors, or among its negatives
    bad = np.zeros((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        margin_loss(tape.leaf(bad), ones, ones, 0.1, 1.0, 1.0)
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        margin_loss(ones, ones, tape.leaf(bad), 0.1, 1.0, 1.0)
    with pytest.raises(TypeError, match="tape"):
        margin_loss(ones, np.ones((3, 2)), ones, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"\(B, d\)"):
        margin_loss(*(tape.leaf(np.ones(2)) for _ in range(3)), 0.1, 1.0, 1.0)


def _closed_form(table, rows, pos_w, neg_w, margin):
    """Mean of the per-triplet hinges and the adjoints of each gathered
    member and of the table, one triplet at a time."""
    n_trip = len(rows[0])
    value = 0.0
    adj = [np.zeros((n_trip, table.shape[1])) for _ in range(3)]
    table_adj = np.zeros_like(table)
    for i, (ai, pi, ni) in enumerate(zip(*rows)):
        a, p, neg = table[ai], table[pi], table[ni]
        d_p = np.sqrt(((a - p) * (a - p)).sum())
        d_n = np.sqrt(((a - neg) * (a - neg)).sum())
        pre = d_p * pos_w + d_n * -neg_w + margin
        value += max(pre, 0.0) / n_trip
        if pre <= 0.0:
            continue
        u_p = (a - p) / d_p if d_p > 1e-12 else np.zeros_like(a)
        u_n = (a - neg) / d_n if d_n > 1e-12 else np.zeros_like(a)
        adj[0][i] = (pos_w * u_p - neg_w * u_n) / n_trip
        adj[1][i] = -pos_w * u_p / n_trip
        adj[2][i] = neg_w * u_n / n_trip
        for row, g in zip((ai, pi, ni), (adj[0][i], adj[1][i], adj[2][i])):
            table_adj[row] += g
    return value, adj, table_adj


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    weights=st.sampled_from([(0.01, 1.0, 10.0), (0.5, 1.0, 0.5), (0.0, 1.0, 0.0),
                             (1.0, 0.5, 0.0)]),
    data=st.data(),
)
def test_margin_loss_is_the_mean_of_per_triplet_hinges(seed, n, d, weights, data):
    # a table [feats; highs; pseudo rows] on a coarse grid, so equal rows
    # (zero distances) and inactive hinges both occur; anchors come from
    # feats, positives from highs or pseudo rows, negatives from feats or
    # pseudo rows, and any row may repeat
    pos_w, neg_w, margin = weights
    rng = np.random.default_rng(seed)
    table = rng.integers(-2, 3, (3 * n, d)) * 0.5
    anchors = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    k = len(anchors)
    positives = data.draw(st.lists(st.integers(n, 3 * n - 1), min_size=k, max_size=k))
    negatives = data.draw(st.lists(
        st.one_of(st.integers(0, n - 1), st.integers(2 * n, 3 * n - 1)),
        min_size=k, max_size=k))
    rows = (anchors, positives, negatives)

    tape = ad.Tape()
    sources = [tape.leaf(table[i * n:(i + 1) * n]) for i in range(3)]
    members = [ad.gather_rows(sources, r) for r in rows]
    loss = margin_loss(*members, pos_w, neg_w, margin)
    tape.backward(loss)

    value, adj, table_adj = _closed_form(table, rows, pos_w, neg_w, margin)
    assert abs(loss.item() - value) <= 1e-12
    for member, expected in zip(members, adj):
        assert np.abs(member.grad - expected).max() <= 1e-12
    for i, source in enumerate(sources):
        block = table_adj[i * n:(i + 1) * n]
        gathered = any(i * n <= r < (i + 1) * n for r in (*anchors, *positives, *negatives))
        if gathered:
            assert np.abs(source.grad - block).max() <= 1e-12
        else:
            assert source.grad is None  # a source nothing was gathered from


# ----------------------------------------------------------------------
# the trainer's margin term against the per-anchor loop it replaced


def _loop_pseudo_features(feature, noise_weights, model, label, rng, feature_std):
    """pseudo_features as it was: one draw of d and one logit check per weight."""
    candidates = []
    for w in noise_weights:
        cand = feature + rng.normal(size=feature.shape) * (float(w) * feature_std)
        if int(model.feature_logits(cand[None])[0].argmax()) == int(label):
            candidates.append(cand)
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def _loop_margin_term(bound, labels, feats, high_feats, config, run_std, rng_sms):
    """The per-anchor loop: one-row members, one scalar hinge per triplet,
    an add chain and a scale. Returns (loss or None, choices)."""
    losses, choices = [], []
    for b in range(len(labels)):
        others = np.flatnonzero(labels != labels[b])
        if others.size == 0:
            continue
        j = int(others[rng_sms.integers(others.size)])
        pseudo = _loop_pseudo_features(feats.data[b], config.noise_weights, bound.model,
                                       labels[b], rng_sms, run_std.value)
        triplet = build_triplet(
            (ad.gather_rows((feats,), [b]), labels[b]), ad.gather_rows((high_feats,), [b]),
            (ad.gather_rows((feats,), [j]), labels[j]), pseudo, config.p_replace, rng_sms,
        )
        choices.append((j, None if pseudo is None else pseudo.tobytes(), triplet.replacement))
        a, p, n = (m if isinstance(m, ad.Tensor) else bound.tape.leaf(m[None])
                   for m in (triplet.anchor, triplet.positive, triplet.negative))
        pre = ad.add_const(ad.add(ad.scale(ad.euclidean(a, p), config.pos_weight),
                                  ad.scale(ad.euclidean(a, n), -config.neg_weight)),
                           config.margin)
        losses.append(ad.sum_all(ad.relu(pre)))  # the one hinge of a batch of one
    if not losses:
        return None, choices
    acc = losses[0]
    for extra in losses[1:]:
        acc = ad.add(acc, extra)
    return ad.scale(acc, 1.0 / len(losses)), choices


def _sms_batch(seed, n=24, dim=8, num_known=4):
    """Class labels and features around a separated head's prototypes; a
    fifth of the labels are wrong, so some anchors get no pseudo-feature."""
    rng = np.random.default_rng(seed)
    model = separated_model(num_known, dim)
    labels = rng.integers(0, num_known, n)
    feats = 2.0 * model.params["prototypes"][labels] + rng.normal(0, 0.4, (n, dim))
    highs = feats + rng.normal(0, 0.5, (n, dim))
    flip = rng.random(n) < 0.2
    labels[flip] = (labels[flip] + 1) % num_known
    return model, labels, feats, highs


@pytest.mark.parametrize("seed,margin", [(0, 10.0), (1, 1.0), (2, 3.0)])
def test_margin_term_makes_the_per_anchor_loops_choices(monkeypatch, seed, margin):
    config = TrainConfig(feat_dim=8, margin=margin)
    model, labels, feats, highs = _sms_batch(seed)
    run_std = RunningStd(8)
    run_std.update(feats)
    batch = [SimpleNamespace(class_index=int(c)) for c in labels]

    # the trainer's choices, read at its calls of pseudo_features and build_triplet
    choices, pending = [], []

    def spy_pseudo(*args, **kwargs):
        out = pseudo_features(*args, **kwargs)
        pending.append(None if out is None else out.tobytes())
        return out

    def spy_triplet(anchor, positive, negative, *rest):
        out = build_triplet(anchor, positive, negative, *rest)
        choices.append((negative[0], pending.pop(), out.replacement))
        return out

    monkeypatch.setattr(training, "pseudo_features", spy_pseudo)
    monkeypatch.setattr(training, "build_triplet", spy_triplet)

    results = []
    for term in ("batched", "loop"):
        tape = ad.Tape()
        bound = model.bind(tape)
        f, h = tape.leaf(feats), tape.leaf(highs)
        rng = np.random.default_rng([seed, 4])
        if term == "batched":
            loss = training._margin_term(bound, batch, f, h, config, run_std, rng)
            picked = choices
        else:
            loss, picked = _loop_margin_term(bound, labels, f, h, config, run_std, rng)
        tape.backward(loss)
        results.append((loss.item(), f.grad, h.grad, picked, rng.bit_generator.state))

    (value, f_grad, h_grad, picked, state), (value0, f_grad0, h_grad0, picked0, state0) = results
    assert picked == picked0 and state == state0
    kinds = {c[2] for c in picked}
    assert kinds == {"none", "positive", "negative"}  # every kind of triplet ran
    assert any(c[1] is None for c in picked) and any(c[1] is not None for c in picked)
    assert abs(value - value0) <= 1e-12 * max(1.0, abs(value0))
    assert np.abs(f_grad - f_grad0).max() <= 1e-12
    assert np.abs(h_grad - h_grad0).max() <= 1e-12


def test_margin_term_of_a_one_class_batch_draws_nothing():
    model, _, feats, highs = _sms_batch(3, n=5)
    tape = ad.Tape()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    batch = [SimpleNamespace(class_index=2)] * 5
    out = training._margin_term(model.bind(tape), batch, tape.leaf(feats), tape.leaf(highs),
                                TrainConfig(feat_dim=8), RunningStd(8), rng)
    assert out is None and rng.bit_generator.state == state


# ----------------------------------------------------------------------
# running std


def test_running_std_starts_at_batch_then_smooths():
    tracker = RunningStd(3)
    assert RunningStd.MOMENTUM == 0.9
    assert np.array_equal(tracker.value, np.ones(3))
    batch1 = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
    tracker.update(batch1)
    assert np.allclose(tracker.value, [1.0, 2.0, 3.0])
    tracker.update(np.zeros((4, 3)))
    assert np.allclose(tracker.value, [0.9, 1.8, 2.7])
