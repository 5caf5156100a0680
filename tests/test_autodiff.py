"""Gradient and determinism checks for the tape engine.

Every differentiable op is compared against central finite differences on
random inputs kept away from relu/max kinks. Worked-example expectations
were recomputed with the independent oracles stated next to them.
"""

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.encoder import Model
from openset3d.metrics import mls_score, msp_score

RTOL = 1e-4


def rel_err(a, n):
    return np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))


def numeric_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up.flat[i] += h
        dn = x.copy()
        dn.flat[i] -= h
        g.flat[i] = (f(up) - f(dn)) / (2 * h)
    return g


# ----------------------------------------------------------------------
# linear


def test_linear_identity_weights():
    tape = ad.Tape()
    out = ad.linear(tape.leaf([[1.0, 2.0]]), tape.leaf([[1.0, 0.0], [0.0, 1.0]]),
                    tape.leaf([0.0, 0.0]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_zero_weights_pass_bias():
    tape = ad.Tape()
    out = ad.linear(tape.leaf([[1.0, 2.0]]), tape.leaf(np.zeros((2, 2))),
                    tape.leaf([3.0, 4.0]))
    assert np.array_equal(out.data, [[3.0, 4.0]])


def test_linear_hand_product():
    tape = ad.Tape()
    out = ad.linear(tape.leaf([[1.0, 1.0]]), tape.leaf([[2.0, 3.0], [4.0, 5.0]]),
                    tape.leaf([1.0, 1.0]))
    assert np.array_equal(out.data, [[7.0, 9.0]])


def test_linear_shape_mismatch_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="shape"):
        ad.linear(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 2))),
                  tape.leaf(np.ones(2)))


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1, 1, (4, 3))
    w0 = rng.uniform(-1, 1, (3, 5))
    b0 = rng.uniform(-1, 1, 5)
    weights = rng.uniform(-1, 1, (4, 5))

    for wrt in range(3):
        def run(values):
            parts = [x0, w0, b0]
            parts[wrt] = values
            return (parts[0] @ parts[1] + parts[2]) * weights

        tape = ad.Tape()
        leaves = [tape.leaf(x0), tape.leaf(w0), tape.leaf(b0)]
        loss = ad.sum_all(ad.mul_const(ad.linear(*leaves), weights))
        tape.backward(loss)
        numeric = numeric_grad(lambda v: run(v).sum(), [x0, w0, b0][wrt])
        assert rel_err(leaves[wrt].grad, numeric).max() < RTOL


# ----------------------------------------------------------------------
# relu


def test_relu_values():
    tape = ad.Tape()
    out = ad.relu(tape.leaf([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_positive_unchanged():
    tape = ad.Tape()
    vals = np.array([0.5, 1.5, 7.0])
    assert np.array_equal(ad.relu(tape.leaf(vals)).data, vals)


def test_relu_gradient_routing():
    tape = ad.Tape()
    x = tape.leaf([-1.0, 2.0])
    loss = ad.sum_all(ad.mul_const(ad.relu(x), [3.0, 5.0]))
    tape.backward(loss)
    assert x.grad[0] == 0.0  # blocked where x < 0
    assert x.grad[1] == 5.0  # upstream adjoint where x > 0
    numeric = numeric_grad(lambda v: (np.maximum(v, 0) * [3.0, 5.0]).sum(), [-1.0, 2.0])
    assert rel_err(x.grad, numeric).max() < RTOL


# ----------------------------------------------------------------------
# max pooling


def test_max_pool_values():
    tape = ad.Tape()
    out = ad.max_pool_groups(tape.leaf([[1.0, 5.0], [3.0, 2.0]]), [2])
    assert np.array_equal(out.data, [[3.0, 5.0]])


def test_max_pool_single_row_identity():
    tape = ad.Tape()
    row = np.array([[0.3, -0.7, 2.0]])
    assert np.array_equal(ad.max_pool_groups(tape.leaf(row), [1]).data, row)


def test_max_pool_empty_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="at least one row"):
        ad.max_pool_groups(tape.leaf(np.zeros((0, 3))), [0])


def test_max_pool_tie_routes_to_lowest_index():
    tied = np.array([[1.0, 4.0], [1.0, 2.0], [0.5, 4.0]])
    tape = ad.Tape()
    x = tape.leaf(tied)
    loss = ad.sum_all(ad.mul_const(ad.max_pool_groups(x, [3]), [1.0, 1.0]))
    tape.backward(loss)
    # column 0 ties rows 0 and 1; column 1 ties rows 0 and 2: row 0 wins both
    assert np.array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    # finite differences agree once the tie is nudged by 1e-7 toward the winner
    # (the step must stay below the nudge for the argmax to hold)
    nudged = tied.copy()
    nudged[0] += 1e-7
    numeric = numeric_grad(lambda v: v.max(axis=0).sum(), nudged, h=1e-8)
    assert rel_err(x.grad, numeric).max() < RTOL


def test_max_pool_groups_matches_per_cloud_pooling():
    rng = np.random.default_rng(1)
    sizes = [3, 5, 2]
    blocks = [rng.uniform(-1, 1, (n, 4)) for n in sizes]
    tape = ad.Tape()
    stacked = tape.leaf(np.vstack(blocks))
    pooled = ad.max_pool_groups(stacked, sizes)
    expected = np.stack([b.max(axis=0) for b in blocks])
    assert np.array_equal(pooled.data, expected)
    weights = rng.uniform(-1, 1, pooled.shape)
    loss = ad.sum_all(ad.mul_const(pooled, weights))
    tape.backward(loss)
    numeric = numeric_grad(
        lambda v: sum(
            (v[sum(sizes[:i]) : sum(sizes[: i + 1])].max(axis=0) * weights[i]).sum()
            for i in range(len(sizes))
        ),
        np.vstack(blocks),
    )
    assert rel_err(stacked.grad, numeric).max() < RTOL


# ----------------------------------------------------------------------
# cosine similarity head


def test_cosine_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    f0 = rng.uniform(0.3, 1.0, 6) * rng.choice([-1.0, 1.0], 6)
    bank0 = rng.uniform(0.3, 1.0, (4, 6)) * rng.choice([-1.0, 1.0], (4, 6))
    weights = rng.uniform(-1, 1, 4)

    def value(f, bank):
        z = (bank @ f) / (np.linalg.norm(f) * np.linalg.norm(bank, axis=1))
        return (z * weights).sum()

    tape = ad.Tape()
    f = tape.leaf(f0[None])  # one feature is a batch of one row
    bank = tape.leaf(bank0)
    loss = ad.sum_all(ad.mul_const(ad.cosine_logits(f, bank), weights))
    tape.backward(loss)
    assert rel_err(f.grad[0], numeric_grad(lambda v: value(v, bank0), f0)).max() < RTOL
    assert rel_err(bank.grad, numeric_grad(lambda v: value(f0, v), bank0)).max() < RTOL


def test_cosine_batched_matches_single():
    """Row i of a batch equals that row computed as a batch of one."""
    rng = np.random.default_rng(3)
    feats = rng.uniform(-1, 1, (5, 8)) + 0.1
    bank0 = rng.uniform(-1, 1, (3, 8)) + 0.1
    tape = ad.Tape()
    batched = ad.cosine_logits(tape.leaf(feats), tape.leaf(bank0))
    for i in range(5):
        tape2 = ad.Tape()
        one = ad.cosine_logits(tape2.leaf(feats[i : i + 1]), tape2.leaf(bank0))
        # GEMMs of 5 rows and of 1 row may differ in the last ulp
        assert np.allclose(batched.data[i], one.data[0], rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# soft cross-entropy


def test_soft_cross_entropy_gradient():
    rng = np.random.default_rng(4)
    y0 = rng.uniform(-1, 1, (3, 5))
    t = rng.dirichlet(np.ones(5), size=3)

    def value(y):
        m = y.max(axis=1, keepdims=True)
        lse = np.log(np.exp(y - m).sum(axis=1)) + m[:, 0]
        return (lse - (t * y).sum(axis=1)).sum()

    tape = ad.Tape()
    y = tape.leaf(y0)
    loss = ad.sum_all(ad.soft_cross_entropy(y, t))
    tape.backward(loss)
    assert rel_err(y.grad, numeric_grad(value, y0)).max() < RTOL


# ----------------------------------------------------------------------
# small algebra ops


def test_euclidean_value_and_gradient():
    a0 = np.array([1.0, 2.0, 2.0])
    b0 = np.zeros(3)
    tape = ad.Tape()
    a, b = tape.leaf(a0[None]), tape.leaf(b0[None])  # one pair is a batch of one
    dist = ad.euclidean(a, b)
    assert dist.data[0] == pytest.approx(3.0)
    tape.backward(ad.sum_all(dist))
    assert rel_err(a.grad[0], numeric_grad(lambda v: np.linalg.norm(v - b0), a0)).max() < RTOL
    assert rel_err(b.grad[0], numeric_grad(lambda v: np.linalg.norm(a0 - v), b0)).max() < RTOL


def test_row_wise_euclidean_matches_one_row_at_a_time():
    """Row i of a batch, value and adjoints, equals that row computed as a
    batch of one."""
    rng = np.random.default_rng(6)
    a0, b0 = rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4))
    b0[3] = a0[3]  # a zero-distance row: subgradient 0
    read = rng.uniform(0.5, 1.5, 5)
    tape = ad.Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    dist = ad.euclidean(a, b)
    tape.backward(ad.sum_all(ad.mul_const(dist, read)))
    for i in range(5):
        one = ad.Tape()
        ai, bi = one.leaf(a0[i : i + 1]), one.leaf(b0[i : i + 1])
        di = ad.euclidean(ai, bi)
        one.backward(ad.sum_all(ad.mul_const(di, read[i : i + 1])))
        assert dist.data[i] == di.data[0]
        assert np.array_equal(a.grad[i], ai.grad[0]) and np.array_equal(b.grad[i], bi.grad[0])
    assert not a.grad[3].any() and not b.grad[3].any()
    with pytest.raises(ValueError, match="equal shape"):
        ad.euclidean(a, tape.leaf(b0[:, :3]))


def test_gather_rows_scatter_adds_repeated_rows():
    rng = np.random.default_rng(7)
    x0, y0 = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (2, 2))
    idx = [4, 0, 0, 2, 0, 3]  # rows of [x; y]: row 0 three times
    read = rng.uniform(-1, 1, (6, 2))
    tape = ad.Tape()
    x, y, unused = tape.leaf(x0), tape.leaf(y0), tape.leaf(np.ones((1, 2)))
    out = ad.gather_rows((x, y, unused), idx)
    assert np.array_equal(out.data, np.vstack([x0, y0, np.ones((1, 2))])[idx])
    tape.backward(ad.sum_all(ad.mul_const(out, read)))

    def value(v):
        return (np.vstack([v, y0])[idx] * read).sum()

    assert rel_err(x.grad, numeric_grad(value, x0)).max() < RTOL
    assert np.array_equal(x.grad[0], read[1] + read[2] + read[4])
    assert np.array_equal(y.grad, read[[5, 0]])
    assert unused.grad is None  # no row of it was gathered
    for bad in ([6], [-1], [[0, 1]]):
        with pytest.raises(ValueError, match="index"):
            ad.gather_rows((x, y, unused), bad)
    with pytest.raises(ValueError, match="equal width"):
        ad.gather_rows((x, tape.leaf(np.ones((2, 3)))), [0])


def test_pick_take_and_scale_ops():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, (4, 3))
    tape = ad.Tape()
    x = tape.leaf(x0)
    picked = ad.pick_rows(x, [2, 0, 1, 2])
    row = ad.take_row(x, 1)
    loss = ad.add(ad.scale(ad.sum_all(picked), 2.0), ad.add_const(ad.mean_all(row), 1.0))
    tape.backward(loss)

    def value(v):
        p = v[np.arange(4), [2, 0, 1, 2]].sum() * 2.0
        return p + v[1].mean() + 1.0

    assert loss.item() == pytest.approx(value(x0))
    assert rel_err(x.grad, numeric_grad(value, x0)).max() < RTOL


# ----------------------------------------------------------------------
# batched-only forms: one sample is a batch of one row, and a 1-D input is
# an error rather than a second code path

ONE_D_CALLS = {
    "cosine_logits": lambda t: ad.cosine_logits(t.leaf(np.ones(3)), t.leaf(np.ones((2, 3)))),
    "soft_cross_entropy": lambda t: ad.soft_cross_entropy(t.leaf(np.zeros(3)), np.eye(3)[0]),
    "euclidean": lambda t: ad.euclidean(t.leaf(np.ones(3)), t.leaf(np.zeros(3))),
    "feature_logits": lambda t: Model(num_known=2, feat_dim=3, point_widths=(4,), proj_hidden=())
    .feature_logits(np.ones(3)),
    "mls_score": lambda t: mls_score(np.zeros(3)),
    "msp_score": lambda t: msp_score(np.zeros(3)),
}


@pytest.mark.parametrize("name", sorted(ONE_D_CALLS))
def test_batched_forms_reject_1d_input(name):
    with pytest.raises(ValueError, match=r"\(B, "):
        ONE_D_CALLS[name](ad.Tape())


# ----------------------------------------------------------------------
# backward contract


def test_backward_sum_of_parameters_gives_ones():
    tape = ad.Tape()
    p = tape.leaf(np.arange(6.0).reshape(2, 3))
    tape.backward(ad.sum_all(p))
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_constant_loss_gives_zero_gradients():
    tape = ad.Tape()
    p = tape.leaf(np.ones(4))
    loss = ad.scale(ad.sum_all(p), 0.0)
    tape.backward(loss)
    assert np.array_equal(p.grad, np.zeros(4))


def test_backward_rejects_non_scalar_loss():
    tape = ad.Tape()
    p = tape.leaf(np.ones(4))
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(ad.relu(p))


def test_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-1, 1, (5, 3))
    w1, b1 = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 4)
    w2, b2 = rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 2)
    readout = rng.uniform(-1, 1, (5, 2))
    # keep hidden pre-activations away from the relu kink
    assert np.abs(x0 @ w1 + b1).min() > 1e-3

    def unpack(theta):
        w1v = theta[: w1.size].reshape(w1.shape)
        b1v = theta[w1.size : w1.size + 4]
        w2v = theta[w1.size + 4 : w1.size + 4 + w2.size].reshape(w2.shape)
        return w1v, b1v, w2v, theta[-2:]

    def forward(theta):
        w1v, b1v, w2v, b2v = unpack(theta)
        hidden = np.maximum(x0 @ w1v + b1v, 0.0)
        return ((hidden @ w2v + b2v) * readout).sum()

    def f(theta):
        w1v, b1v, w2v, b2v = unpack(theta)
        tape = ad.Tape()
        lw1, lb1, lw2, lb2 = (tape.leaf(v) for v in (w1v, b1v, w2v, b2v))
        out = ad.linear(ad.relu(ad.linear(tape.leaf(x0), lw1, lb1)), lw2, lb2)
        loss = ad.sum_all(ad.mul_const(out, readout))
        tape.backward(loss)
        grad = np.concatenate([lw1.grad.ravel(), lb1.grad, lw2.grad.ravel(), lb2.grad])
        return loss.item(), grad

    theta0 = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    value, grad = f(theta0)
    assert value == pytest.approx(forward(theta0))
    numeric = numeric_grad(forward, theta0, h=1e-5)
    assert rel_err(grad, numeric).max() < RTOL


def test_grad_check_quadratic():
    def f(theta):
        return float(theta[0] ** 2), np.array([2.0 * theta[0]])

    assert ad.grad_check(f, np.array([3.0]), h=1e-5) < 1e-6


def test_grad_check_linear_sum():
    def f(theta):
        return float(theta.sum()), np.ones_like(theta)

    assert ad.grad_check(f, np.arange(5.0), h=1e-5) < 1e-9


def test_grad_check_rejects_nonfinite():
    def f(theta):
        return float("nan"), np.zeros_like(theta)

    with pytest.raises(ValueError, match="finite"):
        ad.grad_check(f, np.ones(2))


def test_grad_check_cosine_head_cross_entropy_composite():
    rng = np.random.default_rng(7)
    bank = rng.normal(0, 0.5, (4, 6)) + 0.2
    target = np.zeros(4)
    target[1] = 1.0

    def f(theta):
        tape = ad.Tape()
        feat = tape.leaf(theta[None])  # one feature row
        loss = ad.sum_all(ad.soft_cross_entropy(ad.cosine_logits(feat, tape.leaf(bank)),
                                                target[None]))
        tape.backward(loss)
        return loss.item(), feat.grad[0]

    assert ad.grad_check(f, rng.uniform(0.2, 1.0, 6), h=1e-5) <= 1e-4


# ----------------------------------------------------------------------
# determinism


def test_forward_is_deterministic_and_replayable():
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1, 1, (6, 3))
    w0, b0 = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 4)

    def run():
        tape = ad.Tape()
        out = ad.relu(ad.linear(tape.leaf(x0), tape.leaf(w0), tape.leaf(b0)))
        loss = ad.mean_all(out)
        return loss.item(), out.data.copy()

    loss1, out1 = run()
    loss2, out2 = run()
    assert loss1 == loss2  # bit-identical replay without parameter updates
    assert np.array_equal(out1, out2)


# ----------------------------------------------------------------------
# bit-exactness against reference formulas (forward values and adjoints
# are compared through tobytes(), so signed zeros and tie routing count)

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

# few distinct values, signed zeros included, so ties and dead columns are common
_TIE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                        st.floats(-4.0, 4.0, allow_subnormal=False))
_FLOATS = st.floats(-4.0, 4.0, allow_subnormal=False)
_PROP = settings(max_examples=60, deadline=None, derandomize=True)
# +0.0 and -0.0 tie for the max; the first row's zero must win
_SIGNED_ZERO_TIE = (np.array([[0.0, -0.0], [-0.0, 0.0]]), [2], np.array([[-0.0, 1.0]]))


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _adjoint_run(build, arrays, g):
    """Forward `build` on leaves of `arrays`, push adjoint `g` into its output."""
    tape = ad.Tape()
    leaves = [tape.leaf(v) for v in arrays]
    out = build(*leaves)
    tape.backward(ad.sum_all(ad.mul_const(out, g)))  # the adjoint reaching out is g * 1.0
    return out.data, [leaf.grad for leaf in leaves]


def _pool_reference(a, sizes, g):
    """The per-group argmax loop: value and adjoint from the first max row."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    cols = np.arange(a.shape[1])
    out = np.empty((len(sizes), a.shape[1]))
    z = np.zeros_like(a)
    for i in range(len(sizes)):
        block = a[offsets[i] : offsets[i + 1]]
        arg = block.argmax(axis=0)
        out[i] = block[arg, cols]
        z[arg + offsets[i], cols] += g[i]
    return out, z


@st.composite
def _grouped(draw, elements=_TIE_VALUES):
    d = draw(st.integers(1, 5))
    n_groups = draw(st.integers(1, 4))
    if draw(st.booleans()):  # equal group sizes take their own path
        sizes = [draw(st.integers(1, 6))] * n_groups
    else:
        sizes = draw(st.lists(st.integers(1, 6), min_size=n_groups, max_size=n_groups))
    a = draw(hnp.arrays(np.float64, (sum(sizes), d), elements=elements))
    g = draw(hnp.arrays(np.float64, (n_groups, d), elements=_TIE_VALUES))
    return a, sizes, g


@_PROP
@given(st.data())
def test_relu_bit_exact_against_where_reference(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))
    x = data.draw(hnp.arrays(np.float64, shape, elements=_TIE_VALUES))
    g = data.draw(hnp.arrays(np.float64, shape, elements=_TIE_VALUES))
    out, (dx,) = _adjoint_run(ad.relu, [x], g)
    assert _bits_equal(out, np.where(x > 0.0, x, 0.0))
    assert _bits_equal(dx, g * (x > 0.0))


@_PROP
@given(st.data())
def test_linear_bit_exact_against_matmul_plus_bias(data):
    n, k, m = (data.draw(st.integers(1, 6)) for _ in range(3))
    x = data.draw(hnp.arrays(np.float64, (n, k), elements=_FLOATS))
    w = data.draw(hnp.arrays(np.float64, (k, m), elements=_FLOATS))
    b = data.draw(hnp.arrays(np.float64, (m,), elements=_TIE_VALUES))
    g = data.draw(hnp.arrays(np.float64, (n, m), elements=_TIE_VALUES))
    out, (dx, dw, db) = _adjoint_run(ad.linear, [x, w, b], g)
    assert _bits_equal(out, x @ w + b)
    assert _bits_equal(dx, g @ w.T)
    assert _bits_equal(dw, x.T @ g)
    assert _bits_equal(db, g.sum(axis=0))


@_PROP
@given(_grouped())
@example(_SIGNED_ZERO_TIE)
@example((np.array([[1.0], [-0.0], [0.0], [2.0]]), [1, 2, 1], np.array([[1.0], [1.0], [1.0]])))
def test_max_pool_groups_bit_exact_against_argmax_loop(case):
    a, sizes, g = case
    out, (da,) = _adjoint_run(lambda t: ad.max_pool_groups(t, sizes), [a], g)
    ref_out, ref_da = _pool_reference(a, sizes, g)
    assert _bits_equal(out, ref_out)
    assert _bits_equal(da, ref_da)


@_PROP
@given(_grouped(), st.data())
def test_relu_then_pool_routes_dead_columns_to_first_row(case, data):
    pre, sizes, g = case
    dead = data.draw(st.lists(st.integers(0, pre.shape[1] - 1), max_size=pre.shape[1]))
    pre = pre.copy()
    pre[:, dead] = -np.abs(pre[:, dead])  # all-zero columns after the relu
    tape = ad.Tape()
    x = tape.leaf(pre)
    act = ad.relu(x)
    out = ad.max_pool_groups(act, sizes)
    tape.backward(ad.sum_all(ad.mul_const(out, g)))
    ref_act = np.where(pre > 0.0, pre, 0.0)
    ref_out, ref_dact = _pool_reference(ref_act, sizes, g)
    assert _bits_equal(out.data, ref_out)
    assert _bits_equal(act.grad, ref_dact)
    assert _bits_equal(x.grad, ref_dact * (pre > 0.0))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for col in dead:
        # the whole column ties at 0: each group's first row takes the adjoint
        expected = np.zeros(len(pre))
        expected[offsets[:-1]] = g[:, col]
        assert _bits_equal(act.grad[:, col], expected + 0.0)


@pytest.mark.parametrize("sizes", [[2, 2], [1, 3]])
def test_max_pool_groups_routes_nan_like_argmax(sizes):
    a = np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, np.nan], [np.nan, np.nan]])
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, (da,) = _adjoint_run(lambda t: ad.max_pool_groups(t, sizes), [a], g)
    ref_out, ref_da = _pool_reference(a, sizes, g)
    assert np.array_equal(out, ref_out, equal_nan=True)
    assert _bits_equal(da, ref_da)


def test_aliased_adjoints_sum_exactly():
    rng = np.random.default_rng(12)
    x0, y0 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    g = rng.uniform(-1, 1, 4)
    tape = ad.Tape()
    x, y = tape.leaf(x0), tape.leaf(y0)
    doubled = ad.add(x, x)  # hands the same adjoint object to x twice
    chain = ad.add_const(ad.add_const(ad.add_const(y, 1.0), -2.0), 0.5)
    out = ad.add(ad.add(doubled, chain), y)
    tape.backward(ad.sum_all(ad.mul_const(out, g)))
    assert _bits_equal(x.grad, g + g)
    assert _bits_equal(y.grad, g + g)
    assert _bits_equal(chain.grad, g)
    assert _bits_equal(out.grad, g)  # no accumulation wrote into a shared adjoint


def test_parameter_leaf_encoded_three_times_gets_exact_sum():
    from openset3d.encoder import Model

    rng = np.random.default_rng(13)
    model = Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(4,), seed=2)
    batches = [[rng.uniform(-1, 1, (n, 3)) for n in (7, 7)] for _ in range(2)]
    batches.append([rng.uniform(-1, 1, (n, 3)) for n in (5, 9, 4)])
    weights = [rng.uniform(-1, 1, (len(b), 4)) for b in batches]

    def weighted_logits(bound, clouds, w):
        _, feats = bound.encode_batch(clouds)
        return ad.sum_all(ad.mul_const(bound.logits(feats), w))

    singles = []
    for clouds, w in zip(batches, weights):
        tape = ad.Tape()
        bound = model.bind(tape)
        tape.backward(weighted_logits(bound, clouds, w))
        singles.append(bound.param_grads())
    tape = ad.Tape()
    bound = model.bind(tape)
    terms = [weighted_logits(bound, clouds, w) for clouds, w in zip(batches, weights)]
    tape.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
    combined = bound.param_grads()
    for name, grad in combined.items():
        # the reverse sweep meets the last encoding first
        expected = (singles[2][name] + singles[1][name]) + singles[0][name]
        assert _bits_equal(grad, expected), name


# ----------------------------------------------------------------------
# tape lifetime


def test_tape_is_freed_by_reference_counting():
    import gc
    import weakref

    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.leaf(np.ones((3, 2)))
        out = ad.relu(ad.linear(x, tape.leaf(np.ones((2, 2))), tape.leaf(np.zeros(2))))
        tape.backward(ad.sum_all(out))
        ref = weakref.ref(tape)
        del tape, x, out
        assert ref() is None
    finally:
        gc.enable()


def test_tensor_outliving_its_tape_raises_a_clear_error():
    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, -2.0]), "x")
    y = ad.relu(x)
    tape.backward(ad.sum_all(y))
    del tape
    # values and adjoints stay readable ...
    assert np.array_equal(y.data, [1.0, 0.0])
    assert np.array_equal(x.grad, [1.0, 0.0])
    # ... but a new op on an orphaned tensor is refused
    with pytest.raises(RuntimeError, match="'x' outlived its Tape"):
        ad.relu(x)
    with pytest.raises(RuntimeError, match="outlived its Tape"):
        ad.add(x, y)


# ----------------------------------------------------------------------
# row-sparse adjoints of the shared point MLP. The references are the dense
# formulas: the pool scatters into a zero matrix, relu multiplies by its
# mask, and linear returns g @ W.T, x.T @ g and g.sum(0) over every row.


_MAX_POOL_GROUPS = ad.max_pool_groups


def _dense_pool(a, sizes):
    """max_pool_groups whose adjoint is densified where it is made, so the
    ops below it run their dense formulas."""
    out = _MAX_POOL_GROUPS(a, sizes)
    inner = out._grad_fn
    out._grad_fn = lambda g: tuple(gi.dense() for gi in inner(g))
    return out


def _critical_rows(a, sizes):
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return np.unique(np.concatenate([
        a[offsets[i] : offsets[i + 1]].argmax(axis=0) + offsets[i] for i in range(len(sizes))
    ]))


def _sum_order_close(got, ref, scale):
    """Agreement up to summation order: within 1e-12 of the summed absolute
    products where the reference is finite; NaN only where it has NaN."""
    finite = np.isfinite(ref)
    assert not np.isnan(got[~np.isnan(ref)]).any()
    assert (np.abs(got - ref)[finite] <= 1e-12 * scale[finite]).all()


@st.composite
def _mlp_case(draw):
    """Grouped clouds through linear-relu-linear-relu, with ties, dead columns and NaN."""
    pts, sizes, g = draw(_grouped())
    n, d_in = pts.shape
    width = draw(st.integers(1, 4))
    d_out = g.shape[1]
    w0 = draw(hnp.arrays(np.float64, (d_in, width), elements=_TIE_VALUES))
    b0 = draw(hnp.arrays(np.float64, (width,), elements=_TIE_VALUES))
    w1 = draw(hnp.arrays(np.float64, (width, d_out), elements=_TIE_VALUES))
    b1 = draw(hnp.arrays(np.float64, (d_out,), elements=_TIE_VALUES))
    for col in draw(st.lists(st.integers(0, d_out - 1), max_size=d_out)):
        w1[:, col], b1[col] = 0.0, -1.0  # dead column: every row ties at +0.0
    for row, col in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d_in - 1)),
                                  max_size=2)):
        pts[row, col] = np.nan
    return pts, sizes, g, (w0, b0, w1, b1)


@_PROP
@given(_mlp_case())
@example((np.array([[0.0], [0.0], [1.0], [1.0]]), [2, 2], np.array([[-0.0], [1.0]]),
          (np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))))
def test_row_sparse_backward_matches_the_dense_formulas(case):
    pts, sizes, g, (w0, b0, w1, b1) = case
    tape = ad.Tape()
    x, lw0, lb0, lw1, lb1 = (tape.leaf(v) for v in (pts, w0, b0, w1, b1))
    z0 = ad.linear(x, lw0, lb0)
    h = ad.relu(z0)
    z1 = ad.linear(h, lw1, lb1)
    act = ad.relu(z1)
    out = ad.max_pool_groups(act, sizes)
    tape.backward(ad.sum_all(ad.mul_const(out, g)))

    ref_z0 = pts @ w0 + b0
    ref_h = np.maximum(ref_z0, 0.0)
    ref_z1 = ref_h @ w1 + b1
    ref_act = np.maximum(ref_z1, 0.0)
    ref_out, ref_dact = _pool_reference(ref_act, sizes, g)
    for got, ref in ((z0, ref_z0), (h, ref_h), (z1, ref_z1), (act, ref_act), (out, ref_out)):
        assert _bits_equal(got.data, ref)
    # the pool's adjoint and the relu directly above it are byte-equal
    assert _bits_equal(act.grad, ref_dact)
    ref_dz1 = ref_dact * (ref_act > 0.0)
    assert _bits_equal(z1.grad, ref_dz1)
    # every relu masks the adjoint it receives exactly
    assert _bits_equal(z0.grad, h.grad * (ref_h > 0.0))
    # rows outside the critical set hold exactly +0.0
    outside = np.setdiff1d(np.arange(len(pts)), _critical_rows(ref_act, sizes))
    for node in (act, z1, h, z0, x):
        assert node.grad[outside].tobytes() == np.zeros((len(outside), node.shape[1])).tobytes()
    # linear's sums run over the critical rows only
    ref_dh = ref_dz1 @ w1.T
    _sum_order_close(h.grad, ref_dh, np.abs(ref_dz1) @ np.abs(w1.T))
    ref_dz0 = ref_dh * (ref_h > 0.0)
    _sum_order_close(lw1.grad, ref_h.T @ ref_dz1, np.abs(ref_h.T) @ np.abs(ref_dz1))
    _sum_order_close(lb1.grad, ref_dz1.sum(axis=0), np.abs(ref_dz1).sum(axis=0))
    _sum_order_close(lw0.grad, pts.T @ ref_dz0, np.abs(pts.T) @ np.abs(ref_dz0))
    _sum_order_close(lb0.grad, ref_dz0.sum(axis=0), np.abs(ref_dz0).sum(axis=0))


# ----------------------------------------------------------------------
# linear(..., relu=True) against the unfused pair relu(linear(...))

_LINEAR = ad.linear


def _unfused_linear(x, w, b, relu=False, channel_major=False):
    out = _LINEAR(x, w, b, channel_major=channel_major)
    return ad.relu(out) if relu else out


@st.composite
def _fused_case(draw):
    """x, w, b with signed zeros, exact zeros and NaN; a dense adjoint for
    the layer output and a pooled one on equal or ragged groups."""
    g_dense, sizes, g_pool = draw(_grouped())
    n, d = g_dense.shape
    k = draw(st.integers(1, 4))
    values = st.one_of(_TIE_VALUES, st.just(np.nan))
    x = draw(hnp.arrays(np.float64, (n, k), elements=values))
    w = draw(hnp.arrays(np.float64, (k, d), elements=values))
    b = draw(hnp.arrays(np.float64, (d,), elements=values))
    return x, w, b, g_dense, sizes, g_pool


@_PROP
@given(_fused_case())
@example((np.array([[-0.0], [0.0], [np.nan], [1.0]]), np.array([[1.0, -1.0]]),
          np.array([0.0, -0.0]), np.array([[1.0, -0.0], [0.0, 2.0], [3.0, 1.0], [-1.0, 1.0]]),
          [1, 3], np.array([[1.0, -0.0], [2.0, 1.0]])))
def test_fused_linear_relu_is_byte_equal_to_relu_of_linear(case):
    x, w, b, g_dense, sizes, g_pool = case

    def run(layer, pooled):
        tape = ad.Tape()
        leaves = [tape.leaf(v) for v in (x, w, b)]
        out = layer(*leaves, relu=True)
        head, g = (ad.max_pool_groups(out, sizes), g_pool) if pooled else (out, g_dense)
        tape.backward(ad.sum_all(ad.mul_const(head, g)))
        sparse = type(out._grad) is ad.RowSparse  # before .grad densifies it
        return sparse, [out.data, head.data, out.grad] + [leaf.grad for leaf in leaves]

    for pooled in (False, True):
        (sparse, got), (ref_sparse, ref) = run(ad.linear, pooled), run(_unfused_linear, pooled)
        assert sparse == ref_sparse == pooled
        for a, r in zip(got, ref):
            assert _bits_equal(a, r)


# ----------------------------------------------------------------------
# the channel-major layer that the encoder hands to the pool


def _is_channel_major(a):
    return a.strides[0] == a.itemsize  # each column's values are contiguous


def _channel_major(a, pad):
    """`a` as the transpose of a C-contiguous array with three extra columns
    of `pad`, the layout of a row-padded channel-major linear output."""
    base = np.full((a.shape[1], a.shape[0] + 3), pad)
    base[:, : a.shape[0]] = a.T
    return base[:, : a.shape[0]].T


@pytest.mark.parametrize("k", [3, 32])
def test_channel_major_layer_is_byte_equal_to_the_row_major_product(k):
    rng = np.random.default_rng(k)
    w, b = rng.normal(size=(k, 64)), rng.normal(size=64)
    for n in [*range(1, 141), 5001, 8191, 8192]:
        x = rng.normal(size=(n, k))
        tape = ad.Tape()
        out = ad.linear(tape.leaf(x), tape.leaf(w), tape.leaf(b), relu=True, channel_major=True)
        assert _is_channel_major(out.data), n
        assert _bits_equal(out.data, np.maximum(x @ w + b, 0.0)), n


def test_a_width_off_a_multiple_of_8_keeps_the_row_major_layout():
    # the transposed product of this shape rounds differently from x @ w
    rng = np.random.default_rng(5)
    x, w, b = rng.normal(size=(24, 32)), rng.normal(size=(32, 12)), rng.normal(size=12)
    tape = ad.Tape()
    out = ad.linear(tape.leaf(x), tape.leaf(w), tape.leaf(b), channel_major=True)
    assert _bits_equal(out.data, x @ w + b)
    assert out.data.flags.c_contiguous


@st.composite
def _channel_major_case(draw):
    """A layer of width 8 or 16 over equal or ragged groups, with signed
    zeros, exact zeros and NaN, and a dense and a pooled adjoint."""
    _, sizes, _ = draw(_grouped())
    n, k, d = sum(sizes), draw(st.integers(1, 4)), draw(st.sampled_from([8, 16]))
    values = st.one_of(_TIE_VALUES, st.just(np.nan))
    x = draw(hnp.arrays(np.float64, (n, k), elements=values))
    w = draw(hnp.arrays(np.float64, (k, d), elements=values))
    b = draw(hnp.arrays(np.float64, (d,), elements=values))
    g_dense = draw(hnp.arrays(np.float64, (n, d), elements=_TIE_VALUES))
    g_pool = draw(hnp.arrays(np.float64, (len(sizes), d), elements=_TIE_VALUES))
    return x, w, b, g_dense, sizes, g_pool


@_PROP
@given(_channel_major_case(), st.booleans())
def test_channel_major_layer_gives_the_row_major_values_and_adjoints(case, relu):
    x, w, b, g_dense, sizes, g_pool = case

    def run(channel_major, pooled):
        tape = ad.Tape()
        leaves = [tape.leaf(v) for v in (x, w, b)]
        out = ad.linear(*leaves, relu=relu, channel_major=channel_major)
        head, g = (ad.max_pool_groups(out, sizes), g_pool) if pooled else (out, g_dense)
        tape.backward(ad.sum_all(ad.mul_const(head, g)))
        return [out.data, head.data, out.grad] + [leaf.grad for leaf in leaves]

    for pooled in (False, True):
        for got, ref in zip(run(True, pooled), run(False, pooled)):
            assert _bits_equal(got, ref)


_NAN_TIE = (np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, np.nan], [np.nan, np.nan]]), [1, 3],
            np.array([[1.0, 2.0], [3.0, 4.0]]))


@_PROP
@given(_grouped(st.one_of(_TIE_VALUES, st.just(np.nan))), st.sampled_from([np.nan, np.inf, -0.0]))
@example(_SIGNED_ZERO_TIE, np.inf)
@example(_NAN_TIE, np.inf)
@example((np.array([[1.0], [-0.0], [0.0], [2.0]]), [1, 2, 1], np.array([[1.0], [1.0], [1.0]])),
         np.nan)
def test_max_pool_groups_on_channel_major_input_matches_the_argmax_loop(case, pad):
    # the pool never reads the padding past the last row
    a, sizes, g = case
    out, (da,) = _adjoint_run(lambda t: ad.max_pool_groups(t, sizes), [_channel_major(a, pad)], g)
    ref_out, ref_da = _pool_reference(a, sizes, g)
    assert _bits_equal(out, ref_out)
    assert _bits_equal(da, ref_da)


def _mlp_pool_grads(build_pool_input, pts, params, sizes, g, pool=ad.max_pool_groups):
    tape = ad.Tape()
    x = tape.leaf(pts)
    leaves = [tape.leaf(v) for v in params]
    act = ad.relu(ad.linear(ad.relu(ad.linear(x, *leaves[:2])), *leaves[2:]))
    feed = build_pool_input(tape, act)
    out = pool(feed, sizes)
    tape.backward(ad.sum_all(ad.mul_const(out, g)))
    return [act.grad, feed.grad, x.grad] + [leaf.grad for leaf in leaves]


def _random_mlp(seed, n_rows=24, width=5, d=6):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n_rows, 3))
    params = (rng.uniform(-1, 1, (3, width)), rng.uniform(-0.5, 0.5, width),
              rng.uniform(-1, 1, (width, d)), rng.uniform(-0.5, 0.5, d))
    return rng, pts, params


@pytest.mark.parametrize("sizes", [[8, 8, 8], [5, 12, 7]])
@pytest.mark.parametrize("feed", ["mul_const", "add"])
def test_pool_fed_by_a_dense_op_gets_the_dense_formulas(sizes, feed):
    rng, pts, params = _random_mlp(21)
    g = rng.uniform(-1, 1, (len(sizes), 6))
    c = rng.uniform(0.5, 2.0, (24, 6))
    other = rng.uniform(0, 1, (24, 6))

    def build(tape, act):
        if feed == "mul_const":
            return ad.mul_const(act, c)
        return ad.add(act, tape.leaf(other))

    got = _mlp_pool_grads(build, pts, params, sizes, g)
    ref = _mlp_pool_grads(build, pts, params, sizes, g, pool=_dense_pool)
    for a, b in zip(got, ref):
        assert _bits_equal(a, b)


@pytest.mark.parametrize("row_first", [False, True])
def test_relu_output_with_a_second_consumer_sums_densely(row_first):
    rng, pts, params = _random_mlp(22)
    sizes = [10, 14]
    g = rng.uniform(-1, 1, (2, 6))
    g_row = rng.uniform(-1, 1, 6)

    def run(pool):
        tape = ad.Tape()
        x = tape.leaf(pts)
        leaves = [tape.leaf(v) for v in params]
        act = ad.relu(ad.linear(ad.relu(ad.linear(x, *leaves[:2])), *leaves[2:]))
        if row_first:  # the sweep meets the pool last
            row = ad.take_row(act, 3)
            out = pool(act, sizes)
        else:
            out = pool(act, sizes)
            row = ad.take_row(act, 3)
        loss = ad.add(ad.sum_all(ad.mul_const(out, g)), ad.sum_all(ad.mul_const(row, g_row)))
        tape.backward(loss)
        return [act.grad, x.grad] + [leaf.grad for leaf in leaves]

    got, ref = run(ad.max_pool_groups), run(_dense_pool)
    for a, b in zip(got, ref):
        assert _bits_equal(a, b)
    _, ref_dact = _pool_reference(np.maximum(np.maximum(pts @ params[0] + params[1], 0.0)
                                             @ params[2] + params[3], 0.0), sizes, g)
    z_row = np.zeros_like(ref_dact)
    z_row[3] = g_row
    assert _bits_equal(got[0], ref_dact + z_row if row_first else z_row + ref_dact)


def test_wrapped_backward_closures_keep_the_row_sparse_path():
    # a profiler replaces each node's backward closure with a plain wrapper;
    # whether a node takes a row-sparse adjoint is read from the node
    rng, pts, params = _random_mlp(23)
    sizes = [12, 12]
    g = rng.uniform(-1, 1, (2, 6))
    seen = []

    def run(wrap):
        tape = ad.Tape()
        x = tape.leaf(pts)
        leaves = [tape.leaf(v) for v in params]
        act = ad.relu(ad.linear(ad.relu(ad.linear(x, *leaves[:2])), *leaves[2:]))
        loss = ad.sum_all(ad.mul_const(ad.max_pool_groups(act, sizes), g))
        if wrap:
            for node in tape._nodes:
                inner = node._grad_fn
                if inner is None:
                    continue

                def grad_fn(adj, inner=inner, name=node.name):
                    seen.append((name, type(adj)))
                    return inner(adj)

                node._grad_fn = grad_fn
        tape.backward(loss)
        return [act.grad, x.grad] + [leaf.grad for leaf in leaves]

    plain, wrapped = run(False), run(True)
    for a, b in zip(plain, wrapped):
        assert _bits_equal(a, b)
    assert [t for name, t in seen if name in ("linear", "relu")] == [ad.RowSparse] * 4
    assert all(t is np.ndarray for name, t in seen if name not in ("linear", "relu"))


def _read_side(model, records):
    from openset3d.training import build_saliency_cache, score_records

    logits = model.infer_batch([r.points for r in records])
    scores = [(s.confidence, s.predicted_class) for s in score_records(model, records)]
    cache = build_saliency_cache(model, records)
    return logits, scores, [cache.scores[r.object_id] for r in records]


def _pretrained_tiny(proj_hidden=()):
    from openset3d.data import generate_dataset, tiny_manifest
    from openset3d.training import TrainConfig, init_state, run_pretrain

    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=20, points_per_cloud=48))
    config = TrainConfig(batch_size=8, seed=0, feat_dim=16, point_widths=(12, 16),
                         proj_hidden=proj_hidden, learning_rate=0.002)
    state = run_pretrain(init_state(dataset, config), dataset, config, epochs=1)
    return state.model, dataset.train_known[:40]


def _assert_read_side_equal(model, records, monkeypatch, op, reference):
    logits, scores, maps = _read_side(model, records)
    monkeypatch.setattr(ad, op, reference)
    ref_logits, ref_scores, ref_maps = _read_side(model, records)
    assert _bits_equal(logits, ref_logits)
    assert scores == ref_scores
    assert len(maps) == len(ref_maps) == len(records)
    assert all(_bits_equal(got, ref) for got, ref in zip(maps, ref_maps))


def test_scores_and_saliency_equal_the_dense_reference(monkeypatch):
    model, records = _pretrained_tiny()
    _assert_read_side_equal(model, records, monkeypatch, "max_pool_groups", _dense_pool)


def test_scores_and_saliency_equal_the_unfused_reference(monkeypatch):
    # a hidden projection layer, so both the point MLP and the head are fused
    model, records = _pretrained_tiny(proj_hidden=(16,))
    _assert_read_side_equal(model, records, monkeypatch, "linear", _unfused_linear)


def test_micro_kink_screen_reads_the_fused_encoder_layers(monkeypatch):
    # criterion 1's screen measures the same gap from linear_relu nodes as
    # from the relu nodes of the unfused pair, not just the margin hinge's
    from _micro import SEEDS, MicroSetup

    def gap(setup):
        setup.loss_and_grad(setup.theta0)
        return setup._kink_margins["relu"]

    for seed in SEEDS:
        fused = gap(MicroSetup(seed))
        with monkeypatch.context() as patch:
            patch.setattr(ad, "linear", _unfused_linear)
            unfused = gap(MicroSetup(seed))
        assert fused == unfused < 1.0


def test_grad_reads_as_a_dense_array():
    tape = ad.Tape()
    x = tape.leaf(np.array([[1.0, 0.0], [2.0, 3.0], [0.5, 0.5]]))
    act = ad.relu(x)
    tape.backward(ad.sum_all(ad.max_pool_groups(act, [3])))
    assert type(act.grad) is np.ndarray
    assert _bits_equal(act.grad, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    assert _bits_equal(x.grad, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
