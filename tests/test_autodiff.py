"""Gradient and determinism checks for the tape engine.

Every differentiable op is compared against central finite differences on
random inputs kept away from relu/max kinks. Worked-example expectations
were recomputed with the independent oracles stated next to them.
"""

import numpy as np
import pytest

from openset3d import autodiff as ad

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


def weighted_sum_loss(build_op, x_value, weights):
    """Scalar loss sum(op(x) * weights) and the gradient w.r.t. x."""
    tape = ad.Tape()
    x = tape.leaf(x_value)
    out = build_op(tape, x)
    loss = ad.sum_all(ad.mul_const(out, weights))
    tape.backward(loss)
    return loss.item(), x.grad


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
    out = ad.max_pool_points(tape.leaf([[1.0, 5.0], [3.0, 2.0]]))
    assert np.array_equal(out.data, [3.0, 5.0])


def test_max_pool_single_row_identity():
    tape = ad.Tape()
    row = np.array([[0.3, -0.7, 2.0]])
    assert np.array_equal(ad.max_pool_points(tape.leaf(row)).data, row[0])


def test_max_pool_empty_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="empty"):
        ad.max_pool_points(tape.leaf(np.zeros((0, 3))))


def test_max_pool_tie_routes_to_lowest_index():
    tied = np.array([[1.0, 4.0], [1.0, 2.0], [0.5, 4.0]])
    tape = ad.Tape()
    x = tape.leaf(tied)
    loss = ad.sum_all(ad.mul_const(ad.max_pool_points(x), [1.0, 1.0]))
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
    f = tape.leaf(f0)
    bank = tape.leaf(bank0)
    loss = ad.sum_all(ad.mul_const(ad.cosine_logits(f, bank), weights))
    tape.backward(loss)
    assert rel_err(f.grad, numeric_grad(lambda v: value(v, bank0), f0)).max() < RTOL
    assert rel_err(bank.grad, numeric_grad(lambda v: value(f0, v), bank0)).max() < RTOL


def test_cosine_batched_matches_single():
    rng = np.random.default_rng(3)
    feats = rng.uniform(-1, 1, (5, 8)) + 0.1
    bank0 = rng.uniform(-1, 1, (3, 8)) + 0.1
    tape = ad.Tape()
    batched = ad.cosine_logits(tape.leaf(feats), tape.leaf(bank0))
    for i in range(5):
        tape2 = ad.Tape()
        single = ad.cosine_logits(tape2.leaf(feats[i]), tape2.leaf(bank0))
        # batched/single GEMMs may differ in the last ulp
        assert np.allclose(batched.data[i], single.data, rtol=0, atol=1e-12)


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
    a, b = tape.leaf(a0), tape.leaf(b0)
    dist = ad.euclidean(a, b)
    assert dist.item() == pytest.approx(3.0)
    tape.backward(dist)
    assert rel_err(a.grad, numeric_grad(lambda v: np.linalg.norm(v - b0), a0)).max() < RTOL
    assert rel_err(b.grad, numeric_grad(lambda v: np.linalg.norm(a0 - v), b0)).max() < RTOL


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
        feat = tape.leaf(theta)
        loss = ad.soft_cross_entropy(ad.cosine_logits(feat, tape.leaf(bank)), target)
        tape.backward(loss)
        return loss.item(), feat.grad

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
def _grouped(draw):
    d = draw(st.integers(1, 5))
    n_groups = draw(st.integers(1, 4))
    if draw(st.booleans()):  # equal group sizes take their own path
        sizes = [draw(st.integers(1, 6))] * n_groups
    else:
        sizes = draw(st.lists(st.integers(1, 6), min_size=n_groups, max_size=n_groups))
    a = draw(hnp.arrays(np.float64, (sum(sizes), d), elements=_TIE_VALUES))
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
