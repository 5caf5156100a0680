"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records every operation in creation order (a Wengert list). For a
define-by-run graph, creation order is a topological order, so backward()
seeds the loss adjoint with 1 and sweeps the list in reverse, accumulating
adjoints into every reachable node. Intermediate tensors (e.g. the per-point
feature matrix of the encoder) keep their adjoint after the sweep, which is
what channel-weighted saliency needs.

Ownership: whoever creates a Tape owns it, and the Tape owns its tensors
(through its node list) and everything their backward closures keep alive.
A Tensor refers back to its Tape only weakly, so a tape and all of its
activations are freed by reference counting as soon as the owner drops the
Tape and every Tensor taken from it; the cyclic collector is never needed.
A Tensor may outlive its Tape: its .data and .grad stay readable, but
recording a new op on it (or calling backward with it) raises RuntimeError
naming the tensor, rather than silently starting a new tape.

Adjoints are never written in place. An op may hand the same adjoint array
to several parents (add, add_const), and backward stores a freshly returned
adjoint without copying it, so accumulation always builds a new array.

Row-sparse adjoints. The max-pool's output depends only on its "critical"
rows, the ones that win some channel's max, so its adjoint is zero on every
other row. The encoder's last point layer is channel-major (linear(...,
channel_major=True): the transpose of a C-contiguous (d, N) array, computed
from x zero-padded to a multiple of 8 rows), so max_pool_groups takes each
group's first argmax per channel with one argmax along contiguous memory in
forward, and backward turns the kept argmax into a RowSparse: the sorted
unique critical rows, their values, and +0.0 everywhere else. relu and
linear take such an adjoint and keep it row-sparse (a node records whether
it does when it is created, so a wrapped backward closure keeps the path):
relu masks only those rows, and linear computes dx on those rows,
dW = x[rows].T @ v and db = v.sum(0). Tape.backward densifies a RowSparse
before it reaches any other op and whenever two adjoints are summed, and
Tensor.grad densifies on read, so callers only ever see dense arrays.

Numeric contract of that path:

- byte-identical to the dense formulas: forward values, the max-pool's
  adjoint (the per-point features' .grad that saliency reads), and each
  relu's masking of the adjoint it receives;
- equal up to summation order: what linear returns. dW and db sum over
  the critical rows only, where the dense formulas also add the +0.0
  products of every other row, and BLAS may group the products of a
  (rows, d) matmul differently from those of the full one, dx included.
  A trained checkpoint therefore differs in its trailing bits from one
  trained with the dense formulas; reruns stay byte-identical. A
  non-finite value in a row outside the critical set no longer reaches
  dW through a 0 * inf or 0 * nan product.

Fused relu. linear(x, w, b, relu=True) records relu(linear(x, w, b)) as one
"linear_relu" node: the affine result is clamped in place, and backward
masks the adjoint with out > 0 (on the row-sparse path, only its rows)
before the linear formulas. These are the float operations of the two
separate ops in the same order, so values and adjoints are byte-identical
to them. The node's .data is the post-relu output; the pre-activation is
not kept. The encoder's point MLP and hidden projection layers use it, and
relu() remains for other callers such as the margin hinge.

Everything is float64 and eager; apart from that one fused node there is
no fusion or graph rewriting.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "RowSparse",
    "linear",
    "relu",
    "max_pool_groups",
    "cosine_logits",
    "soft_cross_entropy",
    "pick_rows",
    "take_row",
    "gather_rows",
    "sum_all",
    "mean_all",
    "add",
    "add_const",
    "mul_const",
    "scale",
    "euclidean",
    "grad_check",
]

_NORM_EPS = 1e-12


class RowSparse:
    """An (N, d) adjoint that is +0.0 outside `rows`.

    `rows` is sorted and unique; `values[i]` is the adjoint of row rows[i].
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape):
        self.rows = rows
        self.values = values
        self.shape = shape

    def dense(self) -> np.ndarray:
        z = np.zeros(self.shape)
        z[self.rows] = self.values
        return z


def _dense(g):
    return g.dense() if type(g) is RowSparse else g


class Tensor:
    """A node on a Tape: cached forward value plus an adjoint slot.

    `takes_rows` marks a node whose backward closure accepts a RowSparse
    adjoint; every other node gets a dense one.
    """

    __slots__ = ("_tape_ref", "data", "parents", "_grad", "_grad_fn", "name", "takes_rows")

    def __init__(self, tape, data, parents=(), grad_fn=None, name="", takes_rows=False):
        self._tape_ref = tape._ref
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self._grad = None
        self._grad_fn = grad_fn
        self.name = name
        self.takes_rows = takes_rows
        tape._nodes.append(self)

    @property
    def grad(self):
        """The adjoint after backward (None if the loss does not depend on it)."""
        if type(self._grad) is RowSparse:
            self._grad = self._grad.dense()
        return self._grad

    @property
    def tape(self) -> "Tape":
        tape = self._tape_ref()
        if tape is None:
            raise RuntimeError(
                f"tensor {self.name or '<unnamed>'!r} outlived its Tape; keep the Tape "
                "(or the TapedModel bound to it) alive while recording ops on its tensors"
            )
        return tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


class Tape:
    """Ordered record of one forward pass; nodes appear after their inputs."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._ref = weakref.ref(self)  # shared by every tensor on this tape

    def __len__(self):
        return len(self._nodes)

    def leaf(self, data, name="") -> Tensor:
        """Wrap raw values (parameters or constants) as a gradient sink."""
        return Tensor(self, data, (), None, name)

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every node that the scalar loss depends on.

        Adjoints accumulate by addition, so a tensor used in several places
        (a parameter bound once and encoded three times, say) collects the
        sum of all its downstream contributions. A returned adjoint is
        stored as it is; the sum is always a new array, because the same
        adjoint object may also be held by other nodes. A RowSparse adjoint
        is densified before a node that does not take one, and before a sum.
        """
        if loss._tape_ref is not self._ref:
            raise ValueError("loss tensor belongs to a different tape")
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss._grad = np.asarray(1.0)
        for node in reversed(self._nodes):
            g = node._grad
            if g is None or node._grad_fn is None:
                continue
            if type(g) is RowSparse and not node.takes_rows:
                g = node._grad = g.dense()
            for parent, pg in zip(node.parents, node._grad_fn(g)):
                if pg is None:
                    continue
                if parent._grad is None:  # stored as it is: no copy of an array
                    parent._grad = pg if type(pg) is RowSparse else np.asarray(pg, np.float64)
                else:
                    parent._grad = _dense(parent._grad) + _dense(pg)


def _tape_of(*tensors: Tensor) -> Tape:
    ref = tensors[0]._tape_ref
    for t in tensors[1:]:
        if t._tape_ref is not ref:
            raise ValueError("operands recorded on different tapes")
    return tensors[0].tape


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False,
           channel_major: bool = False) -> Tensor:
    """Affine map: out[i, j] = sum_k x[i, k] * w[k, j] + b[j].

    With relu=True the node is relu(linear(x, w, b)), named "linear_relu":
    the relu is applied in place to the affine result, and backward masks
    the adjoint with out > 0 before the linear formulas. Values and
    adjoints are byte-equal to the two separate ops.

    channel_major=True writes the result as the transpose of a C-contiguous
    (out, N) array, w.T @ x.T, for max_pool_groups. x is zero-padded to a
    multiple of 8 rows (a single row is not), which makes the product
    bit-equal to x @ w on OpenBLAS's Haswell dgemm kernel when `out` is a
    multiple of 8; any other width stays row-major.
    """
    tape = _tape_of(x, w, b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ValueError("linear expects x (N,in), w (in,out), b (out,)")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(
            f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    n = x.shape[0]
    if channel_major and w.shape[1] % 8 == 0:
        pad = -n % 8 if n > 1 else 0
        xp = np.concatenate([x.data, np.zeros((pad, x.shape[1]))]) if pad else x.data
        out = (w.data.T @ xp.T)[:, :n].T
    else:
        out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def grad_fn(g):
        if type(g) is RowSparse:
            v = g.values
            if relu:
                v = v * (out[g.rows] > 0.0)
            return (RowSparse(g.rows, v @ w.data.T, x.shape),
                    x.data[g.rows].T @ v, v.sum(axis=0))
        if relu:
            g = g * (out > 0.0)
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    name = "linear_relu" if relu else "linear"
    return Tensor(tape, out, (x, w, b), grad_fn, name, takes_rows=True)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at 0 is 0.

    NaN propagates: a NaN input gives a NaN output (so a NaN coordinate
    poisons the features and logits downstream instead of being masked to
    0) and a zero adjoint. Every non-positive input, -0.0 included, gives
    +0.0.
    """
    out = np.maximum(x.data, 0.0)

    def grad_fn(g):
        if type(g) is RowSparse:
            return (RowSparse(g.rows, g.values * (out[g.rows] > 0.0), out.shape),)
        return (g * (out > 0.0),)

    return Tensor(x.tape, out, (x,), grad_fn, "relu", takes_rows=True)


def max_pool_groups(a: Tensor, sizes) -> Tensor:
    """Per-group column-wise max: rows of `a` are B stacked clouds.

    `sizes` gives the row count of each group; the output is (B, d), and
    one cloud of N rows is the single group [N]. Each channel of each group
    takes its value from, and routes its adjoint to, the lowest-index row
    attaining the max (a +0.0/-0.0 tie goes to the first row, a NaN column
    to its first NaN), so ties are deterministic. Forward finds it with one
    argmax along the rows of a.T, contiguous when `a` is channel-major (a
    row-major `a` is copied first, same result); backward keeps the argmax
    and returns a RowSparse over the critical rows.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if a.ndim != 2:
        raise ValueError("max_pool_groups expects a 2-D array")
    if sizes.min(initial=1) < 1:
        raise ValueError("every group must contain at least one row")
    if int(sizes.sum()) != a.shape[0]:
        raise ValueError("group sizes do not add up to the row count")
    n_groups, d = len(sizes), a.shape[1]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    channels = a.data.T  # (d, N)
    if n_groups > 0 and bool((sizes == sizes[0]).all()):
        args = channels.reshape(d, n_groups, sizes[0]).argmax(axis=2).T
    else:
        args = np.array([channels[:, lo:hi].argmax(axis=1) for lo, hi in
                         zip(offsets[:-1], offsets[1:])], dtype=np.intp).reshape(n_groups, d)
    args += offsets[:-1, None]
    cols = np.arange(d)
    out = a.data[args, cols]

    def grad_fn(g):
        rows, slot = np.unique(args, return_inverse=True)  # rows[slot] == args
        # each (row, column) pair is hit once; += keeps the dense 0.0 + g,
        # which turns a -0.0 adjoint into +0.0
        values = np.zeros((len(rows), d))
        values[slot.reshape(args.shape), cols] += g
        return (RowSparse(rows, values, a.shape),)

    return Tensor(a.tape, out, (a,), grad_fn, "max_pool_groups")


def cosine_logits(f: Tensor, bank: Tensor) -> Tensor:
    """Cosine similarity of each feature row against every bank row.

    f is (B, d) and bank is (K, d); the result is (B, K). A single feature
    is a batch of one row. The result is clipped into [-1, 1] to absorb
    rounding above Cauchy-Schwarz; the clip is treated as identity in
    backward (it only binds on exactly parallel vectors).
    """
    tape = _tape_of(f, bank)
    if f.ndim != 2 or bank.ndim != 2 or f.shape[1] != bank.shape[1]:
        raise ValueError(f"cosine_logits expects (B, d) and (K, d): {f.shape}, {bank.shape}")
    fd = f.data
    fn = np.linalg.norm(fd, axis=1)  # (B,)
    mn = np.linalg.norm(bank.data, axis=1)  # (K,)
    if fn.min(initial=np.inf) <= _NORM_EPS:
        raise ValueError("cosine_logits: feature norm underflow (zero vector)")
    if mn.min(initial=np.inf) <= _NORM_EPS:
        raise ValueError("cosine_logits: prototype norm underflow (zero row)")
    z = (fd @ bank.data.T) / (fn[:, None] * mn[None, :])
    z = np.clip(z, -1.0, 1.0)

    def grad_fn(g):
        df = (g / mn[None, :]) @ bank.data / fn[:, None] \
            - ((g * z).sum(axis=1))[:, None] * fd / (fn**2)[:, None]
        dbank = (g / fn[:, None]).T @ fd / mn[:, None] \
            - ((g * z).sum(axis=0))[:, None] * bank.data / (mn**2)[:, None]
        return df, dbank

    return Tensor(tape, z, (f, bank), grad_fn, "cosine_logits")


def soft_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row cross-entropy of log-softmax(logits) against fixed targets.

    logits is (B, C) and targets a constant (B, C) array of probability
    rows; the result is the (B,) vector of row losses. Stabilized with the
    usual max-shift log-sum-exp.
    """
    t = np.asarray(targets, dtype=np.float64)
    y = logits.data
    if y.ndim != 2 or y.shape != t.shape:
        raise ValueError(f"soft_cross_entropy expects equal (B, C) shapes: {y.shape}, {t.shape}")
    m = y.max(axis=1, keepdims=True)
    ex = np.exp(y - m)
    lse = np.log(ex.sum(axis=1)) + m[:, 0]  # (B,)
    loss = lse * t.sum(axis=1) - (t * y).sum(axis=1)
    sm = ex / ex.sum(axis=1, keepdims=True)

    def grad_fn(g):
        return (g[:, None] * (sm * t.sum(axis=1, keepdims=True) - t),)

    return Tensor(logits.tape, loss, (logits,), grad_fn, "soft_ce")


def pick_rows(x: Tensor, indices) -> Tensor:
    """out[b] = x[b, indices[b]] for a 2-D tensor."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.ndim != 2 or idx.shape != (x.shape[0],):
        raise ValueError("pick_rows expects x (B, K) and one index per row")
    rows = np.arange(x.shape[0])

    def grad_fn(g):
        z = np.zeros_like(x.data)
        z[rows, idx] = g
        return (z,)

    return Tensor(x.tape, x.data[rows, idx], (x,), grad_fn, "pick_rows")


def take_row(x: Tensor, index: int) -> Tensor:
    """Row slice of a 2-D tensor as a 1-D tensor."""
    if x.ndim != 2:
        raise ValueError("take_row expects a 2-D tensor")
    index = int(index)

    def grad_fn(g):
        z = np.zeros_like(x.data)
        z[index] = g
        return (z,)

    return Tensor(x.tape, x.data[index], (x,), grad_fn, "take_row")


def gather_rows(sources, index) -> Tensor:
    """Rows `index` of the row-wise concatenation of the 2-D `sources`.

    The output is (len(index), d). Backward scatter-adds each output row's
    adjoint into the row it was taken from, so a row gathered more than once
    collects the sum of its adjoints; a source none of whose rows is
    gathered gets no adjoint.
    """
    sources = tuple(sources)
    tape = _tape_of(*sources)
    if any(s.ndim != 2 for s in sources) or len({s.shape[1] for s in sources}) != 1:
        raise ValueError("gather_rows expects 2-D sources of equal width")
    idx = np.asarray(index, dtype=np.intp)
    offsets = np.cumsum([0] + [s.shape[0] for s in sources])
    if idx.ndim != 1 or idx.min(initial=0) < 0 or idx.max(initial=0) >= offsets[-1]:
        raise ValueError(f"gather_rows index must be 1-D within 0..{offsets[-1] - 1}")
    table = np.concatenate([s.data for s in sources])
    spans = list(zip(offsets[:-1], offsets[1:]))

    def grad_fn(g):
        z = np.zeros_like(table)
        np.add.at(z, idx, g)
        return tuple(z[lo:hi] if ((idx >= lo) & (idx < hi)).any() else None
                     for lo, hi in spans)

    return Tensor(tape, table[idx], sources, grad_fn, "gather_rows")


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.full_like(x.data, float(g)),)

    return Tensor(x.tape, x.data.sum(), (x,), grad_fn, "sum")


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def grad_fn(g):
        return (np.full_like(x.data, float(g) / n),)

    return Tensor(x.tape, x.data.mean(), (x,), grad_fn, "mean")


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _tape_of(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def grad_fn(g):
        return g, g

    return Tensor(tape, a.data + b.data, (a, b), grad_fn, "add")


def add_const(a: Tensor, c: float) -> Tensor:
    def grad_fn(g):
        return (g,)

    return Tensor(a.tape, a.data + c, (a,), grad_fn, "add_const")


def mul_const(a: Tensor, c) -> Tensor:
    """Elementwise product with a constant array (or scalar)."""
    c = np.asarray(c, dtype=np.float64)

    def grad_fn(g):
        return (g * c,)

    return Tensor(a.tape, a.data * c, (a,), grad_fn, "mul_const")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return Tensor(a.tape, a.data * c, (a,), grad_fn, "scale")


def euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise Euclidean distance between two (B, d) tensors, as a (B,)
    vector; the subgradient is 0 where a row of a equals the row of b."""
    tape = _tape_of(a, b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"euclidean expects (B, d) tensors of equal shape: {a.shape}, {b.shape}")
    if not (np.isfinite(a.data).all() and np.isfinite(b.data).all()):
        raise ValueError("euclidean rejects non-finite inputs")
    diff = a.data - b.data
    dist = np.sqrt((diff * diff).sum(axis=1))
    live = dist > _NORM_EPS

    def grad_fn(g):
        coef = np.divide(g, dist, out=np.zeros_like(dist), where=live)
        d = coef[:, None] * diff
        return d, -d

    return Tensor(tape, dist, (a, b), grad_fn, "euclidean")


def grad_check(f, theta: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between f's analytic gradient and central differences.

    f maps a flat parameter vector to (value, gradient). Central differences
    use step h per coordinate: (f(t + h e_i) - f(t - h e_i)) / (2 h). The
    relative error is |a - n| / max(1, |a|, |n|), so near-zero gradients are
    compared on an absolute scale.
    """
    if h <= 0:
        raise ValueError("grad_check requires h > 0")
    theta = np.asarray(theta, dtype=np.float64)
    value, analytic = f(theta)
    if not np.isfinite(value):
        raise ValueError("grad_check: function value is not finite")
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != theta.shape:
        raise ValueError("analytic gradient shape does not match theta")
    worst = 0.0
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump.flat[i] = h
        up, _ = f(theta + bump)
        down, _ = f(theta - bump)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError("grad_check: perturbed function value is not finite")
        numeric = (up - down) / (2.0 * h)
        a = analytic.flat[i]
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        worst = max(worst, err)
    return worst
