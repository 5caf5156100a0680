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

Everything is float64 and eager; there is no fusion or graph rewriting.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "linear",
    "relu",
    "max_pool_points",
    "max_pool_groups",
    "cosine_logits",
    "soft_cross_entropy",
    "pick",
    "pick_rows",
    "take_row",
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
_INF_BITS = np.float64(np.inf).view(np.uint64)


class Tensor:
    """A node on a Tape: cached forward value plus an adjoint slot."""

    __slots__ = ("_tape_ref", "data", "parents", "grad", "_grad_fn", "name")

    def __init__(self, tape, data, parents=(), grad_fn=None, name=""):
        self._tape_ref = tape._ref
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self.grad = None
        self._grad_fn = grad_fn
        self.name = name
        tape._nodes.append(self)

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
        adjoint object may also be held by other nodes.
        """
        if loss._tape_ref is not self._ref:
            raise ValueError("loss tensor belongs to a different tape")
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.asarray(1.0)
        for node in reversed(self._nodes):
            if node.grad is None or node._grad_fn is None:
                continue
            parent_grads = node._grad_fn(node.grad)
            for parent, g in zip(node.parents, parent_grads):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.asarray(g, dtype=np.float64)  # no copy of an array
                else:
                    parent.grad = parent.grad + g


def _tape_of(*tensors: Tensor) -> Tape:
    ref = tensors[0]._tape_ref
    for t in tensors[1:]:
        if t._tape_ref is not ref:
            raise ValueError("operands recorded on different tapes")
    return tensors[0].tape


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: out[i, j] = sum_k x[i, k] * w[k, j] + b[j]."""
    tape = _tape_of(x, w, b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ValueError("linear expects x (N,in), w (in,out), b (out,)")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(
            f"linear shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    out = x.data @ w.data
    out += b.data

    def grad_fn(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor(tape, out, (x, w, b), grad_fn, "linear")


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at 0 is 0.

    NaN propagates: a NaN input gives a NaN output (so a NaN coordinate
    poisons the features and logits downstream instead of being masked to
    0) and a zero adjoint. Every non-positive input, -0.0 included, gives
    +0.0.
    """
    out = np.maximum(x.data, 0.0)

    def grad_fn(g):
        return (g * (out > 0.0),)

    return Tensor(x.tape, out, (x,), grad_fn, "relu")


def max_pool_points(a: Tensor) -> Tensor:
    """Column-wise max over the point axis: (N, d) -> (d,).

    Each channel routes its adjoint to the lowest-index row attaining the
    max, which keeps backward deterministic under ties.
    """
    if a.ndim != 2:
        raise ValueError("max_pool_points expects a 2-D array (N, d)")
    n, d = a.shape
    if n == 0:
        raise ValueError("max_pool_points rejects an empty point axis")
    arg = a.data.argmax(axis=0)  # first max per column
    out = a.data[arg, np.arange(d)]

    def grad_fn(g):
        z = np.zeros_like(a.data)
        z[arg, np.arange(d)] = g
        return (z,)

    return Tensor(a.tape, out, (a,), grad_fn, "max_pool_points")


def max_pool_groups(a: Tensor, sizes) -> Tensor:
    """Per-group column-wise max: rows of `a` are B stacked clouds.

    `sizes` gives the row count of each group; the output is (B, d). The
    tie rule matches max_pool_points within every group: the value and the
    adjoint come from the lowest-index row attaining the max. Forward only
    reduces values; the argmax is found in backward, so a forward-only pass
    never pays for it.
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
    equal = n_groups > 0 and bool((sizes == sizes[0]).all())
    # The bit patterns of doubles without a sign bit (+0.0 up to +inf) sort
    # like their values, so an unsigned max over the bits is the exact max
    # of such a column. Relu output is all of that kind. A column holding a
    # negative value, -0.0 or NaN has a larger max pattern than +inf and is
    # redone as a first-argmax over floats, which is the tie rule for +0.0
    # against -0.0 and for NaN.
    bits = a.data.view(np.uint64)
    if equal:
        top = bits.reshape(n_groups, -1, d).max(axis=1)
    else:
        top = np.empty((n_groups, d), dtype=np.uint64)
        for g_idx in range(n_groups):
            bits[offsets[g_idx] : offsets[g_idx + 1]].max(axis=0, out=top[g_idx])
    out = top.view(np.float64)
    gs, cs = np.nonzero(top > _INF_BITS)
    if len(gs):
        # each group's rows, padded with copies of its last row
        rows = offsets[gs, None] + np.minimum(np.arange(sizes.max()), sizes[gs, None] - 1)
        cand = a.data[rows, cs[:, None]]
        out[gs, cs] = cand[np.arange(len(gs)), cand.argmax(axis=1)]

    def grad_fn(g):
        # out holds the bits of the first max row, so the first row with
        # equal bits is the first argmax (integer compare: NaN matches too)
        if equal:
            args = (bits.reshape(n_groups, -1, d) == top[:, None, :]).argmax(axis=1)
        else:
            args = np.empty((n_groups, d), dtype=np.intp)
            for g_idx in range(n_groups):
                block = bits[offsets[g_idx] : offsets[g_idx + 1]]
                args[g_idx] = (block == top[g_idx]).argmax(axis=0)
        args += offsets[:-1, None]
        z = np.zeros_like(a.data)
        z[args, np.arange(d)] += g
        return (z,)

    return Tensor(a.tape, out, (a,), grad_fn, "max_pool_groups")


def cosine_logits(f: Tensor, bank: Tensor) -> Tensor:
    """Cosine similarity of feature rows against every bank row.

    f is (d,) or (B, d); bank is (K, d). The result is clipped into
    [-1, 1] to absorb rounding above Cauchy-Schwarz; the clip is treated
    as identity in backward (it only binds on exactly parallel vectors).
    """
    tape = _tape_of(f, bank)
    single = f.ndim == 1
    fd = f.data[None, :] if single else f.data
    if bank.ndim != 2 or fd.shape[1] != bank.shape[1]:
        raise ValueError(f"cosine_logits shape mismatch: f {f.shape}, bank {bank.shape}")
    fn = np.linalg.norm(fd, axis=1)  # (B,)
    mn = np.linalg.norm(bank.data, axis=1)  # (K,)
    if fn.min(initial=np.inf) <= _NORM_EPS:
        raise ValueError("cosine_logits: feature norm underflow (zero vector)")
    if mn.min(initial=np.inf) <= _NORM_EPS:
        raise ValueError("cosine_logits: prototype norm underflow (zero row)")
    z = (fd @ bank.data.T) / (fn[:, None] * mn[None, :])
    z = np.clip(z, -1.0, 1.0)

    def grad_fn(g):
        g2 = g[None, :] if single else g
        df = (g2 / mn[None, :]) @ bank.data / fn[:, None] \
            - ((g2 * z).sum(axis=1))[:, None] * fd / (fn**2)[:, None]
        dbank = (g2 / fn[:, None]).T @ fd / mn[:, None] \
            - ((g2 * z).sum(axis=0))[:, None] * bank.data / (mn**2)[:, None]
        return (df[0] if single else df), dbank

    return Tensor(tape, z[0] if single else z, (f, bank), grad_fn, "cosine_logits")


def soft_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Cross-entropy of log-softmax(logits) against a fixed target row.

    targets is a constant probability vector (or matrix matching a batch of
    logit rows). Returns a scalar for 1-D logits and a per-row vector for
    2-D logits. Stabilized with the usual max-shift log-sum-exp.
    """
    t = np.asarray(targets, dtype=np.float64)
    single = logits.ndim == 1
    y = logits.data[None, :] if single else logits.data
    t2 = t[None, :] if single else t
    if y.shape != t2.shape:
        raise ValueError(f"soft_cross_entropy shape mismatch: {logits.shape} vs {t.shape}")
    m = y.max(axis=1, keepdims=True)
    ex = np.exp(y - m)
    lse = np.log(ex.sum(axis=1)) + m[:, 0]  # (B,)
    loss = lse * t2.sum(axis=1) - (t2 * y).sum(axis=1)
    sm = ex / ex.sum(axis=1, keepdims=True)

    def grad_fn(g):
        g2 = np.asarray(g).reshape(-1, 1)
        dy = g2 * (sm * t2.sum(axis=1, keepdims=True) - t2)
        return (dy[0] if single else dy,)

    return Tensor(logits.tape, loss[0] if single else loss, (logits,), grad_fn, "soft_ce")


def pick(x: Tensor, index: int) -> Tensor:
    """Scalar element of a 1-D tensor."""
    if x.ndim != 1:
        raise ValueError("pick expects a 1-D tensor")
    index = int(index)

    def grad_fn(g):
        z = np.zeros_like(x.data)
        z[index] = g
        return (z,)

    return Tensor(x.tape, x.data[index], (x,), grad_fn, "pick")


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
    """Euclidean distance between two 1-D tensors (subgradient 0 at a == b)."""
    tape = _tape_of(a, b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("euclidean expects two 1-D tensors of equal length")
    if not (np.isfinite(a.data).all() and np.isfinite(b.data).all()):
        raise ValueError("euclidean rejects non-finite inputs")
    diff = a.data - b.data
    dist = float(np.sqrt((diff * diff).sum()))

    def grad_fn(g):
        if dist <= _NORM_EPS:
            z = np.zeros_like(diff)
            return z, z
        d = (float(g) / dist) * diff
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
