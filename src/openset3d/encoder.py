"""Point-cloud backbone and prototype head.

A shared per-point MLP lifts (N, 3) coordinates to per-point features A,
a max-pool collapses them to one vector per cloud, and a projection MLP
produces the global feature F. Class logits are cosine similarities
between F and a learnable (C+1)-row prototype bank whose last row stands
for the unknown class.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading

import numpy as np

from . import autodiff as ad

__all__ = ["Model", "TapedModel", "init_prototypes", "normalize_cloud", "usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on (1 where the OS cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_calls = queue.SimpleQueue()  # (fn, args, done) for the helper thread; None stops it
_helper = None  # the scoring helper thread, started by the first call that splits
_helper_lock = threading.Lock()


def _serve() -> None:
    # drops its references to a call before it reports the call done, so the
    # caller's buffers are freed by the caller, not kept until the next call
    while (call := _calls.get()) is not None:
        fn, args, done = call
        del call
        try:
            fn(*args)
            failure = None
        except BaseException as exc:  # raised again in the caller
            failure = exc
        del fn, args
        done.put(failure)


def _submit(fn, *args) -> queue.SimpleQueue:
    """Run fn(*args) on the helper thread, started if need be; the returned
    queue yields None or the exception fn raised. (A thread and a queue, not
    concurrent.futures: its import pulls in logging, which cost 0.6 MB of
    resident memory when scoring.)"""
    global _helper
    done = queue.SimpleQueue()
    with _helper_lock:
        if _helper is None:
            _helper = threading.Thread(target=_serve, name="openset3d-score", daemon=True)
            _helper.start()
        _calls.put((fn, args, done))
    return done


def _join_helper() -> None:
    """Before a fork: join the helper once its calls are done, and hold the
    lock until the fork is over, so that no thread of ours is alive at the
    fork. The next call that splits starts a new helper."""
    global _helper
    _helper_lock.acquire()
    if _helper is not None:
        _calls.put(None)
        _helper.join()
        _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_join_helper, after_in_parent=_helper_lock.release,
                        after_in_child=_helper_lock.release)


def _checked_clouds(clouds) -> list[np.ndarray]:
    arrays = [np.asarray(c, dtype=np.float64) for c in clouds]
    if not arrays:
        raise ValueError("expected at least one cloud")
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != 3 or a.shape[0] == 0:
            raise ValueError("every cloud must be a nonempty (N, 3) array")
    return arrays


def _split_at(sizes: np.ndarray) -> int:
    """The cloud index that cuts a batch into two halves of near-equal row
    counts, or 0 for no cut. Neither half may be a single row: numpy
    computes a one-row product with gemv, which rounds differently."""
    rows = np.cumsum(sizes)[:-1]
    cuts = np.flatnonzero((rows >= 2) & (rows <= sizes.sum() - 2))
    if len(cuts) == 0:
        return 0
    return int(cuts[np.abs(2 * rows[cuts] - sizes.sum()).argmin()]) + 1


def normalize_cloud(points: np.ndarray) -> np.ndarray:
    """Center a cloud at its centroid and scale the max radius to 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError("expected a nonempty (N, 3) point array")
    centered = pts - pts.mean(axis=0)
    radius = np.linalg.norm(centered, axis=1).max()
    if radius <= 0.0:
        raise ValueError("degenerate cloud: all points coincide")
    return centered / radius


def init_prototypes(num_known: int, feat_dim: int, rng: np.random.Generator) -> np.ndarray:
    """(C+1, d) Gaussian prototype bank with scale 1/sqrt(d).

    The scale puts the expected row norm near 1 so initial cosines stay
    small and symmetric. Rows are resampled away from zero norm.
    """
    if num_known < 1 or feat_dim < 1:
        raise ValueError("init_prototypes requires num_known >= 1 and feat_dim >= 1")
    bank = rng.normal(0.0, 1.0 / np.sqrt(feat_dim), size=(num_known + 1, feat_dim))
    for i in range(bank.shape[0]):
        while np.linalg.norm(bank[i]) < 1e-6:
            bank[i] = rng.normal(0.0, 1.0 / np.sqrt(feat_dim), size=feat_dim)
    return bank


class Model:
    """Encoder parameters plus the prototype bank, stored as flat arrays.

    Parameters live in a name -> ndarray dict so the optimizer, the
    checkpoint format, and the checksum all see one canonical layout.
    HYPERPARAMS names the architecture: num_known, then the TrainConfig
    fields that hold the defaults of the rest.
    """

    HYPERPARAMS = ("num_known", "feat_dim", "point_widths", "proj_hidden")

    def __init__(self, num_known, feat_dim, point_widths, proj_hidden, seed=0):
        if num_known < 1:
            raise ValueError("need at least one known class")
        self.num_known = int(num_known)
        self.feat_dim = int(feat_dim)
        self.point_widths = tuple(int(w) for w in point_widths)
        self.proj_hidden = tuple(int(w) for w in proj_hidden)
        if not self.point_widths:
            raise ValueError("point_widths must name at least one layer")
        self.params: dict[str, np.ndarray] = {}
        ss = np.random.SeedSequence([0x05E7, int(seed) & 0xFFFFFFFF])
        children = ss.spawn(len(self.point_widths) + len(self.proj_hidden) + 2)
        dims = (3,) + self.point_widths
        k = 0
        for i in range(len(self.point_widths)):
            self._init_layer(f"point{i}", dims[i], dims[i + 1], children[k])
            k += 1
        proj_dims = (self.point_widths[-1],) + self.proj_hidden + (self.feat_dim,)
        for i in range(len(proj_dims) - 1):
            self._init_layer(f"proj{i}", proj_dims[i], proj_dims[i + 1], children[k])
            k += 1
        self.params["prototypes"] = init_prototypes(
            self.num_known, self.feat_dim, np.random.default_rng(children[k])
        )
        self._num_proj = len(proj_dims) - 1

    def _init_layer(self, name, fan_in, fan_out, seed_seq):
        rng = np.random.default_rng(seed_seq)
        self.params[f"{name}.w"] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        self.params[f"{name}.b"] = np.zeros(fan_out)

    def hyperparams(self) -> dict:
        return {key: getattr(self, key) for key in self.HYPERPARAMS}

    def checksum(self) -> str:
        """SHA-256 over the canonical parameter layout and values."""
        digest = hashlib.sha256()
        for name in sorted(self.params):
            arr = self.params[name]
            digest.update(name.encode())
            digest.update(str(arr.shape).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def bind(self, tape: ad.Tape) -> "TapedModel":
        """Wrap every parameter as a tape leaf for one forward/backward pass."""
        leaves = {name: tape.leaf(arr, name) for name, arr in sorted(self.params.items())}
        return TapedModel(self, tape, leaves)

    # ------------------------------------------------------------------
    # forwards without a tape

    def infer_batch(self, clouds) -> np.ndarray:
        """Logits (B, C+1) for a list of clouds, without a tape.

        The bits are those of encode_batch and logits, with fewer float
        operations. The layers run as in ad.linear (the last point layer
        channel-major and zero-padded the same way), except that the last
        point layer max-pools its pre-activations per cloud, then adds the
        bias and applies relu to the (B, d) pooled rows only. That is exact:
        round-to-nearest addition is monotone, so x -> relu(fl(x + b)) is
        non-decreasing, and max_n relu(fl(pre_n + b)) equals
        relu(fl(max_n pre_n + b)); a NaN propagates through both the same
        way. The projection layers and the cosine head run once, on the full
        batch.

        With two or more usable CPUs, two or more clouds and point widths
        that are all multiples of 8, the clouds are cut into two halves at a
        cloud boundary (never a one-row half), and a helper thread runs the
        point MLP and pool of the first half while the caller runs the
        second. The caller allocates every buffer and
        each half writes its own rows with matmul(..., out=...); a padded
        last layer pads each half to a multiple of 8 rows. The helper runs
        numpy only, and it is joined before the process forks.
        """
        arrays = _checked_clouds(clouds)
        sizes = np.array([len(a) for a in arrays])
        starts = np.concatenate([[0], np.cumsum(sizes)])
        layers = [(self.params[f"point{i}.w"], self.params[f"point{i}.b"])
                  for i in range(len(self.point_widths))]
        width = self.point_widths[-1]
        padded = width % 8 == 0 and starts[-1] > 1  # ad.linear's channel-major rule
        # cutting a product by rows keeps every row's bits only for output
        # widths that are multiples of 8: OpenBLAS's dgemm kernels handle the
        # other widths' edge columns depending on the row count
        split = usable_cpus() > 1 and all(w % 8 == 0 for w in self.point_widths)
        cut = _split_at(sizes) if split else 0
        parts, total = [], 0  # (first cloud, end cloud, first buffer row, rows)
        for lo, hi in ((0, cut), (cut, len(sizes))) if cut else ((0, len(sizes)),):
            count = int(starts[hi] - starts[lo])
            parts.append((lo, hi, total, count))
            total += count + -count % 8 if padded else count
        x = np.empty((total, 3))
        hidden = [np.empty((total, w)) for w in self.point_widths[:-1]]
        last = np.empty((width, total)) if padded else np.empty((total, width))
        # max_pool_groups' layout: channel-major for equal sizes, row-major
        # otherwise; BLAS rounds a product of the two layouts differently
        if (sizes == sizes[0]).all():
            pooled = np.empty((width, len(sizes))).T
        else:
            pooled = np.empty((len(sizes), width))

        def point_pool(lo, hi, row, count):
            np.concatenate(arrays[lo:hi], out=x[row:row + count])
            h = x[row:row + count]
            for (w, b), buf in zip(layers[:-1], hidden):
                out = buf[row:row + count]
                np.matmul(h, w, out=out)
                out += b
                np.maximum(out, 0.0, out=out)
                h = out
            if padded:
                rows = (hidden[-1] if hidden else x)[row:row + count + -count % 8]
                rows[count:] = 0.0  # the zero padding
                out = last[:, row:row + len(rows)]
                np.matmul(layers[-1][0].T, rows.T, out=out)
                channels = out[:, :count]
            else:
                out = last[row:row + count]
                np.matmul(h, layers[-1][0], out=out)
                channels = out.T
            np.maximum.reduceat(channels, starts[lo:hi] - starts[lo], axis=1,
                                out=pooled[lo:hi].T)

        if cut:
            done = _submit(point_pool, *parts[0])
            try:
                point_pool(*parts[1])
            finally:
                failure = done.get()
            if failure is not None:
                raise failure
        else:
            point_pool(*parts[0])
        pooled += layers[-1][1]
        f = np.maximum(pooled, 0.0, out=pooled)
        for i in range(self._num_proj):
            f = f @ self.params[f"proj{i}.w"]
            f += self.params[f"proj{i}.b"]
            if i < self._num_proj - 1:
                np.maximum(f, 0.0, out=f)
        return ad.cosine_forward(f, self.params["prototypes"])[0]

    def feature_logits(self, features: np.ndarray) -> np.ndarray:
        """Cosine logits (K, C+1) of raw feature rows (K, d) against the
        current bank."""
        return ad.cosine_forward(features, self.params["prototypes"])[0]


class TapedModel:
    """A Model bound to one tape; every call records differentiable ops."""

    def __init__(self, model: Model, tape: ad.Tape, leaves: dict):
        self.model = model
        self.tape = tape
        self.leaves = leaves

    def encode_batch(self, clouds):
        """Encode a list of (N_i, 3) clouds in one stacked pass.

        Returns (A_all, F): A_all is the stacked per-point feature matrix
        (sum N_i, d_pre) and F the (B, d) global features. Per-cloud slices
        of A_all follow the input order.
        """
        arrays = _checked_clouds(clouds)
        sizes = [len(a) for a in arrays]
        x = self.tape.leaf(np.vstack(arrays), "points")
        h = x
        n_point = len(self.model.point_widths)
        for i in range(n_point):
            h = ad.linear(h, self.leaves[f"point{i}.w"], self.leaves[f"point{i}.b"],
                          relu=True, channel_major=i == n_point - 1)
        # nonnegative post-relu activations, channel-major for the pool: the
        # layer saliency reads gradients from, and what the pooling consumes
        a_all = h  # (sum N_i, d_pre)
        pooled = ad.max_pool_groups(a_all, sizes)
        f = pooled
        for i in range(self.model._num_proj):
            f = ad.linear(f, self.leaves[f"proj{i}.w"], self.leaves[f"proj{i}.b"],
                          relu=i < self.model._num_proj - 1)
        return a_all, f

    def logits(self, f: ad.Tensor) -> ad.Tensor:
        """Cosine similarities of feature row(s) against the prototype bank."""
        return ad.cosine_logits(f, self.leaves["prototypes"])

    def param_grads(self) -> dict[str, np.ndarray]:
        """Gradients collected on the parameter leaves after backward()."""
        return {
            name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
            for name, leaf in self.leaves.items()
        }
