"""Point-cloud backbone and prototype head.

A shared per-point MLP lifts (N, 3) coordinates to per-point features A,
a max-pool collapses them to one vector per cloud, and a projection MLP
produces the global feature F. Class logits are cosine similarities
between F and a learnable (C+1)-row prototype bank whose last row stands
for the unknown class.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad

__all__ = ["Model", "TapedModel", "init_prototypes", "normalize_cloud"]


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
    # no-grad conveniences

    def infer_batch(self, clouds) -> np.ndarray:
        """Logits (B, C+1) for a list of clouds, on a throwaway tape."""
        tape = ad.Tape()
        bound = self.bind(tape)
        _, feats = bound.encode_batch(clouds)
        return bound.logits(feats).data

    def feature_logits(self, features: np.ndarray) -> np.ndarray:
        """Cosine logits (K, C+1) of raw feature rows (K, d) against the
        current bank, on a throwaway tape."""
        tape = ad.Tape()
        return ad.cosine_logits(tape.leaf(features), tape.leaf(self.params["prototypes"])).data


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
        arrays = [np.asarray(c, dtype=np.float64) for c in clouds]
        if not arrays:
            raise ValueError("encode_batch needs at least one cloud")
        sizes = []
        for a in arrays:
            if a.ndim != 2 or a.shape[1] != 3 or a.shape[0] == 0:
                raise ValueError("every cloud must be a nonempty (N, 3) array")
            sizes.append(a.shape[0])
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
