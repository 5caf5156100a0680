"""Frozen micro-setup for whole-pipeline gradient checks.

Differentiates the trainer's own objective, `training.batch_loss`, over a
tiny model: a batch of two clouds with frozen high/low parts, and the
synthesis and margin generators reseeded on every evaluation, so the loss
is a pure function of the flattened parameter vector and central finite
differences can be taken safely. The configuration runs all four terms.
Seeds are screened so no relu kink (the encoder's fused linear_relu
layers and the margin hinge) sits within finite-difference reach and no
triplet distance (any row of the batch's row-wise distance) is near zero.
"""

import numpy as np

from openset3d import autodiff as ad
from openset3d.data import CloudRecord
from openset3d.encoder import Model, normalize_cloud
from openset3d.margins import RunningStd
from openset3d.saliency import Part, split_by_saliency
from openset3d.training import TrainConfig, batch_loss

# N=16 points, d=8, C=3, batch of 2; each of the two synthetic samples mixes
# both low parts; no pseudo-features, so every triplet keeps its real members
CONFIG = TrainConfig(
    alpha=0.1, beta=0.01, gamma=0.3, mix_count=2,
    noise_weights=(), p_replace=0.0, feat_dim=8, point_widths=(8, 8), proj_hidden=(),
)


def _flatten(params):
    names = sorted(params)
    vec = np.concatenate([params[n].ravel() for n in names])
    shapes = [(n, params[n].shape) for n in names]
    return vec, shapes


def _unflatten(vec, shapes):
    out = {}
    offset = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        out[name] = vec[offset : offset + size].reshape(shape).copy()
        offset += size
    return out


class MicroSetup:
    """One batch_loss evaluation with every random choice frozen."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.model = Model(num_known=3, feat_dim=CONFIG.feat_dim,
                           point_widths=CONFIG.point_widths, proj_hidden=(), seed=seed)
        self.batch, self.highs, self.lows = [], [], []
        for label in (0, 1):
            object_id = f"micro/{label}"
            cloud = normalize_cloud(rng.uniform(-1, 1, (16, 3)))
            self.batch.append(CloudRecord(object_id, cloud, "micro", label, True, "train"))
            low, high = split_by_saliency(rng.random(16), CONFIG.mix_count)
            for parts, idx in ((self.highs, high), (self.lows, low)):
                parts.append(Part(cloud[idx], label, object_id, idx))
        self.theta0, self.shapes = _flatten(self.model.params)

    def evaluate(self, theta, config=CONFIG):
        """(bound model, total, terms) of batch_loss at theta, not yet differentiated."""
        self.model.params = _unflatten(theta, self.shapes)
        bound = self.model.bind(ad.Tape())
        rngs = (np.random.default_rng([self.seed, 1]), np.random.default_rng([self.seed, 2]))
        total, terms = batch_loss(bound, self.batch, self.highs, self.lows, config,
                                  rngs, RunningStd(config.feat_dim))
        return bound, total, terms

    def loss_and_grad(self, theta):
        """Composite total loss and its parameter gradient at theta."""
        bound, total, terms = self.evaluate(theta)
        bound.tape.backward(total)
        grads = bound.param_grads()
        grad_vec = np.concatenate([grads[n].ravel() for n, _ in self.shapes])
        self.terms = tuple(t.item() for t in terms)
        self._kink_margins = self._measure_margins(bound.tape)
        return total.item(), grad_vec

    @staticmethod
    def _pre_activation(node):
        """The value a relu node clamps: its parent's data for a plain relu;
        for a fused linear_relu, x @ w + b recomputed from its parents with
        the ops ad.linear runs before it clamps in place."""
        if node.name == "relu":
            return node.parents[0].data
        x, w, b = (p.data for p in node.parents)
        pre = x @ w
        pre += b
        return pre

    @classmethod
    def _measure_margins(cls, tape):
        relu_gaps = [np.abs(cls._pre_activation(t)).min() for t in tape._nodes
                     if t.name in ("relu", "linear_relu")]
        distances = [t.data.min() for t in tape._nodes if t.name == "euclidean"]
        return {
            "relu": min(relu_gaps, default=np.inf),
            "distances": min(distances, default=np.inf),
        }

    def is_kink_safe(self, h):
        """True when no relu boundary sits within ~100x the FD step."""
        self.loss_and_grad(self.theta0)
        m = self._kink_margins
        return m["relu"] > 100 * h and m["distances"] > 1e-3


def make_micro_setup(h=1e-5):
    """First kink-safe micro setup from a fixed seed list."""
    for seed in (14, 58, 101):
        setup = MicroSetup(seed)
        if setup.is_kink_safe(h):
            return setup
    raise RuntimeError("no kink-safe micro setup found in the seed list")
