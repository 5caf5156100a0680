"""Feature-margin separation with synthesized pseudo-features.

Each known-class anchor pulls toward a positive (its high-saliency part's
feature) and pushes from a negative (a different-class feature) under a
weighted hinge triplet loss. To densify the feature pairs, Gaussian-noised
copies of the anchor that the head still classifies correctly may replace
either the positive or the negative - never both for one triplet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import Model

__all__ = [
    "Triplet",
    "RunningStd",
    "pseudo_features",
    "build_triplet",
    "margin_loss",
]


@dataclass
class Triplet:
    anchor: object  # Tensor (margin_loss) or ndarray feature
    positive: object
    negative: object
    replacement: str  # "none" | "positive" | "negative"


class RunningStd:
    """Exponential moving average of the per-dimension feature std.

    Starts at ones so early noise draws have a sane scale; updates happen
    between optimizer steps only.
    """

    def __init__(self, dim: int, momentum: float = 0.9):
        self.value = np.ones(dim)
        self.momentum = momentum
        self._seen = False

    def update(self, features: np.ndarray) -> None:
        batch_std = np.asarray(features, dtype=np.float64).std(axis=0)
        if not self._seen:
            self.value = batch_std
            self._seen = True
        else:
            self.value = self.momentum * self.value + (1.0 - self.momentum) * batch_std


def pseudo_features(feature, noise_weights, model: Model, label, rng,
                    feature_std=None):
    """One verified Gaussian-noised copy of `feature`, or None.

    Draws one candidate per noise weight (std = weight * running feature
    std per dimension), keeps those whose argmax cosine logit still equals
    the anchor's label, and returns a uniformly chosen survivor. An empty
    result is a legitimate outcome.
    """
    f = np.asarray(feature, dtype=np.float64)
    if feature_std is None:
        feature_std = np.ones_like(f)
    candidates = []
    for w in noise_weights:
        cand = f + rng.normal(size=f.shape) * (float(w) * feature_std)
        if int(model.feature_logits(cand).argmax()) == int(label):
            candidates.append(cand)
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def build_triplet(anchor, positive, negative, pseudo, p_replace, rng) -> Triplet:
    """Assemble one triplet, possibly substituting the pseudo-feature.

    anchor and negative are (feature, class) pairs; positive is the
    high-part feature. With probability p_replace, and only when a pseudo
    feature is available, a fair coin replaces exactly one of positive or
    negative with it.
    """
    anchor_feat, anchor_class = anchor
    negative_feat, negative_class = negative
    if int(anchor_class) == int(negative_class):
        raise ValueError("triplet negative must come from a different class")
    replacement = "none"
    pos, neg = positive, negative_feat
    if pseudo is not None and rng.random() < p_replace:
        if rng.random() < 0.5:
            pos, replacement = pseudo, "positive"
        else:
            neg, replacement = pseudo, "negative"
    return Triplet(
        anchor=anchor_feat,
        positive=pos,
        negative=neg,
        replacement=replacement,
    )


def margin_loss(triplet: Triplet, pos_weight, neg_weight, margin):
    """Hinged weighted triplet loss, as a scalar Tensor:

        max(0, pos_weight * d(anchor, positive)
              - neg_weight * d(anchor, negative) + margin)

    with Euclidean d. The anchor is a tape Tensor; an array member (a
    pseudo-feature) becomes a constant leaf on the anchor's tape.
    Differentiable wherever the hinge is strictly positive.
    """
    if pos_weight < 0 or neg_weight < 0 or margin < 0:
        raise ValueError("triplet weights and margin must be nonnegative")
    if not isinstance(triplet.anchor, ad.Tensor):
        raise TypeError("margin_loss needs the anchor on a tape (an ad.Tensor)")
    tape = triplet.anchor.tape
    a, p, n = (m if isinstance(m, ad.Tensor) else tape.leaf(np.asarray(m, dtype=np.float64))
               for m in (triplet.anchor, triplet.positive, triplet.negative))
    d_pos = ad.euclidean(a, p)
    d_neg = ad.euclidean(a, n)
    pre = ad.add_const(
        ad.add(ad.scale(d_pos, pos_weight), ad.scale(d_neg, -neg_weight)), margin
    )
    return ad.relu(pre)
