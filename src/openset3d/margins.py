"""Feature-margin separation with synthesized pseudo-features.

Each known-class anchor pulls toward a positive (its high-saliency part's
feature) and pushes from a negative (a different-class feature) under a
weighted hinge triplet loss. To densify the feature pairs, Gaussian-noised
copies of the anchor that the head still classifies correctly may replace
either the positive or the negative - never both for one triplet.

The choices are made one anchor at a time (pseudo_features, then
build_triplet), so their draws keep a fixed per-anchor order. The loss is
batched: margin_loss takes the anchors, positives and negatives of a whole
batch as (B, d) tensors and records one row-wise distance per side, one
hinge and one mean, however many triplets there are.
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
    # whatever the caller names its members by: features, or row numbers
    anchor: object
    positive: object
    negative: object
    replacement: str  # "none" | "positive" | "negative"


class RunningStd:
    """Exponential moving average of the per-dimension feature std.

    Starts at ones so early noise draws have a sane scale; updates happen
    between optimizer steps only.
    """

    MOMENTUM = 0.9

    def __init__(self, dim: int):
        self.value = np.ones(dim)
        self._seen = False

    def update(self, features: np.ndarray) -> None:
        batch_std = np.asarray(features, dtype=np.float64).std(axis=0)
        if not self._seen:
            self.value = batch_std
            self._seen = True
        else:
            self.value = self.MOMENTUM * self.value + (1.0 - self.MOMENTUM) * batch_std


def pseudo_features(feature, noise_weights, model: Model, label, rng, feature_std):
    """One verified Gaussian-noised copy of `feature`, or None.

    Draws one candidate per noise weight (std = weight * feature_std, the
    running per-dimension feature std), keeps those whose argmax cosine
    logit still equals the anchor's label, and returns a uniformly chosen
    survivor. An empty result is a legitimate outcome. The K candidates
    are one (K, d) draw, the same values as K draws of d, checked in one
    feature_logits call; with no noise weights nothing is drawn.
    """
    f = np.asarray(feature, dtype=np.float64)
    weights = np.asarray(noise_weights, dtype=np.float64)
    if weights.size == 0:
        return None
    noise = rng.normal(size=(weights.size, f.size))
    candidates = f + noise * (weights[:, None] * feature_std)
    survivors = np.flatnonzero(model.feature_logits(candidates).argmax(axis=1) == int(label))
    if survivors.size == 0:
        return None
    return candidates[survivors[int(rng.integers(survivors.size))]]


def build_triplet(anchor, positive, negative, pseudo, p_replace, rng) -> Triplet:
    """Assemble one triplet, possibly substituting the pseudo-feature.

    anchor and negative are (member, class) pairs; positive is the
    high-part member. Members are passed through untouched, so they may be
    features or row numbers. With probability p_replace, and only when a
    pseudo member is available, a fair coin replaces exactly one of
    positive or negative with it.
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


def margin_loss(anchors, positives, negatives, pos_weight, neg_weight, margin):
    """Mean hinged weighted triplet loss over B triplets, as a scalar Tensor:

        mean_i max(0, pos_weight * d(a_i, p_i) - neg_weight * d(a_i, n_i) + margin)

    with Euclidean d between matching rows of the three (B, d) tape
    tensors; one triplet is a batch of one. Differentiable wherever no
    hinge sits exactly at 0.
    """
    if pos_weight < 0 or neg_weight < 0 or margin < 0:
        raise ValueError("triplet weights and margin must be nonnegative")
    members = (anchors, positives, negatives)
    if not all(isinstance(m, ad.Tensor) for m in members):
        raise TypeError("margin_loss needs its members on a tape (ad.Tensor)")
    if anchors.ndim != 2:
        raise ValueError(f"margin_loss expects (B, d) members, got {anchors.shape}")
    d_pos = ad.euclidean(anchors, positives)
    d_neg = ad.euclidean(anchors, negatives)
    pre = ad.add_const(
        ad.add(ad.scale(d_pos, pos_weight), ad.scale(d_neg, -neg_weight)), margin
    )
    return ad.mean_all(ad.relu(pre))
