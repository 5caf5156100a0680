"""Saliency-guided decomposition of point clouds.

Per-point importance comes from channel-weighted gradients of the true
class logit: each feature channel is weighted by its gradient averaged
over points, the weighted channels are summed per point, and the result
is clamped at zero; a saliency map is the plain (N,) array of these raw
scores. Objects split into a low-saliency part (the floor(N/M) lowest
scores) and its complement; either part may be swapped for a partial view
whose mean min-max normalized saliency clears a threshold, which tunes the
decomposition between semantically and geometrically focused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import autodiff as ad
from .encoder import Model

__all__ = [
    "PartialView",
    "Part",
    "normalize_scores",
    "gradcam_scores",
    "saliency_maps_batch",
    "split_by_saliency",
    "hidden_point_removal",
    "view_geometry",
    "score_views",
    "partial_views",
    "tunable_decompose",
]


@dataclass
class PartialView:
    indices: np.ndarray  # visible original-point indices
    overall_score: float  # mean normalized saliency over visible points
    used_fallback: bool = False  # True when the hull degenerated to a half-space crop


@dataclass
class Part:
    """A subset of one source object's points, with provenance."""

    points: np.ndarray
    label: int
    source_id: str = ""
    source_indices: np.ndarray | None = None


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; a constant map collapses to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    lo, hi = float(raw.min()), float(raw.max())
    if hi - lo <= 1e-12:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def gradcam_scores(activations: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Channel-weighted activation scores, clamped at zero.

    Each channel's weight is its gradient averaged over points; a point's
    score is the weighted sum of its activations, through a relu.
    """
    acts = np.asarray(activations, dtype=np.float64)
    grads = np.asarray(gradients, dtype=np.float64)
    if acts.shape != grads.shape or acts.ndim != 2:
        raise ValueError("activations and gradients must share an (N, d) shape")
    weights = grads.mean(axis=0)
    return np.maximum(acts @ weights, 0.0)


def saliency_maps_batch(model: Model, clouds, labels) -> list[np.ndarray]:
    """(N,) raw importance scores of each cloud for its ground-truth known class.

    One forward/backward pass covers the whole list. The backward target is
    the sum of each sample's true-class logit; samples are independent, so
    every cloud's per-point feature slice receives exactly its own logit's
    gradient. A label outside 0..C-1 (the unknown slot, or a negative index
    that would wrap onto it) is rejected.
    """
    labels = np.asarray(labels, dtype=np.intp)
    bad = labels[(labels < 0) | (labels >= model.num_known)]
    if bad.size:
        raise ValueError(
            f"saliency needs ground-truth known class indices 0..{model.num_known - 1}, "
            f"got {int(bad[0])}"
        )
    tape = ad.Tape()
    bound = model.bind(tape)
    a_all, feats = bound.encode_batch(clouds)
    logits = bound.logits(feats)
    target = ad.sum_all(ad.pick_rows(logits, labels))
    tape.backward(target)
    if a_all.grad is None:
        raise ValueError("saliency: no gradient reached the per-point features")
    maps = []
    offset = 0
    for cloud in clouds:
        n = len(cloud)
        # a C-contiguous copy of the channel-major slice: a matrix-vector
        # product over a strided slice rounds differently
        maps.append(gradcam_scores(np.ascontiguousarray(a_all.data[offset : offset + n]),
                                   a_all.grad[offset : offset + n]))
        offset += n
    return maps


def split_by_saliency(scores: np.ndarray, mix_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted split: (low, high) point indices, the floor(N / mix_count)
    lowest scores forming the low part.

    Ordering is by (score, index) ascending, so ties resolve to the lowest
    point index deterministically.
    """
    raw = np.asarray(scores, dtype=np.float64)
    n = raw.size
    if mix_count < 2:
        raise ValueError("mix_count must be at least 2")
    if n < mix_count:
        raise ValueError(f"cloud of {n} points cannot be split with mix_count={mix_count}")
    order = np.argsort(raw, kind="stable")
    cut = n // mix_count
    return np.sort(order[:cut]), np.sort(order[cut:])


def hidden_point_removal(points: np.ndarray, camera: np.ndarray, buffer=None) -> np.ndarray:
    """Sorted indices of points visible from `camera` via spherical flipping.

    Points are shifted so the camera sits at the origin and reflected about
    a sphere of radius twice the farthest point; the vertices of the convex
    hull of the flipped cloud plus the origin are the visible points.
    `buffer`, an (N + 1, 3) array whose last row is zero, receives the
    flipped cloud, so one allocation serves every view of a cloud.
    Raises QhullError on degenerate (e.g. coplanar) input.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    q = pts - np.asarray(camera, dtype=np.float64)
    norms = np.linalg.norm(q, axis=1)
    if norms.min() <= 1e-12:
        raise ValueError("camera coincides with a point")
    radius = 2.0 * norms.max()
    if buffer is None:
        buffer = np.zeros((n + 1, 3))
    np.multiply(q, (2.0 * radius / norms - 1.0)[:, None], out=buffer[:n])
    hull = ConvexHull(buffer)
    on_hull = np.zeros(n + 1, dtype=bool)
    on_hull[hull.simplices] = True
    return np.flatnonzero(on_hull[:n])


def view_geometry(points, count, rng, radius_range) -> list[tuple[np.ndarray, bool]]:
    """(visible indices, used_fallback) of `count` randomly posed cameras.

    Cameras sit at a uniform random direction from the centroid, at a
    distance uniform in radius_range times the cloud radius. Visibility
    uses hidden-point removal; a degenerate hull falls back to cropping by
    a random plane through the centroid, which draws one more normal from
    `rng`. The result depends on the points and `rng` alone, never on a
    model, so it can be computed anywhere and scored later.
    """
    pts = np.asarray(points, dtype=np.float64)
    if count < 1:
        raise ValueError("need at least one view")
    if len(pts) < 4:
        raise ValueError("partial views require at least 4 points (convex hull)")
    centroid = pts.mean(axis=0)
    cloud_radius = np.linalg.norm(pts - centroid, axis=1).max()
    buffer = np.zeros((len(pts) + 1, 3))
    views = []
    for _ in range(count):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        distance = rng.uniform(*radius_range) * cloud_radius
        camera = centroid + direction * distance
        try:
            views.append((hidden_point_removal(pts, camera, buffer), False))
        except QhullError:
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            keep = (pts - centroid) @ normal >= 0.0
            if not keep.any():
                keep = ~keep
            views.append((np.flatnonzero(keep), True))
    return views


def score_views(geometry, normalized_saliency) -> list[PartialView]:
    """Views from `view_geometry` output, each scored by the mean normalized
    saliency of its visible points."""
    sal = np.asarray(normalized_saliency, dtype=np.float64)
    return [PartialView(indices=visible, overall_score=float(sal[visible].mean()),
                        used_fallback=fallback) for visible, fallback in geometry]


def partial_views(points, normalized_saliency, count, rng, radius_range):
    """Crop `count` partial views (view_geometry) and score them against
    `normalized_saliency` (score_views). Every view keeps only original
    input points."""
    if len(normalized_saliency) != len(points):
        raise ValueError("saliency length does not match the cloud")
    return score_views(view_geometry(points, count, rng, radius_range), normalized_saliency)


def tunable_decompose(points, scores, mix_count, view_high_thresh,
                      view_low_thresh, views, rng, label=-1, source_id=""):
    """Split a cloud into (high, low) parts, optionally swapping in views.

    Starts from the sorted split of the raw saliency `scores`. If any view's
    overall score exceeds view_high_thresh, the high part is replaced by one
    such view chosen uniformly; symmetrically, a view scoring below view_low_thresh
    may replace the low part. Absent qualifying views, the pure split
    stands, so thresholds (1, 0) always reproduce it; thresholds near
    (0, 1) swap both parts for views whenever any exist. With no views,
    nothing is drawn from `rng`.
    """
    if not (0.0 <= view_low_thresh <= 1.0 and 0.0 <= view_high_thresh <= 1.0):
        raise ValueError("view thresholds must lie in [0, 1]")
    pts = np.asarray(points, dtype=np.float64)
    low_idx, high_idx = split_by_saliency(scores, mix_count)
    views = list(views) if views else []
    high_pool = [v for v in views if v.overall_score > view_high_thresh]
    low_pool = [v for v in views if v.overall_score < view_low_thresh]
    if high_pool:
        high_idx = high_pool[int(rng.integers(len(high_pool)))].indices
    if low_pool:
        low_idx = low_pool[int(rng.integers(len(low_pool)))].indices
    high = Part(pts[high_idx], label, source_id, np.asarray(high_idx))
    low = Part(pts[low_idx], label, source_id, np.asarray(low_idx))
    return high, low
