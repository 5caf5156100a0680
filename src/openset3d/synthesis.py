"""Pseudo-unknown synthesis from low-saliency parts.

A synthetic sample mixes parts from distinct source objects: each part is
scaled, rotated about the up axis, translated and jittered, and the union
of the moved parts is renormalized and resampled to a fixed point count.
The sample trains against a smoothed soft label that puts most mass on the
unknown class and spreads extra weight over the classes whose parts went
into the mix, in proportion to their part counts. `mix` builds a whole
batch of samples in one call and returns the provenance that replays each
of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "apply_transforms",
    "pseudo_label",
    "SyntheticBatch",
    "mix",
]


# ranges of the per-part transform
SCALE_RANGE = (0.8, 1.2)
MAX_OFFSET = 0.2
JITTER_SIGMA = 0.01
JITTER_CLIP = 0.05

# bounds of each part's uniform row: scale, yaw, then the offset's x, y, z
_TRANSFORM_LOW = np.array([SCALE_RANGE[0], 0.0, -MAX_OFFSET, -MAX_OFFSET, -MAX_OFFSET])
_TRANSFORM_HIGH = np.array([SCALE_RANGE[1], 2.0 * np.pi, MAX_OFFSET, MAX_OFFSET, MAX_OFFSET])


def apply_transforms(points, scale, angle, offset, jitter) -> np.ndarray:
    """scale -> yaw about the z (up) axis -> translate -> jitter, row by row.

    `scale` and `angle` are scalars or one value per row, `offset` a (3,)
    vector or one per row, `jitter` one (3,) row per point. The arithmetic
    is elementwise, so a part moved alone gives the same bits as the part
    moved inside a batch.
    """
    return _move(points, scale, np.cos(angle), np.sin(angle), offset, jitter)


def _move(points, scale, c, s, offset, jitter) -> np.ndarray:
    """apply_transforms with the yaw's cosine `c` and sine `s` given."""
    pts = np.asarray(points, dtype=np.float64) * np.asarray(scale, dtype=np.float64)[..., None]
    moved = np.empty_like(pts)
    moved[:, 0] = pts[:, 0] * c - pts[:, 1] * s
    moved[:, 1] = pts[:, 0] * s + pts[:, 1] * c
    moved[:, 2] = pts[:, 2]
    moved += offset
    moved += jitter
    return moved


def _soft_labels(counts, eps, eps_known, mix_count) -> np.ndarray:
    """(S, C+1) labels of (S, C) per-class part counts; see pseudo_label."""
    if eps < 0 or eps_known < 0 or eps + eps_known >= 1.0:
        raise ValueError("need eps >= 0, eps_known >= 0, eps + eps_known < 1")
    num_known = counts.shape[1]
    labels = np.full((len(counts), num_known + 1), eps / num_known)
    labels[:, num_known] = 1.0 - eps - eps_known
    labels[:, :num_known] += eps_known * counts / mix_count
    return labels


def pseudo_label(counts, num_known, eps, eps_known, mix_count) -> np.ndarray:
    """Soft (C+1)-label for a mix of parts from `counts` (class -> part count).

    The unknown entry gets 1 - eps - eps_known; every known class gets
    eps / C; classes present in the mix additionally share eps_known in
    proportion to their part counts.
    """
    total = sum(counts.values())
    if total != mix_count:
        raise ValueError(f"part counts sum to {total}, expected mix_count={mix_count}")
    row = np.zeros((1, num_known))
    for cls, cnt in counts.items():
        if not (0 <= cls < num_known):
            raise ValueError(f"source class {cls} outside the known range")
        row[0, cls] = cnt
    return _soft_labels(row, eps, eps_known, mix_count)[0]


@dataclass
class SyntheticBatch:
    """S pseudo-unknowns of M parts each, with the provenance that replays them.

    Sample s's union stacks its moved parts in order; part (s, m) holds rows
    point_range[s, m] of it, and the union's rows are rows
    union_start[s]:union_start[s + 1] of `jitter`. The sample's points are

        (union[resample_indices[s]] - center[s]) / radius[s],

    where each part's rows of the union are apply_transforms(the part's
    points, scale[s, m], angle[s, m], offset[s, m], its jitter rows).
    """

    points: np.ndarray  # (S, n_out, 3), each sample renormalized
    soft_labels: np.ndarray  # (S, C+1)
    part_labels: np.ndarray  # (S, M) class of each part's source
    source_ids: list  # S lists of M source object ids
    source_indices: list  # S lists of M arrays: each part's rows in its source cloud
    scale: np.ndarray  # (S, M)
    angle: np.ndarray  # (S, M) yaw about the z (up) axis
    offset: np.ndarray  # (S, M, 3)
    jitter: np.ndarray  # (total union rows, 3) clipped Gaussian noise
    union_start: np.ndarray  # (S + 1,) each sample's first row in `jitter`
    point_range: np.ndarray  # (S, M, 2) rows of each part in its sample's union
    center: np.ndarray  # (S, 3) centroid removed during renormalization
    radius: np.ndarray  # (S,) scale removed during renormalization
    resample_indices: np.ndarray  # (S, n_out) sorted rows of each union kept


def _check_groups(groups):
    """The groups as lists of equal length, each of two or more nonempty
    parts from distinct sources (parts without a source id are exempt)."""
    groups = [list(g) for g in groups]
    if not groups:
        raise ValueError("mix needs at least one group of parts")
    for group in groups:
        if len(group) < 2:
            raise ValueError("mix needs at least two parts")
        if len(group) != len(groups[0]):
            raise ValueError("every group must hold the same number of parts")
        sources = [p.source_id for p in group if p.source_id]
        if len(set(sources)) != len(sources):
            raise ValueError("mix requires parts from distinct source objects")
        if any(p.points.size == 0 for p in group):
            raise ValueError("cannot mix an empty part")
    return groups


def mix(groups, n_out, num_known, eps, eps_known, rng) -> SyntheticBatch:
    """Mix each group of parts (one group per sample) into one pseudo-unknown.

    Each sample's union of moved parts is re-centered, scaled to unit max
    radius, and resampled to n_out points: without replacement when the
    union has at least n_out points, with replacement otherwise. The draws
    come from `rng` as whole-batch arrays, in this order:

    1. one uniform (scale, yaw, x, y, z offset) row per part, sample-major;
    2. the jitter of every union row, one normal draw;
    3. one uniform key per union row of the samples drawn without
       replacement, sample-major; each keeps the rows of its n_out smallest
       keys;
    4. the n_out row indices of each sample drawn with replacement.
    """
    groups = _check_groups(groups)
    n_samples, n_parts = len(groups), len(groups[0])
    parts = [p for group in groups for p in group]
    sizes = np.array([len(p.points) for p in parts])
    part_sizes = sizes.reshape(n_samples, n_parts)
    part_end = np.cumsum(part_sizes, axis=1)
    point_range = np.stack([part_end - part_sizes, part_end], axis=-1)
    union_sizes = part_end[:, -1]
    union_start = np.concatenate([[0], np.cumsum(union_sizes)])
    labels = np.array([p.label for p in parts]).reshape(n_samples, n_parts)
    outside = labels[(labels < 0) | (labels >= num_known)]
    if outside.size:
        raise ValueError(f"source class {outside[0]} outside the known range")
    counts = (labels[..., None] == np.arange(num_known)).sum(axis=1)
    soft_labels = _soft_labels(counts, eps, eps_known, n_parts)

    transforms = rng.uniform(_TRANSFORM_LOW, _TRANSFORM_HIGH, size=(len(parts), 5))
    n_rows = int(union_start[-1])
    jitter = np.clip(rng.normal(0.0, JITTER_SIGMA, size=(n_rows, 3)), -JITTER_CLIP, JITTER_CLIP)
    # cos and sin once per part, then every column repeated to the part's rows
    yaw = transforms[:, 1]
    per_row = np.repeat(np.column_stack([transforms, np.cos(yaw), np.sin(yaw)]), sizes, axis=0)
    union = _move(np.concatenate([p.points for p in parts]), per_row[:, 0], per_row[:, 5],
                  per_row[:, 6], per_row[:, 2:5], jitter)
    center = np.add.reduceat(union, union_start[:-1], axis=0) / union_sizes[:, None]
    centered = union - np.repeat(center, union_sizes, axis=0)
    radius = np.sqrt(np.maximum.reduceat(np.einsum("ij,ij->i", centered, centered),
                                         union_start[:-1]))

    replace = union_sizes < n_out
    chosen = np.empty((n_samples, n_out), dtype=np.int64)
    kept_sizes = union_sizes[~replace, None]
    if kept_sizes.size:
        # one key per union row, padded with inf past the end of each union
        keys = np.full((len(kept_sizes), kept_sizes.max()), np.inf)
        keys[np.arange(keys.shape[1]) < kept_sizes] = rng.random(int(kept_sizes.sum()))
        chosen[~replace] = np.argpartition(keys, n_out - 1, axis=1)[:, :n_out]
    if replace.any():
        chosen[replace] = rng.integers(0, union_sizes[replace, None],
                                       size=(int(replace.sum()), n_out))
    chosen.sort(axis=1)
    rows = union_start[:-1, None] + chosen
    points = (union[rows] - center[:, None]) / radius[:, None, None]
    return SyntheticBatch(
        points=points,
        soft_labels=soft_labels,
        part_labels=labels,
        source_ids=[[p.source_id for p in group] for group in groups],
        source_indices=[[p.source_indices for p in group] for group in groups],
        scale=transforms[:, 0].reshape(n_samples, n_parts),
        angle=transforms[:, 1].reshape(n_samples, n_parts),
        offset=transforms[:, 2:].reshape(n_samples, n_parts, 3),
        jitter=jitter,
        union_start=union_start,
        point_range=point_range,
        center=center,
        radius=radius,
        resample_indices=chosen,
    )
