"""Pseudo-unknown synthesis from low-saliency parts.

Parts from distinct source objects are individually transformed (scale,
yaw, translation, jitter), unioned, renormalized, and resampled to a fixed
point count. The synthetic object trains against a smoothed soft label
that puts most mass on the unknown class and spreads extra weight over the
classes whose parts went into the mix, in proportion to their part counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .saliency import Part

__all__ = [
    "TransformParams",
    "sample_transform",
    "apply_transform",
    "pseudo_label",
    "SyntheticSample",
    "mix",
]


# ranges of the per-part transform
SCALE_RANGE = (0.8, 1.2)
MAX_OFFSET = 0.2
JITTER_SIGMA = 0.01
JITTER_CLIP = 0.05


@dataclass
class TransformParams:
    scale: float
    angle: float  # yaw about the z (up) axis
    offset: np.ndarray  # (3,)
    jitter: np.ndarray  # (N, 3) clipped Gaussian noise


def sample_transform(n_points, rng) -> TransformParams:
    """Draw one set of transform parameters, in a fixed order: scale, yaw,
    offset, then the per-point jitter."""
    scale = rng.uniform(*SCALE_RANGE)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    offset = rng.uniform(-MAX_OFFSET, MAX_OFFSET, size=3)
    jitter = np.clip(rng.normal(0.0, JITTER_SIGMA, size=(n_points, 3)),
                     -JITTER_CLIP, JITTER_CLIP)
    return TransformParams(scale=float(scale), angle=float(angle), offset=offset, jitter=jitter)


def _yaw_matrix(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def apply_transform(points, tp: TransformParams) -> np.ndarray:
    """scale -> rotate about up-axis -> translate -> jitter, in that order."""
    pts = np.asarray(points, dtype=np.float64) * tp.scale
    pts = pts @ _yaw_matrix(tp.angle).T
    pts = pts + tp.offset
    return pts + tp.jitter


def pseudo_label(counts, num_known, eps, eps_known, mix_count) -> np.ndarray:
    """Soft (C+1)-label for a mix of parts from `counts` (class -> part count).

    The unknown entry gets 1 - eps - eps_known; every known class gets
    eps / C; classes present in the mix additionally share eps_known in
    proportion to their part counts.
    """
    if eps < 0 or eps_known < 0 or eps + eps_known >= 1.0:
        raise ValueError("need eps >= 0, eps_known >= 0, eps + eps_known < 1")
    total = sum(counts.values())
    if total != mix_count:
        raise ValueError(f"part counts sum to {total}, expected mix_count={mix_count}")
    label = np.full(num_known + 1, eps / num_known)
    label[num_known] = 1.0 - eps - eps_known
    for cls, cnt in counts.items():
        if not (0 <= cls < num_known):
            raise ValueError(f"source class {cls} outside the known range")
        label[cls] += eps_known * cnt / mix_count
    return label


@dataclass
class PartProvenance:
    source_id: str
    source_indices: np.ndarray | None
    transform: TransformParams
    point_range: tuple[int, int]  # rows of the pre-resample union


@dataclass
class SyntheticSample:
    points: np.ndarray  # (N_out, 3), renormalized
    source_counts: dict[int, int]  # class index -> number of parts
    soft_label: np.ndarray  # (C+1,)
    provenance: list[PartProvenance] = field(default_factory=list)
    resample_indices: np.ndarray | None = None  # rows of the union kept
    center: np.ndarray | None = None  # centroid removed during renormalization
    radius: float = 1.0  # scale removed during renormalization


def mix(parts, n_out, num_known, eps, eps_known, rng) -> SyntheticSample:
    """Combine transformed parts from distinct objects into one pseudo-unknown.

    The union of the transformed parts is re-centered, scaled to unit max
    radius, and uniformly resampled to n_out points (with replacement only
    when the union is smaller than n_out). Provenance carries per-part
    transforms and resample indices so exported samples can be traced back
    to source points.
    """
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("mix needs at least two parts")
    sources = [p.source_id for p in parts if p.source_id]
    if len(set(sources)) != len(sources):
        raise ValueError("mix requires parts from distinct source objects")
    blocks = []
    provenance = []
    counts: dict[int, int] = {}
    row = 0
    for part in parts:
        if part.points.size == 0:
            raise ValueError("cannot mix an empty part")
        tp = sample_transform(len(part.points), rng)
        moved = apply_transform(part.points, tp)
        blocks.append(moved)
        provenance.append(PartProvenance(
            source_id=part.source_id,
            source_indices=part.source_indices,
            transform=tp,
            point_range=(row, row + len(moved)),
        ))
        row += len(moved)
        counts[part.label] = counts.get(part.label, 0) + 1
    union = np.vstack(blocks)
    center = union.mean(axis=0)
    centered = union - center
    radius = float(np.linalg.norm(centered, axis=1).max())
    normalized = centered / radius
    replace = len(normalized) < n_out
    chosen = np.sort(rng.choice(len(normalized), size=n_out, replace=replace))
    label = pseudo_label(counts, num_known, eps, eps_known, len(parts))
    return SyntheticSample(
        points=normalized[chosen],
        source_counts=counts,
        soft_label=label,
        provenance=provenance,
        resample_indices=chosen,
        center=center,
        radius=radius,
    )

