"""Open-set confidence scores and separation metrics.

Scores follow the convention "high confidence = known". The unknown
prototype's logit is a training device and is excluded from both scores;
predicted classes come from the argmax over known logits only, ties going
to the lowest index.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScoredSample",
    "mls_score",
    "msp_score",
    "auroc",
    "fpr95",
    "PairedAUROC",
    "delong_paired",
    "acc_macc",
    "write_metrics_csv",
    "write_scores_csv",
    "METRICS_COLUMNS",
]

METRICS_COLUMNS = ("method", "split", "auroc", "fpr95", "acc", "macc")


@dataclass
class ScoredSample:
    confidence: float
    predicted_class: int
    is_known: bool
    true_class: int | None = None
    object_id: str = ""


def _known_part(logits: np.ndarray) -> np.ndarray:
    y = np.asarray(logits, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("expected (B, C+1) logits over C known classes + unknown")
    return y[:, :-1]


def mls_score(logits) -> tuple[np.ndarray, np.ndarray]:
    """Per row: maximum logit over known classes and the arg class (0-based)."""
    known = _known_part(logits)
    cls = known.argmax(axis=1)
    return known[np.arange(len(cls)), cls], cls


def msp_score(logits) -> tuple[np.ndarray, np.ndarray]:
    """Per row: maximum softmax probability among known classes (softmax over
    all C+1) and the arg class."""
    y = np.asarray(logits, dtype=np.float64)
    cls = _known_part(y).argmax(axis=1)
    ex = np.exp(y - y.max(axis=1, keepdims=True))
    return ex[np.arange(len(cls)), cls] / ex.sum(axis=1), cls


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (midranks)."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _score_lists(name, scores_known, scores_unknown):
    ks = np.asarray(scores_known, dtype=np.float64)
    us = np.asarray(scores_unknown, dtype=np.float64)
    if ks.size == 0 or us.size == 0:
        raise ValueError(f"{name} requires nonempty score lists")
    if not (np.isfinite(ks).all() and np.isfinite(us).all()):
        raise ValueError(f"{name} requires finite scores")  # a NaN would rank anywhere
    return ks, us


def auroc(scores_known, scores_unknown) -> float:
    """P(random known score > random unknown score), ties counted 1/2.

    Computed from midranks (Mann-Whitney U), which agrees exactly with the
    O(n^2) pairwise count.
    """
    ks, us = _score_lists("auroc", scores_known, scores_unknown)
    ranks = _midranks(np.concatenate([ks, us]))
    u = ranks[: ks.size].sum() - ks.size * (ks.size + 1) / 2.0
    return float(u / (ks.size * us.size))


class PairedAUROC(NamedTuple):
    auroc_a: float
    auroc_b: float
    diff: float  # auroc_a - auroc_b
    se: float  # DeLong standard error of diff over the test clouds
    p_value: float  # two-sided, normal approximation


def _placements(known, unknown):
    """(V10, V01) averaged over runs: each known score's share of unknown
    scores below it and each unknown score's share of known scores above
    it, ties counting 1/2, from midranks (Sun & Xu, IEEE SPL 2014)."""
    v10, v01 = [], []
    for k, u in zip(known, unknown):
        ranks = _midranks(np.concatenate([k, u]))
        v10.append((ranks[: k.size] - _midranks(k)) / u.size)
        v01.append(1.0 - (ranks[k.size :] - _midranks(u)) / k.size)
    return np.mean(v10, axis=0), np.mean(v01, axis=0)


def delong_paired(known_a, unknown_a, known_b, unknown_b) -> PairedAUROC:
    """AUROCs of scorers a and b on the same known and unknown clouds, their
    difference and its paired standard error (DeLong, DeLong & Clarke-Pearson,
    Biometrics 1988).

    Each argument holds one score per cloud, or a (runs, clouds) array of
    several runs (seeds) scored on the same clouds. Then each AUROC is the
    mean over runs and each cloud's placement values are averaged over the
    runs, so the SE measures test-set sampling only, not the spread between
    runs.
    """
    ka, ua, kb, ub = (np.atleast_2d(np.asarray(v, dtype=np.float64))
                      for v in (known_a, unknown_a, known_b, unknown_b))
    if ka.shape != kb.shape or ua.shape != ub.shape or len(ka) != len(ua):
        raise ValueError("delong_paired needs both scorers' runs on the same clouds")
    for ks, us in ((ka, ua), (kb, ub)):
        _score_lists("delong_paired", ks, us)
    if ka.shape[1] < 2 or ua.shape[1] < 2:
        raise ValueError("delong_paired needs at least two known and two unknown scores")
    (v10_a, v01_a), (v10_b, v01_b) = _placements(ka, ua), _placements(kb, ub)
    auroc_a, auroc_b = float(v10_a.mean()), float(v10_b.mean())
    diff = auroc_a - auroc_b
    # var(a - b) = S_aa + S_bb - 2 S_ab per side, as the variance of the differences
    se = math.sqrt(np.var(v10_a - v10_b, ddof=1) / ka.shape[1]
                   + np.var(v01_a - v01_b, ddof=1) / ua.shape[1])
    if se > 0:
        p_value = math.erfc(abs(diff) / se / math.sqrt(2.0))
    else:
        p_value = 1.0 if diff == 0 else 0.0
    return PairedAUROC(auroc_a, auroc_b, diff, se, p_value)


def fpr95(scores_known, scores_unknown) -> float:
    """False-positive rate on unknowns at the loosest 95%-TPR threshold.

    The threshold is the largest t with |{known >= t}| / |known| >= 0.95;
    the return value is |{unknown >= t}| / |unknown|.
    """
    ks, us = _score_lists("fpr95", scores_known, scores_unknown)
    need = int(np.ceil(0.95 * ks.size))
    threshold = np.sort(ks)[::-1][need - 1]
    return float((us >= threshold).mean())


def acc_macc(predictions, labels) -> tuple[float, float]:
    """Overall accuracy and the unweighted mean of per-class accuracies."""
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.size == 0 or preds.shape != labs.shape:
        raise ValueError("predictions and labels must be nonempty and aligned")
    acc = float((preds == labs).mean())
    per_class = [float((preds[labs == c] == c).mean()) for c in np.unique(labs)]
    return acc, float(np.mean(per_class))


def write_metrics_csv(path, rows) -> None:
    """Rows are dicts keyed by METRICS_COLUMNS; floats written via repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow([row[col] if isinstance(row[col], str) else repr(float(row[col]))
                             for col in METRICS_COLUMNS])


def write_scores_csv(path, samples) -> None:
    """Per-sample score dump for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "subset", "true_class", "predicted_class", "score"])
        for s in samples:
            writer.writerow([
                s.object_id,
                "known" if s.is_known else "unknown",
                "" if s.true_class is None else s.true_class,
                s.predicted_class,
                repr(float(s.confidence)),
            ])
