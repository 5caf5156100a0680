"""Open-set confidence scores and separation metrics.

Scores follow the convention "high confidence = known". The unknown
prototype's logit is a training device and is excluded from both scores;
predicted classes come from the argmax over known logits only, ties going
to the lowest index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScoredSample",
    "mls_score",
    "msp_score",
    "auroc",
    "fpr95",
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
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc(scores_known, scores_unknown) -> float:
    """P(random known score > random unknown score), ties counted 1/2.

    Computed from midranks (Mann-Whitney U), which agrees exactly with the
    O(n^2) pairwise count.
    """
    ks = np.asarray(scores_known, dtype=np.float64)
    us = np.asarray(scores_unknown, dtype=np.float64)
    if ks.size == 0 or us.size == 0:
        raise ValueError("auroc requires nonempty score lists")
    ranks = _midranks(np.concatenate([ks, us]))
    u = ranks[: ks.size].sum() - ks.size * (ks.size + 1) / 2.0
    return float(u / (ks.size * us.size))


def fpr95(scores_known, scores_unknown) -> float:
    """False-positive rate on unknowns at the loosest 95%-TPR threshold.

    The threshold is the largest t with |{known >= t}| / |known| >= 0.95;
    the return value is |{unknown >= t}| / |unknown|.
    """
    ks = np.asarray(scores_known, dtype=np.float64)
    us = np.asarray(scores_unknown, dtype=np.float64)
    if ks.size == 0 or us.size == 0:
        raise ValueError("fpr95 requires nonempty score lists")
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
            writer.writerow([
                row["method"],
                row["split"],
                repr(float(row["auroc"])),
                repr(float(row["fpr95"])),
                repr(float(row["acc"])),
                repr(float(row["macc"])),
            ])


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
