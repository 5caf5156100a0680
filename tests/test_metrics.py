"""Score and metric oracles.

AUROC is checked against the O(n^2) pairwise count and FPR95 against a
brute-force threshold sweep; both oracles live here, independent of the
rank-based implementations they verify.
"""

import numpy as np
import pytest

from openset3d.metrics import (
    METRICS_COLUMNS,
    ScoredSample,
    acc_macc,
    auroc,
    fpr95,
    mls_score,
    msp_score,
    write_metrics_csv,
    write_scores_csv,
)


def pairwise_auroc(known, unknown):
    wins = 0.0
    for k in known:
        for u in unknown:
            if k > u:
                wins += 1.0
            elif k == u:
                wins += 0.5
    return wins / (len(known) * len(unknown))


def sweep_fpr95(known, unknown):
    known = np.asarray(known, dtype=np.float64)
    unknown = np.asarray(unknown, dtype=np.float64)
    candidates = np.unique(np.concatenate([known, unknown]))
    best = None
    for t in candidates:
        if (known >= t).mean() >= 0.95:
            best = t if best is None else max(best, t)
    assert best is not None  # t = min(known) always qualifies
    return (unknown >= best).mean()


# ----------------------------------------------------------------------
# confidence scores


def score_row(score_fn, logits):
    """(confidence, class) of one logits row, scored as a batch of one."""
    confidences, classes = score_fn(np.asarray(logits, dtype=np.float64)[None])
    return confidences[0], classes[0]


def test_mls_known_max():
    q, cls = score_row(mls_score, [0.2, 0.9, -0.1, 0.85])  # last entry: the unknown logit
    assert q == 0.9 and cls == 1


def test_mls_tie_goes_to_lowest_index():
    q, cls = score_row(mls_score, [0.4, 0.4, 0.4, 0.4])
    assert cls == 0 and q == 0.4


def test_mls_ignores_unknown_logit():
    base_q, base_cls = score_row(mls_score, [0.2, 0.9, -0.1, -1.0])
    bumped_q, bumped_cls = score_row(mls_score, [0.2, 0.9, -0.1, 0.95])
    assert (base_q, base_cls) == (bumped_q, bumped_cls) == (0.9, 1)


def test_msp_uniform_logits():
    q, cls = score_row(msp_score, np.zeros(5))
    assert q == pytest.approx(0.2)
    assert cls == 0


def test_msp_dominant_known_logit():
    # recomputed from the stated formula e / (e + 4 e^-1)
    q, _ = score_row(msp_score, [1.0, -1.0, -1.0, -1.0, -1.0])
    expected = np.e / (np.e + 4.0 / np.e)
    assert q == pytest.approx(expected, abs=1e-12)
    assert q == pytest.approx(0.6487856442839394, abs=1e-12)


def test_mls_msp_share_predicted_class():
    logits = np.random.default_rng(0).uniform(-1, 1, (50, 6))
    assert np.array_equal(mls_score(logits)[1], msp_score(logits)[1])


@pytest.mark.parametrize("score_fn", [mls_score, msp_score])
def test_each_row_of_a_batch_scores_as_it_does_alone(score_fn):
    logits = np.random.default_rng(1).uniform(-1, 1, (20, 5))
    confidences, classes = score_fn(logits)
    for b in range(20):
        assert (confidences[b], classes[b]) == score_row(score_fn, logits[b])


# ----------------------------------------------------------------------
# auroc


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8, 0.7], [0.2, 0.1]) == 1.0


def test_auroc_identical_multisets():
    assert auroc([0.3, 0.5, 0.7], [0.3, 0.5, 0.7]) == 0.5


def test_auroc_hand_case():
    assert auroc([0.9, 0.8], [0.7, 0.85]) == pytest.approx(0.75, abs=1e-15)


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for trial in range(200):
        nk = int(rng.integers(1, 101))
        nu = int(rng.integers(1, 101))
        ks = np.round(rng.normal(0.5, 0.3, nk), 2)  # rounding forces ties
        us = np.round(rng.normal(0.3, 0.3, nu), 2)
        assert abs(auroc(ks, us) - pairwise_auroc(ks, us)) <= 1e-12


def test_auroc_complement_identity():
    rng = np.random.default_rng(2)
    ks = rng.normal(0.6, 0.2, 40)
    us = rng.normal(0.4, 0.2, 30)
    assert abs(auroc(ks, us) + auroc(us, ks) - 1.0) <= 1e-12


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    ks = rng.normal(0.6, 0.2, 25)
    us = rng.normal(0.4, 0.2, 35)
    base = auroc(ks, us)
    for transform in (np.exp, np.tanh, lambda x: 3 * x + 7, lambda x: x**3):
        assert auroc(transform(ks), transform(us)) == pytest.approx(base, abs=1e-12)


def test_auroc_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        auroc([], [0.1])
    with pytest.raises(ValueError, match="nonempty"):
        auroc([0.1], [])


# ----------------------------------------------------------------------
# fpr95


def test_fpr95_fully_separated():
    assert fpr95([0.9, 0.8, 0.7], [0.1, 0.2]) == 0.0


def test_fpr95_hand_case():
    assert fpr95([0.9, 0.8, 0.7, 0.6], [0.5, 0.65]) == pytest.approx(0.5)


def test_fpr95_matches_threshold_sweep():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ks = np.round(rng.normal(0.6, 0.25, int(rng.integers(5, 80))), 2)
        us = np.round(rng.normal(0.4, 0.25, int(rng.integers(5, 80))), 2)
        assert fpr95(ks, us) == pytest.approx(sweep_fpr95(ks, us), abs=1e-12)


def test_fpr95_identical_distributions_high():
    rng = np.random.default_rng(5)
    ks = rng.normal(0.0, 1.0, 10_000)
    us = rng.normal(0.0, 1.0, 10_000)
    assert fpr95(ks, us) >= 0.95 - 0.02


def test_fpr95_nonincreasing_under_unknown_downshift():
    rng = np.random.default_rng(6)
    ks = rng.normal(0.6, 0.2, 200)
    us = rng.normal(0.5, 0.2, 200)
    values = [fpr95(ks, us - shift) for shift in (0.0, 0.1, 0.2, 0.4, 0.8)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# accuracy


def test_acc_macc_all_correct():
    assert acc_macc([0, 1, 2], [0, 1, 2]) == (1.0, 1.0)


def test_acc_macc_balanced_half():
    preds = [0] * 10 + [0] * 10  # class 1 fully wrong
    labels = [0] * 10 + [1] * 10
    assert acc_macc(preds, labels) == (0.5, 0.5)


def test_acc_macc_unbalanced_hand_count():
    preds = [0] * 9 + [1] + [1, 0]
    labels = [0] * 10 + [1, 1]
    acc, macc = acc_macc(preds, labels)
    assert acc == pytest.approx(10 / 12)
    assert macc == pytest.approx(0.7)


# ----------------------------------------------------------------------
# csv schemas


def test_metrics_csv_schema(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [{
        "method": "mls", "split": "test", "auroc": 0.9, "fpr95": 0.25,
        "acc": 0.95, "macc": 0.93,
    }])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS) == "method,split,auroc,fpr95,acc,macc"
    assert lines[1].startswith("mls,test,0.9,0.25,")


def test_scores_csv_schema(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv(path, [
        ScoredSample(0.7, 2, True, 2, "cube/cube_0001"),
        ScoredSample(0.1, 0, False, None, "tube/tube_0003"),
    ])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "object_id,subset,true_class,predicted_class,score"
    assert lines[1] == "cube/cube_0001,known,2,2,0.7"
    assert lines[2] == "tube/tube_0003,unknown,,0,0.1"
