"""Acceptance gate: one test per criterion, printing a line apiece.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale experiment (criteria 6 and 7) trains the full
benchmark for three seeds and dominates the runtime; both are marked
`slow`, so `pytest -m "not slow"` leaves them out.
"""

import time

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d import experiments
from openset3d.checkpoint import save_checkpoint
from openset3d.data import default_manifest, generate_dataset, tiny_manifest
from openset3d.experiments import mean_metric, run_experiment
from openset3d.metrics import auroc, delong_paired, fpr95
from openset3d.saliency import hidden_point_removal, split_by_saliency, tunable_decompose
from openset3d.saliency import normalize_scores
from openset3d.synthesis import pseudo_label
from openset3d.training import TrainConfig, report_csv_text, train

from _micro import make_micro_setup
from test_metrics import pairwise_auroc, sweep_fpr95


def announce(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})", flush=True)


# ----------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    start = time.time()
    # per-op checks (tolerance 1e-4 each)
    rng = np.random.default_rng(0)
    per_op_worst = 0.0

    def check(f, theta):
        nonlocal per_op_worst
        per_op_worst = max(per_op_worst, ad.grad_check(f, theta, h=1e-5))

    x0 = rng.uniform(-1, 1, (5, 3))
    w0, b0 = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 4)
    read = rng.uniform(-1, 1, (5, 4))

    def linear_f(theta):
        tape = ad.Tape()
        w = tape.leaf(theta.reshape(3, 4))
        out = ad.linear(tape.leaf(x0), w, tape.leaf(b0))
        loss = ad.sum_all(ad.mul_const(out, read))
        tape.backward(loss)
        return loss.item(), w.grad.ravel()

    check(linear_f, w0.ravel())

    relu_in = rng.uniform(0.2, 1.0, 12) * rng.choice([-1.0, 1.0], 12)

    def relu_f(theta):
        tape = ad.Tape()
        x = tape.leaf(theta)
        loss = ad.sum_all(ad.mul_const(ad.relu(x), read.ravel()[:12]))
        tape.backward(loss)
        return loss.item(), x.grad

    check(relu_f, relu_in)

    # the fused layer, over x, w and b: [x | 1] @ [w; b] is solved to put
    # every pre-activation 0.2 to 1.0 away from the kink
    fused_rng = np.random.default_rng(10)
    fx0 = fused_rng.uniform(-1, 1, (4, 3))
    pre0 = fused_rng.uniform(0.2, 1.0, (4, 4)) * fused_rng.choice([-1.0, 1.0], (4, 4))
    wb0 = np.linalg.solve(np.hstack([fx0, np.ones((4, 1))]), pre0)

    def linear_relu_f(theta):
        tape = ad.Tape()
        x, w, b = (tape.leaf(v) for v in (theta[:12].reshape(4, 3),
                                          theta[12:24].reshape(3, 4), theta[24:]))
        loss = ad.sum_all(ad.mul_const(ad.linear(x, w, b, relu=True), read[:4]))
        tape.backward(loss)
        return loss.item(), np.concatenate([x.grad.ravel(), w.grad.ravel(), b.grad])

    check(linear_relu_f, np.concatenate([fx0.ravel(), wb0.ravel()]))

    pool_in = rng.uniform(-1, 1, (6, 4))
    pool_in += np.arange(6)[:, None] * 0.01  # break ties

    def pool_f(theta):
        tape = ad.Tape()
        x = tape.leaf(theta.reshape(6, 4))
        loss = ad.sum_all(ad.mul_const(ad.max_pool_groups(x, [6]), read[0]))
        tape.backward(loss)
        return loss.item(), x.grad.ravel()

    check(pool_f, pool_in.ravel())

    bank0 = rng.uniform(0.3, 1.0, (3, 6)) * rng.choice([-1.0, 1.0], (3, 6))
    feat0 = rng.uniform(0.3, 1.0, 6)
    target = np.array([0.2, 0.5, 0.3])

    def head_f(theta):
        tape = ad.Tape()
        f = tape.leaf(theta[None])  # a (1, d) feature
        loss = ad.sum_all(ad.soft_cross_entropy(ad.cosine_logits(f, tape.leaf(bank0)),
                                                target[None]))
        tape.backward(loss)
        return loss.item(), f.grad[0]

    check(head_f, feat0)

    a0, b1 = rng.uniform(-1, 1, 5), rng.uniform(1.5, 2.5, 5)

    def dist_f(theta):
        tape = ad.Tape()
        a = tape.leaf(theta[None])
        loss = ad.sum_all(ad.euclidean(a, tape.leaf(b1[None])))
        tape.backward(loss)
        return loss.item(), a.grad[0]

    check(dist_f, a0)

    # the margin term's row-wise form: gather_rows over the parameter table
    # and a constant one, with a repeated row, then one distance per row;
    # table rows sit at least 0.5 per axis from the constant rows
    table0 = rng.uniform(-1, 1, (3, 5))
    far = rng.uniform(1.5, 2.5, (4, 5))
    dist_read = rng.uniform(0.5, 1.5, 4)

    def rows_f(theta):
        tape = ad.Tape()
        table = tape.leaf(theta.reshape(3, 5))
        rows = ad.gather_rows((table, tape.leaf(far)), [2, 0, 2, 4])
        loss = ad.sum_all(ad.mul_const(ad.euclidean(rows, tape.leaf(far)), dist_read))
        tape.backward(loss)
        return loss.item(), table.grad.ravel()

    check(rows_f, table0.ravel())
    assert per_op_worst <= 1e-4

    # the trainer's batch_loss on the N=16, d=8, C=3, batch-2 micro model (1e-3)
    setup = make_micro_setup(h=1e-5)
    composite_worst = ad.grad_check(setup.loss_and_grad, setup.theta0, h=1e-5)
    assert composite_worst <= 1e-3
    assert all(term > 0.0 for term in setup.terms)  # l_cls, l_h, l_s and l_m all ran
    elapsed = time.time() - start
    assert elapsed < 60.0
    announce(1, f"per-op max err {per_op_worst:.2e} <= 1e-4, "
                f"composite {composite_worst:.2e} <= 1e-3, {elapsed:.1f}s < 60s")


# ----------------------------------------------------------------------
# criterion 2: metric oracles


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        nk, nu = int(rng.integers(1, 101)), int(rng.integers(1, 101))
        ks = np.round(rng.normal(0.5, 0.3, nk), 2)
        us = np.round(rng.normal(0.3, 0.3, nu), 2)
        worst = max(worst, abs(auroc(ks, us) - pairwise_auroc(ks, us)))
        assert fpr95(ks, us) == pytest.approx(sweep_fpr95(ks, us), abs=1e-12)
    assert worst <= 1e-12
    assert auroc([0.9, 0.8], [0.7, 0.85]) == pytest.approx(0.75, abs=1e-15)
    assert fpr95([0.9, 0.8, 0.7, 0.6], [0.5, 0.65]) == pytest.approx(0.5, abs=1e-15)
    announce(2, f"rank-vs-pairwise max gap {worst:.1e} over 200 instances; "
                "hand cases 0.75 / 0.5 exact")


# ----------------------------------------------------------------------
# criterion 3: GSS label algebra


def test_criterion_3_label_algebra():
    label = pseudo_label({0: 2, 1: 1}, num_known=4, eps=0.1, eps_known=0.1, mix_count=3)
    expected = np.array([0.091667, 0.058333, 0.025, 0.025, 0.8])
    assert np.allclose(label, expected, atol=1e-6)
    rng = np.random.default_rng(2)
    for _ in range(500):
        c = int(rng.integers(2, 10))
        m = int(rng.integers(2, 6))
        counts = {}
        for _ in range(m):
            cls = int(rng.integers(c))
            counts[cls] = counts.get(cls, 0) + 1
        eps, eps_known = rng.uniform(0, 0.45, 2)
        out = pseudo_label(counts, c, float(eps), float(eps_known), m)
        assert abs(out.sum() - 1.0) <= 1e-9
    announce(3, "worked example within 1e-6; 500 random labels sum to 1 within 1e-9")


# ----------------------------------------------------------------------
# criterion 4: TSD partition invariants


def test_criterion_4_partition_invariants():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(4, 300))
        mix_count = int(rng.integers(2, min(n, 9) + 1))
        scores = np.round(rng.random(n), 3)
        low, high = split_by_saliency(scores, mix_count)
        assert len(low) == n // mix_count
        assert len(np.intersect1d(low, high)) == 0
        assert len(np.union1d(low, high)) == n
        if len(low):
            assert scores[low].max() <= scores[high].min()
    # limit behavior: thresholds (1, 0) reproduce the pure split under views
    pts = rng.uniform(-1, 1, (60, 3))
    raw = rng.random(60)
    from openset3d.saliency import partial_views
    views = partial_views(pts, normalize_scores(raw), 6, rng, TrainConfig().view_radius)
    high, low = tunable_decompose(pts, raw, 3, 1.0, 0.0, views, rng)
    base_low, base_high = split_by_saliency(raw, 3)
    assert np.array_equal(low.source_indices, base_low)
    assert np.array_equal(high.source_indices, base_high)
    announce(4, "1000 random splits partition exactly with floor sizes; "
                "thresholds (1, 0) reproduce the pure split")


# ----------------------------------------------------------------------
# criterion 5: visibility sanity


def ray_occlusion_oracle(points, camera, delta_deg=3.5, depth_margin=0.5):
    """Brute-force ray occlusion: a point is hidden when another point sits
    substantially closer to the camera within an angular tolerance of its
    viewing ray."""
    rel = points - camera
    dist = np.linalg.norm(rel, axis=1)
    dirs = rel / dist[:, None]
    cos_thresh = np.cos(np.radians(delta_deg))
    visible = []
    for i in range(len(points)):
        cos_ang = dirs @ dirs[i]
        blockers = (cos_ang > cos_thresh) & (dist < dist[i] - depth_margin)
        if not blockers.any():
            visible.append(i)
    return np.array(visible)


def test_criterion_5_visibility_sanity():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(500, 3))
    sphere = v / np.linalg.norm(v, axis=1, keepdims=True)
    camera = np.array([3.0, 0.0, 0.0])  # 3x the unit radius
    visible = hidden_point_removal(sphere, camera)
    fraction = len(visible) / 500
    assert 0.35 <= fraction <= 0.65
    oracle = ray_occlusion_oracle(sphere, camera)
    hpr_set, oracle_set = set(visible.tolist()), set(oracle.tolist())
    agreement = sum(1 for i in range(500) if (i in hpr_set) == (i in oracle_set)) / 500
    assert agreement >= 0.90
    announce(5, f"visible fraction {fraction:.3f} in [0.35, 0.65]; "
                f"oracle agreement {agreement:.3f} >= 0.90")


# ----------------------------------------------------------------------
# criteria 6 and 7: the desk-scale experiment (shared fixture)

EXPERIMENT_SEEDS = (1, 2, 3)


def desk_manifest():
    manifest = default_manifest()  # 8 known / 4 unknown, 200/class, N=256
    manifest.noise, manifest.scale_jitter, manifest.tilt = 0.03, 0.22, 0.5
    return manifest


def desk_config():
    return TrainConfig(
        phase1_epochs=45, phase2_epochs=30, batch_size=32, seed=0,
        feat_dim=64, point_widths=(32, 64), proj_hidden=(),
        learning_rate=0.01, alpha=0.05, beta=0.25, gamma=0.02,
        view_high_thresh=0.65, view_low_thresh=0.5, views_per_object=8,
    )


@pytest.fixture(scope="module")
def experiment():
    """(outcomes, wall time, scores): scores maps "baseline" and each variant
    to its (seeds, clouds) known and unknown confidences on the test split."""
    dataset = generate_dataset(desk_manifest())
    evaluations = []
    evaluate = experiments.evaluate_open_set

    def recording(model, known, unknown, *args):
        row, samples = evaluate(model, known, unknown, *args)
        evaluations.append([[s.confidence for s in samples if s.is_known == side]
                            for side in (True, False)])
        return row, samples

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "evaluate_open_set", recording)
        start = time.time()
        outcomes = run_experiment(dataset, desk_config(), EXPERIMENT_SEEDS)
        elapsed = time.time() - start
    names = ("baseline", *experiments.VARIANT_ORDER)  # run_seed's evaluation order
    assert len(evaluations) == len(names) * len(EXPERIMENT_SEEDS)
    scores = {name: tuple(np.array([evaluations[k][side]
                                    for k in range(i, len(evaluations), len(names))])
                          for side in (0, 1))
              for i, name in enumerate(names)}
    return outcomes, elapsed, scores


def paired_line(scores, name):
    """full - `name` over the seeds, +- DeLong's paired SE over the test
    clouds with its two-sided p-value, then the same per seed."""
    full, other = scores["full"], scores[name]
    mean = delong_paired(*full, *other)
    per_seed = []
    for k, seed in enumerate(EXPERIMENT_SEEDS):
        r = delong_paired(full[0][k], full[1][k], other[0][k], other[1][k])
        per_seed.append(f"seed {seed} {r.auroc_a:.4f} vs {r.auroc_b:.4f}: "
                        f"{r.diff:+.4f} +- {r.se:.4f}")
    return (f"full - {name} {mean.diff:+.4f} +- {mean.se:.4f} paired SE, p {mean.p_value:.2g} "
            f"({', '.join(per_seed)})")


@pytest.mark.slow
def test_criterion_6_desk_scale_open_set(experiment):
    outcomes, elapsed, scores = experiment
    full_acc = mean_metric(outcomes, "full", "acc")
    full_auroc = mean_metric(outcomes, "full", "auroc")
    base_auroc = mean_metric(outcomes, "baseline", "auroc")
    assert full_acc >= 0.90
    assert full_auroc - base_auroc >= 0.02
    assert elapsed <= 30 * 60
    announce(6, f"acc {full_acc:.3f} >= 0.90; auroc {full_auroc:.4f} vs baseline "
                f"{base_auroc:.4f} (delta {full_auroc - base_auroc:+.4f} >= 0.02); "
                f"experiment {elapsed / 60:.1f} min <= 30 min; "
                f"{paired_line(scores, 'baseline')}")


@pytest.mark.slow
def test_criterion_7_ablation_direction(experiment):
    outcomes, _, scores = experiment
    full = mean_metric(outcomes, "full", "auroc")
    parts = {name: mean_metric(outcomes, name, "auroc")
             for name in ("no_tsd", "no_gss", "no_sms")}
    none = mean_metric(outcomes, "none", "auroc")
    for name, value in parts.items():
        assert full >= value - 0.01, f"full {full:.4f} vs {name} {value:.4f}"
    assert full > none
    announce(7, f"full {full:.4f} >= variants - 0.01 "
                f"({', '.join(f'{k} {v:.4f}' for k, v in parts.items())}); "
                f"full > none {none:.4f}; "
                + "; ".join(paired_line(scores, name) for name in (*parts, "none")))


# ----------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_bit_identical_runs(tmp_path):
    dataset = generate_dataset(tiny_manifest(seed=5, instances_per_class=20,
                                             points_per_cloud=48))
    config = TrainConfig(phase1_epochs=2, phase2_epochs=2, batch_size=8, seed=11,
                         feat_dim=16, point_widths=(12, 16), proj_hidden=(),
                         learning_rate=0.01, views_per_object=3)
    paths = []
    for run in ("one", "two"):
        result = train(dataset, config)
        ckpt = tmp_path / f"{run}.ckpt"
        save_checkpoint(ckpt, result.model)
        (tmp_path / f"{run}.csv").write_text(report_csv_text(result.rows))
        paths.append((ckpt, tmp_path / f"{run}.csv"))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    announce(8, "two identical runs: checkpoint and report CSV byte-identical")


# ----------------------------------------------------------------------
# criterion 9: loss-weight degeneracy


def test_criterion_9_zero_weight_degeneracy():
    dataset = generate_dataset(tiny_manifest(seed=5, instances_per_class=20,
                                             points_per_cloud=48))
    base = dict(batch_size=8, seed=4, feat_dim=16, point_widths=(12, 16),
                proj_hidden=(), learning_rate=0.01, views_per_object=3)
    zeroed = TrainConfig(phase1_epochs=3, phase2_epochs=3,
                         alpha=0.0, beta=0.0, gamma=0.0, **base)
    continued = TrainConfig(phase1_epochs=6, phase2_epochs=0, **base)
    a = train(dataset, zeroed)
    b = train(dataset, continued)
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])
    assert report_csv_text(a.rows) == report_csv_text(b.rows)
    announce(9, "zero-weight phase 2 is step-for-step identical to continued "
                "phase-1 training (parameters and report bit-equal)")
