"""Encoder, prototype head, and checkpoint round-trip checks."""

import re

import numpy as np
import pytest

from openset3d import autodiff as ad
from openset3d.checkpoint import load_checkpoint, save_checkpoint
from openset3d.encoder import Model, init_prototypes, normalize_cloud


def small_model(seed=0):
    return Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(), seed=seed)


def random_cloud(rng, n=10):
    return rng.uniform(-1, 1, (n, 3))


def test_encode_deterministic():
    model = small_model()
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng)
    tape = ad.Tape()
    bound = model.bind(tape)
    a1, f1 = bound.encode_batch([cloud])
    tape2 = ad.Tape()
    a2, f2 = model.bind(tape2).encode_batch([cloud])
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(f1.data, f2.data)


def test_encode_permutation_equivariance():
    model = small_model()
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 32)
    perm = rng.permutation(32)
    tape = ad.Tape()
    a, f = model.bind(tape).encode_batch([cloud])
    tape2 = ad.Tape()
    a_p, f_p = model.bind(tape2).encode_batch([cloud[perm]])
    assert np.array_equal(f.data, f_p.data)  # pooling is symmetric: exact
    assert np.array_equal(a.data[perm], a_p.data)  # rows permute identically


def test_cosine_logits_permutation_invariant_exactly():
    model = small_model()
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 20)
    perm = rng.permutation(20)

    def logits_of(points):
        tape = ad.Tape()
        bound = model.bind(tape)
        _, f = bound.encode_batch([points])
        return bound.logits(f).data

    assert np.array_equal(logits_of(cloud), logits_of(cloud[perm]))


def test_encode_matches_straight_line_recomputation():
    # independent re-implementation of the same layer arithmetic
    model = small_model(seed=3)
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 4)
    tape = ad.Tape()
    a, f = model.bind(tape).encode_batch([cloud])
    p = model.params
    h = np.maximum(cloud @ p["point0.w"] + p["point0.b"], 0.0)
    h = np.maximum(h @ p["point1.w"] + p["point1.b"], 0.0)
    pooled = h.max(axis=0)
    expected_f = pooled @ p["proj0.w"] + p["proj0.b"]
    assert np.allclose(a.data, h, rtol=0, atol=1e-12)
    assert np.allclose(f.data, expected_f, rtol=0, atol=1e-12)


def test_encode_batch_matches_per_cloud():
    model = small_model()
    rng = np.random.default_rng(4)
    clouds = [random_cloud(rng, n) for n in (5, 9, 3)]
    tape = ad.Tape()
    a_all, feats = model.bind(tape).encode_batch(clouds)
    offset = 0
    for i, cloud in enumerate(clouds):
        tape_i = ad.Tape()
        a_i, f_i = model.bind(tape_i).encode_batch([cloud])
        assert np.allclose(a_all.data[offset : offset + len(cloud)], a_i.data,
                           rtol=0, atol=1e-12)
        assert np.allclose(feats.data[i], f_i.data, rtol=0, atol=1e-12)
        offset += len(cloud)


def test_encode_rejects_empty_cloud():
    model = small_model()
    tape = ad.Tape()
    with pytest.raises(ValueError, match="nonempty"):
        model.bind(tape).encode_batch([np.zeros((0, 3))])


def test_cosine_self_similarity_is_one():
    tape = ad.Tape()
    bank = np.array([[1.0, 2.0, -1.0], [0.5, 0.5, 0.5]])
    f = tape.leaf(3.7 * bank[:1])  # any positive scale of a prototype
    out = ad.cosine_logits(f, tape.leaf(bank))
    assert out.data[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_is_zero():
    tape = ad.Tape()
    out = ad.cosine_logits(tape.leaf([[1.0, 0.0]]), tape.leaf([[0.0, 2.0]]))
    assert out.data[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_value():
    tape = ad.Tape()
    out = ad.cosine_logits(tape.leaf([[1.0, 1.0]]), tape.leaf([[1.0, 0.0]]))
    assert out.data[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


def test_cosine_rejects_zero_norm():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="underflow"):
        ad.cosine_logits(tape.leaf([[0.0, 0.0]]), tape.leaf([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="underflow"):
        ad.cosine_logits(tape.leaf([[1.0, 0.0]]), tape.leaf([[0.0, 0.0]]))


def test_cosine_scale_invariance():
    model = small_model()
    rng = np.random.default_rng(5)
    f0 = rng.uniform(0.1, 1.0, (1, 8))
    for alpha in (1e-3, 0.5, 7.0, 1e3):
        tape = ad.Tape()
        bank = tape.leaf(model.params["prototypes"])
        base = ad.cosine_logits(tape.leaf(f0), bank)
        scaled = ad.cosine_logits(tape.leaf(alpha * f0), bank)
        assert np.allclose(base.data, scaled.data, rtol=0, atol=1e-12)


def test_logits_bounded():
    model = small_model()
    rng = np.random.default_rng(6)
    for _ in range(20):
        logits = model.infer_batch([random_cloud(rng, 12)])[0]
        assert np.all(logits >= -1.0) and np.all(logits <= 1.0)


def test_init_prototypes_seeded_and_nonzero():
    a = init_prototypes(4, 16, np.random.default_rng(9))
    b = init_prototypes(4, 16, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.shape == (5, 16)
    assert np.linalg.norm(a, axis=1).min() > 0


def test_init_prototypes_row_norm_mean_near_one():
    # chi-distribution mean at d=256 with scale 1/sqrt(d) is ~1
    rng = np.random.default_rng(10)
    norms = [
        np.linalg.norm(init_prototypes(1, 256, rng)[0]) for _ in range(1000)
    ]
    assert abs(np.mean(norms) - 1.0) < 0.2


def test_normalize_cloud_contract():
    rng = np.random.default_rng(11)
    cloud = rng.uniform(-3, 5, (40, 3))
    normed = normalize_cloud(cloud)
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-12)
    assert np.linalg.norm(normed, axis=1).max() == pytest.approx(1.0, abs=1e-12)
    again = normalize_cloud(normed)
    assert np.allclose(again, normed, atol=1e-9)  # idempotent


def test_checkpoint_round_trip_and_byte_identity(tmp_path):
    model = Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(4,), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.hyperparams() == model.hyperparams()
    for name, arr in model.params.items():
        assert np.array_equal(loaded.params[name], arr)  # bit-exact round trip
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()
    assert loaded.checksum() == model.checksum()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(path)


def _saved_checkpoint_lines(tmp_path):
    model = Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(4,), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    return path, path.read_text().splitlines()


def test_checkpoint_header_lines_are_pinned(tmp_path):
    _, lines = _saved_checkpoint_lines(tmp_path)
    assert lines[:3] == [
        "openset3d checkpoint v1",
        '{"feat_dim": 8, "num_known": 3, "point_widths": [6, 8], "proj_hidden": [4]}',
        "param point0.b 6",
    ]


def _value_line(lines, name, row=0):
    """0-based index of value row `row` of parameter `name`."""
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["param", name])
    return header + 1 + row


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values_with_their_line(tmp_path, bad):
    path, lines = _saved_checkpoint_lines(tmp_path)
    at = _value_line(lines, "point1.w", row=2)
    fields = lines[at].split()
    fields[3] = bad
    lines[at] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    message = rf"model\.ckpt:{at + 1}: parameter 'point1\.w' has a non-finite value"
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("change", [-1, 1])
def test_checkpoint_rejects_a_row_of_the_wrong_width(tmp_path, change):
    path, lines = _saved_checkpoint_lines(tmp_path)
    at = _value_line(lines, "proj0.w", row=1)
    fields = lines[at].split()
    lines[at] = " ".join(fields[:-1] if change < 0 else fields + ["0.5"])
    path.write_text("\n".join(lines) + "\n")
    width = len(fields)
    with pytest.raises(
        ValueError,
        match=rf"model\.ckpt:{at + 1}: parameter 'proj0\.w' row has {width + change} values, "
              rf"expected {width}",
    ):
        load_checkpoint(path)


@pytest.mark.parametrize("at, pattern, repl, message", [
    (1, '"point_widths"', '"widths"', r":2: hyperparameter header is missing 'point_widths'"),
    (1, r"\}$", "", r":2: hyperparameter header is not JSON"),
    (1, "^.*$", "[1, 2]", r":2: hyperparameter header is not a JSON object"),
    (1, r'"feat_dim": \d+', '"feat_dim": "8"',
     r":2: hyperparameter 'feat_dim' must be a positive whole number"),
    (1, r'"num_known": \d+', '"num_known": 2.5',
     r":2: hyperparameter 'num_known' must be a positive whole number"),
    (1, r'"point_widths": \[[^]]*\]', '"point_widths": 5', r":2: bad hyperparameter header"),
    (2, "$", "x", r":3: bad shape for 'point0\.b'"),
    (2, "^.*$", "param", r":3: expected a param header"),
])
def test_checkpoint_rejects_a_malformed_header_with_its_line(tmp_path, at, pattern, repl, message):
    path, lines = _saved_checkpoint_lines(tmp_path)
    lines[at] = re.sub(pattern, repl, lines[at])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"model\.ckpt" + message):
        load_checkpoint(path)


def test_model_grads_cover_all_parameters():
    model = small_model()
    rng = np.random.default_rng(12)
    tape = ad.Tape()
    bound = model.bind(tape)
    _, f = bound.encode_batch([random_cloud(rng, 6)])
    loss = ad.sum_all(bound.logits(f))
    tape.backward(loss)
    grads = bound.param_grads()
    assert set(grads) == set(model.params)
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_nan_coordinate_gives_non_finite_logits():
    # relu propagates NaN, so the max-pool cannot drop the poisoned point
    model = small_model()
    rng = np.random.default_rng(14)
    clean = random_cloud(rng, 12)
    poisoned = random_cloud(rng, 12)
    poisoned[5, 1] = np.nan
    logits = model.infer_batch([clean, poisoned])
    assert np.isfinite(logits[0]).all()
    assert not np.isfinite(logits[1]).any()
