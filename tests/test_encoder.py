"""Encoder, prototype head, and checkpoint round-trip checks."""

import hashlib
import json
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from openset3d import autodiff as ad
from openset3d import encoder
from openset3d.checkpoint import load_checkpoint, save_checkpoint
from openset3d.data import ConfigError, load_arrays, save_arrays
from openset3d.encoder import Model, init_prototypes, normalize_cloud

from test_autodiff import _PROP, _bits_equal
from test_data import FINITE_FLOATS, write_array_file


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


@st.composite
def models(draw):
    """A small architecture, proj_hidden layers included, holding arbitrary finite values."""
    widths = st.lists(st.integers(1, 4), max_size=3)
    model = Model(draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                  draw(widths.filter(bool)), draw(widths))
    for name, arr in model.params.items():
        model.params[name] = draw(hnp.arrays(np.float64, arr.shape, elements=FINITE_FLOATS))
    return model


@_PROP
@given(models())
def test_every_checkpoint_round_trips_bit_exactly(tmp_path_factory, model):
    path = tmp_path_factory.getbasetemp() / "round_trip.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.hyperparams() == model.hyperparams()
    assert loaded.params.keys() == model.params.keys()
    assert all(_bits_equal(loaded.params[k], v) for k, v in model.params.items())


def test_no_prefix_of_a_checkpoint_loads(tmp_path):
    # a cut inside the last value used to load as a different model
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, small_model())
    data = path.read_bytes()
    magic = len(b"openset3d checkpoint v2\n")
    for k in range(len(data)):
        path.write_bytes(data[:k])
        message = "not an openset3d checkpoint file" if k < magic else "damaged or truncated"
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    """(path, hyperparameters, parameters) of a saved checkpoint."""
    model = Model(num_known=3, feat_dim=8, point_widths=(6, 8), proj_hidden=(4,), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    return (path, *load_arrays(path, "checkpoint"))


def test_checkpoint_header_lines_are_pinned(tmp_path):
    path, _, _ = _saved_checkpoint(tmp_path)
    magic, digest, header, payload = path.read_bytes().split(b"\n", 3)
    assert magic == b"openset3d checkpoint v2"
    assert digest == hashlib.sha256(header + b"\n" + payload).hexdigest().encode()
    assert header == (
        b'{"arrays": [["point0.b", [6]], ["point0.w", [3, 6]], ["point1.b", [8]], '
        b'["point1.w", [6, 8]], ["proj0.b", [4]], ["proj0.w", [8, 4]], ["proj1.b", [8]], '
        b'["proj1.w", [4, 8]], ["prototypes", [4, 8]]], '
        b'"meta": {"feat_dim": 8, "num_known": 3, "point_widths": [6, 8], "proj_hidden": [4]}}'
    )


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values_with_their_line(tmp_path, bad):
    path, meta, params = _saved_checkpoint(tmp_path)
    params["point1.w"][2, 3] = float(bad)
    save_arrays(path, "checkpoint", meta, params)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: array 'point1.w' has a non-finite value")):
        load_checkpoint(path)


@pytest.mark.parametrize("change", [-1, 1])
def test_checkpoint_rejects_a_row_of_the_wrong_width(tmp_path, change):
    path, meta, params = _saved_checkpoint(tmp_path)
    width = params["proj0.w"].shape[1]
    # a column fewer or more, under a header that says so
    params["proj0.w"] = np.resize(params["proj0.w"], (8, width + change))
    save_arrays(path, "checkpoint", meta, params)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: shape (8, {width + change}) does not match header-derived (8, {width}) "
            "for 'proj0.w'")):
        load_checkpoint(path)
    # a value fewer or more, under the saved header
    save_checkpoint(path, small_model())
    _, _, header, payload = path.read_bytes().split(b"\n", 3)
    payload = payload[:-8] if change < 0 else payload + payload[-8:]
    write_array_file(path, "checkpoint", header, payload)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: the payload holds {len(payload)} bytes, but the header's shapes take "
            f"{len(payload) - 8 * change}")):
        load_checkpoint(path)


def test_checkpoint_rejects_an_unknown_or_a_missing_parameter(tmp_path):
    path, meta, params = _saved_checkpoint(tmp_path)
    save_arrays(path, "checkpoint", meta, {**params, "proj9.w": params["proj0.w"]})
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown parameter 'proj9.w'")):
        load_checkpoint(path)
    del params["proj0.b"]
    save_arrays(path, "checkpoint", meta, params)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: missing parameters ['proj0.b']")):
        load_checkpoint(path)


# `at` 1 edits the JSON text of the hyperparameters, `at` 2 that of the first
# [name, shape] entry. The ids keep the `:<at + 1>:` of the text format's line
# numbers, so a case whose message did not change keeps its name.
_MALFORMED_HEADERS = [
    (1, '"point_widths"', '"widths"', "hyperparameter header is missing 'point_widths'"),
    (1, r"\}$", "", "header is not JSON"),
    (1, "^.*$", "[1, 2]", "hyperparameter header is not a JSON object"),
    (1, r'"feat_dim": \d+', '"feat_dim": "8"',
     "hyperparameter 'feat_dim' must be a positive whole number"),
    (1, r'"num_known": \d+', '"num_known": 2.5',
     "hyperparameter 'num_known' must be a positive whole number"),
    (1, r'"point_widths": \[[^]]*\]', '"point_widths": 5', "bad hyperparameter header"),
    (2, r"\[6\]", '["6"]', r"bad shape for 'point0\.b'"),
    (2, r'^\["point0\.b", ', "[", r"expected a \[name, shape\] array entry"),
]


@pytest.mark.parametrize("at, pattern, repl, message", _MALFORMED_HEADERS, ids=[
    f"{at}-{pattern}-{repl}-:{at + 1}: {message}"
    for at, pattern, repl, message in _MALFORMED_HEADERS
])
def test_checkpoint_rejects_a_malformed_header_with_its_line(tmp_path, at, pattern, repl, message):
    path, meta, params = _saved_checkpoint(tmp_path)
    _, _, _, payload = path.read_bytes().split(b"\n", 3)
    entries = [json.dumps([name, list(arr.shape)]) for name, arr in params.items()]
    meta = json.dumps(meta, sort_keys=True)
    if at == 1:
        meta = re.sub(pattern, repl, meta)
    else:
        entries[0] = re.sub(pattern, repl, entries[0])
    header = '{"arrays": [' + ", ".join(entries) + '], "meta": ' + meta + "}"
    write_array_file(path, "checkpoint", header.encode(), payload)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + message):
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


def _taped_logits(model, clouds):
    tape = ad.Tape()
    bound = model.bind(tape)
    _, f = bound.encode_batch(clouds)
    return bound.logits(f).data


# point_widths, proj_hidden, cloud sizes, and whether one coordinate is NaN
_FORWARD_CASES = {
    "widths-multiple-of-8": ((16, 24), (), [40] * 6, False),
    "last-width-not-multiple-of-8": ((16, 10), (), [25] * 6, False),
    # equal sizes pool into channel-major rows, which the projection reads
    "hidden-projection": ((8, 24), (12,), [40] * 8, False),
    "ragged-hidden-projection": ((8, 16), (12,), [33, 47, 52], False),
    "three-point-layers": ((8, 16, 32), (), [20, 64, 9, 31], False),
    "ragged": ((16, 32), (), [5, 2, 77, 13, 40, 3, 18], False),
    "one-point-beside-52": ((16, 32), (), [1, 52], False),
    "nan-coordinate": ((16, 32), (8,), [30, 30, 30], True),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", list(_FORWARD_CASES))
def test_infer_batch_equals_the_taped_forward_bit_for_bit(monkeypatch, case, cpus):
    widths, hidden, sizes, nan = _FORWARD_CASES[case]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for seed in range(3):
        model = Model(num_known=3, feat_dim=16, point_widths=widths, proj_hidden=hidden,
                      seed=seed)
        rng = np.random.default_rng(seed)
        for name in model.params:  # non-zero biases, so pooling before them is tested
            if name.endswith(".b"):
                model.params[name] = rng.normal(0.0, 0.3, model.params[name].shape)
        clouds = [random_cloud(rng, n) for n in sizes]
        if nan:
            clouds[1][7, 2] = np.nan
        got = model.infer_batch(clouds)
        assert got.tobytes() == _taped_logits(model, clouds).tobytes(), seed


def _helper_calls(monkeypatch):
    """The (first cloud, end cloud, first buffer row, rows) of each half
    handed to the scoring helper from here on."""
    calls = []
    submit = encoder._submit

    def recording(fn, *args):
        calls.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(encoder, "_submit", recording)
    return calls


@pytest.mark.parametrize("widths, sizes, half", [
    ((16, 32), [40, 40, 40, 40], (0, 2, 0, 80)),
    ((16, 32), [3, 90, 4, 5], (0, 2, 0, 93)),  # the cut nearest half of the rows
    ((16, 32), [2, 52], (0, 1, 0, 2)),
    ((16, 32), [1, 52], None),  # a one-row half would round differently
    ((16, 32), [1, 1, 1], None),
    ((16, 32), [50], None),
    ((16, 12), [40, 40], None),  # a width that is not a multiple of 8
])
def test_two_cpus_cut_the_clouds_into_two_halves(monkeypatch, widths, sizes, half):
    model = Model(num_known=2, feat_dim=8, point_widths=widths, proj_hidden=(), seed=1)
    rng = np.random.default_rng(2)
    clouds = [random_cloud(rng, n) for n in sizes]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = _helper_calls(monkeypatch)
    logits = model.infer_batch(clouds)
    assert calls == ([half] if half else [])
    assert logits.tobytes() == _taped_logits(model, clouds).tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert model.infer_batch(clouds).tobytes() == logits.tobytes()
    assert len(calls) == (1 if half else 0)


def test_concurrent_callers_share_the_helper_and_get_their_own_logits(monkeypatch):
    model = Model(num_known=3, feat_dim=16, point_widths=(16, 32), proj_hidden=(), seed=2)
    rng = np.random.default_rng(9)
    batches = [[random_cloud(rng, int(n)) for n in rng.integers(2, 60, 5)] for _ in range(6)]
    expected = [_taped_logits(model, clouds).tobytes() for clouds in batches]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    wrong = []

    def caller(k):
        for _ in range(20):
            if model.infer_batch(batches[k]).tobytes() != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert [t.name for t in threading.enumerate()].count("openset3d-score") == 1


def test_the_helper_hands_back_an_exception_and_keeps_serving():
    failure = encoder._submit(divmod, 1, 0).get(timeout=60)
    assert isinstance(failure, ZeroDivisionError)
    seen = []
    assert encoder._submit(seen.append, "next call").get(timeout=60) is None
    assert seen == ["next call"]


def test_infer_batch_rejects_what_encode_batch_rejects():
    model = small_model()
    with pytest.raises(ValueError, match="at least one cloud"):
        model.infer_batch([])
    with pytest.raises(ValueError, match="nonempty"):
        model.infer_batch([np.zeros((4, 3)), np.zeros((0, 3))])


def test_feature_logits_equal_the_taped_cosine_head():
    model = small_model()
    rng = np.random.default_rng(15)
    feats = rng.normal(size=(5, 8))
    tape = ad.Tape()
    taped = ad.cosine_logits(tape.leaf(feats), tape.leaf(model.params["prototypes"])).data
    assert model.feature_logits(feats).tobytes() == taped.tobytes()
