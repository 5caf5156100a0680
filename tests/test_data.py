"""Toy benchmark generation, cloud file IO, array files, and the saliency cache check."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from openset3d.data import (
    ConfigError,
    Manifest,
    ClassSpec,
    default_manifest,
    format_manifest,
    generate_dataset,
    load_arrays,
    load_dataset,
    load_manifest,
    parse_manifest,
    read_cloud,
    tiny_manifest,
    write_cloud,
    write_dataset,
)
from openset3d.checkpoint import load_checkpoint, save_checkpoint
from openset3d.encoder import Model, normalize_cloud
from openset3d.shapes import SHAPE_NAMES, SHAPE_PARAMS, random_instance, sample_shape
from openset3d.training import (
    DecompCaches,
    SaliencyCache,
    StaleCacheError,
    TrainConfig,
    build_decomposition_caches,
    build_saliency_cache,
    init_state,
    run_combined,
)

from test_autodiff import _PROP, _bits_equal


# ----------------------------------------------------------------------
# shapes


def test_every_library_shape_samples():
    rng = np.random.default_rng(0)
    for name in SHAPE_NAMES:
        pts = sample_shape(name, 200, rng)
        assert pts.shape == (200, 3)
        assert np.isfinite(pts).all()


def test_unknown_shape_rejected():
    with pytest.raises(ValueError, match="doughnut"):
        sample_shape("doughnut", 10, np.random.default_rng(0))


def default_instance(name, n, rng):
    """A random_instance posed and noised as the default manifest's are."""
    m = default_manifest()
    return random_instance(name, n, rng, noise=m.noise, scale_jitter=m.scale_jitter,
                           tilt=m.tilt)


def test_random_instance_normalized():
    rng = np.random.default_rng(1)
    for name in ("sphere", "cone", "lbracket"):
        pts = default_instance(name, 128, rng)
        assert np.allclose(pts.mean(axis=0), 0.0, atol=1e-12)
        assert np.linalg.norm(pts, axis=1).max() == pytest.approx(1.0, abs=1e-9)


def test_sphere_instances_stay_spherical():
    # geometric oracle: after centroid centering of a finite sample the
    # radial spread is noise + O(1/sqrt(N)); spheres stay far tighter
    # than any boxy class at the same settings
    for seed in range(5):
        sphere = default_instance("sphere", 256, np.random.default_rng(seed))
        cube = default_instance("cube", 256, np.random.default_rng(seed))
        radii = np.linalg.norm(sphere, axis=1)
        assert radii.mean() >= 0.8
        assert radii.std() <= 0.09
        assert radii.std() < np.linalg.norm(cube, axis=1).std()


# ----------------------------------------------------------------------
# manifests


def test_default_manifest_counts():
    manifest = default_manifest()
    manifest.validate()
    assert len(manifest.known) == 8 and len(manifest.unknown) == 4
    assert len(manifest.class_specs) == 12


def test_manifest_round_trip():
    manifest = default_manifest(seed=123, instances_per_class=10, points_per_cloud=32)
    parsed = parse_manifest(format_manifest(manifest))
    assert parsed == manifest


_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
_NONNEGATIVE = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
# a value of each default's type
_VALUES = {bool: st.booleans(), int: st.integers(-10**6, 10**6),
           float: st.floats(allow_nan=False, allow_infinity=False)}
# format round trips: every finite float64, with signed zeros, subnormals and
# the ends of the range drawn often
FINITE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def class_specs(draw, name):
    """A class of a library shape with some of that shape's own parameters."""
    shape = draw(st.sampled_from(SHAPE_NAMES))
    defaults = SHAPE_PARAMS[shape]
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=3))
    return ClassSpec(name, shape, {k: draw(_VALUES[type(defaults[k])]) for k in keys})


@st.composite
def manifests(draw):
    names = draw(st.lists(_NAMES, min_size=3, max_size=6, unique=True))
    known = draw(st.integers(2, len(names) - 1))
    specs = [draw(class_specs(n)) for n in names]
    return Manifest(
        specs[:known], specs[known:],
        instances_per_class=draw(st.integers(2, 10**6)),
        points_per_cloud=draw(st.integers(4, 10**6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        noise=draw(_NONNEGATIVE), scale_jitter=draw(_NONNEGATIVE), tilt=draw(_NONNEGATIVE),
    )


@settings(deadline=None)
@given(manifests())
def test_every_manifest_round_trips_through_its_text(manifest):
    assert parse_manifest(format_manifest(manifest)) == manifest


def test_a_manifest_of_only_class_lists_takes_the_dataclass_defaults():
    parsed = parse_manifest("known = sphere cube\nunknown = torus\n")
    classes = [ClassSpec(n, n) for n in ("sphere", "cube", "torus")]
    assert parsed == Manifest(classes[:2], classes[2:])


def test_manifest_rejects_unknown_shape():
    text = format_manifest(tiny_manifest()) + "class blob = blobshape\nknown = sphere blob\n"
    with pytest.raises(ConfigError, match="blobshape"):
        parse_manifest(text)


def test_class_parameters_take_the_type_of_the_samplers_default():
    manifest = Manifest([ClassSpec("sphere", "sphere"),
                         ClassSpec("open_can", "cylinder", {"caps": False})],
                        [ClassSpec("torus", "torus")], instances_per_class=4,
                        points_per_cloud=32)
    parsed = parse_manifest(format_manifest(manifest))
    assert parsed.known[1].params == {"caps": False}
    # so the parsed manifest generates the library's clouds: open cylinders
    for ours, theirs in zip(generate_dataset(parsed).records,
                            generate_dataset(manifest).records):
        assert np.array_equal(ours.points, theirs.points)


@pytest.mark.parametrize("params, message", [
    ("caps=maybe", "bad value for caps: expected a boolean, got 'maybe'"),
    ("radius=wide", "bad value for radius: could not convert string to float: 'wide'"),
])
def test_a_bad_class_parameter_names_its_line(tmp_path, params, message):
    text = format_manifest(tiny_manifest()) + f"class cube = cylinder {params}\n"
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path} line {len(text.splitlines())}: ")
                       + ".*" + re.escape(message)):
        load_manifest(path)


def test_manifest_rejects_overlapping_classes():
    manifest = Manifest(
        known=[ClassSpec("sphere", "sphere"), ClassSpec("cube", "cube")],
        unknown=[ClassSpec("sphere", "sphere")],
    )
    with pytest.raises(ConfigError, match="unique"):
        manifest.validate()


def test_manifest_rejects_unknown_key():
    text = format_manifest(tiny_manifest()).replace("instances_per_class",
                                                    "instance_per_class")
    lineno = text.splitlines().index("instance_per_class = 24") + 1
    with pytest.raises(ConfigError,
                       match=f"manifest line {lineno}: unknown key 'instance_per_class'"):
        parse_manifest(text)


def test_default_manifest_text_is_pinned():
    # the file layout, field order included, is part of every dataset
    assert format_manifest(default_manifest()) == (
        "# openset3d toy dataset manifest\n"
        "seed = 7\n"
        "points = 256\n"
        "instances_per_class = 200\n"
        "noise = 0.02\n"
        "scale_jitter = 0.1\n"
        "tilt = 0.15\n"
        "known = sphere cube cylinder cone torus pyramid ellipsoid disc\n"
        "unknown = tube lbracket capsule cone_frustum\n"
        "class disc = ellipsoid ax=1.0 ay=1.0 az=0.22\n"
        "class cone_frustum = cone truncate=0.55\n"
    )


def test_manifest_rejects_malformed_line(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_manifest("this is not a key value pair")
    # wherever it stands, the error names the file and the line
    lines = format_manifest(default_manifest()).splitlines()
    path = tmp_path / "manifest.txt"
    for pos in range(len(lines) + 1):
        path.write_text("\n".join(lines[:pos] + ["seed 7"] + lines[pos:]) + "\n")
        with pytest.raises(ConfigError) as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path} line {pos + 1}: expected 'key = value'")


# ----------------------------------------------------------------------
# generation


def small_manifest():
    return tiny_manifest(seed=5, instances_per_class=10, points_per_cloud=48)


def test_generation_deterministic():
    m = small_manifest()
    a = generate_dataset(m)
    b = generate_dataset(small_manifest())
    assert len(a.records) == len(b.records) == 30
    for ra, rb in zip(a.records, b.records):
        assert ra.object_id == rb.object_id
        assert np.array_equal(ra.points, rb.points)


def test_generated_clouds_normalized_with_exact_count():
    dataset = generate_dataset(small_manifest())
    for record in dataset.records:
        assert record.points.shape == (48, 3)
        assert np.linalg.norm(record.points, axis=1).max() == pytest.approx(1.0, abs=1e-9)


def test_split_ratios():
    dataset = generate_dataset(small_manifest())  # 10 per class: 7/1/2
    for split, expected in (("train", 7), ("val", 1), ("test", 2)):
        known = [r for r in dataset.subset(split, True) if r.class_name == "sphere"]
        assert len(known) == expected
    assert len(dataset.test_unknown) == 2  # one unknown class, 2 test instances


def test_class_indices_known_only():
    dataset = generate_dataset(small_manifest())
    for record in dataset.records:
        if record.known:
            assert 0 <= record.class_index < 2
        else:
            assert record.class_index == -1


def test_dataset_write_is_byte_deterministic(tmp_path):
    m = small_manifest()
    out1, out2 = tmp_path / "one", tmp_path / "two"
    write_dataset(generate_dataset(m), out1)
    write_dataset(generate_dataset(small_manifest()), out2)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*.txt"))
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*.txt"))
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_dataset_round_trip(tmp_path):
    dataset = generate_dataset(small_manifest())
    write_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.known_classes == dataset.known_classes
    assert loaded.unknown_classes == dataset.unknown_classes
    assert len(loaded.records) == len(dataset.records)
    by_id = {r.object_id: r for r in loaded.records}
    for record in dataset.records:
        twin = by_id[record.object_id]
        assert twin.split == record.split
        assert np.allclose(twin.points, record.points, atol=1e-9)


def test_clouds_on_disk_renormalize_to_themselves(tmp_path):
    dataset = generate_dataset(small_manifest())
    write_dataset(dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    for record in loaded.records[:10]:
        again = normalize_cloud(record.points)
        assert np.allclose(again, record.points, atol=1e-9)


# ----------------------------------------------------------------------
# cloud file format


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (20, 3))
    path = tmp_path / "cloud.txt"
    write_cloud(path, pts, "cone")
    loaded, name = read_cloud(path)
    assert name == "cone"
    assert np.allclose(loaded, pts, atol=1e-9)
    assert np.array_equal(loaded, pts)  # repr round-trip is exact


@_PROP
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3)), elements=FINITE_FLOATS),
       st.none() | _NAMES)
def test_every_cloud_round_trips_bit_exactly(tmp_path_factory, points, class_name):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    write_cloud(path, points, class_name)
    loaded, name = read_cloud(path)
    assert _bits_equal(loaded, points) and name == class_name


def test_no_prefix_of_a_dataset_cloud_loads(tmp_path):
    # a cut inside the last coordinate used to load with a wrong value
    root = tmp_path / "ds"
    write_dataset(generate_dataset(tiny_manifest(instances_per_class=2, points_per_cloud=4)),
                  root)
    cloud = root / "cube" / "cube_0001.txt"
    data = cloud.read_bytes()
    for k in range(len(data)):
        cloud.write_bytes(data[:k])
        with pytest.raises(ConfigError, match=re.escape(str(cloud))):
            load_dataset(root)
    with pytest.raises(ConfigError, match="truncated: no final newline"):
        read_cloud(cloud)
    cloud.write_bytes(data)
    assert len(load_dataset(root).records) == 6


def test_empty_cloud_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="no points"):
        read_cloud(path)


def test_malformed_line_names_its_number(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("0 0 0\n1 1 1\n2 2 2\n3 3\n")
    with pytest.raises(ValueError, match="line 4"):
        read_cloud(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_coordinate_names_its_line(tmp_path, bad):
    path = tmp_path / "poisoned.txt"
    path.write_text(f"# class cone\n0 0 0\n1 1 1\n2 {bad} 2\n3 3 3\n")
    with pytest.raises(ValueError, match=r"poisoned\.txt line 4: point has a non-finite value"):
        read_cloud(path)


# ----------------------------------------------------------------------
# saliency cache check, and array files (checkpoints)


def test_cache_rejects_stale_checksum():
    cache = SaliencyCache("abc123")
    cache.check("abc123", [])
    with pytest.raises(StaleCacheError, match="retrain"):
        cache.check("def456", [])
    # phase 2 refuses scores from another model before it trains a step
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=20,
                                             points_per_cloud=48))
    config = TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=8, feat_dim=16,
                         point_widths=(12, 16), views_per_object=2)
    state = init_state(dataset, config)
    other = init_state(dataset, dataclasses.replace(config, seed=1)).model
    stale = DecompCaches(build_saliency_cache(other, dataset.train_known), views={})
    with pytest.raises(StaleCacheError, match="rebuild"):
        run_combined(state, dataset, config, stale)
    assert state.epoch == 0 and state.rows == []
    own = build_decomposition_caches(state.model, dataset.train_known, config)
    run_combined(state, dataset, config, own)
    assert state.epoch == 1


def test_cache_check_binds_to_the_training_split():
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=20,
                                             points_per_cloud=48))
    config = TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=8, feat_dim=16,
                         point_widths=(12, 16), views_per_object=2)
    state = init_state(dataset, config)
    records = dataset.train_known
    full = build_saliency_cache(state.model, records)
    full.check(state.model.checksum(), records)
    first = records[0]
    for held, scores in (("no scores", None), ("47 scores", full.scores[first.object_id][:-1])):
        cache = SaliencyCache(full.model_checksum)
        for rec in records[1:]:
            cache.scores[rec.object_id] = full.scores[rec.object_id]
        if scores is not None:
            cache.scores[first.object_id] = scores
        message = f"holds {held} for training object {first.object_id!r}, whose cloud has 48"
        with pytest.raises(StaleCacheError, match=re.escape(message)):
            cache.check(state.model.checksum(), records)
        # phase 2 refuses it before it trains a step
        with pytest.raises(StaleCacheError, match=re.escape(message)):
            run_combined(state, dataset, config, DecompCaches(cache, views={}))
        assert state.epoch == 0 and state.rows == []


def write_array_file(path, kind, header: bytes, payload: bytes = b""):
    """An array file of `kind` from a raw header line and payload, under a
    digest that matches them, so that a hand-made edit reaches the checks
    after the digest."""
    body = header + b"\n" + payload
    digest = hashlib.sha256(body).hexdigest().encode()
    path.write_bytes(f"openset3d {kind} v2\n".encode() + digest + b"\n" + body)
    return path


def array_file(tmp_path, *entries):
    """An array file from (raw [name, shape] entry, values) pairs."""
    header = b'{"arrays": [' + b", ".join(entry for entry, _ in entries) + b'], "meta": {}}'
    payload = b"".join(np.asarray(values, dtype="<f8").tobytes() for _, values in entries)
    return write_array_file(tmp_path / "hand.ckpt", "checkpoint", header, payload)


@pytest.mark.parametrize("header", [
    b"[]", b'{"arrays": []}', b'{"arrays": {}, "meta": {}}',
    b'{"arrays": [], "meta": {}, "offsets": []}',
], ids=["list", "meta-missing", "arrays-object", "extra-key"])
def test_an_array_file_rejects_a_header_of_another_layout(tmp_path, header):
    path = write_array_file(tmp_path / "hand.ckpt", "checkpoint", header)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: header: expected ")):
        load_arrays(path, "checkpoint")


ENTRY = re.escape("expected a [name, shape] array entry, got ")


@pytest.mark.parametrize("entry, scores, message", [
    pytest.param(b'["b/b_0000", ["3"]]', [0.1, 0.2, 0.3],
                 r"bad shape for 'b/b_0000': \['3'\]", id="n-string"),
    pytest.param(b'["b/b_0000", [-1]]', [],
                 r"bad shape for 'b/b_0000': \[-1\]", id="n-negative"),
    pytest.param(b'["b/b_0000", [true]]', [0.1],
                 r"bad shape for 'b/b_0000': \[True\]", id="n-bool"),
    pytest.param(b"[[2]]", [0.1, 0.2], ENTRY + r"\[\[2\]\]", id="id-missing"),
    pytest.param(b"[5, [2]]", [0.1, 0.2], ENTRY + r"\[5, \[2\]\]", id="id-number"),
    pytest.param(b'{"id": "b/b_0000", "n": 2}', [0.1, 0.2], ENTRY + r"\{'id'", id="meta-list"),
    pytest.param(b'["b/b_0000", [2]', [0.1, 0.2], "header is not JSON", id="meta-bad-json"),
    pytest.param(b'["a/a_0000", [2]]', [0.3, 0.4],
                 "duplicate array name 'a/a_0000'", id="duplicate-id"),
    pytest.param(b'["b/b_0000", [2]]', [0.1, np.nan],
                 "array 'b/b_0000' has a non-finite value", id="nan"),
    pytest.param(b'["b/b_0000", [2]]', [np.inf, 0.1],
                 "array 'b/b_0000' has a non-finite value", id="inf"),
    pytest.param(b'["b/b_0000", [3]]', [0.1, 0.2],
                 "the payload holds 32 bytes, but the header's shapes take 40", id="truncated"),
])
def test_cache_rejects_a_malformed_record_with_its_location(tmp_path, entry, scores,
                                                            message):
    path = array_file(tmp_path, (b'["a/a_0000", [2]]', [0.1, 0.2]), (entry, scores))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + message):
        load_arrays(path, "checkpoint")


def test_no_changed_byte_or_prefix_of_an_array_file_loads(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(3, 8, (6, 8), ()))
    data = path.read_bytes()
    damaged = [data[:k] for k in range(len(data))]
    damaged += [data[:k] + bytes([(data[k] + 1) % 256]) + data[k + 1:] for k in range(len(data))]
    for bad in damaged:
        path.write_bytes(bad)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_checkpoint(path)


def test_cache_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_checkpoint.bin"
    path.write_bytes(b"garbage")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not an openset3d checkpoint file")):
        load_checkpoint(path)
