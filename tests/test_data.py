"""Toy benchmark generation, cloud file IO, and the saliency cache."""

import dataclasses
import re

import numpy as np
import pytest

from openset3d.data import (
    CacheMissError,
    ConfigError,
    Manifest,
    ClassSpec,
    SaliencyCache,
    StaleCacheError,
    default_manifest,
    format_manifest,
    generate_dataset,
    load_dataset,
    parse_manifest,
    read_cloud,
    tiny_manifest,
    write_cloud,
    write_dataset,
)
from openset3d.encoder import normalize_cloud
from openset3d.shapes import SHAPE_NAMES, random_instance, sample_shape
from openset3d.training import (
    DecompCaches,
    TrainConfig,
    build_decomposition_caches,
    build_saliency_cache,
    init_state,
    run_combined,
)


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


def test_random_instance_normalized():
    rng = np.random.default_rng(1)
    for name in ("sphere", "cone", "lbracket"):
        pts = random_instance(name, 128, rng)
        assert np.allclose(pts.mean(axis=0), 0.0, atol=1e-12)
        assert np.linalg.norm(pts, axis=1).max() == pytest.approx(1.0, abs=1e-9)


def test_sphere_instances_stay_spherical():
    # geometric oracle: after centroid centering of a finite sample the
    # radial spread is noise + O(1/sqrt(N)); spheres stay far tighter
    # than any boxy class at the same settings
    for seed in range(5):
        sphere = random_instance("sphere", 256, np.random.default_rng(seed), noise=0.02)
        cube = random_instance("cube", 256, np.random.default_rng(seed), noise=0.02)
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


def test_manifest_rejects_unknown_shape():
    text = format_manifest(tiny_manifest()) + "class blob = blobshape\nknown = sphere blob\n"
    with pytest.raises(ConfigError, match="blobshape"):
        parse_manifest(text)


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


def test_manifest_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_manifest("this is not a key value pair")


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
    with pytest.raises(ValueError, match=r"poisoned\.txt: line 4: non-finite coordinate"):
        read_cloud(path)


# ----------------------------------------------------------------------
# saliency cache


def test_cache_round_trip(tmp_path):
    cache = SaliencyCache("abc123")
    scores = np.linspace(0, 1, 32)
    cache.put("cone/cone_0001", scores)
    assert np.array_equal(cache.get("cone/cone_0001"), scores)
    path = tmp_path / "sal.cache"
    cache.save(path)
    loaded = SaliencyCache.load(path)
    assert loaded.model_checksum == "abc123"
    assert np.array_equal(loaded.get("cone/cone_0001"), scores)


def test_cache_loads_a_header_that_names_a_normalization(tmp_path):
    # files written before the header lost its unread "normalization" key
    scores = np.linspace(0, 1, 8)
    path = tmp_path / "old.cache"
    path.write_bytes(
        b"OS3DSAL1\n"
        + b'{"model_checksum": "abc123", "normalization": "raw"}\n'
        + b'{"id": "cone/cone_0001", "n": 8}\n'
        + scores.astype("<f8").tobytes()
    )
    loaded = SaliencyCache.load(path)
    assert loaded.model_checksum == "abc123"
    assert np.array_equal(loaded.get("cone/cone_0001"), scores)
    loaded.save(tmp_path / "new.cache")
    assert b"normalization" not in (tmp_path / "new.cache").read_bytes()


def test_cache_miss_before_put():
    cache = SaliencyCache("abc123")
    with pytest.raises(CacheMissError):
        cache.get("missing/object")


def test_cache_rejects_stale_checksum():
    cache = SaliencyCache("abc123")
    cache.check("abc123")
    with pytest.raises(StaleCacheError, match="retrain"):
        cache.check("def456")
    # phase 2 refuses scores from another model before it trains a step
    dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=20,
                                             points_per_cloud=48))
    config = TrainConfig(phase1_epochs=1, phase2_epochs=1, batch_size=8, feat_dim=16,
                         point_widths=(12, 16), views_per_object=2)
    state = init_state(dataset, config)
    other = init_state(dataset, dataclasses.replace(config, seed=1)).model
    stale = DecompCaches(build_saliency_cache(other, dataset.train_known), views={})
    with pytest.raises(StaleCacheError, match="rebuild"):
        run_combined(state, dataset, config, 1, stale)
    assert state.epoch == 0 and state.rows == []
    own = build_decomposition_caches(state.model, dataset.train_known, config)
    run_combined(state, dataset, config, 1, own)
    assert state.epoch == 1


def cache_file(tmp_path, header, *records):
    """A cache file from a raw header line and (meta line, scores) records."""
    path = tmp_path / "hand.cache"
    body = b"OS3DSAL1\n" + header + b"\n"
    for meta, scores in records:
        body += meta + b"\n" + np.asarray(scores, dtype="<f8").tobytes()
    path.write_bytes(body)
    return path


GOOD_HEADER = b'{"model_checksum": "abc123"}'


@pytest.mark.parametrize("header", [
    b'["abc123"]', b'{"model_checksum": 7}', b'{"checksum": "abc123"}', b"{not json",
], ids=["list", "checksum-number", "checksum-missing", "bad-json"])
def test_cache_rejects_a_malformed_header(tmp_path, header):
    path = cache_file(tmp_path, header, (b'{"id": "a/a_0000", "n": 2}', [0.1, 0.2]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: header")):
        SaliencyCache.load(path)


@pytest.mark.parametrize("meta, scores, message", [
    pytest.param(b'{"id": "b/b_0000", "n": "3"}', [0.1, 0.2, 0.3],
                 r"record 2 \('b/b_0000'\): n must", id="n-string"),
    pytest.param(b'{"id": "b/b_0000", "n": -1}', [],
                 r"record 2 \('b/b_0000'\): n must", id="n-negative"),
    pytest.param(b'{"id": "b/b_0000", "n": true}', [0.1],
                 r"record 2 \('b/b_0000'\): n must", id="n-bool"),
    pytest.param(b'{"n": 2}', [0.1, 0.2],
                 "record 2: expected an object with a string id", id="id-missing"),
    pytest.param(b'{"id": 5, "n": 2}', [0.1, 0.2],
                 "record 2: expected an object with a string id", id="id-number"),
    pytest.param(b"[1, 2]", [0.1, 0.2],
                 "record 2: expected an object with a string id", id="meta-list"),
    pytest.param(b'{"id": "b/b_0000"', [0.1, 0.2], "record 2: ", id="meta-bad-json"),
    pytest.param(b'{"id": "a/a_0000", "n": 2}', [0.3, 0.4],
                 r"record 2 \('a/a_0000'\): duplicate id", id="duplicate-id"),
    pytest.param(b'{"id": "b/b_0000", "n": 2}', [0.1, np.nan],
                 r"record 2 \('b/b_0000'\): non-finite", id="nan"),
    pytest.param(b'{"id": "b/b_0000", "n": 2}', [np.inf, 0.1],
                 r"record 2 \('b/b_0000'\): non-finite", id="inf"),
    pytest.param(b'{"id": "b/b_0000", "n": 3}', [0.1, 0.2],
                 r"record 2 \('b/b_0000'\): truncated", id="truncated"),
])
def test_cache_rejects_a_malformed_record_with_its_location(tmp_path, meta, scores,
                                                            message):
    path = cache_file(tmp_path, GOOD_HEADER,
                      (b'{"id": "a/a_0000", "n": 2}', [0.1, 0.2]), (meta, scores))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
        SaliencyCache.load(path)


def test_cache_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_cache.bin"
    path.write_bytes(b"garbage")
    with pytest.raises(ValueError, match="cache"):
        SaliencyCache.load(path)
