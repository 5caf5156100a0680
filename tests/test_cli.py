"""End-to-end checks of the command-line pipeline (run in-process)."""

import json
import shutil

import numpy as np
import pytest

from openset3d.cli import main
from openset3d.data import SaliencyCache, format_manifest, load_dataset, read_cloud, tiny_manifest

from test_synthesis import invert_transform

TRAIN_OVERRIDES = [
    "train.feat_dim=16",
    "train.point_widths=12,16",
    "train.views_per_object=3",
    "train.batch_size=8",
    "train.learning_rate=0.01",
]


@pytest.fixture(scope="module")
def tiny_dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    manifest_path = root / "manifest.txt"
    manifest_path.write_text(format_manifest(
        tiny_manifest(seed=3, instances_per_class=40, points_per_cloud=64)
    ))
    out = root / "dataset"
    assert main(["gen", "--manifest", str(manifest_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pretrained(tiny_dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrain")
    code = main([
        "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "60", "--seed", "0", *TRAIN_OVERRIDES,
    ])
    assert code == 0
    return out / "pretrain.ckpt"


@pytest.fixture(scope="module")
def saliency_cache(tiny_dataset_dir, pretrained, tmp_path_factory):
    out = tmp_path_factory.mktemp("saliency")
    code = main([
        "saliency", "--dataset", str(tiny_dataset_dir), "--checkpoint", str(pretrained),
        "--out", str(out), *TRAIN_OVERRIDES,
    ])
    assert code == 0
    return out / "saliency.cache"


def test_gen_writes_expected_layout(tiny_dataset_dir):
    class_dirs = sorted(p.name for p in tiny_dataset_dir.iterdir() if p.is_dir())
    assert class_dirs == ["cube", "sphere", "torus"]
    for name in class_dirs:
        assert len(list((tiny_dataset_dir / name).glob("*.txt"))) == 40
    assert (tiny_dataset_dir / "manifest.txt").exists()


def test_gen_default_manifest_class_count(tmp_path):
    # the built-in benchmark: 12 class directories; use a seed override only
    out = tmp_path / "default"
    assert main(["gen", "--out", str(out)]) == 0
    class_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(class_dirs) == 12
    assert all(len(list(p.glob("*.txt"))) == 200 for p in class_dirs)


def test_gen_rerun_is_byte_identical(tiny_dataset_dir, tmp_path):
    manifest_path = tiny_dataset_dir / "manifest.txt"
    again = tmp_path / "again"
    assert main(["gen", "--manifest", str(manifest_path), "--out", str(again)]) == 0
    for path in sorted(tiny_dataset_dir.rglob("*.txt")):
        rel = path.relative_to(tiny_dataset_dir)
        assert (again / rel).read_bytes() == path.read_bytes()


def test_gen_bad_shape_name_exit_2(tmp_path, capsys):
    manifest = tmp_path / "bad.txt"
    manifest.write_text(
        "seed = 1\npoints = 32\ninstances_per_class = 4\n"
        "known = sphere wedge\nunknown = torus\n"
    )
    assert main(["gen", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert "wedge" in capsys.readouterr().err


def test_gen_unknown_class_parameter_exits_2_before_writing(tmp_path, capsys):
    # accepted, it failed inside the sampler with a TypeError (exit 1)
    manifest = tmp_path / "bad.txt"
    manifest.write_text(format_manifest(tiny_manifest()) + "class cube = cylinder capz=1\n")
    out = tmp_path / "o"
    assert main(["gen", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert (f"{manifest} line 10: class 'cube': shape 'cylinder' has no parameter 'capz'; "
            "it takes radius, height, caps") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,key", [
    ("noise = inf", "noise"), ("noise = nan", "noise"), ("noise = -0.5", "noise"),
    ("tilt = inf", "tilt"), ("tilt = nan", "tilt"), ("scale_jitter = inf", "scale_jitter"),
    ("seed = -1", "seed"), ("instances_per_class = 1", "instances_per_class"),
    ("--seed -1", "seed"),
])
def test_gen_bad_manifest_value_exits_2_before_writing(tmp_path, capsys, line, key):
    # accepted, these would write NaN clouds, silently drop the noise or tilt,
    # fail inside numpy with no location, or leave the training split empty
    text = format_manifest(tiny_manifest(instances_per_class=4, points_per_cloud=32))
    args = []
    if line.startswith("--"):
        args = line.split()
    else:
        text = "\n".join(line if raw.split(" = ")[0] == key else raw
                         for raw in text.splitlines()) + "\n"
    manifest = tmp_path / "bad.txt"
    manifest.write_text(text)
    out = tmp_path / "o"
    assert main(["gen", "--manifest", str(manifest), "--out", str(out), *args]) == 2
    assert f"manifest {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_reaches_high_val_accuracy(pretrained, capsys):
    # the fixture already ran; re-check by reading its report
    report = pretrained.parent / "pretrain_report.csv"
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "epoch,l_cls,l_h,l_s,l_m,total,val_acc"
    final_val_acc = float(lines[-1].split(",")[-1])
    assert final_val_acc >= 0.99


def test_saliency_covers_every_training_object(tiny_dataset_dir, saliency_cache):
    cache = SaliencyCache.load(saliency_cache)
    dataset = load_dataset(tiny_dataset_dir)
    assert len(cache.scores) == len(dataset.train_known)
    for record in dataset.train_known:
        scores = cache.scores[record.object_id]
        assert scores.shape == (64,)


def test_train_zero_weights_matches_continued_pretrain(tiny_dataset_dir, pretrained,
                                                       tmp_path):
    zero = ["train.alpha=0", "train.beta=0", "train.gamma=0"]
    out_a = tmp_path / "resumed"
    assert main([
        "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(out_a),
        "--epochs", "3", "--seed", "0", "--checkpoint", str(pretrained),
        *TRAIN_OVERRIDES,
    ]) == 0
    out_b = tmp_path / "zeroed"
    assert main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out_b),
        "--epochs", "3", "--seed", "0", "--checkpoint", str(pretrained),
        *TRAIN_OVERRIDES, *zero,
    ]) == 0
    report_a = (out_a / "pretrain_report.csv").read_text()
    report_b = (out_b / "train_report.csv").read_text()
    assert report_a == report_b  # same loss curve, step for step
    assert (out_a / "pretrain.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def test_train_requires_cache_in_cached_mode(tiny_dataset_dir, pretrained, tmp_path,
                                             capsys):
    missing = tmp_path / "nope.cache"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(tmp_path / "t"),
        "--epochs", "1", "--checkpoint", str(pretrained),
        "--saliency", str(missing), *TRAIN_OVERRIDES,
    ])
    assert code == 2
    assert "nope.cache" in capsys.readouterr().err


def test_train_of_no_epochs_reads_no_cache_and_keeps_the_model(tiny_dataset_dir, pretrained,
                                                              tmp_path):
    # TSD is on, but a phase of no epochs reads no saliency cache
    out = tmp_path / "t"
    assert main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "0", "--checkpoint", str(pretrained), *TRAIN_OVERRIDES,
    ]) == 0
    assert (out / "model.ckpt").read_bytes() == pretrained.read_bytes()


def test_train_rejects_a_cache_from_another_checkpoint(tiny_dataset_dir, pretrained,
                                                        saliency_cache, tmp_path, capsys):
    stale = SaliencyCache.load(saliency_cache)
    stale.model_checksum = "0" * 64
    stale.save(tmp_path / "stale.cache")
    out = tmp_path / "t"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "1", "--checkpoint", str(pretrained),
        "--saliency", str(tmp_path / "stale.cache"), *TRAIN_OVERRIDES,
    ])
    assert code == 2
    assert "saliency cache was built from model 000000000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "synth-demo"])
@pytest.mark.parametrize("mismatch", ["missing", "short"])
def test_a_cache_of_another_split_exits_2_naming_the_file(tiny_dataset_dir, pretrained,
                                                          saliency_cache, tmp_path, capsys,
                                                          command, mismatch):
    # the same model's scores, but one training object is absent or one point short
    cache = SaliencyCache.load(saliency_cache)
    records = load_dataset(tiny_dataset_dir).train_known
    other = SaliencyCache(cache.model_checksum)
    for rec in records[1:]:
        other.scores[rec.object_id] = cache.scores[rec.object_id]
    first = records[0]
    if mismatch == "short":
        other.scores[first.object_id] = cache.scores[first.object_id][:-1]
    path = tmp_path / "other.cache"
    other.save(path)
    out = tmp_path / "t"
    extra = ["--epochs", "1"] if command == "train" else ["--count", "1"]
    code = main([
        command, "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--checkpoint", str(pretrained), "--saliency", str(path), *extra, *TRAIN_OVERRIDES,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and repr(first.object_id) in err
    n = len(first.points)
    held = "no scores" if mismatch == "missing" else f"{n - 1} scores"
    assert f"holds {held}" in err and f"has {n} points" in err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    # keys that no longer exist: ablations are zero weights plus use_tsd, and
    # there is one synthetic sample per real sample
    "train.saliency_mode=online", "train.use_gss=false", "train.use_sms=false",
    "train.synth_ratio=0.5",
    # values TrainConfig.validate() rejects
    "train.views_per_object=0",
    "train.proj_hidden=16.5", "train.point_widths=0 8", "train.feat_dim=0",
    "train.point_widths=", "train.noise_weights=nan", "train.noise_weights=0.1 inf",
    "train.noise_weights=-0.1", "train.mix_count=2.5", "train.batch_size=nan",
    "train.learning_rate=inf", "train.margin=inf", "train.neg_weight=inf",
    "train.alpha=inf", "train.beta=inf", "train.gamma=inf", "train.view_radius=1.5 inf",
    # init_state: more parts to mix than a 64-point cloud has points
    "train.mix_count=100",
])
def test_invalid_config_exits_2_before_any_work(tiny_dataset_dir, pretrained,
                                                saliency_cache, tmp_path, capsys, override):
    out = tmp_path / "t"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "1", "--checkpoint", str(pretrained),
        "--saliency", str(saliency_cache), *TRAIN_OVERRIDES, override,
    ])
    assert code == 2
    assert override.split("=")[0].removeprefix("train.") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "pretrain"])
@pytest.mark.parametrize("override,values", [
    ("train.proj_hidden=16", ("(16,)", "()")),
    ("train.feat_dim=8", ("8", "16")),
    ("train.point_widths=12,8", ("(12, 8)", "(12, 16)")),
])
def test_an_architecture_unlike_the_checkpoints_exits_2_before_any_work(
        tiny_dataset_dir, pretrained, saliency_cache, tmp_path, capsys, command, override,
        values):
    out = tmp_path / "t"
    extra = ["--saliency", str(saliency_cache)] if command == "train" else []
    code = main([
        command, "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "1", "--checkpoint", str(pretrained), *extra, *TRAIN_OVERRIDES,
        override,
    ])
    err = capsys.readouterr().err
    assert code == 2
    key = override.split("=")[0]
    assert f"{key} is {values[0]} in the config but {values[1]} in checkpoint" in err
    assert str(pretrained) in err
    assert not out.exists()


def test_train_full_phase2_runs(tiny_dataset_dir, pretrained, saliency_cache, tmp_path):
    out = tmp_path / "full"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "2", "--seed", "0", "--checkpoint", str(pretrained),
        "--saliency", str(saliency_cache), *TRAIN_OVERRIDES,
    ])
    assert code == 0
    assert (out / "model.ckpt").exists()
    lines = (out / "train_report.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_eval_schema_and_untrained_chance_band(tiny_dataset_dir, tmp_path):
    # an untrained checkpoint scores near chance
    out_pre = tmp_path / "pre"
    assert main([
        "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(out_pre),
        "--epochs", "0", "--seed", "1", *TRAIN_OVERRIDES,
    ]) == 0
    out = tmp_path / "eval"
    code = main([
        "eval", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--checkpoint", str(out_pre / "pretrain.ckpt"), "--scorer", "both",
    ])
    assert code == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "method,split,auroc,fpr95,acc,macc"
    assert len(lines) == 3
    auroc_value = float(lines[1].split(",")[2])
    assert 0.3 <= auroc_value <= 0.7
    scores = (out / "scores.csv").read_text().strip().splitlines()
    assert scores[0] == "object_id,subset,true_class,predicted_class,score"
    assert len(scores) == 1 + 8 * 3  # 2 known + 1 unknown classes, 8 test each


@pytest.mark.parametrize("command", ["eval", "saliency", "synth-demo"])
def test_eval_class_count_mismatch_rejected(tiny_dataset_dir, pretrained, saliency_cache,
                                            tmp_path, capsys, command):
    other = tmp_path / "otherds"
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        "seed = 2\npoints = 32\ninstances_per_class = 5\n"
        "known = sphere cube cylinder\nunknown = torus\n"
    )
    assert main(["gen", "--manifest", str(manifest), "--out", str(other)]) == 0
    capsys.readouterr()
    out = tmp_path / "e"
    extra = ["--saliency", str(saliency_cache)] if command == "synth-demo" else []
    code = main([
        command, "--dataset", str(other), "--out", str(out),
        "--checkpoint", str(pretrained), *extra,
    ])
    assert code == 2
    assert "checkpoint expects 2 known classes" in capsys.readouterr().err
    assert not out.exists()


def test_synth_demo_exports_with_provenance(tiny_dataset_dir, pretrained,
                                            saliency_cache, tmp_path):
    out = tmp_path / "synth"
    code = main([
        "synth-demo", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--checkpoint", str(pretrained), "--saliency", str(saliency_cache),
        "--count", "5", "--seed", "0", *TRAIN_OVERRIDES,
    ])
    assert code == 0
    clouds = sorted(out.glob("*.txt"))
    sidecars = sorted(out.glob("*.json"))
    assert len(clouds) == 5 and len(sidecars) == 5

    dataset = load_dataset(tiny_dataset_dir)
    by_id = {r.object_id: r for r in dataset.records}
    for cloud_path, sidecar_path in zip(clouds, sidecars):
        points, _ = read_cloud(cloud_path)
        meta = json.loads(sidecar_path.read_text())
        assert abs(sum(meta["soft_label"]) - 1.0) <= 1e-9
        assert sum(meta["source_classes"].values()) == meta["mix_count"]
        # containment oracle: invert renormalization and per-part transforms,
        # subtract recorded jitter, and match the claimed source point exactly
        restored = points * meta["radius"] + np.asarray(meta["center"])
        for row, union_row in zip(restored, meta["resample_indices"]):
            part = next(p for p in meta["parts"]
                        if p["point_range"][0] <= union_row < p["point_range"][1])
            local = union_row - part["point_range"][0]
            transform = part["transform"]
            adjusted = row - np.asarray(transform["jitter"])[local]
            original = invert_transform(adjusted[None], transform["scale"],
                                        transform["angle"], np.asarray(transform["offset"]))[0]
            source = by_id[part["source_id"]]
            assert np.allclose(original, source.points[part["source_indices"][local]],
                               atol=1e-9)


def test_unknown_override_key_exit_2(tiny_dataset_dir, tmp_path, capsys):
    code = main([
        "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(tmp_path / "x"),
        "--epochs", "0", "train.does_not_exist=5",
    ])
    assert code == 2
    assert "does_not_exist" in capsys.readouterr().err


def test_config_file_plus_override_precedence(tiny_dataset_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("train.alpha = 0.5\ntrain.batch_size = 8\n")
    out = tmp_path / "cfg_run"
    code = main([
        "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "0", "--config", str(config), "train.alpha=0.25",
    ])
    assert code == 0  # flag override parsed after the file without complaint


@pytest.mark.parametrize("pos", range(4))
def test_a_malformed_config_line_exits_2_naming_it(tiny_dataset_dir, tmp_path, capsys, pos):
    for bad, message in [
        ("train.alpha 0.5", "expected 'key = value'"),
        ("train.nope = 1", "unknown configuration key 'train.nope'"),
        ("train.beta = x", "bad value for train.beta: "),
    ]:
        lines = ["# run config", "train.alpha = 0.5", "train.batch_size = 8"]
        lines.insert(pos, bad)
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main([
            "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(out),
            "--epochs", "0", "--config", str(config),
        ])
        assert code == 2
        assert f"error: {config} line {pos + 1}: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("item, message", [
    ("train.nope=1", "argument 'train.nope=1': unknown configuration key 'train.nope'"),
    ("train.beta=x", "argument 'train.beta=x': bad value for train.beta: "),
], ids=["unknown-key", "bad-value"])
def test_a_bad_override_argument_exits_2_naming_it(tiny_dataset_dir, tmp_path, capsys,
                                                   item, message):
    out = tmp_path / "o"
    code = main([
        "pretrain", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--epochs", "0", "train.alpha=0.5", item,
    ])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["config", "dataset", "manifest", "checkpoint", "saliency",
                                  "count", "dataset manifest"])
def test_a_missing_input_or_a_bad_count_exits_2_naming_it(tiny_dataset_dir, pretrained,
                                                          saliency_cache, tmp_path, capsys,
                                                          flag):
    missing, out = tmp_path / "missing", tmp_path / "o"
    inputs = {"dataset": tiny_dataset_dir, "checkpoint": pretrained,
              "saliency": saliency_cache, "count": 1}
    if flag == "manifest":
        argv = ["gen", "--manifest", str(missing), "--out", str(out)]
    else:
        if flag == "dataset manifest":  # a directory, but not a generated dataset
            missing.mkdir()
            flag = "dataset"
        inputs[flag] = -1 if flag == "count" else missing
        argv = ["synth-demo", "--out", str(out),
                *(f"--{k}={v}" for k, v in inputs.items() if k != "config")]
        if flag == "config":
            argv += ["--config", str(missing)]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    if flag == "count":
        assert "error: --count must be at least 1, got -1" in err
    elif missing.is_dir():
        assert f"error: {missing}: no manifest.txt" in err
    else:
        assert f"error: --{flag} {missing}: no such file or directory" in err
    assert not out.exists()


def test_a_cloud_of_another_point_count_exits_2_naming_it(tiny_dataset_dir, pretrained,
                                                          tmp_path, capsys):
    dataset = tmp_path / "dataset"
    shutil.copytree(tiny_dataset_dir, dataset)
    cloud = dataset / "cube" / "cube_0007.txt"
    header, *rows = cloud.read_text().splitlines()
    assert len(rows) == 64
    for kept in (1, 10, 63, 65):
        lines = [header, *(rows + rows[:1])[:kept]]
        cloud.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(pretrained),
                     "--out", str(out)])
        assert code == 2
        assert f"error: {cloud}: expected 64 points (the manifest's points), found {kept}" \
            in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind", ["header-only cloud", "truncated cache", "truncated checkpoint"])
def test_a_malformed_input_file_exits_2_naming_it(tiny_dataset_dir, pretrained, saliency_cache,
                                                  tmp_path, capsys, kind):
    dataset, checkpoint = tmp_path / "dataset", tmp_path / "model.ckpt"
    cache = tmp_path / "saliency.cache"
    shutil.copytree(tiny_dataset_dir, dataset)
    shutil.copy(pretrained, checkpoint)
    shutil.copy(saliency_cache, cache)
    if kind == "header-only cloud":
        bad = dataset / "cube" / "cube_0007.txt"
        bad.write_text(bad.read_text().splitlines()[0] + "\n")
        message = "no points found"
    elif kind == "truncated cache":
        bad = cache
        bad.write_bytes(bad.read_bytes()[:-100])  # inside the last record's scores
        message = "truncated record"
    else:
        bad = checkpoint
        lines = bad.read_text().splitlines()
        bad.write_text("\n".join(lines[: len(lines) - 3]) + "\n")
        message = "truncated value block"
    out = tmp_path / "o"
    code = main(["synth-demo", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                 "--saliency", str(cache), "--out", str(out), *TRAIN_OVERRIDES])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err
    assert not out.exists()
