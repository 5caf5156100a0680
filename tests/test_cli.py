"""End-to-end checks of the command-line pipeline (run in-process)."""

import json
import shutil

import numpy as np
import pytest

from openset3d import cli, training
from openset3d.checkpoint import save_checkpoint
from openset3d.cli import apply_overrides, main
from openset3d.data import format_manifest, load_arrays, load_dataset, save_arrays, tiny_manifest
from openset3d.training import TrainConfig, report_csv_text, train

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
    out = tmp_path_factory.mktemp("train")
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out), "--seed", "0",
        *TRAIN_OVERRIDES, "train.phase1_epochs=60", "train.phase2_epochs=2",
    ])
    assert code == 0
    return out / "pretrain.ckpt"


def dataset_files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def test_gen_writes_expected_layout(tiny_dataset_dir):
    assert dataset_files(tiny_dataset_dir) == ["clouds.arrays", "manifest.txt"]
    meta, arrays = load_arrays(tiny_dataset_dir / "clouds.arrays", "dataset")
    assert meta == {"manifest": (tiny_dataset_dir / "manifest.txt").read_text()}
    assert {name: a.shape for name, a in arrays.items()} == {"points": (3 * 40, 64, 3)}


def test_gen_default_manifest_class_count(tmp_path):
    # the built-in benchmark: 12 classes of 200 clouds of 256 points
    out = tmp_path / "default"
    assert main(["gen", "--out", str(out)]) == 0
    assert dataset_files(out) == ["clouds.arrays", "manifest.txt"]
    _, arrays = load_arrays(out / "clouds.arrays", "dataset")
    assert arrays["points"].shape == (12 * 200, 256, 3)


def test_gen_rerun_is_byte_identical(tiny_dataset_dir, tmp_path):
    manifest_path = tiny_dataset_dir / "manifest.txt"
    again = tmp_path / "again"
    assert main(["gen", "--manifest", str(manifest_path), "--out", str(again)]) == 0
    assert dataset_files(again) == dataset_files(tiny_dataset_dir)
    for rel in dataset_files(tiny_dataset_dir):
        assert (again / rel).read_bytes() == (tiny_dataset_dir / rel).read_bytes()


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


@pytest.mark.parametrize("name", ["..", "s[1]"])
def test_a_class_name_that_is_no_plain_file_name_exits_2_naming_its_line(tmp_path, capsys, name):
    # accepted, '..' wrote clouds beside --out and 's[1]' a dataset load_dataset rejects
    manifest = tmp_path / "bad.txt"
    manifest.write_text(f"points = 32\ninstances_per_class = 4\nclass {name} = sphere\n"
                        f"known = {name} cube\nunknown = torus\n")
    out = tmp_path / "out" / "ds"
    assert main(["gen", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest} line 3: class name {name!r} must match [A-Za-z0-9_-]+\n")
    assert not (tmp_path / "out").exists()


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
    # the fixture already ran; re-check by reading its report's last phase-1 row
    report = pretrained.parent / "train_report.csv"
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "epoch,l_cls,l_h,l_s,l_m,total,val_acc"
    assert len(lines) == 1 + 60 + 2
    final_val_acc = float(lines[60].split(",")[-1])
    assert final_val_acc >= 0.99


def test_train_zero_weights_matches_continued_pretrain(tiny_dataset_dir, tmp_path):
    # criterion 9 on the command line: P phase-1 epochs and Q zero-weight
    # phase-2 epochs are P + Q epochs of phase 1, checkpoint and report alike
    opts = ["--dataset", str(tiny_dataset_dir), "--seed", "0"]
    out_a = tmp_path / "continued"
    assert main([
        "train", *opts, "--out", str(out_a), *TRAIN_OVERRIDES,
        "train.phase1_epochs=5", "train.phase2_epochs=0",
    ]) == 0
    out_b = tmp_path / "zeroed"
    assert main([
        "train", *opts, "--out", str(out_b), *TRAIN_OVERRIDES,
        "train.phase1_epochs=2", "train.phase2_epochs=3",
        "train.alpha=0", "train.beta=0", "train.gamma=0",
    ]) == 0
    report_a = (out_a / "train_report.csv").read_bytes()
    report_b = (out_b / "train_report.csv").read_bytes()
    assert report_a == report_b  # same loss curve, step for step
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


def test_train_of_no_epochs_reads_no_cache_and_keeps_the_model(tiny_dataset_dir, tmp_path,
                                                              monkeypatch):
    # TSD is on, but a phase 2 of no epochs builds no saliency cache, and
    # the final model is the phase-1 model
    def no_cache(*_args):
        raise AssertionError("a phase 2 of no epochs built a saliency cache")

    monkeypatch.setattr(training, "build_saliency_cache", no_cache)
    out = tmp_path / "t"
    assert main(["train", "--out", str(out), "--dataset", str(tiny_dataset_dir), "--seed", "0",
                 *TRAIN_OVERRIDES, "train.phase1_epochs=3", "train.phase2_epochs=0"]) == 0
    assert (out / "model.ckpt").read_bytes() == (out / "pretrain.ckpt").read_bytes()
    assert len((out / "train_report.csv").read_text().splitlines()) == 1 + 3


def test_the_cli_chain_writes_what_library_train_returns(tiny_dataset_dir, tmp_path):
    opts = ["--dataset", str(tiny_dataset_dir), "--seed", "0"]
    keys = [*TRAIN_OVERRIDES, "train.phase1_epochs=3", "train.phase2_epochs=2"]
    full, lib = tmp_path / "full", tmp_path / "lib"
    assert main(["train", *opts, "--out", str(full), *keys]) == 0

    config = apply_overrides(TrainConfig(seed=0), [("test", *k.split("=")) for k in keys])
    result = train(load_dataset(tiny_dataset_dir), config)
    lib.mkdir()
    save_checkpoint(lib / "model.ckpt", result.model)
    save_checkpoint(lib / "pretrain.ckpt", result.phase1_model)
    assert (full / "model.ckpt").read_bytes() == (lib / "model.ckpt").read_bytes()
    report = (full / "train_report.csv").read_text()
    assert report == report_csv_text(result.rows)
    assert (full / "pretrain.ckpt").read_bytes() == (lib / "pretrain.ckpt").read_bytes()
    assert sorted(path.name for path in full.iterdir()) == [
        "model.ckpt", "pretrain.ckpt", "train_report.csv"]


@pytest.mark.parametrize("override", [
    # keys that no longer exist: ablations are zero weights plus use_tsd, and
    # there is one synthetic sample per real sample
    "train.saliency_mode=online", "train.use_gss=false", "train.use_sms=false",
    "train.synth_ratio=0.5",
    # values TrainConfig.validate() rejects
    "train.views_per_object=0", "train.phase1_epochs=-1", "train.phase2_epochs=1.5",
    "train.proj_hidden=16.5", "train.point_widths=0 8", "train.feat_dim=0",
    "train.point_widths=", "train.noise_weights=nan", "train.noise_weights=0.1 inf",
    "train.noise_weights=-0.1", "train.mix_count=2.5", "train.batch_size=nan",
    "train.learning_rate=inf", "train.margin=inf", "train.neg_weight=inf",
    "train.alpha=inf", "train.beta=inf", "train.gamma=inf", "train.view_radius=1.5 inf",
    # check_dataset: more parts to mix than a 64-point cloud has points
    "train.mix_count=100",
])
def test_invalid_config_exits_2_before_any_work(tiny_dataset_dir, pretrained, tmp_path, capsys,
                                                override):
    out = tmp_path / "t"
    commands = [["train"]]
    if override == "train.mix_count=100":  # synth-demo mixes parts too
        commands.append(["synth-demo", "--checkpoint", str(pretrained)])
    for command in commands:
        code = main([
            *command, "--dataset", str(tiny_dataset_dir), "--out", str(out),
            *TRAIN_OVERRIDES, "train.phase1_epochs=1", "train.phase2_epochs=1", override,
        ])
        assert code == 2
        assert override.split("=")[0].removeprefix("train.") in capsys.readouterr().err
        assert not out.exists()


def test_train_full_phase2_runs(tiny_dataset_dir, tmp_path):
    out = tmp_path / "full"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out), "--seed", "0",
        *TRAIN_OVERRIDES, "train.phase1_epochs=2", "train.phase2_epochs=2",
    ])
    assert code == 0
    assert (out / "model.ckpt").exists()
    lines = (out / "train_report.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # the header, two phase-1 rows and two phase-2 rows
    assert all(float(line.split(",")[2]) > 0 for line in lines[3:])  # l_h ran


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverging_run_exits_1_and_creates_no_out(tiny_dataset_dir, tmp_path, capsys):
    # numpy's overflow warnings stay inside the command: stderr is the one error line
    out = tmp_path / "o"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out), *TRAIN_OVERRIDES,
        "train.phase1_epochs=1", "train.phase2_epochs=0", "train.learning_rate=1e300",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: non-finite loss at epoch 0: nan\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["saliency"], "argument command: invalid choice: 'saliency'"),
    (["synth-demo", "--saliency", "saliency.cache"], "unrecognized arguments: --saliency"),
    (["pretrain"], "argument command: invalid choice: 'pretrain'"),
], ids=["saliency-command", "saliency-flag", "pretrain-command"])
def test_the_removed_commands_and_flag_exit_2(tiny_dataset_dir, pretrained, tmp_path, capsys,
                                              argv, message):
    # synth-demo derives saliency from its checkpoint, so no saliency file
    # exists, and train writes the phase-1 checkpoint
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--dataset", str(tiny_dataset_dir), "--checkpoint", str(pretrained),
              "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"openset3d: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train"])
def test_an_out_that_is_a_file_exits_2_before_any_work(tiny_dataset_dir, tmp_path, capsys,
                                                       command):
    out = tmp_path / "taken.txt"
    out.write_text("kept\n")
    if command == "gen":
        argv = ["gen", "--manifest", str(tiny_dataset_dir / "manifest.txt"), "--out", str(out)]
    else:
        argv = ["train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
                *TRAIN_OVERRIDES, "train.phase1_epochs=1", "train.phase2_epochs=1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out}: not a directory\n"
    assert captured.out == ""  # no epoch ran and no dataset was generated
    assert out.read_text() == "kept\n"


def test_eval_schema_and_untrained_chance_band(tiny_dataset_dir, tmp_path):
    # an untrained checkpoint scores near chance
    out_pre = tmp_path / "pre"
    assert main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out_pre),
        "--seed", "1", *TRAIN_OVERRIDES, "train.phase1_epochs=0", "train.phase2_epochs=0",
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


@pytest.mark.parametrize("command", ["eval", "synth-demo"])
def test_eval_class_count_mismatch_rejected(tiny_dataset_dir, pretrained, tmp_path, capsys,
                                            command):
    other = tmp_path / "otherds"
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        "seed = 2\npoints = 32\ninstances_per_class = 5\n"
        "known = sphere cube cylinder\nunknown = torus\n"
    )
    assert main(["gen", "--manifest", str(manifest), "--out", str(other)]) == 0
    capsys.readouterr()
    out = tmp_path / "e"
    code = main([
        command, "--dataset", str(other), "--out", str(out), "--checkpoint", str(pretrained),
    ])
    assert code == 2
    assert "checkpoint expects 2 known classes" in capsys.readouterr().err
    assert not out.exists()


def test_synth_demo_exports_with_provenance(tiny_dataset_dir, pretrained, tmp_path):
    out = tmp_path / "synth"
    code = main([
        "synth-demo", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--checkpoint", str(pretrained), "--count", "5", "--seed", "0", *TRAIN_OVERRIDES,
    ])
    assert code == 0
    clouds = sorted(out.glob("*.txt"))
    sidecars = sorted(out.glob("*.json"))
    assert len(clouds) == 5 and len(sidecars) == 5

    dataset = load_dataset(tiny_dataset_dir)
    by_id = {r.object_id: r for r in dataset.records}
    for cloud_path, sidecar_path in zip(clouds, sidecars):
        points = np.loadtxt(cloud_path, ndmin=2)
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


def test_synth_demo_with_fewer_training_clouds_than_mix_count_exits_2(pretrained, tmp_path,
                                                                      capsys, monkeypatch):
    # accepted, it built the saliency scores and then exited 1 in draw_synthetic
    def no_cache(*_args):
        raise AssertionError("synth-demo built saliency scores it cannot mix")

    monkeypatch.setattr(cli, "build_saliency_cache", no_cache)
    manifest, dataset, out = tmp_path / "m.txt", tmp_path / "ds", tmp_path / "o"
    manifest.write_text(format_manifest(tiny_manifest(instances_per_class=2,
                                                      points_per_cloud=32)))
    assert main(["gen", "--manifest", str(manifest), "--out", str(dataset)]) == 0
    capsys.readouterr()
    code = main(["synth-demo", "--dataset", str(dataset), "--checkpoint", str(pretrained),
                 "--out", str(out), *TRAIN_OVERRIDES, "train.mix_count=3"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: mix_count 3 exceeds the dataset's 2 known training clouds\n")
    assert not out.exists()


def test_unknown_override_key_exit_2(tiny_dataset_dir, tmp_path, capsys):
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(tmp_path / "x"),
        "train.phase1_epochs=0", "train.does_not_exist=5",
    ])
    assert code == 2
    assert "does_not_exist" in capsys.readouterr().err


def test_config_file_plus_override_precedence(tiny_dataset_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("train.alpha = 0.5\ntrain.batch_size = 8\n")
    out = tmp_path / "cfg_run"
    code = main([
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "--config", str(config), "train.alpha=0.25", "train.phase1_epochs=0",
        "train.phase2_epochs=0",
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
            "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
            "--config", str(config), "train.phase1_epochs=0",
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
        "train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
        "train.phase1_epochs=0", "train.alpha=0.5", item,
    ])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["config", "dataset", "manifest", "checkpoint", "count",
                                  "dataset manifest", "directory"])
def test_a_missing_input_or_a_bad_count_exits_2_naming_it(tiny_dataset_dir, pretrained,
                                                          tmp_path, capsys, flag):
    missing, out = tmp_path / "missing", tmp_path / "o"
    inputs = {"dataset": tiny_dataset_dir, "checkpoint": pretrained, "count": 1}
    if flag == "manifest":
        argv = ["gen", "--manifest", str(missing), "--out", str(out)]
    else:
        if flag == "dataset manifest":  # a directory, but not a generated dataset
            missing.mkdir()
            flag = "dataset"
        elif flag == "directory":  # a directory where a file belongs
            missing.mkdir()
            flag = "checkpoint"
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
    elif missing.is_dir() and flag == "checkpoint":
        assert f"error: --checkpoint {missing}: not a file" in err
    elif missing.is_dir():
        assert f"error: {missing}: no manifest.txt" in err
    else:
        assert f"error: --{flag} {missing}: no such file or directory" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["manifest", "config"])
def test_an_undecodable_manifest_or_config_exits_2_naming_it(tiny_dataset_dir, tmp_path, capsys,
                                                             kind):
    bad, out = tmp_path / f"bad.{kind}", tmp_path / "o"
    bad.write_bytes(b"seed = 3\n\xff\n")
    if kind == "manifest":
        argv = ["gen", "--manifest", str(bad), "--out", str(out)]
    else:
        argv = ["train", "--dataset", str(tiny_dataset_dir), "--out", str(out),
                "--config", str(bad), "train.phase1_epochs=0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in err
    assert not out.exists()


def test_a_cloud_of_another_point_count_exits_2_naming_it(tiny_dataset_dir, pretrained,
                                                          tmp_path, capsys):
    dataset = tmp_path / "dataset"
    shutil.copytree(tiny_dataset_dir, dataset)
    clouds = dataset / "clouds.arrays"
    meta, arrays = load_arrays(clouds, "dataset")
    assert arrays["points"].shape == (120, 64, 3)
    for kept in (1, 10, 63, 65):
        points = np.concatenate([arrays["points"]] * 2, axis=1)[:, :kept]
        save_arrays(clouds, "dataset", meta, {"points": points})
        out = tmp_path / "o"
        code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(pretrained),
                     "--out", str(out)])
        assert code == 2
        assert (f"error: {clouds}: expected one 'points' array of shape (120, 64, 3) (the "
                f"manifest's clouds and points), found {{'points': (120, {kept}, 3)}}") \
            in capsys.readouterr().err
        assert not out.exists()


def test_a_dataset_of_text_clouds_exits_2_naming_its_missing_clouds_file(
        tiny_dataset_dir, pretrained, tmp_path, capsys):
    # a dataset written before clouds.arrays: only its manifest.txt still loads
    dataset, out = tmp_path / "dataset", tmp_path / "o"
    dataset.mkdir()
    shutil.copy(tiny_dataset_dir / "manifest.txt", dataset)
    code = main(["eval", "--dataset", str(dataset), "--checkpoint", str(pretrained),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {dataset / 'clouds.arrays'}: no such file; a dataset of text clouds must be "
        "generated again")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["header-only cloud", "truncated checkpoint"])
def test_a_malformed_input_file_exits_2_naming_it(tiny_dataset_dir, pretrained, tmp_path, capsys,
                                                  kind):
    dataset, checkpoint = tmp_path / "dataset", tmp_path / "model.ckpt"
    shutil.copytree(tiny_dataset_dir, dataset)
    shutil.copy(pretrained, checkpoint)
    if kind == "header-only cloud":  # the clouds file cut after its header line
        bad = dataset / "clouds.arrays"
        bad.write_bytes(b"\n".join(bad.read_bytes().split(b"\n")[:3]) + b"\n")
        message = "damaged or truncated: its sha256 does not match its contents"
    else:
        bad = checkpoint
        bad.write_bytes(bad.read_bytes()[:-100])  # inside the last array's values
        message = "damaged or truncated: its sha256 does not match its contents"
    out = tmp_path / "o"
    code = main(["synth-demo", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                 "--out", str(out), *TRAIN_OVERRIDES])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err
    assert not out.exists()
