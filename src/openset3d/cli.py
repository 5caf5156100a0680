"""Operator entry point.

Subcommands drive the full pipeline from files: dataset generation,
closed-set pretraining, saliency caching, the combined training phase,
open-set evaluation, and synthetic-sample export. Configuration comes from
an optional flat key-value file (dotted keys, e.g. `train.alpha = 0.1`),
overridden by flags and trailing `key=value` arguments.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration (a
missing input path and a saliency cache built from another checkpoint
included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ConfigError,
    SaliencyCache,
    StaleCacheError,
    _read_text,
    coerce_at,
    default_manifest,
    generate_dataset,
    load_dataset,
    load_manifest,
    read_settings,
    write_cloud,
    write_dataset,
)
from .encoder import Model
from .metrics import write_metrics_csv, write_scores_csv
from .saliency import tunable_decompose
from .training import (
    STREAM_SYNTH_DEMO,
    Adam,
    TrainConfig,
    build_saliency_cache,
    build_views,
    draw_synthetic,
    evaluate_open_set,
    init_state,
    run_pretrain,
    run_combined,
    stream_rng,
    write_report_csv,
)

__all__ = ["main", "build_parser", "apply_overrides", "load_config_file"]


def apply_overrides(config: TrainConfig, updates) -> TrainConfig:
    """Apply dotted-key string overrides (`train.alpha`) to a TrainConfig;
    `updates` yields (where, key, value), a later key winning, and errors name `where`."""
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    changes = {}
    for where, key, value in updates:
        section, _, name = key.partition(".")
        if section != "train" or name not in fields:
            raise ConfigError(f"{where}: unknown configuration key {key!r}")
        changes[name] = coerce_at(where, key, value, fields[name])
    return dataclasses.replace(config, **changes)


def load_config_file(path) -> list[tuple[str, str, str]]:
    """(where, key, value) of each `key = value` line of a config file, where
    is '<path> line N'; '#' comments and blank lines are ignored."""
    return [(f"{path} line {lineno}", key, value)
            for lineno, key, value in read_settings(_read_text(path), str(path))]


def _print_epoch(row) -> None:
    print(
        f"epoch {row['epoch']} l_cls {row['l_cls']:.6f} l_h {row['l_h']:.6f} "
        f"l_s {row['l_s']:.6f} l_m {row['l_m']:.6f} total {row['total']:.6f} "
        f"val_acc {row['val_acc']:.4f}",
        flush=True,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openset3d",
        description="Open-set point-cloud recognition pipeline (toy benchmark scale)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", required=True, help="output directory")
        if dataset:
            p.add_argument("--dataset", required=True, help="generated dataset directory")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="dotted-key config overrides, e.g. train.alpha=0.2")

    p = sub.add_parser("gen", help="generate the procedural toy dataset")
    p.add_argument("--manifest", help="manifest file (defaults to the built-in benchmark)")
    p.add_argument("--seed", type=int, help="manifest seed override")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pretrain", help="phase-1 closed-set pretraining")
    common(p)
    p.add_argument("--epochs", type=int, help="phase-1 epoch count override")
    p.add_argument("--checkpoint", help="resume from an existing checkpoint")

    p = sub.add_parser("saliency", help="cache saliency maps from a pretrained model")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")

    p = sub.add_parser("train", help="phase-2 training with decomposition and synthesis")
    common(p)
    p.add_argument("--epochs", type=int, help="phase-2 epoch count override")
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")
    p.add_argument("--saliency", help="saliency cache file (required when TSD runs)")

    p = sub.add_parser("eval", help="open-set metrics for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scorer", choices=("mls", "msp", "both"), default="mls")

    p = sub.add_parser("synth-demo", help="export synthetic pseudo-unknown samples")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")
    p.add_argument("--saliency", required=True, help="saliency cache file")
    p.add_argument("--count", type=int, default=5)
    return parser


def _check_args(args) -> None:
    """Every input path given exists, each but --dataset is a file, and
    --count is positive, checked before any command reads or writes."""
    for flag in ("config", "dataset", "manifest", "checkpoint", "saliency"):
        path = getattr(args, flag, None)
        if path is not None and not Path(path).exists():
            raise ConfigError(f"--{flag} {path}: no such file or directory")
        if path is not None and flag != "dataset" and not Path(path).is_file():
            raise ConfigError(f"--{flag} {path}: not a file")
    if getattr(args, "count", 1) < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")


def cmd_gen(args) -> int:
    manifest = load_manifest(args.manifest) if args.manifest else default_manifest()
    if args.seed is not None:
        manifest.seed = args.seed
    dataset = generate_dataset(manifest)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.records)} clouds across "
          f"{len(manifest.class_specs)} classes to {args.out}")
    return 0


# the TrainConfig field that each training command's --epochs sets
_EPOCHS_FIELD = {"pretrain": "phase1_epochs", "train": "phase2_epochs"}


def _load_inputs(args):
    """(config, dataset, model) of a command, each checked against the others
    before any output exists; model is None without --checkpoint.

    Precedence: defaults < --config file < trailing key=value < --seed/--epochs.
    """
    updates = load_config_file(args.config) if args.config else []
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like train.key=value, got {item!r}")
        key, value = item.split("=", 1)
        updates.append((f"argument {item!r}", key.strip(), value.strip()))
    config = apply_overrides(TrainConfig(), updates)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    epochs_field = _EPOCHS_FIELD.get(args.command)
    if epochs_field and args.epochs is not None:
        config = dataclasses.replace(config, **{epochs_field: args.epochs})
    config.validate()
    dataset = load_dataset(args.dataset)
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    if model is not None and model.num_known != len(dataset.known_classes):
        raise ConfigError(
            f"checkpoint expects {model.num_known} known classes but the dataset "
            f"defines {len(dataset.known_classes)}"
        )
    if model is not None and epochs_field:
        # a training command continues the checkpoint's model, so a config
        # that describes another encoder would be silently ignored
        for key in Model.HYPERPARAMS[1:]:  # num_known is checked above
            want, have = getattr(config, key), getattr(model, key)
            if isinstance(want, tuple):
                want = tuple(int(w) for w in want)
            if want != have:
                raise ConfigError(
                    f"train.{key} is {want} in the config but {have} in checkpoint "
                    f"{args.checkpoint}; pass train.{key} to match the checkpoint"
                )
    return config, dataset, model


def _output_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_saliency(path, model, records) -> SaliencyCache:
    """The cache file at `path`, checked against the model and the records
    it will be read for; a mismatch names the file."""
    cache = SaliencyCache.load(path)
    try:
        cache.check(model.checksum(), records)
    except StaleCacheError as exc:
        raise StaleCacheError(f"{path}: {exc}") from None
    return cache


def cmd_train(args) -> int:
    """`pretrain` and `train`: one cosine cycle over this command's epochs,
    from the checkpoint's model (if any) with a fresh optimizer."""
    config, dataset, model = _load_inputs(args)
    state = init_state(dataset, config)
    pretrain = args.command == "pretrain"
    caches = None
    if not pretrain and config.needs_cache():
        if not args.saliency:
            raise ConfigError("TSD requires --saliency <cache file>")
        # checked before the views are built from it
        cache = _load_saliency(args.saliency, model, dataset.train_known)
        caches = build_views(dataset.train_known, cache, config)
    out = _output_dir(args)
    state.total_epochs = getattr(config, _EPOCHS_FIELD[args.command])
    if model is not None:
        state.model, state.opt = model, Adam(model.params)
    if pretrain:
        run_pretrain(state, dataset, config, config.phase1_epochs, progress=_print_epoch)
    else:
        run_combined(state, dataset, config, caches, progress=_print_epoch)
    checkpoint = out / ("pretrain.ckpt" if pretrain else "model.ckpt")
    save_checkpoint(checkpoint, state.model)
    write_report_csv(out / f"{args.command}_report.csv", state.rows)
    print(f"checkpoint {checkpoint}")
    return 0


def cmd_saliency(args) -> int:
    _, dataset, model = _load_inputs(args)
    out = _output_dir(args)
    cache = build_saliency_cache(model, dataset.train_known)
    cache.save(out / "saliency.cache")
    print(f"cached saliency for {len(cache.scores)} objects at {out / 'saliency.cache'}")
    return 0


def cmd_eval(args) -> int:
    _, dataset, model = _load_inputs(args)  # validates overrides though eval has no knobs
    out = _output_dir(args)
    scorers = ("mls", "msp") if args.scorer == "both" else (args.scorer,)
    rows, all_samples = [], []
    for scorer in scorers:
        row, samples = evaluate_open_set(
            model, dataset.test_known, dataset.test_unknown, scorer
        )
        rows.append(row)
        if scorer == scorers[0]:
            all_samples = samples
        print(f"{scorer}: auroc {row['auroc']:.4f} fpr95 {row['fpr95']:.4f} "
              f"acc {row['acc']:.4f} macc {row['macc']:.4f}")
    write_metrics_csv(out / "metrics.csv", rows)
    write_scores_csv(out / "scores.csv", all_samples)
    return 0


def cmd_synth_demo(args) -> int:
    config, dataset, model = _load_inputs(args)
    cache = _load_saliency(args.saliency, model, dataset.train_known)
    out = _output_dir(args)
    rng = stream_rng(config.seed, STREAM_SYNTH_DEMO)
    # each training cloud's pure saliency split; with no views it draws nothing from rng
    lows = [tunable_decompose(rec.points, cache.scores[rec.object_id], config.mix_count,
                              1.0, 0.0, (), rng, label=rec.class_index,
                              source_id=rec.object_id)[1]
            for rec in dataset.train_known]
    synth = draw_synthetic(lows, dataset.manifest.points_per_cloud, model.num_known,
                           config, rng, args.count)
    for idx, points in enumerate(synth.points):
        stem = out / f"synth_{idx:04d}"
        write_cloud(stem.with_suffix(".txt"), points)
        classes, counts = np.unique(synth.part_labels[idx], return_counts=True)
        jitter = synth.jitter[synth.union_start[idx] : synth.union_start[idx + 1]]
        sidecar = {
            "source_classes": {str(k): int(v) for k, v in zip(classes, counts)},
            "mix_count": config.mix_count,
            "soft_label": synth.soft_labels[idx].tolist(),
            "center": synth.center[idx].tolist(),
            "radius": float(synth.radius[idx]),
            "resample_indices": synth.resample_indices[idx].tolist(),
            "parts": [
                {
                    "source_id": synth.source_ids[idx][m],
                    "source_indices": synth.source_indices[idx][m].tolist(),
                    "point_range": [int(lo), int(hi)],
                    "transform": {
                        "scale": float(synth.scale[idx, m]),
                        "angle": float(synth.angle[idx, m]),
                        "offset": synth.offset[idx, m].tolist(),
                        "jitter": jitter[lo:hi].tolist(),
                    },
                }
                for m, (lo, hi) in enumerate(synth.point_range[idx])
            ],
        }
        stem.with_suffix(".json").write_text(json.dumps(sidecar, indent=1))
    print(f"wrote {args.count} synthetic samples to {out}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "pretrain": cmd_train,
    "saliency": cmd_saliency,
    "train": cmd_train,
    "eval": cmd_eval,
    "synth-demo": cmd_synth_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, StaleCacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure contract: exit 1, message on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
