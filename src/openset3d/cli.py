"""Operator entry point.

Subcommands drive the full pipeline from files: dataset generation,
closed-set pretraining, both training phases as one `training.train()` run,
open-set evaluation, and synthetic-sample export from a checkpoint's saliency.
Configuration comes from an optional flat key-value file (dotted keys, e.g.
`train.alpha = 0.1`), overridden by trailing `key=value` arguments and
`--seed`.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration (a
missing input path included).
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
from .metrics import write_metrics_csv, write_scores_csv
from .saliency import tunable_decompose
from .training import (
    STREAM_SYNTH_DEMO,
    TrainConfig,
    build_saliency_cache,
    check_dataset,
    draw_synthetic,
    evaluate_open_set,
    init_state,
    run_pretrain,
    stream_rng,
    train,
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

    p = sub.add_parser("train", help="both training phases, as training.train() runs them")
    common(p)

    p = sub.add_parser("eval", help="open-set metrics for a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scorer", choices=("mls", "msp", "both"), default="mls")

    p = sub.add_parser("synth-demo", help="export synthetic pseudo-unknown samples")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretrain checkpoint")
    p.add_argument("--count", type=int, default=5)
    return parser


def _check_args(args) -> None:
    """Every input path given exists, each but --dataset is a file, --out is
    not a file, and --count is positive, checked before any command reads or
    writes."""
    for flag in ("config", "dataset", "manifest", "checkpoint"):
        path = getattr(args, flag, None)
        if path is not None and not Path(path).exists():
            raise ConfigError(f"--{flag} {path}: no such file or directory")
        if path is not None and flag != "dataset" and not Path(path).is_file():
            raise ConfigError(f"--{flag} {path}: not a file")
    if Path(args.out).exists() and not Path(args.out).is_dir():
        raise ConfigError(f"--out {args.out}: not a directory")
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


def _load_inputs(args):
    """(config, dataset, model) of a command, each checked against the others
    before any output exists; model is None without --checkpoint.

    Precedence: defaults < --config file < trailing key=value < --seed.
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
    config.validate()
    dataset = load_dataset(args.dataset)
    checkpoint = getattr(args, "checkpoint", None)
    model = load_checkpoint(checkpoint) if checkpoint else None
    if model is not None and model.num_known != len(dataset.known_classes):
        raise ConfigError(
            f"checkpoint expects {model.num_known} known classes but the dataset "
            f"defines {len(dataset.known_classes)}"
        )
    check_dataset(dataset, config)
    return config, dataset, model


def _output_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    """`train` is one `training.train()` run; `pretrain` is its phase 1, on
    the same cosine cycle over phase1_epochs + phase2_epochs. --out is made
    only after the run, so a failed run leaves none."""
    config, dataset, _ = _load_inputs(args)
    if args.command == "pretrain":
        state = run_pretrain(init_state(dataset, config), dataset, config,
                             config.phase1_epochs, progress=_print_epoch)
        model, rows, name = state.model, state.rows, "pretrain.ckpt"
    else:
        result = train(dataset, config, progress=_print_epoch)
        model, rows, name = result.model, result.rows, "model.ckpt"
    out = _output_dir(args)
    save_checkpoint(out / name, model)
    write_report_csv(out / f"{args.command}_report.csv", rows)
    print(f"checkpoint {out / name}")
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
    cache = build_saliency_cache(model, dataset.train_known)
    rng = stream_rng(config.seed, STREAM_SYNTH_DEMO)
    # each training cloud's pure saliency split; with no views it draws nothing from rng
    lows = [tunable_decompose(rec.points, cache.scores[rec.object_id], config.mix_count,
                              1.0, 0.0, (), rng, label=rec.class_index,
                              source_id=rec.object_id)[1]
            for rec in dataset.train_known]
    synth = draw_synthetic(lows, dataset.manifest.points_per_cloud, model.num_known,
                           config, rng, args.count)
    out = _output_dir(args)
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
    "train": cmd_train,
    "eval": cmd_eval,
    "synth-demo": cmd_synth_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)  # a diverged run ends in one error line
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 1, message on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
