"""Operator entry point.

Subcommands drive the full pipeline from files: dataset generation,
closed-set pretraining, saliency caching, the combined training phase,
open-set evaluation, and synthetic-sample export. Configuration comes from
an optional flat key-value file (dotted keys, e.g. `train.alpha = 0.1`),
overridden by flags and trailing `key=value` arguments.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration (a
saliency cache built from another checkpoint included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ConfigError,
    SaliencyCache,
    StaleCacheError,
    default_manifest,
    generate_dataset,
    load_dataset,
    load_manifest,
    write_cloud,
    write_dataset,
)
from .metrics import write_metrics_csv, write_scores_csv
from .saliency import tunable_decompose
from .synthesis import mix
from .training import (
    Adam,
    DecompCaches,
    TrainConfig,
    build_saliency_cache,
    build_views,
    evaluate_open_set,
    init_state,
    run_pretrain,
    run_combined,
    stream_rng,
    write_report_csv,
)

__all__ = ["main", "build_parser", "apply_overrides", "load_config_file"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _coerce(value: str, like):
    if isinstance(like, bool):
        return _parse_bool(value)
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        items = [v for v in value.replace(",", " ").split() if v]
        element = like[0] if like else 0.0
        return tuple(_coerce(v, element) for v in items)
    return value


def apply_overrides(config: TrainConfig, updates: dict[str, str]) -> TrainConfig:
    """Apply dotted-key string overrides (`train.alpha`) to a TrainConfig."""
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    changes = {}
    for key, value in updates.items():
        section, _, name = key.partition(".")
        if section != "train" or name not in fields:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            changes[name] = _coerce(value, fields[name])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    return dataclasses.replace(config, **changes)


def load_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' comments and blank lines ignored."""
    updates = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        updates[key] = value
    return updates


def _gather_config(args) -> TrainConfig:
    config = TrainConfig()
    updates: dict[str, str] = {}
    if getattr(args, "config", None):
        updates.update(load_config_file(args.config))
    for item in getattr(args, "overrides", []) or []:
        if "=" not in item:
            raise ConfigError(f"override must look like train.key=value, got {item!r}")
        key, value = item.split("=", 1)
        updates[key.strip()] = value.strip()
    config = apply_overrides(config, updates)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    config.validate()
    return config


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


def _require_class_match(model, dataset):
    if model.num_known != len(dataset.known_classes):
        raise ConfigError(
            f"checkpoint expects {model.num_known} known classes but the dataset "
            f"defines {len(dataset.known_classes)}"
        )


def _require_architecture_match(model, config, path):
    """The config must describe the checkpoint's encoder: a training command
    continues the checkpoint's model, so a differing width would be ignored."""
    for key in ("feat_dim", "point_widths", "proj_hidden"):
        want, have = getattr(config, key), getattr(model, key)
        if isinstance(want, tuple):
            want = tuple(int(w) for w in want)
        if want != have:
            raise ConfigError(
                f"train.{key} is {want} in the config but {have} in checkpoint {path}; "
                f"pass train.{key} to match the checkpoint"
            )


def cmd_gen(args) -> int:
    manifest = load_manifest(args.manifest) if args.manifest else default_manifest()
    if args.seed is not None:
        manifest.seed = args.seed
    manifest.validate()
    dataset = generate_dataset(manifest)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.records)} clouds across "
          f"{len(manifest.class_specs)} classes to {args.out}")
    return 0


def _load_saliency(path, model, records) -> SaliencyCache:
    """The cache file at `path`, checked against the model and the records
    it will be read for; a mismatch names the file."""
    if not Path(path).exists():
        raise ConfigError(f"saliency cache not found: {path}")
    cache = SaliencyCache.load(path)
    try:
        cache.check(model.checksum(), records)
    except StaleCacheError as exc:
        raise StaleCacheError(f"{path}: {exc}") from None
    return cache


def cmd_pretrain(args) -> int:
    config = _gather_config(args)
    if args.epochs is not None:
        config = dataclasses.replace(config, phase1_epochs=args.epochs)
    dataset = load_dataset(args.dataset)
    model = None
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
        _require_class_match(model, dataset)
        _require_architecture_match(model, config, args.checkpoint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state = init_state(dataset, config)
    state.total_epochs = config.phase1_epochs  # one cosine cycle for this command
    if model is not None:
        state.model = model
        state.opt = Adam(model.params)
    run_pretrain(state, dataset, config, config.phase1_epochs, progress=_print_epoch)
    save_checkpoint(out / "pretrain.ckpt", state.model)
    write_report_csv(out / "pretrain_report.csv", state.rows)
    print(f"checkpoint {out / 'pretrain.ckpt'}")
    return 0


def cmd_saliency(args) -> int:
    config = _gather_config(args)
    dataset = load_dataset(args.dataset)
    model = load_checkpoint(args.checkpoint)
    _require_class_match(model, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache = build_saliency_cache(model, dataset.train_known)
    cache.save(out / "saliency.cache")
    print(f"cached saliency for {len(cache)} objects at {out / 'saliency.cache'}")
    return 0


def cmd_train(args) -> int:
    config = _gather_config(args)
    if args.epochs is not None:
        config = dataclasses.replace(config, phase2_epochs=args.epochs)
    dataset = load_dataset(args.dataset)
    model = load_checkpoint(args.checkpoint)
    _require_class_match(model, dataset)
    _require_architecture_match(model, config, args.checkpoint)
    caches = None
    if config.needs_cache():
        if not args.saliency:
            raise ConfigError("TSD requires --saliency <cache file>")
        # checked before the views are built from it
        cache = _load_saliency(args.saliency, model, dataset.train_known)
        caches = DecompCaches(cache, build_views(dataset.train_known, cache, config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state = init_state(dataset, config)
    state.model = model
    state.opt = Adam(model.params)
    state.total_epochs = config.phase2_epochs  # one cosine cycle for this command
    run_combined(state, dataset, config, config.phase2_epochs, caches, progress=_print_epoch)
    save_checkpoint(out / "model.ckpt", state.model)
    write_report_csv(out / "train_report.csv", state.rows)
    print(f"checkpoint {out / 'model.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    _ = _gather_config(args)  # validates overrides even though eval has no knobs yet
    dataset = load_dataset(args.dataset)
    model = load_checkpoint(args.checkpoint)
    _require_class_match(model, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    config = _gather_config(args)
    dataset = load_dataset(args.dataset)
    model = load_checkpoint(args.checkpoint)
    _require_class_match(model, dataset)
    cache = _load_saliency(args.saliency, model, dataset.train_known)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = stream_rng(config.seed, 99)
    train_records = dataset.train_known
    n_points = dataset.manifest.points_per_cloud
    for idx in range(args.count):
        picks = rng.choice(len(train_records), size=config.mix_count, replace=False)
        parts = []
        for pick in picks:
            rec = train_records[int(pick)]
            # pure saliency split: thresholds (1, 0) disqualify every view
            _, low = tunable_decompose(
                rec.points, cache.get(rec.object_id), config.mix_count, 1.0, 0.0, [], rng,
                label=rec.class_index, source_id=rec.object_id,
            )
            parts.append(low)
        sample = mix(parts, n_points, model.num_known, config.eps,
                     config.eps_known, rng)
        stem = out / f"synth_{idx:04d}"
        write_cloud(stem.with_suffix(".txt"), sample.points)
        sidecar = {
            "source_classes": {str(k): v for k, v in sorted(sample.source_counts.items())},
            "mix_count": config.mix_count,
            "soft_label": [float(v) for v in sample.soft_label],
            "center": [float(v) for v in sample.center],
            "radius": sample.radius,
            "resample_indices": [int(v) for v in sample.resample_indices],
            "parts": [
                {
                    "source_id": prov.source_id,
                    "source_indices": [int(v) for v in prov.source_indices],
                    "point_range": list(prov.point_range),
                    "transform": {
                        "scale": prov.transform.scale,
                        "angle": prov.transform.angle,
                        "offset": [float(v) for v in prov.transform.offset],
                        "jitter": prov.transform.jitter.tolist(),
                    },
                }
                for prov in sample.provenance
            ],
        }
        stem.with_suffix(".json").write_text(json.dumps(sidecar, indent=1))
    print(f"wrote {args.count} synthetic samples to {out}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "pretrain": cmd_pretrain,
    "saliency": cmd_saliency,
    "train": cmd_train,
    "eval": cmd_eval,
    "synth-demo": cmd_synth_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
