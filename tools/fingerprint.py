"""Byte fingerprint of the pipeline's outputs, to compare two checkouts.

Runs, in a temporary directory and with BLAS at one thread, the tiny CLI
chain `gen` -> `pretrain` -> `saliency` -> `train` -> `eval --scorer both`
-> `synth-demo` on the manifest and widths of acceptance criterion 8, then
criterion 8's library `train()`, whose checkpoint and report it writes too.
The last line on stdout is one JSON object that maps each output file, by its
path under the temporary directory, to its sha256. The sources come from this
checkout's `src/`, so the same script copied into another checkout
fingerprints that checkout:

    python tools/fingerprint.py | tail -n 1 > a.json
    python <other checkout>/tools/fingerprint.py | tail -n 1 > b.json
    cmp a.json b.json
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# acceptance criterion 8: its manifest and the TrainConfig fields it sets
MANIFEST = dict(seed=5, instances_per_class=20, points_per_cloud=48)
CONFIG = dict(batch_size=8, seed=11, feat_dim=16, point_widths=(12, 16), proj_hidden=(),
              learning_rate=0.01, views_per_object=3)
EPOCHS = 2  # per phase


def run_cli(out: Path) -> None:
    from openset3d.cli import main
    from openset3d.data import format_manifest, tiny_manifest

    out.mkdir()
    (out / "manifest.txt").write_text(format_manifest(tiny_manifest(**MANIFEST)))
    overrides = [f"train.{k}=" + (",".join(map(str, v)) if isinstance(v, tuple) else str(v))
                 for k, v in CONFIG.items() if k != "seed"]
    common = ["--dataset", str(out / "dataset"), "--seed", str(CONFIG["seed"])]
    pretrain, saliency = out / "pretrain" / "pretrain.ckpt", out / "saliency" / "saliency.cache"
    commands = [
        ["gen", "--manifest", str(out / "manifest.txt"), "--out", str(out / "dataset")],
        ["pretrain", *common, "--out", str(pretrain.parent), "--epochs", str(EPOCHS)],
        ["saliency", *common, "--out", str(saliency.parent), "--checkpoint", str(pretrain)],
        ["train", *common, "--out", str(out / "train"), "--epochs", str(EPOCHS),
         "--checkpoint", str(pretrain), "--saliency", str(saliency)],
        ["eval", *common, "--out", str(out / "eval"), "--scorer", "both",
         "--checkpoint", str(out / "train" / "model.ckpt")],
        ["synth-demo", *common, "--out", str(out / "synth"), "--count", "3",
         "--checkpoint", str(pretrain), "--saliency", str(saliency)],
    ]
    for argv in commands:
        if argv[0] != "gen":
            argv += overrides
        code = main(argv)
        if code != 0:
            raise SystemExit(f"openset3d {' '.join(argv)} exited {code}")


def run_library(out: Path) -> None:
    from openset3d.checkpoint import save_checkpoint
    from openset3d.data import generate_dataset, tiny_manifest
    from openset3d.training import TrainConfig, report_csv_text, train

    config = TrainConfig(phase1_epochs=EPOCHS, phase2_epochs=EPOCHS, **CONFIG)
    result = train(generate_dataset(tiny_manifest(**MANIFEST)), config)
    out.mkdir()
    save_checkpoint(out / "model.ckpt", result.model)
    (out / "report.csv").write_text(report_csv_text(result.rows))


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_cli(root / "cli")
        run_library(root / "criterion8")
        digests = {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(root.rglob("*")) if path.is_file()}
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
