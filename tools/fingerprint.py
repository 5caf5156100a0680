"""Byte fingerprint of the pipeline's outputs, to compare two checkouts.

Runs, in a temporary directory and with BLAS at one thread, the tiny CLI
chain `gen` -> `train` -> `eval --scorer both` -> `synth-demo` on the
manifest and widths of acceptance criterion 8, then criterion 8's library
`train()`, whose checkpoint and report it writes too. Every command gets
criterion 8's config, epoch counts included, and `train` runs that same
`train()`, so `cli/train/model.ckpt` and `cli/train/train_report.csv` have
the digests of `criterion8/model.ckpt` and `criterion8/report.csv`.
`synth-demo` takes `train`'s phase-1 checkpoint, `cli/train/pretrain.ckpt`,
and derives its saliency from it, so the chain writes no saliency file.
It prints one line of JSON that maps each output file, by its path under
the temporary directory, to its sha256; alone, that is the last line on
stdout. The sources come from this checkout's `src/`, so each checkout's
copy of the script fingerprints that checkout. With `--compare DIR` it then
runs DIR's own `tools/fingerprint.py` in a subprocess, prints each file
whose sha256 differs between the two (or that only one of them wrote) and a
count, and exits 1 on any difference:

    python tools/fingerprint.py --compare <other checkout>
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# acceptance criterion 8: its manifest and the TrainConfig fields it sets
MANIFEST = dict(seed=5, instances_per_class=20, points_per_cloud=48)
CONFIG = dict(phase1_epochs=2, phase2_epochs=2, batch_size=8, seed=11, feat_dim=16,
              point_widths=(12, 16), proj_hidden=(), learning_rate=0.01, views_per_object=3)


def run_cli(out: Path) -> None:
    from openset3d.cli import main
    from openset3d.data import format_manifest, tiny_manifest

    out.mkdir()
    (out / "manifest.txt").write_text(format_manifest(tiny_manifest(**MANIFEST)))
    overrides = [f"train.{k}=" + (",".join(map(str, v)) if isinstance(v, tuple) else str(v))
                 for k, v in CONFIG.items() if k != "seed"]
    common = ["--dataset", str(out / "dataset"), "--seed", str(CONFIG["seed"])]
    commands = [
        ["gen", "--manifest", str(out / "manifest.txt"), "--out", str(out / "dataset")],
        ["train", *common, "--out", str(out / "train")],
        ["eval", *common, "--out", str(out / "eval"), "--scorer", "both",
         "--checkpoint", str(out / "train" / "model.ckpt")],
        ["synth-demo", *common, "--out", str(out / "synth"), "--count", "3",
         "--checkpoint", str(out / "train" / "pretrain.ckpt")],
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

    config = TrainConfig(**CONFIG)
    result = train(generate_dataset(tiny_manifest(**MANIFEST)), config)
    out.mkdir()
    save_checkpoint(out / "model.ckpt", result.model)
    (out / "report.csv").write_text(report_csv_text(result.rows))


def fingerprint() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_cli(root / "cli")
        run_library(root / "criterion8")
        return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="DIR", type=Path,
                        help="another checkout, fingerprinted by its own tools/fingerprint.py")
    args = parser.parse_args(argv)
    if args.compare is not None and not (args.compare / "tools" / "fingerprint.py").is_file():
        parser.error(f"{args.compare} has no tools/fingerprint.py")
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    digests = fingerprint()
    print(json.dumps(digests, sort_keys=True))
    if args.compare is None:
        return 0
    other = subprocess.run([sys.executable, str(args.compare / "tools" / "fingerprint.py")],
                           stdout=subprocess.PIPE, text=True, check=True)
    theirs = json.loads(other.stdout.splitlines()[-1])
    differ = sorted(name for name in digests.keys() | theirs.keys()
                    if digests.get(name) != theirs.get(name))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(digests.keys() | theirs.keys())} files differ from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
