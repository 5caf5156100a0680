"""`tools/fingerprint.py` hashes every output of the tiny pipeline, two
runs of one checkout hash alike, and `--compare` names what differs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.mark.slow
def test_two_fingerprint_runs_print_the_same_digests():
    runs = [subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                           check=True).stdout.splitlines()[-1] for _ in range(2)]
    assert runs[0] == runs[1]
    digests = json.loads(runs[0])
    assert {"cli/dataset/clouds.arrays", "cli/dataset/manifest.txt",
            "cli/train/pretrain.ckpt", "cli/train/model.ckpt", "cli/eval/metrics.csv",
            "cli/eval/scores.csv", "cli/synth/synth_0000.json", "criterion8/model.ckpt",
            "criterion8/report.csv"} <= digests.keys()
    # the CLI's `train` is criterion 8's library `train()` run
    assert digests["cli/train/model.ckpt"] == digests["criterion8/model.ckpt"]
    assert digests["cli/train/train_report.csv"] == digests["criterion8/report.csv"]


def _compare_with(checkout, digests):
    """--compare against a stand-in checkout whose fingerprint prints `digests`."""
    (checkout / "tools").mkdir(exist_ok=True)
    (checkout / "tools" / "fingerprint.py").write_text(f"print({json.dumps(json.dumps(digests))})\n")
    return subprocess.run([sys.executable, str(TOOL), "--compare", str(checkout)],
                          capture_output=True, text=True)


def test_compare_names_each_differing_file_and_exits_1(tmp_path):
    run = _compare_with(tmp_path, {"extra.txt": "1" * 64, "cli/manifest.txt": "0" * 64})
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    ours = json.loads(next(line for line in lines if line.startswith("{")))
    names = sorted({*ours, "extra.txt"})
    assert "cli/manifest.txt" in ours
    assert lines[-len(names) - 1:] == [f"differs: {name}" for name in names] + [
        f"{len(names)} of {len(names)} files differ from {tmp_path}"]
    same = _compare_with(tmp_path, ours)
    assert same.returncode == 0
    assert same.stdout.splitlines()[-1] == f"0 of {len(ours)} files differ from {tmp_path}"
