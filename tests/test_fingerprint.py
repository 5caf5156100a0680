"""`tools/fingerprint.py` hashes every output of the tiny pipeline, and two
runs of one checkout hash alike."""

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
    assert {"cli/pretrain/pretrain.ckpt", "cli/saliency/saliency.cache", "cli/train/model.ckpt",
            "cli/eval/metrics.csv", "cli/eval/scores.csv", "cli/synth/synth_0000.json",
            "criterion8/model.ckpt", "criterion8/report.csv"} <= digests.keys()
