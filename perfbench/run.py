"""Benchmark of openset3d: three workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pretrain,desk_seed,score} --seed N \
        --seconds S --trace {0,1}

The run generates its inputs from ``--seed``, sets up several times (the
median is ``setup_s``), then runs the timed body in a fresh Python process
started before set-up, so ``peak_rss_mb`` covers the body only (through its
first unit) and never set-up training.  The body repeats its workload's
unit (see ``workloads.py``) while the next unit is predicted to end within
``--seconds``; there are always at least two units, so a ``desk_seed`` run,
whose unit takes about half of a 30 s budget, reports a median of two.
The first quarter of the units warms the process up: ``wall_s``,
``samples_per_s`` and the latency percentiles come from the other units,
while every check covers all of them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced warm-up unit, then alternates traced and untraced units (at least
two traced, one untraced) while the budget lasts.  It reports the per-layer
metrics of the traced units (median over units), the tracing overhead
(median traced minus median untraced unit wall time, warm-up excluded), and
checks that every exact counter repeats between traced units.  Spans are
written to ``perfbench/out/``.

Every unit's fingerprint (model checksums and the sha256 of the report CSV)
must match the first unit's; a mismatch, an exception, a diverged loss or a
non-finite score fails the unit's ops.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it record the environment and the fingerprints.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS runs single-threaded: the machine's other core stays free for the
# load it carries, which keeps runs steady, and a later process pool can
# use the cores without oversubscribing them.
BLAS_THREADS = "1"


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def load_record(nproc: int) -> dict:
    load = os.getloadavg()
    return {"loadavg": list(load), "over_nproc": load[0] > nproc}


def median(values):
    return statistics.median(values) if values else 0.0


def body(plan, inputs, seconds: float, trace: bool, trace_path: str) -> dict:
    """The timed body; runs in its own process (see ``BodyProcess``)."""
    import resource

    import tracing
    import workloads

    clock = time.perf_counter
    start = clock()
    untraced, traced = [], []

    def budget_left(done):
        return clock() - start + median([u.wall for u in done]) <= seconds

    untraced.append(workloads.run_unit(plan, inputs, clock, want_quality=not trace))
    # the high-water mark after one unit does not depend on how many units
    # fit in the budget, which the machine's speed decides
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while not trace and (len(untraced) < 2 or budget_left(untraced)):
        untraced.append(workloads.run_unit(plan, inputs, clock))
    layer_runs, counters, all_spans = [], [], []
    if trace:
        variants = None
        if plan.workload == "desk_seed":
            from openset3d.experiments import ablation_grid
            variants = ablation_grid(inputs.config)
        # the first untraced unit warms the process up; traced and untraced
        # units then alternate, so both medians see the same machine state
        while len(traced) < 2 or budget_left(traced):
            tr = tracing.Tracer(clock)
            restore = tracing.install(tr, variants)
            try:
                unit = workloads.run_unit(plan, inputs, clock, tracer=tr)
            finally:
                restore()
            traced.append(unit)
            layer_runs.append(tracing.layer_metrics(tr, 0))
            counters.append({k: layer_runs[-1][k] for k in tracing.EXACT})
            all_spans.append(tr.spans)
            if len(traced) < 2 or budget_left(traced):
                untraced.append(workloads.run_unit(plan, inputs, clock))
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id", "absorbed"],
                       "units": all_spans}, fh)
    return {
        "untraced": untraced,
        "traced": traced,
        "layers": layer_runs,
        "counters_repeat": all(c == counters[0] for c in counters),
        "peak_rss_mb": peak_kb / 1024.0,
    }


class BodyProcess:
    """The fresh Python process the timed body runs in.

    It starts before set-up, while this process is still small: a child's
    ``ru_maxrss`` starts at its parent's resident size, so a body started
    after set-up training would count that training in ``peak_rss_mb``.
    The job goes to the child's standard input, the result comes back in a
    pickle file in ``out/``.
    """

    def __init__(self, result_path: Path):
        import subprocess

        self.result_path = result_path
        # the body's own output goes to standard error, so the result line
        # stays the last line of standard output
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--body", str(result_path)],
            stdin=subprocess.PIPE, stdout=sys.stderr, bufsize=0)

    def run(self, *job) -> dict:
        import pickle

        pickle.dump(job, self.proc.stdin)
        self.proc.stdin.close()
        code = self.proc.wait()
        if code != 0:
            raise RuntimeError(f"body process exited with code {code}")
        with open(self.result_path, "rb") as fh:
            return pickle.load(fh)

    def stop(self) -> None:
        """Kill the body process if it still runs, and wait for it to end."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.result_path.unlink(missing_ok=True)


def body_main(result_path: str) -> int:
    """Entry point of the body process: read the job, run it, write the result."""
    import pickle

    sys.path.insert(0, str(ROOT / "src"))
    plan, inputs, seconds, trace, trace_path = pickle.load(sys.stdin.buffer)
    payload = body(plan, inputs, seconds, trace, trace_path)
    with open(result_path, "wb") as fh:
        pickle.dump(payload, fh)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "desk_seed", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk",
                        help="tiny: the smoke size used by the self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds through BodyProcess.stop, which ends the body
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "openset3d" / "__init__.py").is_file():
        print(f"error: no openset3d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # a fixed hash seed gives the body process the same allocation pattern,
    # and so the same collector timing and peak RSS, on every run of a seed
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    import workloads
    import openset3d

    if Path(openset3d.__file__).resolve().parent != ROOT / "src" / "openset3d":
        print(f"error: imported openset3d from {openset3d.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}-{os.getpid()}"
    plan = workloads.Plan.make(args.workload, args.seed, args.size)
    load_before = load_record(nproc)

    trace_path = str(OUT / f"{tag}.spans.json")
    body_process = BodyProcess(OUT / f"{tag}.result.pkl")
    try:
        clock = time.perf_counter
        setup_walls, setup_prints, setup_layers = [], [], []
        ckpt = OUT / f"{tag}.ckpt"
        try:
            for _ in range(plan.setups):
                tr = tracing.Tracer(clock) if args.trace else None
                restore = tracing.install_setup(tr) if tr is not None else (lambda: None)
                t0 = clock()
                try:
                    inputs, fingerprint = workloads.setup(plan, tr, ckpt)
                finally:
                    setup_walls.append(clock() - t0)
                    restore()
                setup_prints.append(fingerprint)
                if tr is not None:
                    totals = {name: 0.0 for name in ("data.generate", "checkpoint.save",
                                                     "checkpoint.load")}
                    for span in tr.spans:
                        totals[span[0]] += span[2] - span[1]
                    setup_layers.append({
                        "data.generate_s": totals["data.generate"],
                        "shapes.instances": tr.counts["shapes.instances"],
                        "checkpoint.save_s": totals["checkpoint.save"],
                        "checkpoint.load_s": totals["checkpoint.load"],
                    })
        finally:
            ckpt.unlink(missing_ok=True)

        result = body_process.run(plan, inputs, args.seconds, bool(args.trace), trace_path)
    finally:
        body_process.stop()
    load_after = load_record(nproc)

    problems = []
    if any(fp != setup_prints[0] for fp in setup_prints):
        problems.append("set-up fingerprints differ between set-ups")
    units = result["untraced"] + result["traced"]
    reference = next((u.fingerprint for u in units if u.failed == 0), {})
    attempted = failed = 0
    for unit in units:
        attempted += unit.ops
        problems.extend(unit.problems)
        if unit.failed == 0 and unit.fingerprint != reference:
            problems.append("unit fingerprint differs from the first unit's")
            failed += unit.ops
        else:
            failed += unit.failed

    untraced = result["untraced"]
    if args.trace:
        if not result["counters_repeat"]:
            problems.append("exact counters differ between traced units")
        layers = {k: median([run[k] for run in result["layers"]])
                  for k in result["layers"][0]}
        for k in setup_layers[0]:
            layers[k] = median([run[k] for run in setup_layers])
        base = median([u.wall for u in untraced[1:]])
        traced_wall = median([u.wall for u in result["traced"]])
        layers["trace.untraced_wall_s"] = base
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - base
        if abs(layers["trace.self_sum_frac"] - 1.0) > 1e-6:
            problems.append("self times do not account for the traced wall time")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        # the first quarter of the units warms the process up while its heap
        # grows to its steady size; timings come from the rest
        timed = untraced[len(untraced) // 4:]
        latencies = [x for u in timed for x in u.latencies] or [0.0]
        auroc, acc = next((u.quality for u in untraced if u.quality is not None), (0.0, 0.0))
        metrics = {
            "setup_s": {"value": median(setup_walls), "unit": "s"},
            "wall_s": {"value": median([u.wall for u in timed]), "unit": "s"},
            "samples_per_s": {"value": median([u.clouds / u.wall for u in timed]),
                              "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * tracing.percentile(latencies, 50), "unit": "ms"},
            "latency_p95_ms": {"value": 1e3 * tracing.percentile(latencies, 95), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "auroc": {"value": auroc, "unit": "ratio"},
            "acc": {"value": acc, "unit": "ratio"},
            "success_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "units": {"untraced": len(untraced), "traced": len(result["traced"])},
        "unit_walls_s": [u.wall for u in units],
        "setup_walls_s": setup_walls,
        "latency_samples": 0 if args.trace else len(latencies),
        "fail_frac": failed / attempted,
        "problems": problems[:20],
        "env": environment(nproc),
        "load_before": load_before, "load_after": load_after,
        "fingerprint": {"setup": setup_prints[0], "unit": reference},
    }
    record = {"info": info, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("mb_moved"):
        return "MB"
    return "count"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--body"]:
        sys.exit(body_main(sys.argv[2]))
    sys.exit(main())
