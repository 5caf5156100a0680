"""Spans, counters and the wrappers that record them from outside the library.

Every wrapper patches a module or class attribute that the library looks up
at call time (``openset3d.autodiff.linear``, ``openset3d.training.mix``,
``openset3d.encoder.Model.infer_batch``...), so the library itself is not
edited and untraced runs execute it unchanged.  ``install`` returns a
function that restores every original attribute.

A span is ``[name, start, end, parent, op_id, absorbed]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op_id`` the optimizer step or
request it belongs to, and ``absorbed`` the time of untraced child work (the
small autodiff ops, which are too many to keep as spans) that ran inside it.
The layer of a span is the first dotted component of its name.

Which end-to-end metric each layer metric should move, and where:

- ``autodiff.<op>`` for the encoder ops, ``autodiff.backward_s`` and
  ``training.adam_step_s``: ``samples_per_s`` and ``wall_s`` on ``pretrain``,
  where they are nearly all the work; their forward parts alone the
  ``score`` latencies.
- ``autodiff.small_ops.*``, ``autodiff.nodes_per_backward``, ``saliency.*``,
  ``synthesis.*``, ``margins.*``, ``encoder.feature_logits_*`` and
  ``experiments.*``: ``wall_s`` on ``desk_seed`` only.  ``peak_rss_mb`` on
  ``desk_seed`` guards a parallel variant fan-out against memory per worker.
- ``autodiff.gc_*``: ``peak_rss_mb`` on every workload (each ``Tape`` is a
  reference cycle that only the cyclic collector frees).
- ``encoder.infer_batch_s``, ``metrics.*``: the ``score`` latencies.
- ``training.*`` epoch and stage times: ``wall_s`` where the stage runs.
- ``data.*``, ``shapes.*``, ``checkpoint.*``: ``setup_s``.

``autodiff.relu`` also counts the scalar hinge of each margin triplet.
``autodiff.linear.gflop`` and ``mb_moved`` are computed from operand shapes
(2·N·in·out flops per matmul, 8 bytes per operand element read or written),
not measured.
"""

from __future__ import annotations

import gc
import inspect
import math
import time
from collections import Counter, defaultdict

from openset3d.experiments import VARIANT_ORDER

ENCODER_OPS = ("linear", "relu", "max_pool_groups", "cosine_logits", "soft_cross_entropy")
SMALL_OPS = ("take_row", "euclidean", "add", "add_const", "scale", "mul_const",
             "mean_all", "sum_all", "pick_rows")
LAYERS = ("autodiff", "encoder", "saliency", "synthesis", "margins", "training",
          "experiments", "metrics", "bench")


class Tracer:
    """In-memory span recorder plus named counters and accumulated times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.epoch_mark = None  # (phase, start) while run_pretrain/run_combined runs
        self.epoch_times: defaultdict = defaultdict(list)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def absorb(self, seconds: float) -> None:
        """Charge untraced child work to the innermost open span."""
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def progress(self, _row) -> None:
        """Public ``progress`` hook of run_pretrain/run_combined: one call per epoch."""
        if self.epoch_mark is None:
            return
        phase, start = self.epoch_mark
        now = self.clock()
        self.epoch_times[phase].append(now - start)
        self.epoch_mark = (phase, now)


# ----------------------------------------------------------------------
# span maths


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are the spans whose ``parent`` is this span's index; their
    intervals are merged before subtracting, so overlapping children are not
    counted twice.  Absorbed untraced child time is subtracted as well.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered - span[5])
    return out


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# wrappers


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _timed_backward(tr: Tracer, out, name: str, on_call=None):
    """Replace the backward closure of ``out`` with a span-recording one."""
    orig = out._grad_fn
    if orig is None:
        return

    def grad_fn(g):
        idx = tr.open(name)
        try:
            return orig(g)
        finally:
            tr.close(idx)
            if on_call is not None:
                on_call()

    out._grad_fn = grad_fn


def _encoder_op(tr: Tracer, ad, op: str):
    orig = getattr(ad, op)
    name = f"autodiff.{op}"

    def wrapper(*args, **kwargs):
        out = tr.call(name, orig, *args, **kwargs)
        tr.counts[name + ".calls"] += 1
        on_bwd = None
        if op == "linear":
            x, w = args[0], args[1]
            n, d_in, d_out = x.shape[0], w.shape[0], w.shape[1]
            tr.times["linear.flop"] += 2.0 * n * d_in * d_out
            tr.times["linear.bytes"] += 8.0 * (n * d_in + d_in * d_out + d_out + n * d_out)

            def on_bwd():
                tr.times["linear.flop"] += 4.0 * n * d_in * d_out
                tr.times["linear.bytes"] += 8.0 * (2 * n * d_out + d_in * d_out + n * d_in
                                                   + n * d_in + d_in * d_out + d_out)

        _timed_backward(tr, out, name + ".bwd", on_bwd)
        return out

    return wrapper


def _small_op(tr: Tracer, ad, op: str):
    orig = getattr(ad, op)
    clock = tr.clock

    def wrapper(*args, **kwargs):
        t0 = clock()
        out = orig(*args, **kwargs)
        dt = clock() - t0
        tr.times["small.fwd"] += dt
        tr.counts["small.calls"] += 1
        tr.absorb(dt)
        inner = out._grad_fn
        if inner is not None:
            def grad_fn(g):
                t1 = clock()
                res = inner(g)
                dt1 = clock() - t1
                tr.times["small.bwd"] += dt1
                tr.absorb(dt1)
                return res

            out._grad_fn = grad_fn
        return out

    return wrapper


def _spanned(tr: Tracer, name: str, orig, after=None):
    """Span around ``orig``; ``after(result, args, kwargs)`` updates counters."""

    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def install(tr: Tracer, variant_configs=None):
    """Patch every traced entry point; returns the function that undoes it.

    ``variant_configs`` maps variant name -> TrainConfig for a run_seed call,
    so the fan-out wrapper can name each branch.
    """
    import openset3d.autodiff as ad
    import openset3d.encoder as enc
    import openset3d.experiments as ex
    import openset3d.saliency as sal
    import openset3d.training as tr_mod
    from scipy.spatial import QhullError

    p = _Patches()
    for op in ENCODER_OPS:
        p.set(ad, op, _encoder_op(tr, ad, op))
    for op in SMALL_OPS:
        p.set(ad, op, _small_op(tr, ad, op))

    tape_backward = ad.Tape.backward

    def backward(tape, loss):
        tr.counts["backward.calls"] += 1
        tr.counts["backward.nodes"] += len(tape)
        return tr.call("autodiff.backward", tape_backward, tape, loss)

    p.set(ad.Tape, "backward", backward)

    def count_points(_result, args, _kwargs):
        tr.counts["encoder.points"] += sum(len(c) for c in args[1])

    p.set(enc.TapedModel, "encode_batch",
          _spanned(tr, "encoder.encode_batch", enc.TapedModel.encode_batch, count_points))
    p.set(enc.Model, "infer_batch", _spanned(tr, "encoder.infer_batch", enc.Model.infer_batch))
    p.set(enc.Model, "feature_logits",
          _spanned(tr, "encoder.feature_logits", enc.Model.feature_logits))

    hpr = sal.hidden_point_removal

    def hidden_point_removal(*args, **kwargs):
        idx = tr.open("saliency.hpr")
        try:
            return hpr(*args, **kwargs)
        except QhullError:
            tr.counts["saliency.hpr_fallbacks"] += 1
            raise
        finally:
            tr.close(idx)

    p.set(sal, "hidden_point_removal", hidden_point_removal)
    p.set(tr_mod, "saliency_maps_batch",
          _spanned(tr, "saliency.maps_batch", tr_mod.saliency_maps_batch))
    p.set(tr_mod, "partial_views", _spanned(tr, "saliency.partial_views", tr_mod.partial_views))

    decompose_sig = inspect.signature(tr_mod.tunable_decompose)

    def count_swaps(result, args, kwargs):
        views = decompose_sig.bind(*args, **kwargs).arguments.get("views") or ()
        high, low = result
        # a swapped part carries the chosen view's own index array
        if any(high.source_indices is v.indices for v in views):
            tr.counts["saliency.high_swaps"] += 1
        if any(low.source_indices is v.indices for v in views):
            tr.counts["saliency.low_swaps"] += 1

    p.set(tr_mod, "tunable_decompose",
          _spanned(tr, "saliency.decompose", tr_mod.tunable_decompose, count_swaps))
    p.set(tr_mod, "mix", _spanned(tr, "synthesis.mix", tr_mod.mix))

    def count_pseudo(result, _args, _kwargs):
        if result is not None:
            tr.counts["margins.pseudo_accepted"] += 1

    p.set(tr_mod, "pseudo_features",
          _spanned(tr, "margins.pseudo_features", tr_mod.pseudo_features, count_pseudo))

    def count_triplet(result, _args, _kwargs):
        tr.counts["margins.replace_" + result.replacement] += 1

    p.set(tr_mod, "build_triplet",
          _spanned(tr, "margins.build_triplet", tr_mod.build_triplet, count_triplet))

    def count_hinge(result, _args, _kwargs):
        if float(result.data) > 0.0:
            tr.counts["margins.hinge_active"] += 1

    p.set(tr_mod, "margin_loss",
          _spanned(tr, "margins.margin_loss", tr_mod.margin_loss, count_hinge))

    adam_step = tr_mod.Adam.step

    def step(opt, *args, **kwargs):
        try:
            return tr.call("training.adam_step", adam_step, opt, *args, **kwargs)
        finally:
            tr.op_id += 1

    p.set(tr_mod.Adam, "step", step)
    p.set(tr_mod, "build_saliency_cache",
          _spanned(tr, "training.saliency_cache", tr_mod.build_saliency_cache))
    p.set(tr_mod, "build_views", _spanned(tr, "training.views", tr_mod.build_views))
    p.set(tr_mod, "evaluate_closed_set",
          _spanned(tr, "training.eval_closed", tr_mod.evaluate_closed_set))
    for owner in (tr_mod, ex):
        p.set(owner, "evaluate_open_set",
              _spanned(tr, "training.eval_open", owner.evaluate_open_set))
    p.set(tr_mod, "mls_score", _spanned(tr, "metrics.score", tr_mod.mls_score))
    p.set(tr_mod, "auroc", _spanned(tr, "metrics.auroc", tr_mod.auroc))
    p.set(tr_mod.TrainState, "copy",
          _spanned(tr, "experiments.state_copy", tr_mod.TrainState.copy))

    def phase(name, orig, span_names):
        def wrapper(*args, **kwargs):
            names = span_names(*args, **kwargs)
            idxs = [tr.open(n) for n in names]
            tr.epoch_mark = (name, tr.clock())
            try:
                return orig(*args, **kwargs)
            finally:
                tr.epoch_mark = None
                for idx in reversed(idxs):
                    tr.close(idx)

        return wrapper

    def pretrain_spans(*_args, **_kwargs):
        return ["training.run_pretrain"]

    def variant_spans(_state, _dataset, config, *a, **k):
        for name, vcfg in (variant_configs or {}).items():
            if vcfg == config:
                return [f"experiments.variant.{name}", "training.run_combined"]
        return ["training.run_combined"]

    for owner in (tr_mod, ex):
        p.set(owner, "run_pretrain", phase("pretrain", owner.run_pretrain, pretrain_spans))
        p.set(owner, "run_combined", phase("combined", owner.run_combined, variant_spans))

    gc_start = []

    def on_gc(stage, info):
        if stage == "start":
            gc_start.append(tr.clock())
        elif gc_start:
            tr.times["gc.pause"] += tr.clock() - gc_start.pop()
            tr.counts["gc.collections"] += 1
            tr.counts["gc.collected"] += info.get("collected", 0)

    gc.callbacks.append(on_gc)

    def restore():
        gc.callbacks.remove(on_gc)
        p.restore()

    return restore


def install_setup(tr: Tracer):
    """Count generated shape instances during set-up."""
    import openset3d.data as data

    p = _Patches()
    orig = data.random_instance

    def random_instance(*args, **kwargs):
        tr.counts["shapes.instances"] += 1
        return orig(*args, **kwargs)

    p.set(data, "random_instance", random_instance)
    return p.restore


# ----------------------------------------------------------------------
# per-layer metrics of one traced unit

# counters that must repeat exactly between two traced units of one seed
EXACT = (
    "saliency.hpr_calls", "saliency.hpr_fallbacks", "saliency.high_swaps",
    "saliency.low_swaps", "saliency.decompose_calls", "margins.pseudo_features_calls",
    "margins.pseudo_accepted", "margins.triplets", "margins.replace_positive",
    "margins.replace_negative", "margins.hinge_active", "synthesis.mix_calls",
    "autodiff.nodes_per_backward", "autodiff.backward_calls", "autodiff.linear.gflop",
    "autodiff.linear.mb_moved", "autodiff.small_ops.calls", "encoder.encode_calls",
    "encoder.points_encoded", "encoder.feature_logits_calls", "training.adam_steps",
) + tuple(f"autodiff.{op}.calls" for op in ENCODER_OPS)


def layer_metrics(tr: Tracer, root: int) -> dict[str, float]:
    """Per-layer metrics of the unit whose root span index is ``root``."""
    spans = tr.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        total[span[0]] += span[2] - span[1]
        calls[span[0]] += 1
        self_by_layer[span[0].split(".", 1)[0]] += own
    small_s = tr.times["small.fwd"] + tr.times["small.bwd"]
    self_by_layer["autodiff"] += small_s
    wall = spans[root][2] - spans[root][1]
    c = tr.counts

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    for op in ENCODER_OPS:
        m[f"autodiff.{op}.fwd_s"] = total[f"autodiff.{op}"]
        m[f"autodiff.{op}.bwd_s"] = total[f"autodiff.{op}.bwd"]
        m[f"autodiff.{op}.calls"] = c[f"autodiff.{op}.calls"]
    m["autodiff.small_ops.fwd_s"] = tr.times["small.fwd"]
    m["autodiff.small_ops.bwd_s"] = tr.times["small.bwd"]
    m["autodiff.small_ops.calls"] = c["small.calls"]
    m["autodiff.backward_s"] = total["autodiff.backward"]
    m["autodiff.backward_calls"] = c["backward.calls"]
    m["autodiff.nodes_per_backward"] = frac(c["backward.nodes"], c["backward.calls"])
    m["autodiff.linear.gflop"] = tr.times["linear.flop"] / 1e9
    m["autodiff.linear.mb_moved"] = tr.times["linear.bytes"] / 1e6
    m["autodiff.gc_collections"] = c["gc.collections"]
    m["autodiff.gc_collected"] = c["gc.collected"]
    m["autodiff.gc_pause_s"] = tr.times["gc.pause"]
    m["encoder.encode_batch_s"] = total["encoder.encode_batch"]
    m["encoder.encode_calls"] = calls["encoder.encode_batch"]
    m["encoder.points_encoded"] = c["encoder.points"]
    m["encoder.infer_batch_s"] = total["encoder.infer_batch"]
    m["encoder.feature_logits_calls"] = calls["encoder.feature_logits"]
    m["encoder.feature_logits_s"] = total["encoder.feature_logits"]
    m["saliency.maps_batch_s"] = total["saliency.maps_batch"]
    m["saliency.partial_views_s"] = total["saliency.partial_views"]
    m["saliency.hpr_calls"] = calls["saliency.hpr"]
    m["saliency.hpr_s"] = total["saliency.hpr"]
    m["saliency.hpr_fallbacks"] = c["saliency.hpr_fallbacks"]
    m["saliency.hpr_fallback_frac"] = frac(c["saliency.hpr_fallbacks"], calls["saliency.hpr"])
    m["saliency.decompose_calls"] = calls["saliency.decompose"]
    m["saliency.decompose_s"] = total["saliency.decompose"]
    m["saliency.high_swaps"] = c["saliency.high_swaps"]
    m["saliency.low_swaps"] = c["saliency.low_swaps"]
    m["synthesis.mix_calls"] = calls["synthesis.mix"]
    m["synthesis.mix_s"] = total["synthesis.mix"]
    m["margins.pseudo_features_calls"] = calls["margins.pseudo_features"]
    m["margins.pseudo_features_s"] = total["margins.pseudo_features"]
    m["margins.pseudo_accepted"] = c["margins.pseudo_accepted"]
    m["margins.pseudo_accept_frac"] = frac(c["margins.pseudo_accepted"],
                                           calls["margins.pseudo_features"])
    m["margins.triplets"] = calls["margins.build_triplet"]
    m["margins.replace_positive"] = c["margins.replace_positive"]
    m["margins.replace_negative"] = c["margins.replace_negative"]
    m["margins.margin_loss_s"] = total["margins.margin_loss"]
    m["margins.hinge_active"] = c["margins.hinge_active"]
    m["margins.hinge_active_frac"] = frac(c["margins.hinge_active"], calls["margins.margin_loss"])
    epochs = tr.epoch_times
    m["training.pretrain_epoch_s"] = frac(sum(epochs["pretrain"]), len(epochs["pretrain"]))
    m["training.combined_epoch_s"] = frac(sum(epochs["combined"]), len(epochs["combined"]))
    m["training.adam_step_s"] = total["training.adam_step"]
    m["training.adam_steps"] = calls["training.adam_step"]
    m["training.saliency_cache_s"] = total["training.saliency_cache"]
    m["training.views_s"] = total["training.views"]
    m["training.eval_closed_s"] = total["training.eval_closed"]
    m["training.eval_open_s"] = total["training.eval_open"]
    starts = {}
    for span in spans:
        if span[0].startswith("experiments.variant."):
            starts[span[0]] = span[1]
    fan_out = min(starts.values(), default=None)
    for name in VARIANT_ORDER:
        m[f"experiments.variant_s.{name}"] = total[f"experiments.variant.{name}"]
    first_copy = next((s[1] for s in spans if s[0] == "experiments.state_copy"), fan_out)
    m["experiments.variant_wait_s"] = sum(t - first_copy for t in starts.values())
    m["experiments.state_copy_s"] = total["experiments.state_copy"]
    m["metrics.score_s"] = total["metrics.score"]
    m["metrics.auroc_s"] = total["metrics.auroc"]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_by_layer[layer]
    m["trace.spans"] = len(spans)
    m["trace.self_sum_frac"] = frac(sum(self_by_layer.values()), wall)
    return m
