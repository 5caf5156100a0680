"""Two-phase optimization and evaluation.

Phase 1 minimizes plain prototype cross-entropy. The frozen phase-1 model
then produces cached saliency maps and partial views, and phase 2 resumes
from the same optimizer state against the combined loss

    total = cls + alpha * high_part + beta * synthesis + gamma * margin.

Both phases run one epoch loop that steps on batch_loss; a phase-1 epoch
passes it no parts, which leaves the classification term alone.

Reproducibility contract: every stochastic choice draws from a generator
keyed by (seed, stream, global epoch), so runs with the same config and
seed are bit-identical, and a phase-2 run whose extra loss weights are all
zero consumes exactly the same draws as continued phase-1 training.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import ConfigError, ToyDataset
from .encoder import Model, normalize_cloud, usable_cpus
from .margins import RunningStd, build_triplet, margin_loss, pseudo_features
from .metrics import ScoredSample, acc_macc, auroc, fpr95, mls_score, msp_score
from .saliency import (
    PartialView,
    normalize_scores,
    partial_views,
    saliency_maps_batch,
    score_views,
    tunable_decompose,
    view_geometry,
)
from .synthesis import mix

__all__ = [
    "TrainConfig",
    "TrainState",
    "TrainResult",
    "TrainingDiverged",
    "Adam",
    "batch_loss",
    "train",
    "init_state",
    "run_pretrain",
    "run_combined",
    "check_dataset",
    "SaliencyCache",
    "StaleCacheError",
    "build_saliency_cache",
    "build_views",
    "build_decomposition_caches",
    "DecompCaches",
    "draw_synthetic",
    "predict_logits",
    "evaluate_closed_set",
    "score_records",
    "evaluate_open_set",
    "report_csv_text",
    "write_report_csv",
    "REPORT_COLUMNS",
]

REPORT_COLUMNS = ("epoch", "l_cls", "l_h", "l_s", "l_m", "total", "val_acc")
PREDICT_CHUNK = 32  # clouds per pass that does not step the optimizer (scoring, saliency)

# independent stochastic streams, keyed additionally by global epoch
STREAM_SHUFFLE = 1
STREAM_TSD = 2
STREAM_GSS = 3
STREAM_SMS = 4
STREAM_VIEWS = 5
STREAM_SYNTH_DEMO = 99


def stream_rng(seed: int, stream: int, epoch: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, stream, epoch])
    )


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss at epoch {epoch}: {value}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    # loss weights
    alpha: float = 0.1
    beta: float = 0.01
    gamma: float = 0.3
    # optimizer / schedule
    learning_rate: float = 0.001
    phase1_epochs: int = 100
    phase2_epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    # soft pseudo-label smoothing
    eps: float = 0.1
    eps_known: float = 0.1
    mix_count: int = 3
    # decomposition
    view_high_thresh: float = 0.6
    view_low_thresh: float = 0.4
    views_per_object: int = 8
    view_radius: tuple = (1.5, 4.0)
    # margin separation
    noise_weights: tuple = (0.01, 0.05, 0.1, 0.2)
    pos_weight: float = 0.01
    neg_weight: float = 1.0
    margin: float = 10.0
    p_replace: float = 0.5
    # model
    feat_dim: int = 256
    point_widths: tuple = (64, 128, 256)
    proj_hidden: tuple = ()
    # ablation: use_tsd=False ranks points at random; beta=0 / gamma=0 drop GSS / SMS
    use_tsd: bool = True

    def validate(self) -> None:
        # comparisons are written so that a NaN fails them
        if not all(w >= 0 for w in (self.alpha, self.beta, self.gamma)):
            raise ConfigError("loss weights must be nonnegative")
        if not (0.0 <= self.pos_weight < self.neg_weight):
            raise ConfigError("triplet weights must satisfy 0 <= pos_weight < neg_weight")
        if not self.margin >= 0:
            raise ConfigError("margin must be nonnegative")
        if not (0.0 <= self.p_replace <= 1.0):
            raise ConfigError("p_replace must lie in [0, 1]")
        if not (0.0 <= self.view_low_thresh < self.view_high_thresh <= 1.0):
            raise ConfigError("view thresholds must satisfy 0 <= low < high <= 1")
        radius = tuple(self.view_radius)
        if len(radius) != 2 or not (0.0 < radius[0] <= radius[1] < math.inf):
            raise ConfigError("view_radius must be two finite values with 0 < low <= high")
        if not (self.eps >= 0 and self.eps_known >= 0 and self.eps + self.eps_known < 1):
            raise ConfigError("smoothing weights must satisfy eps + eps_known < 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning rate must be positive")
        for key, low in (("phase1_epochs", 0), ("phase2_epochs", 0), ("batch_size", 1),
                         ("mix_count", 2), ("views_per_object", 1), ("feat_dim", 1),
                         ("point_widths", 1), ("proj_hidden", 1)):
            value = getattr(self, key)
            counts = tuple(value) if key in ("point_widths", "proj_hidden") else (value,)
            if not all(math.isfinite(n) and n >= low and n == int(n) for n in counts):
                raise ConfigError(f"{key} must be whole numbers >= {low}, got {value}")
        if not self.point_widths:
            raise ConfigError("point_widths must name at least one layer")
        if not all(math.isfinite(w) and w >= 0 for w in self.noise_weights):
            raise ConfigError(f"noise_weights must be finite and >= 0, got {self.noise_weights}")
        for f in fields(self):  # inf passes the range checks above
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")

    def needs_parts(self) -> bool:
        return self.alpha > 0 or self.beta > 0 or self.gamma > 0

    def needs_cache(self) -> bool:
        """True when phase 2 runs and reads decomposition caches (TSD splits)."""
        return self.phase2_epochs > 0 and self.needs_parts() and self.use_tsd


class Adam:
    """Adaptive moment estimation over the model's parameter dict."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for name, g in grads.items():
            self.m[name] = self.BETA1 * self.m[name] + (1 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1 - self.BETA2) * g * g
            params[name] -= lr * (self.m[name] / b1c) / (np.sqrt(self.v[name] / b2c) + self.EPS)


def cosine_lr(lr0: float, epoch: int, total_epochs: int) -> float:
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, total_epochs)))


# ----------------------------------------------------------------------
# cached decomposition inputs


class StaleCacheError(RuntimeError):
    """Cache was built from a different model or dataset."""


@dataclass
class SaliencyCache:
    """Raw saliency scores keyed by object id, and the checksum of the model
    that made them; check() refuses any other model, so stale saliency can
    never silently steer training."""

    model_checksum: str
    scores: dict[str, np.ndarray] = field(default_factory=dict)

    def check(self, model_checksum: str, records) -> None:
        """Raise StaleCacheError unless the scores came from this model and
        hold one score per point of every record (the training split)."""
        if model_checksum != self.model_checksum:
            raise StaleCacheError(
                f"saliency cache was built from model {self.model_checksum[:12]}..., "
                f"not {model_checksum[:12]}...; rebuild it from this model with "
                "build_saliency_cache (a retrained model needs its own cache)"
            )
        for rec in records:
            scores = self.scores.get(rec.object_id)
            if scores is None or len(scores) != len(rec.points):
                held = "no scores" if scores is None else f"{len(scores)} scores"
                raise StaleCacheError(
                    f"saliency cache holds {held} for training object {rec.object_id!r}, "
                    f"whose cloud has {len(rec.points)} points; rebuild it for this "
                    "dataset (build_saliency_cache)"
                )


@dataclass
class DecompCaches:
    saliency: SaliencyCache
    views: dict[str, list[PartialView]]


def _chunk_bounds(count: int):
    """Yield the (start, stop) of each PREDICT_CHUNK-cloud pass over `count`
    clouds. A lone last cloud joins the chunk before it: numpy computes a
    one-row product with another BLAS routine, which rounds differently."""
    starts = list(range(0, count, PREDICT_CHUNK))
    if count % PREDICT_CHUNK == 1 and len(starts) > 1:
        starts.pop()
    yield from zip(starts, starts[1:] + [count])


def build_saliency_cache(model: Model, records) -> SaliencyCache:
    """Saliency scores for every record, from one frozen model."""
    cache = SaliencyCache(model.checksum())
    records = list(records)
    for start, stop in _chunk_bounds(len(records)):
        chunk = records[start:stop]
        maps = saliency_maps_batch(
            model, [r.points for r in chunk], [r.class_index for r in chunk]
        )
        for rec, scores in zip(chunk, maps):
            cache.scores[rec.object_id] = scores
    return cache


class _ViewWorker:
    """A forked process that crops the partial views of the odd positions.

    With two or more usable CPUs and two or more records, the worker runs
    view_geometry for the records at odd positions and pipes the result
    back, while the caller builds the saliency cache and crops the even
    positions; otherwise no worker starts and the caller crops them all.
    Each position draws its cameras from its own stream, so the views do
    not depend on the split. The worker starts at once; close() kills and
    reaps it, done or not. A worker whose parent is gone exits before its
    next record. Only two CPUs have been timed, so one worker is the most.
    """

    def __init__(self, records, config: TrainConfig):
        cpus = usable_cpus() if hasattr(os, "fork") else 1
        self.count = len(records)
        self.shares = 2 if cpus > 1 and self.count > 1 else 1
        self.pid = None
        if self.shares == 1:
            return
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:  # the worker exits here, never into the caller's code
            code = 1
            try:
                os.close(read_fd)
                code = _view_worker(write_fd, parent, records, config, self.positions(1))
            finally:
                os._exit(code)
        os.close(write_fd)
        self.reader = os.fdopen(read_fd, "rb")

    def positions(self, share: int) -> range:
        return range(share, self.count, self.shares)

    def collect(self) -> dict[int, list]:
        """view_geometry output of the worker's positions; the worker's
        exception is raised here."""
        if self.pid is None:
            return {}
        try:
            ok, payload = pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("the view worker ended without its views") from None
        if not ok:
            raise payload
        return dict(zip(self.positions(1), payload))

    def close(self) -> None:
        if self.pid is not None:
            self.reader.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _view_worker(fd, parent, records, config, positions) -> int:
    """Body of the forked view worker: crops the records at `positions` and
    writes the pickled result, or the exception it raised, to `fd`. Returns
    the exit status: 1, having written nothing, once the parent is gone."""
    geometry = []
    try:
        for pos in positions:
            if os.getppid() != parent:
                return 1
            geometry.append(view_geometry(
                records[pos].points, config.views_per_object,
                stream_rng(config.seed, STREAM_VIEWS, pos), config.view_radius))
        payload = pickle.dumps((True, geometry), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # the parent raises it
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
        except Exception:  # an exception that does not survive pickling
            payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
    with os.fdopen(fd, "wb") as out:
        out.write(payload)
    return 0


def build_views(records, cache: SaliencyCache, config: TrainConfig,
                worker: _ViewWorker) -> DecompCaches:
    """`cache` and every record's partial views, scored by its cached saliency.

    View sampling is keyed by the record's position, not the epoch, so the
    same views come back however often training restarts from the cache,
    and whether or not `worker` forked. This process crops the positions of
    share 0 of `worker` (all of them when it did not fork) and scores the
    rest once the worker sends them.
    """
    records = list(records)
    by_pos = {}
    for pos in worker.positions(0):
        rec = records[pos]
        rng = stream_rng(config.seed, STREAM_VIEWS, pos)
        by_pos[pos] = partial_views(rec.points, normalize_scores(cache.scores[rec.object_id]),
                                    config.views_per_object, rng, config.view_radius)
    for pos, geometry in worker.collect().items():
        normalized = normalize_scores(cache.scores[records[pos].object_id])
        by_pos[pos] = score_views(geometry, normalized)
    views = {rec.object_id: by_pos[pos] for pos, rec in enumerate(records)}
    return DecompCaches(saliency=cache, views=views)


def build_decomposition_caches(model: Model, records, config: TrainConfig) -> DecompCaches | None:
    """The caches phase 2 reads, from the frozen `model`; None when it reads none.

    The view worker starts before the saliency pass, which needs the model;
    the views do not.
    """
    if not config.needs_cache():
        return None
    records = list(records)
    worker = _ViewWorker(records, config)
    try:
        return build_views(records, build_saliency_cache(model, records), config, worker)
    finally:
        worker.close()


# ----------------------------------------------------------------------
# train state and steps


@dataclass
class TrainState:
    model: Model
    opt: Adam
    epoch: int  # next global epoch index
    total_epochs: int  # span of the cosine schedule
    rows: list = field(default_factory=list)  # report rows, one dict per epoch

    def copy(self) -> "TrainState":
        return copy.deepcopy(self)


@dataclass
class TrainResult:
    model: Model  # final phase-2 model
    phase1_model: Model  # snapshot at the phase boundary
    rows: list
    caches: DecompCaches | None = None


def _batches(records, batch_size, rng):
    order = rng.permutation(len(records))
    for start in range(0, len(order), batch_size):
        yield [records[i] for i in order[start : start + batch_size]]


def _decompose_batch(batch, config, caches, rng_tsd):
    """Per-sample (high, low) parts for one batch.

    Each record's points are ranked, then split and optionally swapped for
    partial views by tunable_decompose. With TSD on, the ranking is the
    cached saliency and the views are the record's; with TSD off, the
    ranking is a uniformly random permutation and there are no views, which
    isolates the value of the saliency signal.
    """
    highs, lows = [], []
    for rec in batch:
        if config.use_tsd:
            scores, views = caches.saliency.scores[rec.object_id], caches.views[rec.object_id]
        else:
            # the inverse of a random permutation ranks the points in its
            # order, so the low part is the permutation's first cut
            scores, views = np.argsort(rng_tsd.permutation(len(rec.points))), ()
        high, low = tunable_decompose(
            rec.points, scores, config.mix_count,
            config.view_high_thresh, config.view_low_thresh, views, rng_tsd,
            label=rec.class_index, source_id=rec.object_id,
        )
        highs.append(high)
        lows.append(low)
    return highs, lows


def _class_targets(batch, num_known):
    """One-hot (B, C+1) targets of real known-class samples."""
    labels = np.array([r.class_index for r in batch])
    bad = labels[(labels < 0) | (labels >= num_known)]
    if bad.size:
        raise ValueError(
            f"class index {int(bad[0])} invalid: known classes are 0..{num_known - 1} "
            "(the unknown slot is reserved for synthetic samples)"
        )
    targets = np.zeros((len(batch), num_known + 1))
    targets[np.arange(len(batch)), labels] = 1.0
    return targets


def batch_loss(bound, batch, highs, lows, config, rngs, run_std):
    """The training objective of one batch, recorded on `bound`'s tape:

        total = cls + alpha * high_part + beta * synthesis + gamma * margin.

    `highs`/`lows` are the batch's decomposed parts; None for both gives
    the phase-1 loss, the classification term alone. `rngs` is the
    (synthesis, margin) generator pair, drawn from in that order. With the
    margin term on, `run_std` feeds the pseudo-feature noise scale and then
    takes the batch's features. Returns (total, (l_cls, l_h, l_s, l_m)); a
    term that did not run is None and adds nothing to the total.
    """
    num_known = bound.model.num_known
    targets = _class_targets(batch, num_known)
    _, feats = bound.encode_batch([r.points for r in batch])
    l_cls = ad.mean_all(ad.soft_cross_entropy(bound.logits(feats), targets))
    l_h = l_s = l_m = None
    if highs is not None:
        rng_gss, rng_sms = rngs
        if config.alpha > 0 or config.gamma > 0:
            _, high_feats = bound.encode_batch([normalize_cloud(p.points) for p in highs])
            l_h = ad.mean_all(ad.soft_cross_entropy(bound.logits(high_feats), targets))
        if config.beta > 0:
            l_s = _synthesis_loss(bound, batch, lows, config, rng_gss)
        if config.gamma > 0:
            l_m = _margin_term(bound, batch, feats, high_feats, config, run_std, rng_sms)
            run_std.update(feats.data)
    total = l_cls
    for term, weight in ((l_h, config.alpha), (l_s, config.beta), (l_m, config.gamma)):
        if term is not None and weight > 0:
            total = ad.add(total, ad.scale(term, weight))
    return total, (l_cls, l_h, l_s, l_m)


def draw_synthetic(lows, n_points, num_known, config, rng, count):
    """`count` pseudo-unknowns, each mixing mix_count distinct `lows`, in one
    `mix` call. The picks come first: one uniform key per (sample, low), and
    each sample takes the lows of its mix_count smallest keys; `mix` draws
    the rest."""
    if len(lows) < config.mix_count:
        raise ValueError(f"need {config.mix_count} low parts to mix, got {len(lows)}")
    picks = np.argsort(rng.random((count, len(lows))), axis=1)[:, :config.mix_count]
    return mix([[lows[i] for i in row] for row in picks], n_points, num_known,
               config.eps, config.eps_known, rng)


def _synthesis_loss(bound, batch, lows, config, rng_gss):
    """Soft cross-entropy of one synthetic sample per real sample, each
    mixing the low parts of mix_count distinct batch members; None when the
    batch has fewer members than that."""
    if len(batch) < config.mix_count:
        return None
    synth = draw_synthetic(lows, len(batch[0].points), bound.model.num_known, config,
                           rng_gss, len(batch))
    _, synth_feats = bound.encode_batch(synth.points)
    return ad.mean_all(ad.soft_cross_entropy(bound.logits(synth_feats), synth.soft_labels))


def _margin_term(bound, batch, feats, high_feats, config, run_std, rng_sms):
    """Mean hinge triplet loss over the batch's real known-class anchors.

    The choices are made per anchor, drawing from rng_sms in a fixed order:
    the negative, the pseudo-feature, then build_triplet's coins. Each
    triplet names its members by row of the table [feats; high_feats;
    pseudo rows], and one margin_loss records the batch's hinge.
    """
    labels = np.array([r.class_index for r in batch])
    n = len(batch)
    rows, pseudo_rows = [], []
    for b in range(n):
        others = np.flatnonzero(labels != labels[b])
        if others.size == 0:
            continue  # no different-class negative available: skip this anchor
        j = int(others[rng_sms.integers(others.size)])
        pseudo = pseudo_features(
            feats.data[b], config.noise_weights, bound.model, labels[b], rng_sms,
            run_std.value,
        )
        slot = None if pseudo is None else 2 * n + len(pseudo_rows)
        triplet = build_triplet((b, labels[b]), n + b, (j, labels[j]), slot,
                                config.p_replace, rng_sms)
        if triplet.replacement != "none":
            pseudo_rows.append(pseudo)
        rows.append((triplet.anchor, triplet.positive, triplet.negative))
    if not rows:
        return None
    table = (feats, high_feats)
    if pseudo_rows:
        table += (bound.tape.leaf(np.stack(pseudo_rows), "pseudo"),)
    anchors, positives, negatives = (ad.gather_rows(table, idx) for idx in np.array(rows).T)
    return margin_loss(anchors, positives, negatives, config.pos_weight,
                       config.neg_weight, config.margin)


def _epoch(state, dataset, config, caches, run_std, parts):
    """One pass over the known training split; parts=False is a phase-1 epoch."""
    model = state.model
    lr = cosine_lr(config.learning_rate, state.epoch, state.total_epochs)
    rng_shuffle = stream_rng(config.seed, STREAM_SHUFFLE, state.epoch)
    rng_tsd = stream_rng(config.seed, STREAM_TSD, state.epoch)
    rngs = (stream_rng(config.seed, STREAM_GSS, state.epoch),
            stream_rng(config.seed, STREAM_SMS, state.epoch))
    sums = {"l_cls": 0.0, "l_h": 0.0, "l_s": 0.0, "l_m": 0.0, "total": 0.0}
    n_batches = 0
    for batch in _batches(dataset.train_known, config.batch_size, rng_shuffle):
        highs = lows = None
        if parts:
            highs, lows = _decompose_batch(batch, config, caches, rng_tsd)
        tape = ad.Tape()
        bound = model.bind(tape)
        loss, terms = batch_loss(bound, batch, highs, lows, config, rngs, run_std)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(state.epoch, value)
        tape.backward(loss)
        state.opt.step(model.params, bound.param_grads(), lr)
        for key, term in zip(("l_cls", "l_h", "l_s", "l_m"), terms):
            sums[key] += term.item() if term is not None else 0.0
        sums["total"] += value
        n_batches += 1
    means = {k: v / max(1, n_batches) for k, v in sums.items()}
    val = dataset.val_known
    val_acc, _ = evaluate_closed_set(model, val) if val else (float("nan"),) * 2
    state.rows.append({"epoch": state.epoch, **means, "val_acc": val_acc})
    state.epoch += 1


# ----------------------------------------------------------------------
# public training entry points


def check_dataset(dataset: ToyDataset, config: TrainConfig) -> None:
    """ConfigError unless `dataset` has two known classes to train on and
    clouds that `config.mix_count` parts can be cut from."""
    if len(dataset.known_classes) < 2:
        raise ConfigError("training requires at least two known classes")
    if config.mix_count > dataset.manifest.points_per_cloud:
        raise ConfigError(f"mix_count {config.mix_count} exceeds the dataset's "
                          f"{dataset.manifest.points_per_cloud} points per cloud")


def init_state(dataset: ToyDataset, config: TrainConfig) -> TrainState:
    config.validate()
    check_dataset(dataset, config)
    architecture = {key: getattr(config, key) for key in Model.HYPERPARAMS[1:]}
    model = Model(len(dataset.known_classes), **architecture, seed=config.seed)
    return TrainState(
        model=model,
        opt=Adam(model.params),
        epoch=0,
        total_epochs=config.phase1_epochs + config.phase2_epochs,
    )


def run_pretrain(state: TrainState, dataset: ToyDataset, config: TrainConfig,
                 epochs: int, progress=None) -> TrainState:
    for _ in range(epochs):
        _epoch(state, dataset, config, None, None, parts=False)
        if progress is not None:
            progress(state.rows[-1])
    return state


def run_combined(state: TrainState, dataset: ToyDataset, config: TrainConfig,
                 caches: DecompCaches | None, progress=None) -> TrainState:
    """config.phase2_epochs epochs of the combined loss."""
    if config.needs_cache():
        if caches is None:
            raise ConfigError("TSD needs decomposition caches built from a saliency cache")
        caches.saliency.check(state.model.checksum(), dataset.train_known)
    run_std = RunningStd(state.model.feat_dim)
    parts = config.needs_parts()
    for _ in range(config.phase2_epochs):
        _epoch(state, dataset, config, caches, run_std, parts)
        if progress is not None:
            progress(state.rows[-1])
    return state


def train(dataset: ToyDataset, config: TrainConfig, progress=None) -> TrainResult:
    """Full two-phase run; returns the final model, the phase-1 snapshot,
    per-epoch report rows, and the decomposition caches (when built)."""
    state = init_state(dataset, config)
    run_pretrain(state, dataset, config, config.phase1_epochs, progress)
    phase1_model = copy.deepcopy(state.model)
    caches = build_decomposition_caches(state.model, dataset.train_known, config)
    run_combined(state, dataset, config, caches, progress)
    return TrainResult(model=state.model, phase1_model=phase1_model,
                       rows=state.rows, caches=caches)


# ----------------------------------------------------------------------
# evaluation


def predict_logits(model: Model, records) -> np.ndarray:
    """Logits (R, C+1) of `records`, in PREDICT_CHUNK-cloud passes."""
    records = list(records)
    chunks = [model.infer_batch([r.points for r in records[start:stop]])
              for start, stop in _chunk_bounds(len(records))]
    return np.vstack(chunks) if chunks else np.empty((0, model.num_known + 1))


def evaluate_closed_set(model: Model, records) -> tuple[float, float]:
    """(ACC, mACC) of known-class argmax predictions on `records`."""
    records = list(records)
    logits = predict_logits(model, records)
    preds = logits[:, :-1].argmax(axis=1)
    labels = np.array([r.class_index for r in records])
    return acc_macc(preds, labels)


def score_records(model: Model, records, scorer: str = "mls") -> list[ScoredSample]:
    score_fn = {"mls": mls_score, "msp": msp_score}.get(scorer)
    if score_fn is None:
        raise ConfigError(f"unknown scorer {scorer!r}; choose mls or msp")
    records = list(records)
    confidences, classes = score_fn(predict_logits(model, records))
    return [ScoredSample(confidence=float(q), predicted_class=int(c), is_known=rec.known,
                         true_class=rec.class_index if rec.known else None,
                         object_id=rec.object_id)
            for rec, q, c in zip(records, confidences, classes)]


def evaluate_open_set(model: Model, known_records, unknown_records,
                      scorer: str = "mls") -> tuple[dict, list[ScoredSample]]:
    """Open-set metrics row plus the per-sample score dump."""
    known = score_records(model, known_records, scorer)
    unknown = score_records(model, unknown_records, scorer)
    preds = np.array([s.predicted_class for s in known])
    labels = np.array([s.true_class for s in known])
    acc, macc = acc_macc(preds, labels)
    row = {
        "method": scorer,
        "split": "test",
        "auroc": auroc([s.confidence for s in known], [s.confidence for s in unknown]),
        "fpr95": fpr95([s.confidence for s in known], [s.confidence for s in unknown]),
        "acc": acc,
        "macc": macc,
    }
    return row, known + unknown


# ----------------------------------------------------------------------
# report serialization


def report_csv_text(rows) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            str(row["epoch"]) if col == "epoch" else repr(float(row[col]))
            for col in REPORT_COLUMNS
        ))
    return "\n".join(lines) + "\n"


def write_report_csv(path, rows) -> None:
    Path(path).write_text(report_csv_text(rows), encoding="ascii")
