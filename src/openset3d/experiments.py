"""Desk-scale open-set experiment harness.

Runs the directional experiment: pretrain once per seed, score the frozen
closed-set model as the MLS baseline, then branch phase-2 training into
the full system and single-module-removed variants from the same phase-1
state, optimizer moments, and caches. Results aggregate over seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .data import ToyDataset
from .training import (
    TrainConfig,
    build_decomposition_caches,
    evaluate_open_set,
    init_state,
    run_pretrain,
    run_combined,
)

__all__ = [
    "VariantMetrics",
    "SeedOutcome",
    "ablation_grid",
    "run_seed",
    "run_experiment",
    "mean_auroc",
    "mean_acc",
]

VARIANT_ORDER = ("full", "no_tsd", "no_gss", "no_sms", "none")


@dataclass
class VariantMetrics:
    auroc: float
    fpr95: float
    acc: float
    macc: float


@dataclass
class SeedOutcome:
    seed: int
    baseline: VariantMetrics  # phase-1 closed-set model, MLS scoring
    variants: dict[str, VariantMetrics]


def ablation_grid(config: TrainConfig) -> dict[str, TrainConfig]:
    """The full system and its single-module-removed variants.

    Removing a module: TSD -> random splits without views; GSS -> beta=0
    (no synthesis term); SMS -> gamma=0 (no margin term). The no-module
    baseline zeroes every extra weight, i.e. continued closed-set training.
    """
    return {
        "full": config,
        "no_tsd": dataclasses.replace(config, use_tsd=False),
        "no_gss": dataclasses.replace(config, beta=0.0),
        "no_sms": dataclasses.replace(config, gamma=0.0),
        "none": dataclasses.replace(config, alpha=0.0, beta=0.0, gamma=0.0),
    }


def _metrics(model, dataset, scorer="mls") -> VariantMetrics:
    row, _ = evaluate_open_set(model, dataset.test_known, dataset.test_unknown, scorer)
    return VariantMetrics(auroc=row["auroc"], fpr95=row["fpr95"],
                          acc=row["acc"], macc=row["macc"])


def run_seed(dataset: ToyDataset, config: TrainConfig,
             variant_names=VARIANT_ORDER, progress=None) -> SeedOutcome:
    """One seed's baseline plus all requested phase-2 variants.

    Phase 1, its optimizer state, and the decomposition caches are shared:
    every variant resumes from identical state, so differences measure the
    modules themselves.
    """
    variants = {k: v for k, v in ablation_grid(config).items() if k in variant_names}
    state = init_state(dataset, config)
    run_pretrain(state, dataset, config, config.phase1_epochs, progress)
    baseline = _metrics(state.model, dataset)
    caches = None
    if any(v.needs_cache() for v in variants.values()):
        caches = build_decomposition_caches(state.model, dataset.train_known, config)
    results = {}
    for name, vcfg in variants.items():
        branch = state.copy()
        run_combined(branch, dataset, vcfg, vcfg.phase2_epochs, caches, progress)
        results[name] = _metrics(branch.model, dataset)
    return SeedOutcome(seed=config.seed, baseline=baseline, variants=results)


def run_experiment(dataset: ToyDataset, config: TrainConfig, seeds,
                   variant_names=VARIANT_ORDER, progress=None) -> list[SeedOutcome]:
    outcomes = []
    for seed in seeds:
        seeded = dataclasses.replace(config, seed=int(seed))
        outcomes.append(run_seed(dataset, seeded, variant_names, progress))
    return outcomes


def mean_auroc(outcomes, name) -> float:
    if name == "baseline":
        return sum(o.baseline.auroc for o in outcomes) / len(outcomes)
    return sum(o.variants[name].auroc for o in outcomes) / len(outcomes)


def mean_acc(outcomes, name) -> float:
    if name == "baseline":
        return sum(o.baseline.acc for o in outcomes) / len(outcomes)
    return sum(o.variants[name].acc for o in outcomes) / len(outcomes)
