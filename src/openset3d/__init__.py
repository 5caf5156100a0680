"""Open-set 3D point-cloud recognition on a desk-scale toy benchmark.

The library trains a small differentiable point encoder with a prototype
cosine head, decomposes objects into high/low-importance parts via
gradient saliency, synthesizes pseudo-unknown objects from low-importance
parts, separates features with a weighted hinge triplet loss, and scores
known-vs-unknown separation with MLS/MSP confidences plus AUROC/FPR95.
"""

from . import autodiff
from .checkpoint import load_checkpoint, save_checkpoint
from .experiments import ablation_grid, run_experiment, run_seed
from .data import (
    CacheMissError,
    ConfigError,
    Manifest,
    SaliencyCache,
    StaleCacheError,
    ToyDataset,
    default_manifest,
    generate_dataset,
    load_dataset,
    read_cloud,
    tiny_manifest,
    write_cloud,
    write_dataset,
)
from .encoder import Model, init_prototypes, normalize_cloud
from .margins import RunningStd, Triplet, build_triplet, margin_loss, pseudo_features
from .metrics import (
    ScoredSample,
    acc_macc,
    auroc,
    fpr95,
    mls_score,
    msp_score,
)
from .saliency import (
    Part,
    PartialView,
    hidden_point_removal,
    normalize_scores,
    partial_views,
    saliency_maps_batch,
    split_by_saliency,
    tunable_decompose,
)
from .synthesis import (
    SyntheticSample,
    apply_transform,
    mix,
    pseudo_label,
    sample_transform,
)
from .training import (
    Adam,
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    batch_loss,
    build_decomposition_caches,
    build_saliency_cache,
    evaluate_closed_set,
    evaluate_open_set,
    predict_logits,
    train,
)

__version__ = "0.1.0"
