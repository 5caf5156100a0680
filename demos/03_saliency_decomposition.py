"""Saliency maps and tunable decomposition on a small trained model.

Trains a quick closed-set model, then shows which points the true-class
logit cares about, how the sorted split carves an object, and how partial
views swap in.

Run:  python demos/03_saliency_decomposition.py
"""

import numpy as np

from openset3d.data import generate_dataset, tiny_manifest
from openset3d.saliency import (
    normalize_scores,
    partial_views,
    saliency_maps_batch,
    split_by_saliency,
    tunable_decompose,
)
from openset3d.training import TrainConfig, train

dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=40, points_per_cloud=64))
config = TrainConfig(phase1_epochs=60, phase2_epochs=0, batch_size=8, seed=0,
                     feat_dim=16, point_widths=(12, 16), proj_hidden=(),
                     learning_rate=0.01)
result = train(dataset, config)
model = result.model
print(f"closed-set pretraining done (final val acc "
      f"{result.rows[-1]['val_acc']:.2f})")

record = dataset.test_known[0]
scores = saliency_maps_batch(model, [record.points], [record.class_index])[0]
print(f"\nsaliency for {record.object_id}:")
print(f"  raw range [{scores.min():.4f}, {scores.max():.4f}], "
      f"{(scores > 0).sum()} of {len(scores)} points positive")

# --- sorted split: floor(N/M) lowest scores form the low part ---------------
low_idx, high_idx = split_by_saliency(scores, mix_count=3)
print(f"\nsplit with mix_count=3: low part {len(low_idx)} points, "
      f"high part {len(high_idx)} points")
print(f"  max low score {scores[low_idx].max():.4f} <= "
      f"min high score {scores[high_idx].min():.4f}")

# --- partial views via hidden-point removal --------------------------------
rng = np.random.default_rng(5)
views = partial_views(record.points, normalize_scores(scores), count=6, rng=rng)
print("\npartial views (visible fraction, mean saliency):")
for i, view in enumerate(views):
    print(f"  view {i}: {len(view.indices) / len(record.points):.2f} visible, "
          f"score {view.overall_score:.3f}"
          + ("  [plane-crop fallback]" if view.used_fallback else ""))

# --- thresholds tune the semantic/geometric balance -------------------------
high, low = tunable_decompose(record.points, scores, 3, 0.99, 0.01, views, rng,
                              label=record.class_index, source_id=record.object_id)
print(f"\nstrict thresholds (0.99/0.01): parts match the pure split "
      f"({len(high.points)}/{len(low.points)} points)")
high, low = tunable_decompose(record.points, scores, 3, 0.4, 0.6, views, rng,
                              label=record.class_index, source_id=record.object_id)
print(f"loose thresholds (0.40/0.60): parts may come from views "
      f"({len(high.points)}/{len(low.points)} points)")
