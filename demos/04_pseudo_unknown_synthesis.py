"""Build pseudo-unknown objects by mixing low-saliency parts.

Run:  python demos/04_pseudo_unknown_synthesis.py
"""

import numpy as np

from openset3d import autodiff as ad
from openset3d.data import generate_dataset, tiny_manifest
from openset3d.saliency import Part, random_split
from openset3d.synthesis import mix, pseudo_label

dataset = generate_dataset(tiny_manifest(seed=3, instances_per_class=10, points_per_cloud=64))
rng = np.random.default_rng(11)

# take the (here: random) low part of three distinct training objects
parts = []
for record in dataset.train_known[:3]:
    decomp = random_split(len(record.points), 3, rng)
    parts.append(Part(
        points=record.points[decomp.low_indices],
        label=record.class_index,
        source_id=record.object_id,
        source_indices=decomp.low_indices,
    ))
print("mixing parts from:", [p.source_id for p in parts])

sample = mix(parts, n_out=64, num_known=2, eps=0.1, eps_known=0.1, rng=rng)
print(f"synthetic cloud: {sample.points.shape[0]} points, "
      f"max radius {np.linalg.norm(sample.points, axis=1).max():.3f}")
print("part counts per class:", sample.source_counts)

# --- the smoothed (C+1)-way soft label --------------------------------------
print("\nsoft label:", np.round(sample.soft_label, 4),
      f"(sum {sample.soft_label.sum():.10f})")
print("most mass sits on the unknown slot; involved classes share the rest")

worked = pseudo_label({0: 2, 1: 1}, num_known=4, eps=0.1, eps_known=0.1, mix_count=3)
print("\nworked example (C=4, parts 2x class0 + 1x class1):", np.round(worked, 6))

# --- the synthesis loss is a plain soft-label cross-entropy -----------------
def synthesis_loss(logits, soft_label):
    tape = ad.Tape()
    return ad.soft_cross_entropy(tape.leaf(logits), soft_label).item()


logits = rng.uniform(-1, 1, 3)
print(f"\nsynthesis loss on random logits {np.round(logits, 3)}: "
      f"{synthesis_loss(logits, sample.soft_label):.4f}")
uniform = synthesis_loss(np.zeros(3), np.eye(3)[2])
print(f"uniform logits, one-hot unknown label: {uniform:.5f} (= ln 3 = {np.log(3):.5f})")
