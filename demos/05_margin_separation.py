"""Feature margins: pseudo-features, triplets, and the weighted hinge.

Run:  python demos/05_margin_separation.py
"""

import numpy as np

from openset3d import autodiff as ad
from openset3d.encoder import Model
from openset3d.margins import build_triplet, margin_loss, pseudo_features

rng = np.random.default_rng(4)

# a head with clearly separated prototypes stands in for a trained model
model = Model(num_known=3, feat_dim=6, point_widths=(4,), proj_hidden=(), seed=0)
bank = np.zeros((4, 6))
for i in range(4):
    bank[i, i] = 1.0
model.params["prototypes"] = bank

anchor = bank[1] * 2.0 + rng.normal(0, 0.02, 6)  # a confident class-1 feature
print("anchor classified as:", int(model.feature_logits(anchor[None])[0].argmax()))

# --- noisy copies that survive the head's filter become pseudo-features -----
for weights in ([0.0], [0.05], [2.0, 4.0]):
    pseudo = pseudo_features(anchor, weights, model, 1, np.random.default_rng(1))
    status = "accepted" if pseudo is not None else "all candidates filtered out"
    print(f"  noise weights {weights}: {status}")

# --- triplets: anchor vs its high-part feature vs a different class ---------
positive = anchor + rng.normal(0, 0.1, 6)  # the high-saliency part's feature
negative = bank[2] * 2.0 + rng.normal(0, 0.02, 6)  # some class-2 feature
pseudo = pseudo_features(anchor, [0.05], model, 1, np.random.default_rng(2))
triplet = build_triplet((anchor, 1), positive, (negative, 2), pseudo,
                        p_replace=0.5, rng=np.random.default_rng(3))
print(f"\ntriplet built, replacement: {triplet.replacement}")

# margin_loss takes (B, d) tape tensors: one triplet is a batch of one
tape = ad.Tape()
members = [tape.leaf(m[None]) for m in (triplet.anchor, triplet.positive, triplet.negative)]
loss = margin_loss(*members, pos_weight=0.01, neg_weight=1.0, margin=10.0).item()
print(f"weighted hinge loss: {loss:.4f} "
      "(0.01*d(a,p) - 1.0*d(a,n) + 10, clamped at 0)")

# a batch of triplets is still one scalar: the mean of the per-triplet hinges
far = negative * 6.0  # a negative far enough to switch its hinge off
tape = ad.Tape()
batch = margin_loss(tape.leaf(np.stack([anchor, anchor])),
                    tape.leaf(np.stack([positive, positive])),
                    tape.leaf(np.stack([negative, far])), 0.01, 1.0, 10.0)
print(f"two triplets, the second hinge inactive: mean loss {batch.item():.4f}")

# --- gradient descent on the anchor opens the margin -------------------------
current = anchor.copy()
print("\ndescending on the anchor:")
for step in range(5):
    tape = ad.Tape()
    leaf = tape.leaf(current[None])
    value = margin_loss(leaf, tape.leaf(positive[None]), tape.leaf(negative[None]),
                        0.01, 1.0, 10.0)
    tape.backward(value)
    d_neg = np.linalg.norm(current - negative)
    print(f"  step {step}: loss={value.item():.4f} d(anchor, negative)={d_neg:.3f}")
    current -= 0.5 * leaf.grad[0]
