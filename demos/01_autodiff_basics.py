"""Tour of the tape engine: record ops, run backward, check gradients.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from openset3d import autodiff as ad

rng = np.random.default_rng(0)

# --- record a tiny forward pass -------------------------------------------
tape = ad.Tape()
x = tape.leaf(rng.uniform(-1, 1, (5, 3)), name="points")
w = tape.leaf(rng.normal(0, 0.5, (3, 4)), name="w")
b = tape.leaf(np.zeros(4), name="b")

hidden = ad.relu(ad.linear(x, w, b))
pooled = ad.max_pool_groups(hidden, [5])  # (1, 4): column-wise max over one group of 5 rows
loss = ad.mean_all(pooled)

print(f"tape recorded {len(tape)} nodes")
print("pooled feature:", np.round(pooled.data[0], 4))
print("loss:", round(loss.item(), 6))

# --- one backward sweep fills every reachable adjoint ----------------------
tape.backward(loss)
print("\nw gradient:\n", np.round(w.grad, 4))
print("x gradient rows that matter (max-pool routes to argmax rows only):")
print(np.round(x.grad, 4))

# --- verify analytic gradients against central finite differences ----------
def head_loss(theta):
    tape = ad.Tape()
    wv = tape.leaf(theta.reshape(3, 4))
    out = ad.relu(ad.linear(tape.leaf(x.data), wv, tape.leaf(np.zeros(4))))
    value = ad.mean_all(ad.max_pool_groups(out, [5]))
    tape.backward(value)
    return value.item(), wv.grad.ravel()

err = ad.grad_check(head_loss, w.data.ravel(), h=1e-5)
print(f"\ngrad_check max relative error: {err:.2e} (tolerance 1e-4)")

# --- the cosine head behaves like a similarity, not a magnitude ------------
tape = ad.Tape()
feature = tape.leaf(np.array([2.0, 1.0, 0.0, -1.0]))
bank = tape.leaf(rng.normal(0, 0.5, (3, 4)))
logits = ad.cosine_logits(feature, bank)
scaled = ad.cosine_logits(tape.leaf(feature.data * 37.0), bank)
print("\ncosine logits:", np.round(logits.data, 4))
print("scaled input, same logits:", np.allclose(logits.data, scaled.data, atol=1e-12))
