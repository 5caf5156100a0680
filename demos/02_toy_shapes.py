"""Generate the procedural benchmark shapes and poke at their geometry.

Run:  python demos/02_toy_shapes.py
"""

import tempfile
from pathlib import Path

import numpy as np

from openset3d.data import default_manifest, generate_dataset, load_dataset, write_dataset
from openset3d.shapes import SHAPE_NAMES, random_instance

# every instance below is posed and noised as the benchmark's are
defaults = default_manifest()
pose = dict(noise=defaults.noise, scale_jitter=defaults.scale_jitter, tilt=defaults.tilt)

print("shape library:", ", ".join(SHAPE_NAMES))
print("\nradial statistics of one normalized instance each (N=256):")
for name in SHAPE_NAMES:
    pts = random_instance(name, 256, np.random.default_rng(1), **pose)
    radii = np.linalg.norm(pts, axis=1)
    print(f"  {name:10s} mean={radii.mean():.3f} std={radii.std():.3f} "
          f"z-extent={np.ptp(pts[:, 2]):.3f}")

# --- the benchmark manifest: 8 known + 4 unknown classes -------------------
manifest = default_manifest(instances_per_class=5, points_per_cloud=64)
dataset = generate_dataset(manifest)
print(f"\nbenchmark classes: known={dataset.known_classes}")
print(f"                   unknown={dataset.unknown_classes}")
print(f"records: {len(dataset.records)} "
      f"(train {len(dataset.train_known)}, val {len(dataset.val_known)}, "
      f"test known {len(dataset.test_known)}, test unknown {len(dataset.test_unknown)})")

# unknowns share local structure with knowns on purpose: compare a tube
# cross-section against a cylinder's
tube = random_instance("tube", 400, np.random.default_rng(2), **pose)
cyl = random_instance("cylinder", 400, np.random.default_rng(2), **pose)
print(f"\ntube vs cylinder xy-radius spread: "
      f"{np.linalg.norm(tube[:, :2], axis=1).std():.3f} vs "
      f"{np.linalg.norm(cyl[:, :2], axis=1).std():.3f}")

# --- a dataset on disk: its manifest plus one array file, read back exactly --
with tempfile.TemporaryDirectory() as tmp:
    write_dataset(dataset, tmp)
    loaded = load_dataset(tmp)
    files = ", ".join(sorted(p.name for p in Path(tmp).iterdir()))
    exact = all(np.array_equal(a.points, b.points) and a.object_id == b.object_id
                for a, b in zip(dataset.records, loaded.records))
    print(f"\nwrote {files}; exact round trip={exact}")
