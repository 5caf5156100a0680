"""Open-set 3D point-cloud recognition on a desk-scale toy benchmark.

The library trains a small differentiable point encoder with a prototype
cosine head, decomposes objects into high/low-importance parts via
gradient saliency, synthesizes pseudo-unknown objects from low-importance
parts, separates features with a weighted hinge triplet loss, and scores
known-vs-unknown separation with MLS/MSP confidences plus AUROC/FPR95.
"""

__version__ = "0.1.0"
