"""Labelled synthetic feature matrices for network tests."""

import numpy as np


def make_feature_classes(
    num_classes: int,
    per_class: int,
    num_frames: int,
    seed: int,
    feat_dim: int = 40,
    separation: float = 3.0,
    noise: float = 0.3,
) -> list[tuple[np.ndarray, int]]:
    """Labeled synthetic feature matrices around per-class templates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    templates = [separation * rng.standard_normal(feat_dim) for _ in range(num_classes)]
    out = []
    for label in range(num_classes):
        for _ in range(per_class):
            feats = templates[label] + noise * rng.standard_normal((num_frames, feat_dim))
            out.append((feats, label))
    return out
