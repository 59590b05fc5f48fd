"""Synthetic binary benchmarks with planted clusters and exact noise counts.

A benchmark starts from an all-zero matrix, plants a block of signal columns
per cluster, then flips an exact number of cells chosen without replacement.
Signal strength and noise are expressed as percentages so instances scale
with the matrix dimensions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import BinaryMatrix


@dataclass
class SyntheticSpec:
    """Shape and difficulty of one planted-cluster instance.

    ``info_pct`` is the percentage of feature columns planted as signal per
    cluster; ``noise_pct`` the percentage of all cells toggled afterwards.
    """

    n_objects: int
    n_features: int
    info_pct: float
    noise_pct: float
    k_true: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_objects < 1 or self.n_features < 1:
            raise ValueError("n_objects and n_features must be positive")
        if not 0 <= self.info_pct <= 100:
            raise ValueError("info_pct must lie in [0, 100]")
        if not 0 <= self.noise_pct <= 100:
            raise ValueError("noise_pct must lie in [0, 100]")
        if not 1 <= self.k_true <= self.n_objects:
            raise ValueError("k_true must lie in [1, n_objects]")


def generate(spec):
    """Draw one instance; returns ``(BinaryMatrix, true_labels)``.

    Rows get uniform random labels (partitions with an empty cluster are
    rejected and redrawn), each cluster sets ``ceil(info_pct * D / 100)``
    signal columns to one for all of its rows, and finally exactly
    ``floor(noise_pct * N * D / 100)`` cells, chosen without replacement
    over the whole matrix, are flipped.  Reproducible bit for bit from
    ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_objects, spec.n_features
    while True:
        labels = rng.integers(0, spec.k_true, size=n)
        if np.unique(labels).size == spec.k_true:
            break
    x = np.zeros((n, d), dtype=np.uint8)
    n_signal = math.ceil(spec.info_pct * d / 100.0)
    for k in range(spec.k_true):
        cols = rng.choice(d, size=n_signal, replace=False)
        x[np.ix_(labels == k, cols)] = 1
    n_flips = math.floor(spec.noise_pct * n * d / 100.0)
    flips = rng.choice(n * d, size=n_flips, replace=False)
    flat = x.reshape(-1)
    flat[flips] ^= 1
    return BinaryMatrix(x), labels.astype(np.int64)
