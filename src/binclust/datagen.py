"""Synthetic binary benchmarks with planted clusters and exact noise counts.

A benchmark starts from an all-zero matrix, plants a block of signal columns
per cluster, then flips an exact number of cells chosen without replacement.
Signal strength and noise are expressed as percentages so instances scale
with the matrix dimensions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import BinaryMatrix, _is_integer

# Label draws before generate seats one row per cluster instead: 100 take
# about 0.1 s at N = 100000, and a labeling with a fair chance of covering
# every cluster is all but sure to come up among them.
_MAX_LABEL_DRAWS = 100


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
        for name in ("n_objects", "n_features", "k_true"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    Rows get uniform random labels; a labeling that leaves a cluster empty
    is rejected and redrawn, up to ``_MAX_LABEL_DRAWS`` draws in all.  If
    every draw leaves a cluster empty (likely only with ``k_true`` close to
    ``n_objects``), a random permutation of the rows seats one row in each
    cluster and the other rows keep their labels from the last draw; at
    ``k_true == n_objects`` that is a uniform random permutation.  Then each
    cluster sets ``ceil(info_pct * D / 100)`` signal columns to one for all
    of its rows, and finally exactly ``floor(noise_pct * N * D / 100)``
    cells, chosen without replacement over the whole matrix, are flipped.
    Reproducible bit for bit from ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_objects, spec.n_features
    for _ in range(_MAX_LABEL_DRAWS):
        labels = rng.integers(0, spec.k_true, size=n)
        if np.bincount(labels, minlength=spec.k_true).all():
            break
    else:
        labels[rng.permutation(n)[: spec.k_true]] = np.arange(spec.k_true)
    x = np.zeros((n, d), dtype=np.uint8)
    n_signal = math.ceil(spec.info_pct * d / 100.0)
    # Each cluster's rows from one stable sort of the labels, not a mask over
    # all N rows per cluster; every cluster is non-empty by now.
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    for rows in members:
        cols = rng.choice(d, size=n_signal, replace=False)
        x[np.ix_(rows, cols)] = 1
    n_flips = math.floor(spec.noise_pct * n * d / 100.0)
    flips = rng.choice(n * d, size=n_flips, replace=False)
    flat = x.reshape(-1)
    flat[flips] ^= 1
    return BinaryMatrix(x), labels.astype(np.int64)
