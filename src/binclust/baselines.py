"""K-means on binary rows with the gap statistic for choosing K.

The reference datasets for the gap statistic keep each column's empirical
density: every reference cell is an independent Bernoulli draw with
probability equal to its column mean, which is the binary analogue of the
uniform-over-range null used for continuous features.
"""

from dataclasses import dataclass

import numpy as np

from .model import BinaryMatrix

# Seeded Lloyd runs per k-means fit, and the iteration cap of each run.
_N_RESTARTS = 5
_MAX_ITERS = 100


@dataclass
class GapResult:
    """Gap curves over k = 1..k_max and the selected cluster count."""

    chosen_k: int
    gap_curve: np.ndarray
    sk_curve: np.ndarray
    dispersion_curve: np.ndarray


def _squared_distances(points, norms, centroids):
    """All pairwise squared Euclidean distances, shape (n, k); ``norms`` are the rows' squared norms."""
    d2 = (
        norms[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _distances_to_row(points, norms, idx):
    """Squared distances of every row to row ``idx``, from the rows' squared norms.

    On {0,1} rows every term is an exact integer, so this equals the direct
    ``((points - points[idx]) ** 2).sum(axis=1)`` bit for bit.
    """
    return norms - 2.0 * (points @ points[idx]) + norms[idx]


def _plusplus_seeds(points, norms, k, rng):
    """Greedy k-means++ seeding: spread the initial centroids apart."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    idx = rng.integers(n)
    centroids[0] = points[idx]
    d2 = _distances_to_row(points, norms, idx)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        np.minimum(d2, _distances_to_row(points, norms, idx), out=d2)
    return centroids


def _wcss(points, labels, centroids):
    """Within-cluster sum of squares: each point's squared distance to its centroid, summed."""
    return float(((points - centroids[labels]) ** 2).sum())


def _lloyd(points, norms, k, max_iters, rng):
    """One seeded Lloyd run; returns (labels, centroids, WCSS)."""
    n = points.shape[0]
    centroids = _plusplus_seeds(points, norms, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        d2 = _squared_distances(points, norms, centroids)
        new_labels = d2.argmin(axis=1)
        # Revive empty clusters with the worst-fit point (farthest from its
        # own centroid); repeat until every cluster has a member.
        counts = np.bincount(new_labels, minlength=k)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            own = d2[np.arange(n), new_labels].copy()
            own[counts[new_labels] <= 1] = -1.0  # do not drain singletons
            worst = int(own.argmax())
            counts[new_labels[worst]] -= 1
            new_labels[worst] = empty
            counts[empty] += 1
            d2[worst, :] = 0.0  # its new centroid will be the point itself
        for j in range(k):
            centroids[j] = points[new_labels == j].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids, _wcss(points, labels, centroids)


def _best_fits(data, ks, rng):
    """Best of ``_N_RESTARTS`` seeded Lloyd runs for each k, as ``(labels, centroids, wcss)``.

    The {0,1} rows are converted to float64, and their squared norms taken,
    once for all k.  On a WCSS tie the earlier run is kept.
    """
    points = data.values.astype(np.float64)
    norms = (points * points).sum(axis=1)
    return [
        min((_lloyd(points, norms, k, _MAX_ITERS, rng) for _ in range(_N_RESTARTS)), key=lambda fit: fit[2])
        for k in ks
    ]


def kmeans_binary(data, k, rng=None):
    """Lloyd's algorithm on {0,1} rows; best of five seeded runs by WCSS.

    Centroids are real-valued cluster means.  Returns ``(labels, centroids)``.
    """
    if not 1 <= k <= data.n_objects:
        raise ValueError(f"k must lie in [1, {data.n_objects}], got {k}")
    labels, centroids, _ = _best_fits(data, [k], np.random.default_rng(rng))[0]
    return labels, centroids


def gap_statistic(data, k_max=15, n_refs=10, rng=None):
    """Gap curves for k = 1..k_max, k_max in [1, N], and the smallest k passing the gap rule.

    ``Gap(k)`` compares the data's log dispersion against the mean log
    dispersion of ``n_refs`` column-marginal Bernoulli reference draws;
    ``s_k`` widens the comparison by the reference spread.  The selected k
    is the smallest with ``Gap(k) >= Gap(k+1) - s_{k+1}``, else ``k_max``.
    Degenerate k, where the data dispersion is exactly zero (every cluster
    holds only duplicates), never enter the gap comparison: the smallest
    such k is a perfect separation and is returned directly (k = 1 when
    all rows are identical).
    """
    if not 1 <= k_max <= data.n_objects:
        raise ValueError(f"k_max must lie in [1, {data.n_objects}], got {k_max}")
    if n_refs < 1:
        raise ValueError("n_refs must be at least 1")
    rng = np.random.default_rng(rng)
    k_values = range(1, k_max + 1)

    def log_wcss(matrix):
        with np.errstate(divide="ignore"):  # a zero WCSS logs to -inf
            return np.log([wcss for _, _, wcss in _best_fits(matrix, k_values, rng)])

    data_logs = log_wcss(data)
    col_means = data.values.mean(axis=0)
    ref_logs = np.array([
        log_wcss(BinaryMatrix((rng.random(data.values.shape) < col_means).astype(np.uint8))) for _ in range(n_refs)
    ])

    with np.errstate(invalid="ignore"):
        gap_curve = ref_logs.mean(axis=0) - data_logs
        sk_curve = ref_logs.std(axis=0, ddof=0) * np.sqrt(1.0 + 1.0 / n_refs)

    degenerate = np.isneginf(data_logs)
    if degenerate.any():
        chosen_k = int(np.flatnonzero(degenerate)[0]) + 1
    else:
        chosen_k = k_max
        for k in range(1, k_max):
            if not (np.isfinite(gap_curve[k - 1]) and np.isfinite(gap_curve[k])):
                continue
            if gap_curve[k - 1] >= gap_curve[k] - sk_curve[k]:
                chosen_k = k
                break
    return GapResult(chosen_k=int(chosen_k), gap_curve=gap_curve, sk_curve=sk_curve, dispersion_curve=data_logs)
