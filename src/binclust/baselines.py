"""K-means on binary rows with the gap statistic for choosing K.

The reference datasets for the gap statistic keep each column's empirical
density: every reference cell is an independent Bernoulli draw with
probability equal to its column mean, which is the binary analogue of the
uniform-over-range null used for continuous features.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import BinaryMatrix, _is_integer

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


def _inputs(values):
    """The arrays every k-means fit on these {0,1} rows reads: ``(points, norms, gram, hamming)``.

    ``norms`` are the rows' squared norms, which on {0,1} rows are their
    sums.  When N <= D the Gram matrix ``gram = points @ points.T`` and the
    Hamming matrix ``hamming[i, j] = |x_i|^2 + |x_j|^2 - 2 x_i . x_j`` take the
    rows' place, and ``points`` is None: a Lloyd step's products are then one
    N x N x K product instead of two N x K x D ones, and a seed's distances
    are one row of ``hamming``.  The rows are dropped before ``hamming`` is
    built, so the two N x N arrays never outgrow the rows and the Gram
    matrix together.  When N > D that trade loses, and the float64 rows are
    kept with ``gram`` and ``hamming`` None.  Every entry is an exact
    integer while N^2 D < 2^53.
    """
    points = values.astype(np.float64)
    norms = points.sum(axis=1)
    n, d = values.shape
    if n > d:
        return points, norms, None, None
    gram = points @ points.T
    del points
    hamming = gram * -2.0
    hamming += norms
    hamming += norms[:, None]
    return None, norms, gram, hamming


def _cluster_products(points, gram, onehot):
    """``cross[i, k] = x_i . C_k`` for the clusters of the one-hot labels.

    ``C = onehot.T @ points`` is the K x D feature-count table.  With the
    Gram matrix ``cross`` is ``gram @ onehot``, without it ``points @ C.T``:
    one product in two association orders.  On {0,1} rows every partial sum
    is an integer of at most N^2 D, so both orders give the same bits while
    N^2 D < 2^53.
    """
    return gram @ onehot if gram is not None else points @ (onehot.T @ points).T


def _squared_distances(norms, cross, q, sizes):
    """Squared Euclidean distances, shape (n, k), of the rows to the clusters' mean rows.

    Cluster k is a count row ``C_k`` over its size ``sizes[k]``; ``norms`` are
    the rows' squared norms, ``cross[i, k] = x_i . C_k`` and ``q[k] = |C_k|^2``.
    On {0,1} rows these are exact integers while N^2 D < 2^53, so only the
    divisions by the sizes and the sum of the three terms round.
    """
    d2 = norms[:, None] - 2.0 * cross / sizes + q / (sizes * sizes)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _distances_to(points, norms, hamming, rows):
    """Squared distances, shape (len(rows), n), of every row to each of ``rows``.

    They are ``hamming``'s rows or, without it, the same integers from the
    rows: ``|x_r|^2 + |x_i|^2 - 2 x_r . x_i``, exact on {0,1} rows.
    """
    if hamming is not None:
        return hamming[rows]
    return norms[rows, None] + norms - 2.0 * (points[rows] @ points.T)


def _weighted_draws(weights, u):
    """Each row's index ``Generator.choice`` draws with probabilities proportional to its weights, from ``u``.

    These are ``choice``'s own steps for one row, without its checks: the
    weights over their sum, their cumulative sum over its last entry, and
    the count of entries at or below the row's uniform, which is
    ``searchsorted(u, side="right")`` on the non-decreasing sum.
    """
    cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _plusplus_seeds(points, norms, hamming, ks, n_distinct, rng):
    """Greedy k-means++ seeds of one run per entry of ``ks``: a list of index arrays, ``ks[r]`` rows for run r.

    The runs draw from ``rng`` one after another, as if each were seeded
    alone: a uniform first seed, then each later seed with probability
    proportional to its squared distance to the nearest seed so far, or
    uniformly once every distance is 0.  A draw with a nonzero total picks
    a row at a positive distance, a row unlike every seed so far, so the
    distances all reach 0 exactly from seed ``n_distinct`` on, the number of
    distinct rows.  Each run's draws are therefore known in advance: one
    ``rng.integers(n)``, one ``rng.random(c)`` for its c weighted draws,
    then one ``rng.integers(n)`` per later seed.  The weighted draws then
    advance all runs together, one seed index at a time
    (``_weighted_draws``).  Every distance is an exact integer on {0,1}
    rows, so each run's sums and its draws are those of the run seeded
    alone.
    """
    n = norms.shape[0]
    ks = np.asarray(ks)
    seeds = np.empty((len(ks), ks.max()), dtype=np.int64)
    uniforms = np.empty((len(ks), min(ks.max(), n_distinct)))
    for r, k in enumerate(ks.tolist()):
        weighted = min(k, n_distinct)
        seeds[r, 0] = rng.integers(n)
        uniforms[r, 1:weighted] = rng.random(weighted - 1)
        for j in range(weighted, k):
            seeds[r, j] = rng.integers(n)
    d2 = _distances_to(points, norms, hamming, seeds[:, 0])
    for j in range(1, uniforms.shape[1]):
        runs = np.flatnonzero(ks > j)
        nearest = d2[runs]
        seeds[runs, j] = _weighted_draws(nearest, uniforms[runs, j])
        d2[runs] = np.minimum(nearest, _distances_to(points, norms, hamming, seeds[runs, j]))
    return [row[:k] for row, k in zip(seeds, ks.tolist())]


def _lloyd(points, norms, gram, hamming, seeds, max_iters):
    """One Lloyd run on ``_inputs``'s arrays from the seed rows ``seeds``; returns (labels, WCSS).

    A cluster is its count row ``C_k`` and its size ``n_k``, known only
    through ``cross = x . C_k`` and ``q = |C_k|^2``.  The seeds start as
    clusters of one row each, ``C_k = x_seed``, so the first assignment's
    distances are the seeds' rows of ``_distances_to``.  Each step that
    changes the labels takes ``cross`` for the next assignment from the
    one-hot labels (``_cluster_products``) at the first step and wherever
    the rows are kept.  Otherwise a row i moving from cluster a to b adds
    row i of the symmetric Gram matrix to ``cross[:, b]`` and takes it from
    ``cross[:, a]``, since few rows move after the first step.  ``q`` then
    sums ``cross`` over each cluster's members.  The WCSS is
    ``sum_k (n_k sum_{i in k} |x_i|^2 - q_k) / n_k``, its cluster terms
    summed in sorted order so that a relabeled run ties exactly.  Every
    count is an exact integer while N^2 D < 2^53, so the WCSS is within
    K 2^-52 relative of the exact value and the same on either route.
    """
    n, k = norms.shape[0], len(seeds)
    eye, rows = np.eye(k), np.arange(n)
    d2 = _distances_to(points, norms, hamming, seeds).T
    labels = None
    for _ in range(max_iters):
        new_labels = d2.argmin(axis=1)
        # Revive empty clusters with the worst-fit point (farthest from its
        # own cluster's mean); repeat until every cluster has a member.
        sizes = np.bincount(new_labels, minlength=k)
        while not sizes.all():
            empty = int(np.flatnonzero(sizes == 0)[0])
            own = d2[rows, new_labels]
            own[sizes[new_labels] <= 1] = -1.0  # do not drain singletons
            worst = int(own.argmax())
            sizes[new_labels[worst]] -= 1
            new_labels[worst] = empty
            sizes[empty] += 1
            d2[worst, :] = 0.0  # it is now its cluster's only member
        if labels is not None:
            moved = np.flatnonzero(new_labels != labels)
            if not moved.size:
                break  # cross and q are already those of these labels
        if labels is None or gram is None:
            cross = _cluster_products(points, gram, eye[new_labels])
        else:
            cross += gram[moved].T @ (eye[new_labels[moved]] - eye[labels[moved]])
        q = np.bincount(new_labels, weights=cross[rows, new_labels], minlength=k)
        labels = new_labels
        d2 = _squared_distances(norms, cross, q, sizes)
    wcss = np.sort((sizes * np.bincount(labels, weights=norms, minlength=k) - q) / sizes).sum()
    return labels, float(wcss)


def _best_fits(data, ks, rng):
    """Best of ``_N_RESTARTS`` seeded Lloyd runs for each k, as ``(labels, wcss)``.

    ``_inputs``'s arrays are built once for all k, and every run is seeded
    in one pass, k by k and run by run.  On a WCSS tie the earlier run is
    kept.
    """
    n_distinct = len(set(map(bytes, data.values)))
    inputs = points, norms, _, hamming = _inputs(data.values)
    seeds = _plusplus_seeds(points, norms, hamming, np.repeat(ks, _N_RESTARTS), n_distinct, rng)
    fits = (_lloyd(*inputs, run_seeds, _MAX_ITERS) for run_seeds in seeds)
    return [min(islice(fits, _N_RESTARTS), key=lambda fit: fit[1]) for _ in ks]


def kmeans_binary(data, k, rng=None):
    """Lloyd's algorithm on {0,1} rows; best of five seeded runs by WCSS.

    Returns the labels, 0..k-1, each cluster with at least one member.
    """
    if not _is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= data.n_objects:
        raise ValueError(f"k must lie in [1, {data.n_objects}], got {k}")
    labels, _ = _best_fits(data, [k], np.random.default_rng(rng))[0]
    return labels


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
    if not _is_integer(k_max):
        raise ValueError(f"k_max must be an integer, got {k_max!r}")
    if not 1 <= k_max <= data.n_objects:
        raise ValueError(f"k_max must lie in [1, {data.n_objects}], got {k_max}")
    if not (_is_integer(n_refs) and n_refs >= 1):
        raise ValueError(f"n_refs must be a positive integer, got {n_refs!r}")
    rng = np.random.default_rng(rng)
    k_values = range(1, k_max + 1)

    def log_wcss(matrix):
        with np.errstate(divide="ignore"):  # a zero WCSS logs to -inf
            return np.log([wcss for _, wcss in _best_fits(matrix, k_values, rng)])

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
            if gap_curve[k - 1] >= gap_curve[k] - sk_curve[k]:
                chosen_k = k
                break
    return GapResult(chosen_k=int(chosen_k), gap_curve=gap_curve, sk_curve=sk_curve, dispersion_curve=data_logs)
