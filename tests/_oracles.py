"""Independent reference computations the production code is tested against.

These deliberately take the slow, direct route: log-gamma Beta functions,
numerical quadrature, exhaustive enumeration, one k-means++ draw at a time
and a full one-hot product at every Lloyd step.  None of them share code
with the closed-form/assignment paths they check.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betaln, gammaln


def log_ratio_by_betaln(a, b, size, fcount, x):
    """Single-feature predictive log ratio via log-gamma Beta functions."""
    return float(
        betaln(a + fcount + x, b + size - fcount + 1 - x) - betaln(a + fcount, b + size - fcount)
    )


def joint_log_score_by_betaln(sizes, counts, hyper):
    """Partition score through scipy's ``betaln``/``gammaln``, from cluster sizes (K,)
    and feature counts (K, D); the sorted cluster sum matches the production score's."""
    alpha = hyper.alpha
    n = sizes.sum()
    per_cluster = gammaln(sizes) + betaln(hyper.a + counts, hyper.b + (sizes[:, None] - counts)).sum(axis=1)
    return float(
        sizes.shape[0] * np.log(alpha)
        - log_rising_by_fsum(alpha, n)
        - sizes.shape[0] * betaln(hyper.a, hyper.b).sum()
        + np.sort(per_cluster).sum()
    )


def log_rising_by_fsum(x, n):
    """``lgamma(x + n) - lgamma(x)`` as the exactly rounded sum of the logs of x, x + 1, ..., x + n - 1."""
    return math.fsum(math.log(x + m) for m in range(int(n)))


def joint_log_score_by_fsum(sizes, counts, hyper):
    """Partition score from sizes (K,) and counts (K, D) as one exactly rounded
    sum: each log-gamma ratio by :func:`log_rising_by_fsum`, each cluster's
    ``math.lgamma(size)``.  It holds at any shapes; through scipy's ``betaln``
    the score is off by 1.3e-12 relative at ``a = 1e6``, ``b = 0.5 ... 50``."""
    terms = [sizes.shape[0] * math.log(hyper.alpha), -log_rising_by_fsum(hyper.alpha, sizes.sum())]
    for size, row in zip(sizes.tolist(), counts.tolist()):
        terms.append(math.lgamma(size))
        for a, b, count in zip(hyper.a.tolist(), hyper.b.tolist(), row):
            terms += [log_rising_by_fsum(a, count), log_rising_by_fsum(b, size - count)]
            terms.append(-log_rising_by_fsum(a + b, size))
    return math.fsum(terms)


def predictive_by_quadrature(a, b, size, fcount, x):
    """Single-feature predictive probability by numerically integrating the
    Bernoulli likelihood against the Beta posterior density."""
    post_a = a + fcount
    post_b = b + size - fcount
    norm = beta_fn(post_a, post_b)

    def integrand(p):
        return p**x * (1.0 - p) ** (1 - x) * p ** (post_a - 1.0) * (1.0 - p) ** (post_b - 1.0) / norm

    value, _ = quad(integrand, 0.0, 1.0)
    return float(value)


def seating_weights_by_raw_beta(x, sizes, fcounts, a, b, alpha):
    """Untempered posterior over cluster options through raw Beta functions.

    ``sizes``/``fcounts`` describe the leave-one-out clusters; the returned
    vector covers each of them plus a final new-cluster entry, normalized.
    """
    weights = []
    for size, row in zip(sizes, fcounts):
        w = float(size)
        for j in range(len(x)):
            w *= beta_fn(a[j] + row[j] + x[j], b[j] + size - row[j] + 1 - x[j]) / beta_fn(
                a[j] + row[j], b[j] + size - row[j]
            )
        weights.append(w)
    w = float(alpha)
    for j in range(len(x)):
        w *= beta_fn(a[j] + x[j], b[j] + 1 - x[j]) / beta_fn(a[j], b[j])
    weights.append(w)
    weights = np.asarray(weights)
    return weights / weights.sum()


def set_partitions(n):
    """All set partitions of range(n) as restricted-growth label tuples."""
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(labels)
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    if n == 1:
        yield (0,)
    else:
        yield from rec(1, 0)


def canonical_labels(labels):
    """Relabel in order of first appearance, so partitions compare as sets."""
    seen = {}
    out = []
    for v in labels:
        v = int(v)
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def matched_accuracy_brute_force(pred, truth):
    """Matched accuracy by enumerating every injective cluster matching."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth)
    table = np.zeros((len(pred_ids), len(truth_ids)), dtype=np.int64)
    for p, t in zip(pred, truth):
        table[np.searchsorted(pred_ids, p), np.searchsorted(truth_ids, t)] += 1
    n_pred, n_truth = table.shape
    best = 0
    if n_pred <= n_truth:
        for cols in itertools.permutations(range(n_truth), n_pred):
            best = max(best, sum(table[r, c] for r, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n_pred), n_truth):
            best = max(best, sum(table[r, c] for c, r in enumerate(rows)))
    return 100.0 * best / len(pred)


def categorical_by_searchsorted(probs, u):
    """The index a uniform ``u`` draws from ``probs``: ``searchsorted`` over the cumulative sum,
    clamped to the last index."""
    return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)


_TENTHS = [0.1] * 10  # the running sum ends at 0.9999999999999999, below 1
# Pinned (probs, u) draws at the edges of a categorical draw.
CATEGORICAL_EDGES = [
    *[([0.0, 0.0, 1.0, 0.0], u) for u in (0.0, 0.5, 0.9999999999999999)],  # exact zeros, a lone 1.0
    *[([1.0], u) for u in (0.0, 0.3)],
    *[([0.25, 0.25, 0.5], u) for u in (0.0, 0.25, 0.5, 0.75)],  # u equal to a running sum
    *[([0.0, 0.25, 0.0, 0.75], u) for u in (0.0, 0.25)],
    *[(_TENTHS, u) for u in (0.9999999999999999, 0.9999999999999998)],  # u at the total and just below it
    ([0.5, 0.5 - 2**-53, 0.0], 0.9999999999999999),  # a total under u: the last index, though its p is 0
]


def choice_by_cdf(p, rng):
    """The index ``rng.choice(len(p), p=p)`` draws, from one ``rng.random()``: the normalized
    cumulative sum's ``searchsorted``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def plusplus_seeds_one_run(points, norms, hamming, k, rng):
    """k-means++ seed indices of one run, drawn one seed at a time: a seed's squared distances are
    its row of ``hamming`` or, without it, ``|x_r|^2 + |x_i|^2 - 2 x_r . x_i`` from the rows; each
    later seed is a weighted draw, or ``rng.integers`` once every distance is 0."""
    n = norms.shape[0]

    def distances_to(r):
        return hamming[r] if hamming is not None else norms + norms[r] - 2.0 * (points @ points[r])

    seeds = [rng.integers(n)]
    d2 = distances_to(seeds[0]).copy()
    for _ in range(1, k):
        total = d2.sum()
        seeds.append(choice_by_cdf(d2 / total, rng) if total > 0 else rng.integers(n))
        np.minimum(d2, distances_to(seeds[-1]), out=d2)
    return seeds


def dense_cluster_products(points, gram, labels, k):
    """``(cross, q)`` from the full one-hot product: ``cross = gram @ onehot`` (or the rows' product
    with the count table), ``q`` its sum over each cluster's members."""
    onehot = np.eye(k)[labels]
    cross = gram @ onehot if gram is not None else points @ (onehot.T @ points).T
    return cross, (onehot * cross).sum(axis=0)


def lloyd_by_dense_products(points, norms, gram, hamming, k, max_iters, rng):
    """One k-means++-seeded Lloyd run, (labels, WCSS), that seeds with ``plusplus_seeds_one_run``
    and takes every step's cluster products from the full one-hot product."""
    n = norms.shape[0]
    seeds = plusplus_seeds_one_run(points, norms, hamming, k, rng)

    def distances(cross, q, sizes):
        d2 = norms[:, None] - 2.0 * cross / sizes + q / (sizes * sizes)
        return np.maximum(d2, 0.0)

    d2 = hamming[:, seeds] if hamming is not None else distances(points @ points[seeds].T, norms[seeds], 1)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        new_labels = d2.argmin(axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        while (sizes == 0).any():
            empty = int(np.flatnonzero(sizes == 0)[0])
            own = d2[np.arange(n), new_labels].copy()
            own[sizes[new_labels] <= 1] = -1.0
            worst = int(own.argmax())
            sizes[new_labels[worst]] -= 1
            new_labels[worst] = empty
            sizes[empty] += 1
            d2[worst, :] = 0.0
        if np.array_equal(new_labels, labels):
            break
        cross, q = dense_cluster_products(points, gram, new_labels, k)
        labels = new_labels
        d2 = distances(cross, q, sizes)
    wcss = np.sort((sizes * np.bincount(labels, weights=norms, minlength=k) - q) / sizes).sum()
    return labels, float(wcss)
