"""Collapsed Beta-Bernoulli mixture with a Dirichlet-process seating prior.

Pure numerical functions for clustering binary data: closed-form predictive
likelihoods with the per-feature Bernoulli rates integrated out, Chinese
restaurant process priors over cluster choices, tempered assignment
distributions, and a joint partition score.

Everything in this module is a pure function of its inputs, apart from the
mutable :class:`ClusterState` a sampler run owns.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

# Option sentinel for "open a brand-new cluster" in APIs that otherwise take
# an integer cluster index.  A string, not -1, so it can never collide with
# (negative) array indexing.
NEW_CLUSTER = "new"

# Label held by an object while it is detached from a ClusterState.
UNASSIGNED = -1


class BinaryMatrix:
    """An N x D matrix of {0,1} feature indicators, validated on construction.

    The underlying array is stored as read-only ``uint8``; rows are objects,
    columns are features.
    """

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must have at least one row and one column, got shape {arr.shape}")
        if np.count_nonzero(arr == 0) + np.count_nonzero(arr == 1) != arr.size:  # one N x D temporary at a time
            i, j = np.argwhere((arr != 0) & (arr != 1))[0]
            raise ValueError(f"non-binary entry {arr[i, j]} at row {i}, column {j}")
        self.values = np.ascontiguousarray(arr, dtype=np.uint8)
        self.values.setflags(write=False)

    @property
    def n_objects(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]

    def column_sums(self):
        """Per-feature presence counts, length D."""
        return self.values.sum(axis=0, dtype=np.int64)

    def __repr__(self):
        return f"BinaryMatrix(n_objects={self.n_objects}, n_features={self.n_features})"


@dataclass(frozen=True, eq=False)
class Hyperparams:
    """Per-feature Beta shapes, shared across clusters, plus DP concentration.

    ``a[j]`` and ``b[j]`` are the presence/absence pseudo-counts of feature j.
    They apply to every cluster, including one that does not exist yet, which
    is what makes the new-cluster predictive well defined.

    Immutable, down to read-only copies of ``a`` and ``b``, and equal only
    to itself: the compiled visit kernel caches log terms per object.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: float

    def __post_init__(self):
        a = np.array(self.a, dtype=np.float64)
        b = np.array(self.b, dtype=np.float64)
        alpha = float(self.alpha)
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
            raise ValueError("a and b must be 1-d vectors of equal length")
        if not ((a > 0).all() and (b > 0).all()):
            raise ValueError("Beta shape parameters must be strictly positive")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("Beta shape parameters must be finite")
        if not alpha > 0:
            raise ValueError("alpha must be strictly positive")
        # joint_log_score takes the log-gamma of alpha, N + alpha and every
        # a_j + b_j + size_k, and math.lgamma overflows past ~2.5e305.  Adding a
        # count does not move a float that large, and log-gamma only grows above
        # 2, so the largest a_j + b_j is the one to check.
        if not _has_finite_lgamma(alpha):
            raise ValueError(f"alpha must be finite, with a finite log-gamma (below about 2.5e305), got {alpha}")
        with np.errstate(over="ignore"):  # a sum past the float range is inf, refused below
            total = a + b
        if total.size and not _has_finite_lgamma(total.max()):
            j = int(total.argmax())
            raise ValueError(
                f"a_j + b_j must have a finite log-gamma (below about 2.5e305), got {total[j]} for feature {j}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_features(self):
        return self.a.shape[0]


def _has_finite_lgamma(x):
    """Whether ``math.lgamma(x)`` is finite; it raises ``OverflowError`` past about 2.5e305."""
    try:
        return math.isfinite(math.lgamma(x))
    except OverflowError:
        return False


def _lgamma(x):
    """``math.lgamma`` of every element of the array ``x``, as float64 of the same shape.

    Each distinct value is scored once and scattered back: a count table
    repeats few values, and each call costs more than the sort.
    """
    values, inverse = np.unique(x, return_inverse=True)
    return np.fromiter(map(math.lgamma, values.tolist()), np.float64, values.size)[inverse].reshape(x.shape)


class ClusterState:
    """Cluster labels plus the sufficient statistics the model depends on.

    ``ClusterState(data, assignments)`` counts them from a full label vector,
    compacted to 0..K-1 in the sorted order of its distinct integer labels,
    and keeps ``data.values``: every call that passes the state a matrix
    accepts that array or an equal one, and refuses any other before a
    statistic changes.

    ``assignments[i]`` is the label of object i (``UNASSIGNED`` while an
    object is temporarily detached during a Gibbs update), ``sizes[k]`` the
    cluster cardinality, and ``feature_counts[k, j]`` the number of members
    of cluster k with feature j present.  Labels stay compact: every value
    in {0, ..., n_clusters - 1} owns at least one object.

    ``sizes`` and ``feature_counts`` are views of the first K rows of row
    buffers with spare capacity; row K is always all-zero, the statistics of
    a brand-new cluster.

    The state keeps statistics only.  Its first scoring, when the
    hyperparameters are known, chooses how its visits run for the state's
    life: in the compiled kernel of :mod:`binclust._kernel` where it can be
    built, otherwise in numpy, which scores with the plain formula.  The
    kernel keeps a log-term cache beside the row buffers, current on every
    row at all times; a scoring under another :class:`Hyperparams` object
    binds a fresh kernel.  Change the statistics only through
    :func:`~binclust.sampler.remove_object` and
    :func:`~binclust.sampler.insert_object`: the kernel updates the rows they
    touch, and an edit made any other way leaves its cache out of step
    (which :meth:`check_consistency` reports).
    """

    def __init__(self, data, assignments):
        labels = np.asarray(assignments)
        if labels.shape != (data.n_objects,):
            raise ValueError(f"expected {data.n_objects} labels, got shape {labels.shape}")
        # Not a cast: it would truncate floats and take bools and digit strings.
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        if (labels < 0).any():
            raise ValueError("all objects must be assigned (labels >= 0)")
        if data.values.dtype != np.uint8 or not data.values.flags.c_contiguous:  # what the kernel reads
            raise ValueError(f"expected a C-contiguous uint8 matrix, got {data.values.dtype}")
        self._values = data.values
        compact, sizes, counts = _count_table(labels, self._values)
        self.assignments = np.ascontiguousarray(compact, dtype=np.int64)
        self._k, d = counts.shape
        self._sizes = np.zeros(self._k + 2, dtype=np.int64)
        self._counts = np.zeros((self._k + 2, d), dtype=np.int64)
        self._sizes[: self._k] = sizes
        self._counts[: self._k] = counts
        # The compiled kernel bound to these arrays, a _kernel.Visit; False on
        # the numpy path, None until the first scoring chooses.
        self._visit = None

    def __getstate__(self):
        # A copy binds a kernel of its own at its first scoring: this one holds
        # the addresses of this state's arrays.
        return {**self.__dict__, "_visit": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._values.setflags(write=False)  # unpickled, the matrix is a fresh writeable array

    def __deepcopy__(self, memo):
        # The matrix is read-only, so a copy shares it and passes the identity
        # test of every visit; a matrix copied earlier in the same deep copy is
        # kept, so the copy stays bound to that copy's array.
        memo.setdefault(id(self._values), self._values)
        twin = memo[id(self)] = object.__new__(ClusterState)
        twin.__setstate__(copy.deepcopy(self.__getstate__(), memo))
        return twin

    @property
    def sizes(self):
        return self._sizes[: self._k]

    @property
    def feature_counts(self):
        return self._counts[: self._k]

    @property
    def n_clusters(self):
        return self._k

    def _check_values(self, values):
        """Refuse a matrix unequal to the state's; a visit tests identity inline before calling this."""
        shape = self._values.shape
        if values.shape != shape:
            raise ValueError(f"the data matrix has shape {values.shape}, the state covers (objects, features) {shape}")
        if values is not self._values and not np.array_equal(values, self._values):
            raise ValueError("the data matrix differs from the one the state was counted from")

    def _visit_kernel(self, hyper, data):
        """This state's compiled visit kernel, bound to ``hyper``; None on the numpy path.

        The first scoring chooses the path, for the state's life.  Hyperparameters
        of the wrong width are refused; others than the kernel's get a fresh one.
        """
        visit = self._visit
        if visit and hyper is visit.hyper:
            return visit
        _check_width(hyper, data)
        if visit is False:
            return None
        from . import _kernel

        lib = visit._lib if visit else _kernel.library()
        self._visit = visit = _kernel.Visit(lib, self, hyper) if lib else False
        return visit or None

    def _detach(self, i):
        """Take object ``i`` out of its cluster; return the old label.

        A cluster left empty is deleted: rows above it, the zero row
        included, shift down one place, and labels above it drop by one.
        """
        k = int(self.assignments[i])
        # A label outside 0..K-1 would send the update past the live rows.
        if not 0 <= k < self._k:
            raise ValueError(f"object {i} carries label {k}, outside 0..{self._k - 1}")
        if self._visit:
            self._visit.detach(i, k)
        else:
            self._sizes[k] -= 1
            self._counts[k] -= self._values[i]
            self.assignments[i] = UNASSIGNED
        if self._sizes[k] == 0:
            top = self._k
            for buf in (self._sizes, self._counts):
                buf[k:top] = buf[k + 1 : top + 1]
            if self._visit:
                self._visit.drop_row(k, top)
            self._k = top - 1
            self.assignments[self.assignments > k] -= 1
        return k

    def _attach(self, i, k):
        """Put detached object ``i`` into cluster ``k``; ``k == n_clusters``
        fills the zero row, opening a new cluster."""
        if self._visit:
            self._visit.attach(i, k)
        else:
            self._sizes[k] += 1
            self._counts[k] += self._values[i]
            self.assignments[i] = k
        if k == self._k:
            self._k = k + 1
            if k + 2 > self._sizes.shape[0]:
                self._grow()

    def _grow(self):
        """Double the row capacity; the new rows are zero."""
        self._sizes = np.concatenate([self._sizes, np.zeros_like(self._sizes)])
        self._counts = np.concatenate([self._counts, np.zeros_like(self._counts)])
        if self._visit:
            self._visit.bind_buffers(self)

    def check_consistency(self, data):
        """Verify every invariant against a from-scratch recount; raise on mismatch.

        Intended for tests and debugging, not for the sampling hot path.
        """
        self._check_values(data.values)
        assigned = self.assignments != UNASSIGNED
        if (self.assignments[assigned] >= self.n_clusters).any():
            raise ValueError("assignment label out of range")
        if self.sizes.sum() != assigned.sum():
            raise ValueError("cluster sizes do not sum to the number of assigned objects")
        if (self.sizes < 1).any():
            raise ValueError("empty cluster present; labels must be compact")
        _, sizes, counts = _count_table(self.assignments[assigned], self._values[assigned])
        if not np.array_equal(sizes, self.sizes):
            raise ValueError("sizes disagree with a recount over assignments")
        if not np.array_equal(counts, self.feature_counts):
            raise ValueError("feature counts disagree with a recount over assignments")
        if (self.feature_counts < 0).any() or (self.feature_counts > self.sizes[:, None]).any():
            raise ValueError("feature counts outside [0, cluster size]")
        if self._sizes[self._k :].any() or self._counts[self._k :].any():
            raise ValueError("statistics rows from n_clusters up must be zero")
        if self._visit:
            self._visit.check()


def _count_table(labels, rows):
    """Compact labels, sizes (K,) and K x D int64 count table of the {0,1} ``rows``.

    Labels are renumbered 0..K-1 in the sorted order of their distinct values.
    Each cluster's ``uint8`` rows are summed in int64: no int64 copy of ``rows``.
    """
    _, compact, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    # Split after every cluster and drop the empty tail, so no labels give no clusters.
    members = np.split(np.argsort(compact, kind="stable"), np.cumsum(sizes))[:-1]
    counts = np.empty((sizes.shape[0], rows.shape[1]), dtype=np.int64)
    for k, rows_k in enumerate(members):
        counts[k] = rows[rows_k].sum(axis=0, dtype=np.int64)
    return compact, sizes, counts


def default_hyperparams(data, alpha=1.0):
    """Unit presence shapes and absence shapes estimated from column sparsity.

    ``a_j = 1`` for every feature and ``b_j = N / column_sum_j``, clamped to
    [1, N], so the prior mean ``a_j / (a_j + b_j)`` tracks the empirical
    frequency of feature j.  An all-zero column lands on the sparse end of
    the clamp (prior mean 1 / (1 + N)).
    """
    n = data.n_objects
    sums = data.column_sums()
    a = np.ones(data.n_features, dtype=np.float64)
    b = np.clip(n / np.maximum(sums, 1), 1.0, float(n))
    return Hyperparams(a=a, b=b, alpha=alpha)


def _log_predictives(x, sizes, counts, hyper):
    """Collapsed predictive log-likelihood of row ``x`` under each of K clusters,
    given their sizes (K,) and feature counts (K, D); a zero row is a new cluster."""
    numer = np.where(x == 1, hyper.a + counts, hyper.b + (sizes[:, None] - counts))
    return np.log(numer).sum(axis=1) - np.log(hyper.a + hyper.b + sizes[:, None]).sum(axis=1)


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    # A plain int, what every visit passes, is answered by the first test.
    return type(value) is int or (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


def _check_index(value, n, name):
    """``value`` as an int, refused unless it is an integer in [0, n)."""
    if not (_is_integer(value) and 0 <= value < n):
        raise ValueError(f"{name} must be an integer in [0, {n}), got {value!r}")
    return int(value)


def _check_object(i, state):
    return _check_index(i, state.assignments.shape[0], "object index")


def _check_option(option, n_clusters):
    """The row a cluster option seats an object in: ``n_clusters`` for ``NEW_CLUSTER``,
    else the option itself, refused unless it is an integer in [0, n_clusters)."""
    if isinstance(option, str) and option == NEW_CLUSTER:
        return n_clusters
    return _check_index(option, n_clusters, f"a cluster option other than {NEW_CLUSTER!r}")


def _check_width(hyper, data):
    if hyper.n_features != data.n_features:
        raise ValueError(f"hyperparameters cover {hyper.n_features} features, the data has {data.n_features}")


def _log_seating_weights(sizes, alpha):
    """Unnormalized log seating weights: each cluster's size, then ``alpha`` for a new one."""
    weights = np.empty(sizes.shape[0] + 1, dtype=np.float64)
    weights[:-1] = sizes
    weights[-1] = alpha
    return np.log(weights)


def log_predictive(x, counts, hyper):
    """Log probability of one binary row under a cluster's posterior predictive.

    ``counts`` is a ``(size, feature_count_row)`` pair for an existing
    cluster, or ``None`` for a brand-new (empty) one.  With the Bernoulli
    rates integrated out against their Beta posteriors, each feature
    contributes a Beta-function ratio that collapses to a count ratio:
    ``(a_j + n_jk) / (a_j + b_j + n_k)`` where the feature is present and
    ``(b_j + n_k - n_jk) / (a_j + b_j + n_k)`` where it is absent.
    """
    x = np.asarray(x)
    if x.shape != hyper.a.shape:
        raise ValueError(f"row has {x.shape} entries, hyperparameters have {hyper.a.shape}")
    if counts is None:
        size = 0
        fcounts = np.zeros_like(hyper.a)
    else:
        size, fcounts = counts
        fcounts = np.asarray(fcounts)
        if (fcounts < 0).any() or (fcounts > size).any():
            raise ValueError("inconsistent counts: feature counts must lie in [0, cluster size]")
    return float(_log_predictives(x, np.array([size]), fcounts[None, :], hyper)[0])


def crp_log_prior(option, leave_one_out_sizes, n_total, alpha):
    """Log prior probability of seating one object at a cluster option.

    ``option`` is an existing cluster index or ``NEW_CLUSTER``.  Sizes are
    leave-one-out (the object being seated excluded) and must sum to
    ``n_total - 1``.  An existing cluster attracts with weight equal to its
    size, a new cluster with weight ``alpha``; both are normalized by
    ``n_total - 1 + alpha``.

    These are the limiting conditionals of a finite symmetric mixture with
    weight ``(size_k + alpha/K) / (n_total - 1 + alpha)`` per component as
    the number of components grows without bound: the ``alpha/K`` crumbs
    pool into the single new-cluster option.  Only this limit is used at
    runtime.
    """
    sizes = np.asarray(leave_one_out_sizes, dtype=np.int64)
    if sizes.sum() != n_total - 1:
        raise ValueError("leave-one-out sizes must sum to n_total - 1")
    k = _check_option(option, sizes.shape[0])
    if k < sizes.shape[0] and sizes[k] == 0:
        raise ValueError("an empty cluster must not be offered as an existing option")
    return float(_log_seating_weights(sizes, alpha)[k] - np.log(n_total - 1 + alpha))


def assignment_distribution(i, state, data, hyper, temperature):
    """Tempered posterior over the cluster options for a detached object.

    ``state`` must already exclude object ``i`` from its statistics.  The
    returned vector has one entry per existing cluster plus a final entry
    for a new cluster.  Entry k is proportional to
    ``size_k * exp(loglik_k / T)`` and the last to
    ``alpha * exp(loglik_new / T)``; the seat-count prior stays untempered
    while the data likelihood is raised to 1/T.  At T = 1 this is exactly
    the collapsed posterior; as T -> 0 it concentrates on the option with
    the highest predictive likelihood.  The likelihoods are shifted by
    their maximum before the division by T, so the best option stays
    finite at any T > 0, and the weights are normalized after a second
    max-shift so the result always sums to one.

    The numpy path scores with the plain :func:`_log_predictives`, the
    reference the tests hold the compiled kernel of :mod:`binclust._kernel`
    to; where the kernel can be built it takes the same steps from the log
    terms it caches.
    """
    if not temperature > 0:
        raise ValueError("temperature must be strictly positive")
    i = _check_object(i, state)
    if state.assignments[i] != UNASSIGNED:
        raise ValueError(f"object {i} must be detached from the state first")
    # np.add.reduce, not .sum(): the check runs on every visit, and .sum()
    # adds a Python-level wrapper around the same reduction.
    if np.add.reduce(state.sizes) != state.assignments.shape[0] - 1:
        raise ValueError("state statistics must cover exactly the other n - 1 objects")
    if data.values is not state._values:
        state._check_values(data.values)
    visit = state._visit_kernel(hyper, data)
    if visit:
        return visit.distribution(i, state.n_clusters + 1, temperature)
    # Rows 0..K-1 are the existing clusters and row K, all-zero, the new one.
    top = state.n_clusters + 1
    loglik = _log_predictives(state._values[i], state._sizes[:top], state._counts[:top], hyper)
    loglik -= loglik.max()
    # At a cold T a worse option's shifted likelihood overflows to -inf,
    # which is its exact weight of zero.
    with np.errstate(over="ignore"):
        log_weights = _log_seating_weights(state.sizes, hyper.alpha) + loglik / temperature
    log_weights -= log_weights.max()
    probs = np.exp(log_weights)
    probs /= probs.sum()
    return probs


def joint_log_score(state, data, hyper):
    """Log of the unnormalized posterior of a full partition.

    Combines the exchangeable seating prior,
    ``K log(alpha) + sum_k log Gamma(size_k) - log(Gamma(N + alpha) / Gamma(alpha))``,
    with each cluster's integrated Bernoulli evidence,
    ``sum_j [log B(a_j + n_jk, b_j + size_k - n_jk) - log B(a_j, b_j)]``.
    Invariant under relabeling of clusters and strictly comparable across
    partitions of the same data, which is what makes it usable both as an
    annealing monitor and as an exhaustive-search oracle.

    Each log-Beta is expanded into three stdlib ``math.lgamma`` terms,
    ``log B(x, y) = lgamma(x) + lgamma(y) - lgamma(x + y)``.  At the default
    shapes (``a = 1``, ``b <= N``) the score matches scipy's ``betaln`` to
    about 1e-16 relative.  At large shapes, where ``betaln`` cancels the
    large terms analytically, each cell's error stays within three ulps of
    ``lgamma(a_j + b_j + size_k)`` (two rounded log-gammas and their rounded
    sum; one ulp is 3.9e-3 at ``a = 1e12``, ``b = 1``), and the score's within
    that summed over its K x D cells plus the K x D prior terms, three ulps
    of ``lgamma(a_j + b_j)`` each.
    """
    state._check_values(data.values)
    if state.sizes.sum() != data.n_objects:
        raise ValueError("state must cover every object")
    _check_width(hyper, data)
    sizes = state.sizes
    counts = state.feature_counts
    a, b = hyper.a, hyper.b
    k = state.n_clusters
    alpha = hyper.alpha
    n = data.n_objects
    evidence = _lgamma(a + counts) + _lgamma(b + (sizes[:, None] - counts)) - _lgamma(a + b + sizes[:, None])
    per_cluster = _lgamma(sizes) + evidence.sum(axis=1)
    # Summing in sorted order makes the result bit-identical under any
    # relabeling of the clusters.
    cluster_total = np.sort(per_cluster).sum()
    log_beta_prior = (_lgamma(a) + _lgamma(b) - _lgamma(a + b)).sum()
    return float(
        k * math.log(alpha) - (math.lgamma(n + alpha) - math.lgamma(alpha)) - k * log_beta_prior + cluster_total
    )
