"""Collapsed Beta-Bernoulli mixture with a Dirichlet-process seating prior.

Pure numerical functions for clustering binary data: closed-form predictive
likelihoods with the per-feature Bernoulli rates integrated out, Chinese
restaurant process priors over cluster choices, tempered assignment
distributions, and a joint partition score.

Everything in this module is a pure function of its inputs, apart from the
mutable :class:`ClusterState` a sampler run owns and the two visit steps
that change it, :func:`remove_object` and :func:`insert_object`.
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
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
            raise ValueError("a and b must be 1-d vectors of equal length")
        if not ((a > 0).all() and (b > 0).all()):
            raise ValueError("Beta shape parameters must be strictly positive")
        alpha = _check_positive(self.alpha, "alpha")
        with np.errstate(over="ignore"):  # an infinite shape, or a sum past the float range
            finite_sums = np.isfinite(a + b)
        if not finite_sums.all():
            j = int(finite_sums.argmin())
            raise ValueError(f"a_j + b_j must be finite, got {a[j]} + {b[j]} for feature {j}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_features(self):
        return self.a.shape[0]


_INT_MAX = 2**63 - 1


def _check_int(value, name, low, high=None):
    """``value`` as an int, refused unless it is a Python or numpy integer (a bool
    is not one) in ``[low, high]``.  Without ``high``, ``low`` is 0 or 1 and the
    bound is the int64 maximum: no count, seed or index has a use past it."""
    top = _INT_MAX if high is None else high
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and low <= value <= top:
        return int(value)
    rule = f"an integer in [{low}, {high}]" if high is not None else "a positive integer" if low else "a non-negative integer"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_positive(value, name, below=math.inf):
    """``value`` as a float, refused unless it is a real number in (0, ``below``),
    by default finite and strictly positive.  A bool or a string is refused, not
    converted: ``float`` would take ``True`` as 1 and ``"2"`` as 2."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not 0 < value < below:
        rule = "be finite and strictly positive" if below == math.inf else f"lie strictly between 0 and {below:g}"
        raise ValueError(f"{name} must {rule}, got {value}")
    return value


# Where _log_rising turns from two log-gammas to their Stirling difference.
_STIRLING_FROM = 2.0**7


def _log_rising(x, m):
    """``lgamma(x + m) - lgamma(x)``, the log of ``x (x + 1) ... (x + m - 1)``, for
    positive ``x`` and integer counts ``m >= 0``, broadcast; a float where both are 0-d.

    Below ``_STIRLING_FROM`` it takes the two log-gammas, each distinct value
    scored once.  From there up, where they would cancel (at ``x = 1e300`` both
    round to one float), it takes the difference of their Stirling series,
    ``(x - 1/2) log1p(m / x) + m log(x + m) - m + c(1 / (x + m)) - c(1 / x)``
    with ``c(t) = t / 12 - t**3 / 360``.  The error is below ``2**-48 s + t``:
    ``s`` is the size of the terms formed, ``|lgamma(x)| + |lgamma(x + m)| + 2``
    below the switch (``math.lgamma`` is within 11 ulps of ``|lgamma| + 1``
    against a 40-digit reference) and ``m (log(x + m) + 1)`` from it up; ``t``,
    the truncation, is 0 below and under ``1 / (1260 x**5)`` from it up.  The
    switch sits where the two errors meet: an ulp of ``lgamma(2**7)`` is 5.7e-14,
    and the truncation there is below 2.3e-14.
    """
    x = np.asarray(x, dtype=np.float64)
    if (x < _STIRLING_FROM).all():
        return (_lgamma(x + m) - _lgamma(x))[()]
    x, m = np.broadcast_arrays(x, m)
    low = x < _STIRLING_FROM
    rise = np.empty(x.shape)
    rise[low] = _lgamma(x[low] + m[low]) - _lgamma(x[low])
    x, m = x[~low], m[~low]
    y = x + m
    tail = (1 / y - 1 / x) / 12 - (y**-3 - x**-3) / 360
    rise[~low] = (x - 0.5) * np.log1p(m / x) + m * np.log(y) - m + tail
    return rise[()]


def _lgamma(x):
    """``math.lgamma`` of every element of the array ``x``, as float64 of the same shape.

    Each distinct value is scored once and scattered back: a count table
    repeats few values, and each call costs more than the sort.  A 0-d ``x``,
    as in the seating prior's bracket, takes the same path.
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

    The state keeps statistics only.  Its visits run in the compiled kernel
    of :mod:`binclust._kernel` where it can be built, otherwise in numpy,
    which scores with the plain formula.  The kernel keeps a log-term cache
    beside the row buffers, current on every row at all times.  Scoring binds
    it, and growth drops it (:mod:`binclust._kernel` gives the rule).  Change
    the statistics only through :func:`remove_object` and
    :func:`insert_object`, the visit steps below: the kernel updates the rows
    they touch, and an edit made any other way leaves its cache out of step
    (which :meth:`check_consistency` reports).
    """

    def __init__(self, data, assignments):
        labels = np.asarray(assignments)
        if labels.shape != (data.n_objects,):
            raise ValueError(f"expected {data.n_objects} labels, got shape {labels.shape}")
        _check_counts(labels, "labels")
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
        # The compiled kernel bound to these arrays, a _kernel.Visit; None on
        # the numpy path and until the first scoring.
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
        """Refuse a matrix unequal to the state's."""
        shape = self._values.shape
        if values.shape != shape:
            raise ValueError(f"the data matrix has shape {values.shape}, the state covers (objects, features) {shape}")
        if values is not self._values and not np.array_equal(values, self._values):
            raise ValueError("the data matrix differs from the one the state was counted from")

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
        if (self.feature_counts < 0).any() or (self.feature_counts > self.sizes[:, None]).any():
            raise ValueError("feature counts outside [0, cluster size]")
        if not np.array_equal(counts, self.feature_counts):
            raise ValueError("feature counts disagree with a recount over assignments")
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


def _check_option(option, n_clusters):
    """The row a cluster option seats an object in: ``n_clusters`` for ``NEW_CLUSTER``,
    else the option itself, refused unless it is an integer in [0, n_clusters - 1]."""
    if isinstance(option, str) and option == NEW_CLUSTER:
        return n_clusters
    return _check_int(option, f"a cluster option other than {NEW_CLUSTER!r}", 0, n_clusters - 1)


def _check_counts(values, name):
    """``values`` as an array, refused unless its dtype is an integer one (not a
    cast: it would truncate floats and take bools) and no entry is below 0."""
    counts = np.asarray(values)
    if not (np.issubdtype(counts.dtype, np.integer) or counts.size == 0) or (counts < 0).any():
        raise ValueError(f"{name} must be of an integer type and at least 0, got {counts}")
    return counts


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
    ``(b_j + n_k - n_jk) / (a_j + b_j + n_k)`` where it is absent.  A row
    entry other than 0 or 1, and a size or count that is not an integer of at
    least 0, are refused.
    """
    x = np.asarray(x)
    if x.shape != hyper.a.shape:
        raise ValueError(f"row has {x.shape} entries, hyperparameters have {hyper.a.shape}")
    x = BinaryMatrix(x[None]).values[0]  # refuses an entry other than 0 or 1
    if counts is None:
        size = 0
        fcounts = np.zeros_like(hyper.a)
    else:
        size, fcounts = counts
        size = _check_counts(size, "the cluster size")
        fcounts = _check_counts(fcounts, "feature counts")
        if (fcounts > size).any():
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
    runtime.  Sizes must be integers of at least 0, and ``alpha`` finite and
    strictly positive, as in :class:`Hyperparams`.
    """
    sizes = _check_counts(leave_one_out_sizes, "leave-one-out sizes")
    alpha = _check_positive(alpha, "alpha")
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
    visit = state._visit
    top = state._k + 1  # rows 0..K-1 are the existing clusters and row K, all-zero, the new one
    # The kernel checks the object, the temperature and the coverage itself, and
    # refuses with False, changing nothing, for the checks below to name why.
    if visit and type(i) is int and hyper is visit.hyper and data.values is state._values:
        if visit.distribution(i, top, temperature):
            return visit.probs[:top].copy()
    if not temperature > 0:
        raise ValueError("temperature must be strictly positive")
    i = _check_int(i, "object index", 0, state.assignments.shape[0] - 1)
    if state.assignments[i] != UNASSIGNED:
        raise ValueError(f"object {i} must be detached from the state first")
    state._check_values(data.values)
    if not (visit and hyper is visit.hyper):  # no kernel for these hyperparameters and buffers yet, or the numpy path
        _check_width(hyper, data)
        from . import _kernel

        lib = _kernel.library()
        visit = state._visit = _kernel.Visit(lib, state, hyper) if lib else None
    uncovered = "state statistics must cover exactly the other n - 1 objects"
    if visit:
        if not visit.distribution(i, top, temperature):  # every other refusal was checked above
            raise ValueError(uncovered)
        return visit.probs[:top].copy()
    if state.sizes.sum() != state.assignments.shape[0] - 1:
        raise ValueError(uncovered)
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


def remove_object(state, i, data):
    """Detach object ``i`` from the state, in place; returns its old label.

    If the source cluster becomes empty it is deleted: rows above it, the
    zero row included, shift down one place, and labels above it drop by
    one, keeping the label set compact.
    """
    visit = state._visit
    # The kernel checks the object and its label itself and compacts a death: 2k + 1 if
    # row k died, else 2k; it refuses with -1, changing nothing, for the checks below.
    done = visit.detach(i, state._k) if visit and type(i) is int and data.values is state._values else -1
    if done < 0:
        i = _check_int(i, "object index", 0, state.assignments.shape[0] - 1)
        k = int(state.assignments[i])
        if k == UNASSIGNED:
            raise ValueError(f"object {i} is already detached")
        state._check_values(data.values)
        # A label outside 0..K-1 would send the update past the live rows.
        if not 0 <= k < state._k:
            raise ValueError(f"object {i} carries label {k}, outside 0..{state._k - 1}")
        if not visit:
            state._sizes[k] -= 1
            state._counts[k] -= state._values[i]
            state.assignments[i] = UNASSIGNED
            if state._sizes[k] == 0:
                top = state._k
                for buf in (state._sizes, state._counts):
                    buf[k:top] = buf[k + 1 : top + 1]
                state._k = top - 1
                state.assignments[state.assignments > k] -= 1
            return k
        done = visit.detach(i, state._k)
    state._k -= done & 1
    return done >> 1


def insert_object(state, i, option, data):
    """Attach detached object ``i`` to an existing cluster or a new one, in place; returns None.

    ``option`` is an existing cluster index or ``NEW_CLUSTER``; a new cluster
    takes the next free label (the current cluster count) and fills the zero
    row.  A birth that would leave no zero row above it first doubles the
    row capacity, and the state drops its kernel.
    """
    visit = state._visit
    if option is NEW_CLUSTER:
        k = state._k
    else:  # an int option is an existing cluster: row K is named by NEW_CLUSTER alone
        k = option if type(option) is int and option < state._k else None
    # The kernel checks the object and the row itself, and refuses a birth into
    # the last row; it refuses with False, changing nothing, for the code below.
    if not (visit and type(i) is type(k) is int and data.values is state._values and visit.attach(i, k, state._k)):
        i = _check_int(i, "object index", 0, state.assignments.shape[0] - 1)
        if state.assignments[i] != UNASSIGNED:
            raise ValueError(f"object {i} is already assigned")
        k = _check_option(option, state._k)
        state._check_values(data.values)
        if k + 2 > state._sizes.shape[0]:  # only a birth into the last row leaves no zero row above it
            state._sizes = np.concatenate([state._sizes, np.zeros_like(state._sizes)])
            state._counts = np.concatenate([state._counts, np.zeros_like(state._counts)])
            state._visit = None
        if state._visit:
            state._visit.attach(i, k, state._k)
        else:
            state._sizes[k] += 1
            state._counts[k] += state._values[i]
            state.assignments[i] = k
    if k == state._k:
        state._k = k + 1


def joint_log_score(state, data, hyper):
    """Log of the unnormalized posterior of a full partition.

    Combines the exchangeable seating prior,
    ``K log(alpha) + sum_k log Gamma(size_k) - log(Gamma(N + alpha) / Gamma(alpha))``,
    with each cluster's integrated Bernoulli evidence,
    ``sum_j [log B(a_j + n_jk, b_j + size_k - n_jk) - log B(a_j, b_j)]``.
    Invariant under relabeling of clusters and strictly comparable across
    partitions of the same data, which is what makes it usable both as an
    annealing monitor and as an exhaustive-search oracle.

    Every log-gamma ratio in it is a bracket ``rise(x, m) = lgamma(x + m) -
    lgamma(x)`` of :func:`_log_rising`: the score is ``K log(alpha) - rise(alpha, N)
    + sum_k [lgamma(size_k) + sum_j (rise(a_j, n_jk) + rise(b_j, size_k - n_jk)
    - rise(a_j + b_j, size_k))]``, and no log-gamma of alpha or of a large shape
    is formed.  Each bracket is within ``2**-48 s + t``, ``t`` being 0 below the
    switch point ``_STIRLING_FROM = 2**7``, so the score is within ``2**-45 S + T``
    (the factor of 8 covers the sums): ``S`` adds every ``s``, ``|lgamma(size_k)|
    + 1`` per cluster and ``K |log(alpha)|``, and ``T`` every ``t``.  Relative to
    ``S`` that is 2.8e-14, at any shapes and alpha that :class:`Hyperparams` accepts.
    """
    state._check_values(data.values)
    if state.sizes.sum() != data.n_objects:
        raise ValueError("state must cover every object")
    _check_width(hyper, data)
    a, b, counts = hyper.a, hyper.b, state.feature_counts
    sizes = state.sizes[:, None]
    evidence = _log_rising(a, counts) + _log_rising(b, sizes - counts) - _log_rising(a + b, sizes)
    per_cluster = _lgamma(state.sizes) + evidence.sum(axis=1)
    # Summing in sorted order makes the result bit-identical under any
    # relabeling of the clusters.
    cluster_total = np.sort(per_cluster).sum()
    return float(state.n_clusters * math.log(hyper.alpha) - _log_rising(hyper.alpha, data.n_objects) + cluster_total)
